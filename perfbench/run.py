"""Benchmark of the varkg command line, end to end and layer by layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--out FILE]

Run from the root of a source checkout; the package is imported from
src/ (nothing is installed).  Each pass over a workload runs its
commands one at a time as fresh `python perfbench/child.py` processes
(closed loop, one client), checks every output, and derives exact
counts from outputs and inputs.  One untimed warm-up pass, made with a
second workload seed, fills the bytecode cache; its seed-independent
counts must equal those of the timed passes.  Passes repeat until
--seconds have elapsed and every metric is the median over passes.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced passes and reports its per-layer
metrics, with the tracing overhead as traced minus untraced solve_s.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Bytecode caches, command outputs and logs go to .bench_work/
in the checkout and the outputs are deleted after their check.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__

import layers  # noqa: E402
import workloads  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".bench_work")
SOURCE = os.path.join(ROOT, "src", "varkg")
COMMAND_TIMEOUT_S = 100  # a run must end within 180 s


class CommandTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise CommandTimeout(f"a command ran longer than {COMMAND_TIMEOUT_S} s")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env():
    env = dict(os.environ)
    env.pop("VARKG_OUTDIR", None)  # it would override --outdir
    # with a cache prefix, every module (numpy and scipy too) is compiled
    # into it; the warm-up pass must be able to write it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update({
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "PYTHONPYCACHEPREFIX": os.path.join(WORK, "pycache"),
        "PYTHONHASHSEED": "0",
        # one client, no threads beyond the process
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def spawn(argv, outdir, trace, env):
    """Run one CLI command as a fresh process; returns (status, wall s, rss bytes, result)."""
    result_path = outdir + ".result.json"
    cmd = [sys.executable, CHILD, result_path, "1" if trace else "0", *argv, "--outdir", outdir]
    with open(outdir + ".log", "w") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        signal.alarm(COMMAND_TIMEOUT_S)
        try:
            # os.wait4, unlike Popen.wait, returns the child's resource usage
            _, wait_status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - started
    proc.returncode = status = os.waitstatus_to_exitcode(wait_status)
    try:
        with open(result_path) as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        result = None
    return status, wall, usage.ru_maxrss * 1024, result


class Pass:
    """One pass over a workload: its end-to-end samples, outcome and spans."""

    def __init__(self, workload, seed, trace, env, run_dir):
        self.wall_s = self.setup_s = self.solve_s = 0.0
        self.peak_rss = 0
        self.imports = set()
        span_totals = []
        runs = []
        for label, argv in workloads.commands(workload, seed):
            outdir = tempfile.mkdtemp(prefix=f"{workload}-{label}-", dir=run_dir)
            status, wall, rss, result = spawn(argv, outdir, trace, env)
            self.wall_s += wall
            self.peak_rss = max(self.peak_rss, rss)
            if result is None:
                status = status or 1  # no timing record: count the command as failed
            else:
                self.setup_s += result["setup_s"]
                self.solve_s += result["solve_s"]
                self.imports.add((result["modules"], result["scipy_modules"]))
                if trace:
                    span_totals.append(layers.span_totals(result.get("spans", [])))
            runs.append((label, argv, status, outdir))
        self.outcome = workloads.check(workload, runs)
        for _, _, _, outdir in runs:
            shutil.rmtree(outdir, ignore_errors=True)
        self.totals = layers.merge(span_totals) if trace else None

    def end_to_end(self):
        return {"wall_s": self.wall_s, "setup_s": self.setup_s, "solve_s": self.solve_s,
                "peak_rss_mb": self.peak_rss / 1e6}

    def per_layer(self):
        out = layers.metrics(self.totals, self.outcome.counts)
        modules, scipy_modules = max(self.imports) if self.imports else (0, 0)
        out["import.modules"] = modules
        out["import.scipy_modules"] = scipy_modules
        out["trace.solve_s"] = self.solve_s
        return out

    def trace_checks(self):
        checks = layers.consistency(self.totals, self.outcome.counts)
        self_sum = sum(layers.layer_self(self.totals).values())
        checks.append(("trace self-time sum",
                       abs(self_sum - self.solve_s) <= 1e-9 * max(self.solve_s, 1e-3),
                       f"layer self times {self_sum:.6f} s, traced solve_s {self.solve_s:.6f} s"))
        return checks


def tail(samples):
    """(percentile, value) of the highest percentile with at least ten samples
    beyond it, or None below eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def summarize(samples, unit):
    entry = {"median": statistics.median(samples), "unit": unit, "n": len(samples),
             "samples": samples}
    found = tail(samples)
    entry["tail_pct"], entry["tail_value"] = found if found else (None, None)
    return entry


def run_workload(workload, seed, seconds, trace, env, spec):
    run_dir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        warm = Pass(workload, seed + 1, False, env, run_dir)
        timed, traced = [], []
        deadline = time.perf_counter() + seconds
        while not timed or time.perf_counter() < deadline:
            timed.append(Pass(workload, seed, False, env, run_dir))
            if trace:
                traced.append(Pass(workload, seed, True, env, run_dir))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    passes = timed + traced
    verdicts = [(f"warm-up (seed {seed + 1}): {label}", ok, detail)
                for label, ok, detail in warm.outcome.verdicts if not ok]
    for i, p in enumerate(passes):
        verdicts += [(label, ok, detail) for label, ok, detail in p.outcome.verdicts
                     if i == 0 or not ok]
    first = timed[0].outcome.counts
    same = all(p.outcome.counts == first for p in passes)
    verdicts.append(("counts repeat across passes", same,
                     f"{len(passes)} passes at seed {seed}"))
    invariant = {k: v for k, v in first.items() if k not in workloads.SEED_DEPENDENT}
    warm_invariant = {k: v for k, v in warm.outcome.counts.items()
                      if k not in workloads.SEED_DEPENDENT}
    verdicts.append(("counts repeat across seeds", invariant == warm_invariant,
                     f"seeds {seed} and {seed + 1}"))
    imports = set().union(*(p.imports for p in passes))
    verdicts.append(("import counts repeat", len(imports) <= 1, f"{sorted(imports)}"))

    result = {
        "workload": workload, "seed": seed,
        "trace": int(trace), "passes": len(timed), "counts": first,
        "attempted": sum(p.outcome.attempted for p in timed),
        "failed": sum(p.outcome.failed for p in timed),
    }
    if trace:
        per = [p.per_layer() for p in traced]
        count_keys = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "B")]
        verdicts.append(("traced counts repeat across passes",
                         all({k: m[k] for k in count_keys} == {k: per[0][k] for k in count_keys}
                             for m in per), f"{len(per)} traced passes"))
        for p in traced:
            verdicts += [(label, ok, detail) for label, ok, detail in p.trace_checks()
                         if p is traced[0] or not ok]
        untraced_solve = statistics.median(p.solve_s for p in timed)
        for m in per:
            m["trace.overhead_s"] = m["trace.solve_s"] - untraced_solve
        result["metrics"] = {m["name"]: summarize([p[m["name"]] for p in per], m["unit"])
                             for m in spec["per_layer"]}
    else:
        samples = [p.end_to_end() for p in timed]
        result["metrics"] = {m["name"]: summarize([s[m["name"]] for s in samples], m["unit"])
                             for m in spec["end_to_end"]}
    result["verdicts"] = verdicts
    result["correct"] = all(ok for _, ok, _ in verdicts)
    return result


def environment():
    commit = None
    if shutil.which("git") and os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SOURCE):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def report(result):
    fails = result["failed"]
    tried = result["attempted"]
    print(f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"passes {result['passes']}  checks {'PASS' if result['correct'] else 'FAIL'}  "
          f"fail_frac {fails}/{tried} = {fails / tried:.6g}")
    for label, ok, detail in result["verdicts"]:
        print(f"   [{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    for name, m in result["metrics"].items():
        tail_text = (f"p{m['tail_pct']:.1f} {m['tail_value']:.6g}" if m["tail_pct"] is not None
                     else "tail n/a (n<11)")
        print(f"   {name:44s} {m['median']:>14.6g} {m['unit']:6s} median  {tail_text}  "
              f"n={m['n']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="how long to measure (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result, with environment, as JSON")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SOURCE, "cli.py")):
        print(f"run.py: no varkg sources under {SOURCE}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    known = [w["name"] for w in spec["workloads"]]
    names = known if args.workload == "all" else [args.workload]
    if names[0] not in known:
        print(f"run.py: unknown workload {names[0]!r}; choose from {known}", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)
    # on termination, unwind so the running command is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env_info = environment()
    print("environment: " + json.dumps(env_info, sort_keys=True))
    env = child_env()
    try:
        results = [run_workload(name, args.seed, seconds, args.trace == 1, env, spec)
                   for name in names]
    except CommandTimeout as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 3
    for result in results:
        report(result)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"environment": env_info, "args": vars(args), "results": results},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")

    def key(result, name):
        return name if len(results) == 1 else f"{result['workload']}.{name}"

    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {key(r, name): {"value": m["median"], "unit": m["unit"]}
                    for r in results for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
