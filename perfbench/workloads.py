"""The four benchmark workloads: their commands, output checks and exact counts.

Each workload is a fixed list of `varkg` commands run one after another
as fresh processes.  Its check reads the files the commands wrote and
returns the operations attempted and failed, one verdict per check, and
the exact counts derived from outputs and inputs (evolution steps and
records, terminations, projection attempts and failures, bytes written).
Reference values live in references.json next to this file.
"""

import csv
import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "references.json")) as _fh:
    REFERENCES = json.load(_fh)

COMMON = ("--p", "3", "--omega", "0")

# evolution settings the step and record counts are derived from; they
# mirror the CLI defaults and evolution.evolve's step and stride rules
DEFAULT_CFL = 0.4
RECORD_INTERVAL = 0.05
TERMINATIONS = ("ReachedTmax", "BlowupDetected", "NonFinite", "BoundaryContamination")

# counts that may legitimately differ between workload seeds
SEED_DEPENDENT = {"cli.out_bytes"}


def commands(workload, seed):
    """The workload's commands as (label, argv) pairs, without --outdir."""
    if workload == "shoot":
        return [
            ("N2-M4000", ["ground-state", "--N", "2", *COMMON, "--R", "40", "--M", "4000"]),
            ("N2-M8000", ["ground-state", "--N", "2", *COMMON, "--R", "40", "--M", "8000"]),
            ("N3-M3000", ["ground-state", "--N", "3", *COMMON, "--R", "30", "--M", "3000",
                          "--bracket-lo", "3", "--bracket-hi", "6"]),
        ]
    if workload == "verify_1d":
        return [
            (f"alpha{a}-beta{b}", ["verify-theorem1", "--N", "1", *COMMON, "--alpha", a,
                                   "--beta", b, "--family-size", "200", "--seed", str(seed)])
            for a, b in (("1", "0"), ("1", "-2"))
        ]
    if workload == "evolve_long":
        return [("lambda0.95-mu0.95",
                 ["evolve", *COMMON, "--R", "80", "--M", "4000", "--lambda", "0.95",
                  "--mu", "0.95", "--tmax", "40", "--cfl", "0.1"])]
    if workload == "instability_sweep":
        return [("grid4x2",
                 ["instability-sweep", *COMMON, "--R", "80", "--M", "4000", "--tmax", "40",
                  "--lambda-grid", "0.9,0.95,1.05,1.1", "--mu-grid", "1.0,1.05"])]
    raise KeyError(workload)


def _flag(argv, name, default=None):
    return float(argv[argv.index(name) + 1]) if name in argv else default


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _evolution_counts(argv, t_final):
    """(steps, records) of one evolution, from its inputs and final time."""
    cells = int(_flag(argv, "--M"))
    spacing = _flag(argv, "--R") / cells
    t_max = _flag(argv, "--tmax")
    cfl = _flag(argv, "--cfl", DEFAULT_CFL)
    n_steps = max(1, math.ceil(t_max / (cfl * spacing)))
    dt = t_max / n_steps
    steps = round(t_final / dt)
    stride = max(1, round(RECORD_INTERVAL / dt))
    return steps, 1 + math.ceil(steps / stride)


def _bytes_written(outdir):
    """(all bytes, profile CSV bytes) in outdir; the manifest carries a
    timestamp and wall time, so its size is not a count and is left out."""
    total = profile = 0
    for name in os.listdir(outdir):
        if name == "manifest.json":
            continue
        size = os.path.getsize(os.path.join(outdir, name))
        total += size
        if name == "profile.csv":
            profile += size
    return total, profile


class Outcome:
    """Operations, verdicts and exact counts of one pass over a workload."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.verdicts = []
        self.counts = {"cli.out_bytes": 0, "radial_core.io.bytes": 0,
                       "evolution.steps": 0, "evolution.records": 0,
                       "paths.members": 0, "paths.members_failed": 0}
        self.counts.update({f"evolution.termination.{t}": 0 for t in TERMINATIONS})

    def verdict(self, label, ok, detail):
        self.verdicts.append((label, bool(ok), detail))
        return bool(ok)

    def add(self, key, value):
        self.counts[key] += value


def _rel_close(value, ref, tol):
    return abs(value - ref) <= tol * abs(ref)


def _check_shoot(runs, out):
    ref = REFERENCES["shoot"]
    levels = {}
    for label, argv, status, outdir in runs:
        out.attempted += 1
        ok = out.verdict(label, status == 0, f"exit {status}")
        if ok:
            gs = _read_json(os.path.join(outdir, "ground_state.json"))
            want = ref["levels"][label]
            ok = out.verdict(label, _rel_close(gs["phi0"], want["phi0"], ref["rel_tol"])
                             and _rel_close(gs["m"], want["m"], ref["rel_tol"]),
                             f"phi0={gs['phi0']:.9g} m={gs['m']:.9g} "
                             f"(ref {want['phi0']:.9g} / {want['m']:.9g}, rel {ref['rel_tol']:g})")
            levels[label] = gs["m"]
        if label == "N2-M8000" and "N2-M4000" in levels and "N2-M8000" in levels:
            ok = out.verdict("N2 mesh", _rel_close(levels["N2-M4000"], levels["N2-M8000"],
                                                   ref["level_agreement_rel"]),
                             f"m(M=4000)={levels['N2-M4000']:.9g} vs "
                             f"m(M=8000)={levels['N2-M8000']:.9g}") and ok
        out.failed += not ok


def _check_verify_1d(runs, out):
    ref = REFERENCES["verify_1d"]
    for label, argv, status, outdir in runs:
        members = ref["members_per_command"]
        out.attempted += 1 + members
        out.add("paths.members", members)
        ok = out.verdict(label, status == 0, f"exit {status}")
        if not ok:
            out.failed += 1 + members
            out.add("paths.members_failed", members)
            continue
        report = _read_json(os.path.join(outdir, "theorem1.json"))
        rows = _read_csv(os.path.join(outdir, "theorem1_members.csv"))
        blank = sum(1 for row in rows if row["action"] == "")
        ok = out.verdict(label, report["pass"] is True, f"pass={report['pass']}") and ok
        ok = out.verdict(label, abs(report["m_ref"] - ref["m_ref"]) <= ref["m_ref_abs_tol"],
                         f"m_ref={report['m_ref']:.9g} (4/3 within {ref['m_ref_abs_tol']:g})") and ok
        ok = out.verdict(label, len(rows) == members and blank == report["failures"],
                         f"{len(rows)} member rows, {blank} blank, "
                         f"{report['failures']} failures reported") and ok
        out.failed += (not ok) + blank
        out.add("paths.members_failed", blank)


def _check_evolve_long(runs, out):
    ref = REFERENCES["evolve_long"]
    for label, argv, status, outdir in runs:
        out.attempted += 1
        ok = out.verdict(label, status == 0, f"exit {status}")
        if ok:
            report = _read_json(os.path.join(outdir, "evolve.json"))
            rows = _read_csv(os.path.join(outdir, "trajectory.csv"))
            steps, records = _evolution_counts(argv, report["t_final"])
            ok = out.verdict(label, report["termination"] == ref["termination"]
                             and abs(report["t_final"] - ref["t_final"]) <= 1e-9 * ref["t_final"],
                             f"{report['termination']} at t={report['t_final']:.6g}")
            ok = out.verdict(label, abs(report["energy_drift"]) <= ref["max_abs_energy_drift"],
                             f"energy_drift={report['energy_drift']:.3e} "
                             f"(limit {ref['max_abs_energy_drift']:g})") and ok
            ok = out.verdict(label, report["records"] == records == len(rows),
                             f"{report['records']} records reported, {records} derived, "
                             f"{len(rows)} trajectory rows") and ok
            out.add("evolution.steps", steps)
            out.add("evolution.records", records)
            out.add(f"evolution.termination.{report['termination']}", 1)
        out.failed += not ok


def _check_instability_sweep(runs, out):
    ref = REFERENCES["instability_sweep"]
    for label, argv, status, outdir in runs:
        out.attempted += 1
        ok = out.verdict(label, status == 0, f"exit {status}")
        if ok:
            rows = _read_csv(os.path.join(outdir, "sweep.csv"))
            ok = out.verdict(label, len(rows) == ref["rows"], f"{len(rows)} rows")
            t_max = _flag(argv, "--tmax")
            for row in rows:
                lam = float(row["lambda"])
                want = ref["below_one"] if lam < 1.0 else ref["above_one"]
                ok = out.verdict(label, row["termination"] == want,
                                 f"lambda={lam:g} mu={float(row['mu']):g}: "
                                 f"{row['termination']} (want {want})") and ok
                t_final = float(row["t_escape"]) if row["t_escape"] else t_max
                steps, records = _evolution_counts(argv, t_final)
                out.add("evolution.steps", steps)
                out.add("evolution.records", records)
                out.add(f"evolution.termination.{row['termination']}", 1)
        out.failed += not ok


CHECKS = {
    "shoot": _check_shoot,
    "verify_1d": _check_verify_1d,
    "evolve_long": _check_evolve_long,
    "instability_sweep": _check_instability_sweep,
}


def check(workload, runs):
    """Check one pass: runs are (label, argv, exit status, outdir) tuples."""
    out = Outcome()
    try:
        CHECKS[workload](runs, out)
    except (OSError, KeyError, ValueError, csv.Error) as err:
        out.verdict(workload, False, f"unreadable output: {err!r}")
        out.failed = out.attempted
    for _, _, status, outdir in runs:
        if os.path.isdir(outdir):
            total, profile = _bytes_written(outdir)
            out.add("cli.out_bytes", total)
            out.add("radial_core.io.bytes", profile)
    return out
