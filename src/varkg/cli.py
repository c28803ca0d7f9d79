"""Command-line front end: subcommand dispatch, config merging, manifests.

One table declares every flag (FLAGS) and one lists the flags each
subcommand reads with their defaults (COMMANDS).  The two drive argparse,
the merge of flags over `--config` over defaults, and the manifest.json
that every run leaves in its outdir, failed runs included: the resolved
value of each flag, its hash, library versions, exit status, error class
and wall time.  CSV output is deterministic: %.17g cells, LF line
endings, and a finiteness check on every value before it is written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from datetime import datetime, timezone
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import InvalidInput, VarkgError, WrongRegion
from .evolution import (
    BLOWUP_DETECTED,
    energy_drift,
    evolve,
    invariant_monitor,
    make_initial_data,
)
from .ground_state import closed_form_1d, least_energy, shoot_radial
from .model import (
    AMPLITUDE_RAY,
    INVALID,
    LIMIT,
    PowerKG,
    ScalingExponents,
    classify_exponents,
    moments,
)
from .paths import (
    build_path,
    default_trial_family,
    project_to_constraint,
    verify_T_min_over_P,
    verify_min_on_constraint,
)
from .radial_core import GridFunction, RadialGrid, load_profile, save_profile


def float_list(text) -> list[float]:
    """A non-empty comma-separated list of floats, such as "1,1.25,1.5"."""
    values = [float(tok) for tok in str(text).split(",") if tok.strip()]
    if not values:
        raise ValueError("empty list")
    return values


class Flag(NamedTuple):
    option: str
    type: Callable
    help: str


# every flag of every subcommand, keyed by its name in --config and the manifest
FLAGS = {
    "outdir": Flag("--outdir", str,
                   "output directory (the VARKG_OUTDIR environment variable overrides it)"),
    "seed": Flag("--seed", int, "seed of the random trial profiles"),
    "p": Flag("--p", float, "exponent of the power nonlinearity |u|^(p-1) u"),
    "omega": Flag("--omega", float, "frequency of the standing wave"),
    "N": Flag("--N", int, "space dimension"),
    "R": Flag("--R", float, "outer radius of the grid"),
    "M": Flag("--M", int, "number of grid cells"),
    "bracket_lo": Flag("--bracket-lo", float, "lower end of the shooting bracket for phi(0)"),
    "bracket_hi": Flag("--bracket-hi", float, "upper end of the shooting bracket for phi(0)"),
    "profile": Flag("--from", str, "profile CSV written by ground-state"),
    "alpha": Flag("--alpha", float, "first exponent of the constraint K_{alpha,beta}"),
    "beta": Flag("--beta", float, "second exponent of the constraint K_{alpha,beta}"),
    "family_size": Flag("--family-size", int, "number of trial profiles"),
    "tol": Flag("--tol", float, "relative tolerance against the least-energy level"),
    "amplitudes": Flag("--amplitudes", float_list,
                       "comma-separated amplitudes c of the trial profiles c * phi"),
    "lam": Flag("--lambda", float, "amplitude factor of the initial data lambda * phi(x/mu)"),
    "mu": Flag("--mu", float, "width factor of the initial data lambda * phi(x/mu)"),
    "tmax": Flag("--tmax", float, "final time of each evolution"),
    "blowup_factor": Flag("--blowup-factor", float,
                          "growth of the H1 norm that counts as blow-up"),
    "cfl": Flag("--cfl", float, "time step as a fraction of the grid spacing"),
    "lambda_grid": Flag("--lambda-grid", float_list, "comma-separated amplitude factors"),
    "mu_grid": Flag("--mu-grid", float_list, "comma-separated width factors"),
}


def _fmt(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise VarkgError("refusing to write a non-finite value to CSV")
    return "%.17g" % x


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [cell if isinstance(cell, str) else _fmt(cell) for cell in row]
            fh.write(",".join(cells) + "\n")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(command: str, cfg: SimpleNamespace, status: int, error: str | None,
                    wall: float) -> None:
    config = vars(cfg)
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    manifest = {
        "command": command,
        "config": config,
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
        "status": status,
        "error": error,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "varkg": __version__,
        },
        "wall_time_s": wall,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    _write_json(os.path.join(cfg.outdir, "manifest.json"), manifest)


def _ground_state(cfg, dimension: int, bracket=(1.0, 4.0)):
    grid = RadialGrid(dimension, cfg.R, cfg.M)
    if dimension == 1:
        return closed_form_1d(cfg.p, cfg.omega, grid)
    return shoot_radial(PowerKG(cfg.p, cfg.omega), grid, bracket=bracket)


def _usable_region(cfg, dimension: int) -> str:
    """The region of (alpha, beta), asked before any solve; an invalid pair
    raises WrongRegion.  The grid and nonlinearity flags are checked first,
    in the order the solve checks them."""
    RadialGrid(dimension, cfg.R, cfg.M)
    PowerKG(cfg.p, cfg.omega)
    region = classify_exponents(cfg.alpha, cfg.beta, cfg.p, dimension)
    if region == INVALID:
        raise WrongRegion(f"({cfg.alpha:g},{cfg.beta:g}) classifies as {region}")
    return region


def _outer_radius(cfg) -> float:
    return 80.0 if cfg.N == 1 else 40.0


def _cells(cfg) -> int:
    return 16000 if cfg.N == 1 else 4000


# -- subcommand handlers ------------------------------------------------------

def _cmd_ground_state(cfg):
    gs = _ground_state(cfg, cfg.N, bracket=(cfg.bracket_lo, cfg.bracket_hi))
    save_profile(os.path.join(cfg.outdir, "profile.csv"), gs.profile)
    _write_json(os.path.join(cfg.outdir, "ground_state.json"), {
        "p": cfg.p, "omega": cfg.omega, "N": cfg.N,
        "phi0": gs.center_value,
        "m": gs.level,
        "nehari_residual": gs.nehari_residual,
        "pohozaev_residual": gs.pohozaev_residual,
        "ode_residual": gs.ode_residual,
    })
    print(f"ground state: phi(0) = {gs.center_value:.6f}, m = {gs.level:.6f}")
    return 0


def _cmd_functionals(cfg):
    if cfg.profile is None:
        print("functionals: --from PROFILE is required", file=sys.stderr)
        return 2
    v = load_profile(cfg.profile)
    nl = PowerKG(cfg.p, cfg.omega)
    n = v.grid.dimension
    m = moments(v, nl)
    payload = {
        "S": m.action(nl),
        "T": m.kinetic,
        "P": m.potential(nl),
        "nehari_K": m.nehari(nl),
        "pohozaev_residual": m.pohozaev_residual(nl, n),
        "h1_norm_sq": m.h1,
    }
    if cfg.alpha is not None and cfg.beta is not None:
        payload["alpha"], payload["beta"] = cfg.alpha, cfg.beta
        payload["region"] = classify_exponents(cfg.alpha, cfg.beta, cfg.p, n)
        payload["K"] = m.constraint(nl, ScalingExponents(cfg.alpha, cfg.beta), n)
    _write_json(os.path.join(cfg.outdir, "functionals.json"), payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_path(cfg):
    if cfg.profile is None:
        print("path: --from PROFILE is required", file=sys.stderr)
        return 2
    v = load_profile(cfg.profile)
    nl = PowerKG(cfg.p, cfg.omega)
    se = ScalingExponents(cfg.alpha, cfg.beta)
    lam_star, projected = project_to_constraint(v, nl, se)
    path = build_path(projected, nl, se)
    _write_csv(os.path.join(cfg.outdir, "path.csv"), ["t", "action"],
               zip(path.t, path.action_values))
    _write_json(os.path.join(cfg.outdir, "path.json"), {
        "alpha": cfg.alpha, "beta": cfg.beta,
        "region": classify_exponents(cfg.alpha, cfg.beta, cfg.p, v.grid.dimension),
        "lambda_star": lam_star,
        "max_action": path.max_action,
        "argmax_t": float(path.t[path.argmax_index]),
        "endpoint_action": float(path.action_values[-1]),
        "admissible": path.admissible,
    })
    print(f"path max action = {path.max_action:.6f} (admissible: {path.admissible})")
    return 0


def _member_rows(report):
    for i in range(report.members_total):
        lam = report.lambdas[i]
        s = report.actions[i]
        yield (i, "" if lam is None else _fmt(lam), "" if s is None else _fmt(s))


def _cmd_verify_theorem1(cfg):
    se = ScalingExponents(cfg.alpha, cfg.beta)
    _usable_region(cfg, cfg.N)
    gs = _ground_state(cfg, cfg.N)
    m_ref = least_energy(gs)
    family = default_trial_family(gs, count=cfg.family_size, seed=cfg.seed)
    report = verify_min_on_constraint(family, gs.nonlinearity, se, m_ref)
    _write_csv(os.path.join(cfg.outdir, "theorem1_members.csv"),
               ["index", "lambda_star", "action"], _member_rows(report))
    _write_json(os.path.join(cfg.outdir, "theorem1.json"), {
        "alpha": cfg.alpha, "beta": cfg.beta, "region": report.region,
        "min_S": report.min_action, "m_ref": m_ref,
        "argmin_index": report.argmin_index,
        "failures": len(report.failures),
        "pass": report.passed,
    })
    print(f"theorem-1 check ({cfg.alpha:g},{cfg.beta:g}): min S = {report.min_action:.6f}, "
          f"m = {m_ref:.6f}, pass = {report.passed}")
    return 0 if report.passed else 1


def _cmd_verify_theorem2(cfg):
    se = ScalingExponents(cfg.alpha, cfg.beta)
    if _usable_region(cfg, 2) != LIMIT:
        raise WrongRegion(f"({cfg.alpha:g},{cfg.beta:g}) is not a limit pair here")
    gs = _ground_state(cfg, 2)
    m_ref = least_energy(gs)
    family = default_trial_family(gs, count=cfg.family_size, seed=cfg.seed)
    report = verify_min_on_constraint(family, gs.nonlinearity, se, m_ref)
    path = build_path(gs.profile, gs.nonlinearity, se)
    path_ok = path.admissible and abs(path.max_action - m_ref) <= cfg.tol * m_ref
    passed = report.passed and path_ok
    _write_csv(os.path.join(cfg.outdir, "theorem2_members.csv"),
               ["index", "lambda_star", "action"], _member_rows(report))
    _write_csv(os.path.join(cfg.outdir, "theorem2_path.csv"), ["t", "action"],
               zip(path.t, path.action_values))
    _write_json(os.path.join(cfg.outdir, "theorem2.json"), {
        "alpha": cfg.alpha, "beta": cfg.beta, "region": report.region,
        "min_S": report.min_action, "m_ref": m_ref,
        "path_max": path.max_action, "path_admissible": path.admissible,
        "pass": passed,
    })
    print(f"theorem-2 check ({cfg.alpha:g},{cfg.beta:g}): min S = {report.min_action:.6f}, "
          f"path max = {path.max_action:.6f}, m = {m_ref:.6f}, pass = {passed}")
    return 0 if passed else 1


def _cmd_verify_lemma_mint(cfg):
    gs = _ground_state(cfg, 2)
    m_ref = least_energy(gs)
    q = gs.profile
    rng = np.random.default_rng(cfg.seed)
    family = [GridFunction(q.grid, c * q.values) for c in cfg.amplitudes]
    for _ in range(4):
        eps = rng.uniform(0.05, 0.2)
        width = rng.uniform(1.0, 3.0)
        bump = 1.0 + eps * np.exp(-((q.grid.r / width) ** 2))
        family.append(GridFunction(q.grid, q.values * bump))
    report = verify_T_min_over_P(family, gs.nonlinearity, m_ref)
    amp_devs = [abs(report.kinetics[i] - m_ref) / m_ref
                for i in range(len(cfg.amplitudes)) if report.kinetics[i] is not None]
    scaling_ok = len(amp_devs) == len(cfg.amplitudes) and max(amp_devs) <= cfg.tol
    passed = report.passed and scaling_ok
    _write_csv(os.path.join(cfg.outdir, "lemma_minT_members.csv"),
               ["index", "lambda0", "kinetic"],
               ((i, "" if report.lambdas[i] is None else _fmt(report.lambdas[i]),
                 "" if report.kinetics[i] is None else _fmt(report.kinetics[i]))
                for i in range(report.members_total)))
    _write_json(os.path.join(cfg.outdir, "lemma_minT.json"), {
        "m_ref": m_ref, "min_T": report.min_kinetic,
        "amplitude_members": len(cfg.amplitudes),
        "max_amplitude_deviation": max(amp_devs) if amp_devs else None,
        "pass": passed,
    })
    print(f"min-T check: min T = {report.min_kinetic:.6f}, m = {m_ref:.6f}, pass = {passed}")
    return 0 if passed else 1


def _trajectory_rows(traj):
    for rec in traj.records:
        yield (rec.t, rec.energy, rec.action, rec.p_value, rec.kinetic,
               rec.h1_norm, "1" if rec.in_invariant_set else "0")


def _cmd_evolve(cfg):
    gs = _ground_state(cfg, 2)
    u0, report = make_initial_data(gs, cfg.lam, cfg.mu)
    v0 = GridFunction.zeros(u0.grid)
    traj = evolve(u0, v0, gs.nonlinearity, cfg.tmax, blowup_factor=cfg.blowup_factor,
                  m_ref=report["m_ref"], cfl=cfg.cfl)
    _write_csv(os.path.join(cfg.outdir, "trajectory.csv"),
               ["t", "E", "S", "P", "T", "H1", "in_I"], _trajectory_rows(traj))
    drift_end = -1 if traj.termination == BLOWUP_DETECTED else None
    payload = {
        "lambda": cfg.lam, "mu": cfg.mu,
        "initial": report,
        "termination": traj.termination,
        "t_final": traj.records[-1].t,
        "records": len(traj.records),
        "energy_drift": energy_drift(traj, end=drift_end)
        if len(traj.records) > 2 else 0.0,
    }
    if report["in_invariant_set"]:
        monitor = invariant_monitor(traj)
        payload["min_P"] = monitor.min_p
        payload["in_I_throughout"] = monitor.in_set_throughout
    _write_json(os.path.join(cfg.outdir, "evolve.json"), payload)
    print(f"evolution: termination = {traj.termination} at t = {traj.records[-1].t:.4f}")
    return 0


def _cmd_instability_sweep(cfg):
    gs = _ground_state(cfg, 2)
    rows = []
    for lam in cfg.lambda_grid:
        for mu in cfg.mu_grid:
            u0, report = make_initial_data(gs, lam, mu)
            v0 = GridFunction.zeros(u0.grid)
            traj = evolve(u0, v0, gs.nonlinearity, cfg.tmax, blowup_factor=cfg.blowup_factor,
                          m_ref=report["m_ref"])
            escape = traj.records[-1].t if traj.termination == BLOWUP_DETECTED else None
            rows.append((lam, mu, "1" if report["in_invariant_set"] else "0",
                         traj.termination, "" if escape is None else _fmt(escape)))
    _write_csv(os.path.join(cfg.outdir, "sweep.csv"),
               ["lambda", "mu", "in_I_initial", "termination", "t_escape"], rows)
    print(f"instability sweep: {len(rows)} runs written")
    return 0


def _cmd_selftest(cfg):
    checks = []

    def check(name, value, expected, tol):
        ok = abs(value - expected) <= tol
        checks.append(ok)
        print(f"{name} = {value:.6f} (expected {expected:.6f}, tol {tol:g}) "
              f"{'PASS' if ok else 'FAIL'}")

    grid = RadialGrid(1, 20.0, 40000)
    gs = closed_form_1d(3.0, 0.0, grid)
    nl = gs.nonlinearity
    m = least_energy(gs)
    print(f"m = {m:.6f}")
    check("S(phi)", m, 4.0 / 3.0, 1e-4)
    phi = moments(gs.profile, nl)
    check("T(phi)", phi.kinetic, 2.0 / 3.0, 1e-4)
    check("P(phi)", phi.potential(nl), -2.0 / 3.0, 1e-4)
    check("K(phi)", phi.nehari(nl), 0.0, 1e-4)
    check("pohozaev_residual(phi)", phi.pohozaev_residual(nl, grid.dimension), 0.0, 1e-4)
    path = build_path(gs.profile, nl, AMPLITUDE_RAY)
    check("path max action", path.max_action, m, 1e-3)
    lam_star, _ = project_to_constraint(gs.profile, nl, AMPLITUDE_RAY)
    check("projection idempotence", lam_star, 1.0, 1e-6)
    passed = all(checks)
    print(f"selftest: {'PASS' if passed else 'FAIL'} ({sum(checks)}/{len(checks)})")
    return 0 if passed else 1


class Command(NamedTuple):
    handler: Callable
    summary: str
    # flag name -> default; a callable default is computed from the flags before it
    defaults: dict


def _command(handler, summary, **defaults) -> Command:
    return Command(handler, summary, {"outdir": "varkg-out", **defaults})


NONLINEARITY = {"p": 3.0, "omega": 0.0}

COMMANDS = {
    "ground-state": _command(
        _cmd_ground_state, "compute a ground-state profile",
        **NONLINEARITY, N=2, R=_outer_radius, M=_cells, bracket_lo=1.0, bracket_hi=4.0),
    "functionals": _command(
        _cmd_functionals, "evaluate S, T, P, K on a stored profile",
        profile=None, **NONLINEARITY, alpha=None, beta=None),
    "path": _command(
        _cmd_path, "project a profile and build its mountain-pass path",
        profile=None, **NONLINEARITY, alpha=1.0, beta=0.0),
    "verify-theorem1": _command(
        _cmd_verify_theorem1, "minimize S over an interior constraint",
        **NONLINEARITY, N=1, R=_outer_radius, M=_cells, alpha=1.0, beta=0.0,
        family_size=50, seed=0),
    "verify-theorem2": _command(
        _cmd_verify_theorem2, "limit-pair minimization plus glued path",
        **NONLINEARITY, R=40.0, M=4000, alpha=1.0, beta=1.0, family_size=20, tol=0.01,
        seed=0),
    "verify-lemma-minT": _command(
        _cmd_verify_lemma_mint, "kinetic minimum over the P >= 0 set",
        **NONLINEARITY, R=40.0, M=4000, amplitudes=[1.0, 1.1, 1.25, 1.5, 1.75, 2.0],
        tol=0.01, seed=0),
    "evolve": _command(
        _cmd_evolve, "run one radial evolution",
        **NONLINEARITY, R=80.0, M=4000, lam=1.05, mu=1.05, tmax=20.0, blowup_factor=5.0,
        cfl=0.4),
    "instability-sweep": _command(
        _cmd_instability_sweep, "evolve over a (lambda, mu) grid",
        **NONLINEARITY, R=80.0, M=4000, tmax=20.0, blowup_factor=5.0,
        lambda_grid=[1.02, 1.05, 1.1], mu_grid=[1.0, 1.05]),
    "selftest": _command(_cmd_selftest, "closed-form oracle suite"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varkg",
        description="Variational toolkit for radial nonlinear Klein-Gordon standing waves")
    parser.add_argument("--config",
                        help="JSON object of flag values, read as the flags' text would be; "
                             "flags on the command line win")
    sub = parser.add_subparsers(dest="command")
    for name, spec in COMMANDS.items():
        sp = sub.add_parser(name, help=spec.summary)
        for key in spec.defaults:
            flag = FLAGS[key]
            sp.add_argument(flag.option, dest=key, type=flag.type, help=flag.help)
    return parser


def _read_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise InvalidInput(f"cannot read config {path}: {err}") from None
    if not isinstance(config, dict):
        raise InvalidInput("config must be a JSON object")
    return config


def _resolve(spec: Command, args: argparse.Namespace, config: dict) -> SimpleNamespace:
    """Each flag of the subcommand from the command line, else the config, else its default.

    A config value goes through the flag's type as its text, so {"p": 3}
    and {"p": "3"} both mean --p 3; JSON null counts as absent.
    """
    cfg = SimpleNamespace()
    for key, default in spec.defaults.items():
        value = getattr(args, key)
        if value is None and config.get(key) is not None:
            flag = FLAGS[key]
            try:
                value = flag.type(str(config[key]))
            except ValueError:
                raise InvalidInput(f"config value {key}={config[key]!r} is not a valid "
                                   f"{flag.type.__name__} for {flag.option}") from None
        if value is None:
            value = default(cfg) if callable(default) else default
        setattr(cfg, key, value)
    return cfg


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    spec = COMMANDS[args.command]
    try:
        cfg = _resolve(spec, args, _read_config(args.config) if args.config else {})
    except InvalidInput as err:
        print(f"varkg: InvalidInput: {err}", file=sys.stderr)
        return 2
    cfg.outdir = os.environ.get("VARKG_OUTDIR") or cfg.outdir
    os.makedirs(cfg.outdir, exist_ok=True)
    status, error = 1, None
    started = time.perf_counter()
    try:
        status = spec.handler(cfg)
    except FileNotFoundError as err:
        print(f"varkg: {err}", file=sys.stderr)
        status, error = 2, type(err).__name__
    except VarkgError as err:
        print(f"varkg: {type(err).__name__}: {err}", file=sys.stderr)
        error = type(err).__name__
    except Exception as err:
        error = type(err).__name__
        raise
    finally:
        _write_manifest(args.command, cfg, status, error, time.perf_counter() - started)
    return status


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
