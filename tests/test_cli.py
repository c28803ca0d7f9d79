"""End-to-end checks of the command-line front end."""

import argparse
import functools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import varkg
from varkg import RadialGrid, brent, closed_form_1d, save_profile
from varkg.cli import COMMANDS, _build_parser, _parse_args, run


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_runtime_loads_no_scipy(tmp_path):
    # importing scipy.optimize once took most of every command's start-up
    src = os.path.dirname(os.path.dirname(os.path.abspath(varkg.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("VARKG_OUTDIR", None)
    code = ("import sys\n"
            "from varkg.cli import run\n"
            f"assert run(['selftest', '--outdir', {str(tmp_path)!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "selftest: PASS" in done.stdout
    assert done.stdout.splitlines()[-1] == "[]"


def test_root_finder_failure_is_a_typed_exit(tmp_path, capsys, monkeypatch):
    # an interior pair is projected along its own ray, which takes a Brent
    # solve; the amplitude ray has its root in closed form
    src = tmp_path / "phi.csv"
    save_profile(str(src), closed_form_1d(3.0, 0.0, RadialGrid(1, 25.0, 500)).profile)
    monkeypatch.setattr("varkg.paths.brent", functools.partial(brent, maxiter=1))
    assert run(["path", "--from", str(src), "--alpha", "2", "--beta", "1",
                "--outdir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("varkg: ConvergenceError: root finder")
    manifest = read_json(tmp_path / "manifest.json")
    assert (manifest["status"], manifest["error"]) == (1, "ConvergenceError")


def test_usage_without_subcommand(capsys):
    assert run([]) == 2
    assert "usage" in capsys.readouterr().err


def exit_code(call, *args):
    """call's return value, or the code of the SystemExit it raises."""
    try:
        return call(*args)
    except SystemExit as exit_info:
        return exit_info.code


def full_parser_run(argv):
    """What run printed when it parsed argv with every subcommand's parser:
    argparse's help or error, or the usage line for a missing subcommand."""
    parser = _build_parser()
    code = exit_code(parser.parse_args, argv)
    if isinstance(code, argparse.Namespace):
        parser.print_usage(sys.stderr)
        code = 2
    return code


@pytest.mark.parametrize("argv", [
    ["--help"], *([name, "--help"] for name in COMMANDS), ["evolve", "-h", "--p", "x"],
    ["--config", "evolve", "--help"], ["nope"], [], ["--config", "evolve"],
    ["--config", "path", "evolve", "--bogus"], ["evolve", "--bogus"], ["selftest", "--p", "3"],
    ["evolve", "--p", "x"], ["evolve", "--lambda"], ["evolve", "extra"],
], ids=lambda argv: " ".join(argv) or "none")
def test_help_and_usage_errors_are_the_full_parsers(argv, capsys):
    # run builds the named subcommand's parser alone; everything argparse
    # prints must still be the full parser's, byte for byte
    want = full_parser_run(argv), capsys.readouterr()
    assert want[0] in (0, 2)
    assert (exit_code(run, argv), capsys.readouterr()) == want


def test_a_named_subcommand_builds_its_parser_alone(monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    argv = ["--config", "c.json", "evolve", "--p", "5", "--lam", "1.1"]
    want = _build_parser().parse_args(argv)
    built.clear()
    assert _parse_args(argv) == want
    assert built == ["evolve"]


def test_config_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run(["--config", str(missing), "selftest"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["--config", str(bad), "selftest"]) == 2
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    assert run(["--config", str(listy), "selftest"]) == 2
    capsys.readouterr()
    for value in ({"M": "abc"}, {"p": "x"}):
        typed = tmp_path / "typed.json"
        typed.write_text(json.dumps(value))
        out = tmp_path / "never"
        assert run(["--config", str(typed), "ground-state", "--outdir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("varkg: InvalidInput: ")
        assert not out.exists()


def test_config_values_read_as_flag_text(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"p": "3", "alpha": 1, "beta": "0", "M": "ignored"}))
    assert run(["--config", str(config), "functionals", "--outdir", str(tmp_path)]) == 2
    manifest = read_json(tmp_path / "manifest.json")
    assert manifest["config"] == {"outdir": str(tmp_path), "profile": None, "p": 3.0,
                                  "omega": 0.0, "alpha": 1.0, "beta": 0.0}
    assert (manifest["status"], manifest["error"]) == (2, None)
    capsys.readouterr()


def test_selftest_passes(tmp_path, capsys):
    assert run(["selftest", "--outdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "m = 1.333333" in out
    assert "selftest: PASS" in out
    assert "FAIL" not in out.replace("PASS/FAIL", "")
    manifest = read_json(tmp_path / "manifest.json")
    assert manifest["command"] == "selftest"
    assert manifest["config"] == {"outdir": str(tmp_path)}
    assert (manifest["status"], manifest["error"]) == (0, None)
    assert "config_hash" in manifest and "versions" in manifest


def test_subcommands_reject_flags_they_do_not_read(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run(["selftest", "--p", "3"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --p 3" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify-theorem1", "--N", "1", "--seed", "-1"],
    ["verify-theorem2", "--tol", "nan"],
    ["verify-lemma-minT", "--tol", "-1"],
], ids=["negative-seed", "nan-tol", "negative-tol"])
def test_seed_and_tol_are_typed_flags(argv, tmp_path, capsys):
    # a negative seed ended in numpy's ValueError, a bad tol in "pass = False"
    with pytest.raises(SystemExit) as exit_info:
        run([*argv, "--outdir", str(tmp_path)])
    assert exit_info.value.code == 2
    assert f"argument {argv[-2]}: invalid" in capsys.readouterr().err
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({argv[-2].lstrip("-"): argv[-1]}))
    assert run(["--config", str(config), *argv[:-2], "--outdir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("varkg: InvalidInput: ")


def test_ground_state_artifacts(tmp_path, capsys):
    assert run(["ground-state", "--N", "2", "--R", "25", "--M", "1000",
                "--outdir", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "ground_state.json")
    assert np.isclose(payload["phi0"], 2.2062, rtol=0, atol=1e-3)
    assert payload["N"] == 2
    profile = (tmp_path / "profile.csv").read_text().splitlines()
    assert profile[0].startswith("# N=2 R=25")
    assert profile[1] == "r,value"
    assert len(profile) == 1003  # two header lines plus M+1 nodes
    manifest = read_json(tmp_path / "manifest.json")
    assert manifest["config"]["M"] == 1000
    assert manifest["config"]["bracket_lo"] == 1.0  # defaults are recorded too
    capsys.readouterr()


def test_ground_state_from_one_ulp_above_the_equilibrium(tmp_path, capsys, townes):
    # at omega = 0 the amplitude 1 is the equilibrium phi = 1; one ulp above
    # it G < 0, so the lower end is lifted to the zero of G before any shot
    # (test_coarse_series_start_blames_the_grid marches it)
    assert run(["ground-state", "--N", "2", "--p", "3", "--omega", "0", "--R", "40",
                "--M", "4000", "--bracket-lo", "1.0000000000000002",
                "--outdir", str(tmp_path)]) == 0
    assert read_json(tmp_path / "ground_state.json")["phi0"] == townes.center_value
    capsys.readouterr()


def test_functionals_and_path_roundtrip(tmp_path, capsys):
    grid = RadialGrid(1, 25.0, 2000)
    gs = closed_form_1d(3.0, 0.0, grid)
    src = tmp_path / "phi.csv"
    save_profile(str(src), gs.profile)

    out1 = tmp_path / "fun"
    assert run(["functionals", "--from", str(src), "--alpha", "1",
                "--beta", "0", "--outdir", str(out1)]) == 0
    payload = read_json(out1 / "functionals.json")
    assert np.isclose(payload["S"], 4.0 / 3.0, rtol=0, atol=1e-4)
    assert payload["region"] == "Interior"
    assert abs(payload["K"]) < 1e-4

    out2 = tmp_path / "path"
    assert run(["path", "--from", str(src), "--alpha", "1", "--beta", "0",
                "--outdir", str(out2)]) == 0
    report = read_json(out2 / "path.json")
    assert report["admissible"] is True
    assert np.isclose(report["max_action"], 4.0 / 3.0, rtol=0, atol=1e-3)
    rows = (out2 / "path.csv").read_text().splitlines()
    assert rows[0] == "t,action"
    assert len(rows) > 64
    capsys.readouterr()


def test_path_prices_a_compressed_projection_on_its_moments(tmp_path, capsys):
    # along (2, 0.9375) at p = 2 the projection compresses a unit Gaussian
    # 80x to about 3 nodes per width, where the resampled profile's own K is
    # far from 0; the path is priced on the projection's moments, so the
    # command still runs, and on the constraint the ray path peaks at S there
    grid = RadialGrid(1, 20.0, 4000)
    v = varkg.GridFunction.sample(grid, lambda r: np.exp(-r**2))
    src = tmp_path / "gauss.csv"
    save_profile(str(src), v)
    out = tmp_path / "path"
    assert run(["path", "--from", str(src), "--p", "2", "--alpha", "2", "--beta", "0.9375",
                "--outdir", str(out)]) == 0
    report = read_json(out / "path.json")
    nl, se = varkg.PowerKG(2.0), varkg.ScalingExponents(2.0, 0.9375)
    lam_star, _, m = varkg.project_to_constraint(varkg.moments(v, nl), se)
    assert report["region"] == "Interior" and report["lambda_star"] == lam_star
    assert abs(lam_star - 106.29) < 5e-3
    assert report["admissible"] is True
    assert abs(report["max_action"] - m.action()) <= 1e-6 * m.action()
    capsys.readouterr()


def test_path_limit_pair_whose_endpoint_spills_past_the_grid(tmp_path, capsys):
    # at lambda = 2 the (1, -2) ray pushes 7.4e-6 of the L2 mass past r = 25;
    # the path values fall back to the scaled moments, so the endpoint that
    # cannot be resampled must not fail the command
    gs_dir = tmp_path / "gs"
    assert run(["ground-state", "--N", "1", "--p", "3", "--omega", "0", "--R", "25",
                "--M", "2000", "--outdir", str(gs_dir)]) == 0
    out = tmp_path / "path"
    assert run(["path", "--from", str(gs_dir / "profile.csv"), "--p", "3", "--omega", "0",
                "--alpha", "1", "--beta", "-2", "--outdir", str(out)]) == 0
    report = read_json(out / "path.json")
    assert report["region"] == "Limit"
    assert report["admissible"] is True
    assert report["endpoint_action"] < 0.0
    capsys.readouterr()


def test_functionals_requires_source(tmp_path, capsys):
    assert run(["functionals", "--outdir", str(tmp_path)]) == 2
    assert "--from" in capsys.readouterr().err
    grid = RadialGrid(1, 25.0, 500)
    src = tmp_path / "phi.csv"
    save_profile(str(src), closed_form_1d(3.0, 0.0, grid).profile)
    lines = src.read_text().splitlines()
    lines[5] = "0.2,abc"
    src.write_text("\n".join(lines) + "\n")
    out = tmp_path / "bad"
    assert run(["functionals", "--from", str(src), "--outdir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("varkg: InvalidInput: ")
    manifest = read_json(out / "manifest.json")
    assert (manifest["status"], manifest["error"]) == (1, "InvalidInput")


def test_functionals_rejects_undecodable_profile(tmp_path, capsys):
    src = tmp_path / "binary.csv"
    src.write_bytes(b"\xff\xfe# N=1 R=25 M=500\n")
    out = tmp_path / "bad"
    assert run(["functionals", "--from", str(src), "--outdir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("varkg: InvalidInput: ")
    manifest = read_json(out / "manifest.json")
    assert (manifest["status"], manifest["error"]) == (1, "InvalidInput")


@pytest.mark.parametrize("flag", ["--alpha", "--beta"])
def test_functionals_needs_both_exponents(tmp_path, capsys, flag):
    # K needs both exponents: one alone is an error, not a shorter payload
    src = tmp_path / "phi.csv"
    save_profile(str(src), closed_form_1d(3.0, 0.0, RadialGrid(1, 25.0, 500)).profile)
    out = tmp_path / "out"
    assert run(["functionals", "--from", str(src), flag, "1", "--outdir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("varkg: InvalidInput: --alpha and --beta")
    manifest = read_json(out / "manifest.json")
    assert (manifest["status"], manifest["error"]) == (1, "InvalidInput")
    assert not (out / "functionals.json").exists()


def test_evolve_rejects_unstable_cfl(tmp_path, capsys):
    # cfl = 1.2 used to end in BlowupDetected at t = 0.34 on this
    # sub-threshold data: numerical instability reported as physics
    assert run(["evolve", "--lambda", "0.95", "--mu", "1", "--cfl", "1.2",
                "--outdir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("varkg: InvalidParameter: ")
    manifest = read_json(tmp_path / "manifest.json")
    assert (manifest["status"], manifest["error"]) == (1, "InvalidParameter")
    assert not (tmp_path / "evolve.json").exists()


@pytest.mark.parametrize("argv", [
    ["evolve", "--omega", "0.5", "--R", "40", "--M", "1000", "--tmax", "2"],
    ["instability-sweep", "--omega", "0.5", "--R", "40", "--M", "1000", "--tmax", "2",
     "--lambda-grid", "0.95", "--mu-grid", "1.0"],
])
def test_evolutions_reject_nonzero_frequency(tmp_path, capsys, argv):
    # the flow has unit mass while S, P and m of the data would use 1 - omega^2
    assert run([*argv, "--outdir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("varkg: Unsupported: ")
    manifest = read_json(tmp_path / "manifest.json")
    assert (manifest["status"], manifest["error"]) == (1, "Unsupported")


def test_path_rejects_invalid_pair(tmp_path, capsys):
    grid = RadialGrid(1, 25.0, 500)
    gs = closed_form_1d(3.0, 0.0, grid)
    src = tmp_path / "phi.csv"
    save_profile(str(src), gs.profile)
    assert run(["path", "--from", str(src), "--alpha", "1", "--beta", "2",
                "--outdir", str(tmp_path)]) == 1
    assert "WrongRegion" in capsys.readouterr().err
    manifest = read_json(tmp_path / "manifest.json")
    assert (manifest["status"], manifest["error"]) == (1, "WrongRegion")
    assert manifest["config"]["beta"] == 2.0


@pytest.mark.parametrize("argv, message", [
    (["verify-theorem1", "--N", "2", "--alpha", "1", "--beta", "2"],
     "(1,2) is not an admissible exponent pair"),
    (["verify-theorem2", "--alpha", "1", "--beta", "2"],
     "(1,2) is not an admissible exponent pair"),
    (["verify-theorem2", "--alpha", "1", "--beta", "0"], "(1,0) is not a limit pair here"),
])
def test_unusable_pair_is_refused_before_any_work(tmp_path, capsys, monkeypatch,
                                                  argv, message):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the pair was checked")

    for name in ("shoot_radial", "closed_form_1d", "verify_min_on_constraint",
                 "project_to_constraint"):
        monkeypatch.setattr(f"varkg.cli.{name}", no_work)
    assert run([*argv, "--outdir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"varkg: WrongRegion: {message}\n"
    manifest = read_json(tmp_path / "manifest.json")
    assert (manifest["status"], manifest["error"]) == (1, "WrongRegion")


def test_evolve_is_deterministic(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"R": 25.0, "M": 1000, "tmax": 5.0,
                                  "cfl": 0.0125}))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run(["--config", str(config), "evolve",
                    "--outdir", str(out)]) == 0
    first = (out1 / "trajectory.csv").read_bytes()
    second = (out2 / "trajectory.csv").read_bytes()
    assert first == second
    payload = read_json(out1 / "evolve.json")
    assert payload["termination"] == "BlowupDetected"
    assert payload["initial"]["in_invariant_set"] is True
    assert payload["in_I_throughout"] is True
    assert (out1 / "trajectory.csv").read_text().splitlines()[0] == \
        "t,E,S,P,T,H1,in_I"
    capsys.readouterr()


def test_evolve_initial_block_is_the_first_record(tmp_path, capsys):
    # just above the ground state: its quadrature action lies below m
    # (S - m = -2.9e-5) while the flow's discrete energy lies above it
    # (E_d - m = +1.04e-3), so only the first record can say whether the
    # run starts inside the invariant set
    assert run(["evolve", "--R", "30", "--M", "1500", "--lambda", "1.001", "--mu", "1",
                "--tmax", "1", "--outdir", str(tmp_path)]) == 0
    initial = read_json(tmp_path / "evolve.json")["initial"]
    first = (tmp_path / "trajectory.csv").read_text().splitlines()[1].split(",")
    assert initial["energy"] == float(first[1])
    assert initial["in_invariant_set"] is (first[6] == "1")
    capsys.readouterr()


def test_evolve_writes_no_drift_without_two_records(tmp_path, capsys):
    # lambda = 1e60 leaves the float range within the first record interval:
    # the run ends NonFinite with its initial record alone, so no drift exists
    assert run(["evolve", "--R", "30", "--M", "1500", "--tmax", "1", "--lambda", "1e60",
                "--mu", "1", "--outdir", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "evolve.json")
    assert (payload["termination"], payload["records"]) == ("NonFinite", 1)
    assert payload["energy_drift"] is None
    capsys.readouterr()


def test_evolve_counts_only_diagnosed_records_for_the_drift(tmp_path, capsys):
    # lambda = 20 blows up before the second record, which is written but
    # left out of the diagnostics: one diagnosed record has no drift
    assert run(["evolve", "--R", "30", "--M", "1500", "--tmax", "1", "--lambda", "20",
                "--mu", "1", "--outdir", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "evolve.json")
    assert (payload["termination"], payload["records"]) == ("BlowupDetected", 2)
    assert payload["energy_drift"] is None
    capsys.readouterr()


@pytest.mark.parametrize("tmax", ["1e-300", "1e-160"])
def test_evolve_in_steps_whose_units_underflow(tmax, tmp_path, capsys):
    # one step of dt = t_max: s = dt at p = 3, and s^4 is no normal float, so
    # the run keeps s = 1; at rest the state cannot move within the step
    assert run(["evolve", "--p", "3", "--omega", "0", "--R", "30", "--M", "1500",
                "--tmax", tmax, "--outdir", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "evolve.json")
    assert (payload["termination"], payload["t_final"], payload["records"]) == (
        "ReachedTmax", float(tmax), 2)
    assert payload["energy_drift"] == 0.0
    capsys.readouterr()


@pytest.mark.parametrize("flag, value, error, says", [
    ("--lambda", "inf", "InvalidParameter", "lambda must be positive and finite"),
    ("--mu", "inf", "InvalidParameter", "mu must be positive and finite"),
    ("--mu", "1e-320", "InvalidParameter", "the grid does not resolve mu = 1e-320"),
    ("--lambda", "1e308", "NumericalOverflow", "lambda = 1e+308"),  # lambda * phi overflows
    ("--lambda", "1e100", "NumericalOverflow",
     "initial pair 0: the potential moment"),  # the first record's |u|^4 does
])
def test_evolve_refuses_bad_lambda_and_mu_in_one_line(tmp_path, flag, value, error, says):
    # in a fresh process, whose stderr also shows any RuntimeWarning
    src = os.path.dirname(os.path.dirname(os.path.abspath(varkg.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("VARKG_OUTDIR", None)
    done = subprocess.run([sys.executable, "-m", "varkg.cli", "evolve", "--R", "30", "--M", "1500",
                           "--tmax", "1", flag, value, "--outdir", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert "RuntimeWarning" not in done.stderr
    assert done.stderr.startswith(f"varkg: {error}: {says}") and done.stderr.count("\n") == 1
    assert read_json(tmp_path / "manifest.json")["error"] == error


@pytest.mark.parametrize("tmax, cfl", [("1e308", "0.4"), ("1e300", "0.4"), ("1", "5e-324")])
def test_evolve_refuses_a_step_count_past_2_53_in_one_line(tmp_path, tmax, cfl):
    # t_max / (cfl h) was inf at 1e308, a traceback in math.ceil; 1e300 was
    # a run that would step for ever; and cfl h = 0 divided by zero
    src = os.path.dirname(os.path.dirname(os.path.abspath(varkg.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("VARKG_OUTDIR", None)
    done = subprocess.run([sys.executable, "-m", "varkg.cli", "evolve", "--R", "30", "--M", "1500",
                           "--tmax", tmax, "--cfl", cfl, "--outdir", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stderr == (f"varkg: InvalidParameter: t_max = {float(tmax)!r} "
                           f"at cfl = {float(cfl)!r} takes more than 2**53 steps\n")
    assert read_json(tmp_path / "manifest.json")["error"] == "InvalidParameter"


def test_evolve_refuses_a_width_the_grid_cannot_resolve(tmp_path, capsys):
    # mu = 1e-9 would shrink the ground state onto one node
    argv = ["evolve", "--R", "30", "--M", "1500", "--lambda", "1", "--tmax", "1"]
    assert run([*argv, "--mu", "1e-9", "--outdir", str(tmp_path / "spike")]) == 1
    assert "varkg: InvalidParameter" in capsys.readouterr().err
    assert read_json(tmp_path / "spike" / "manifest.json")["error"] == "InvalidParameter"
    assert run([*argv, "--mu", "0.5", "--outdir", str(tmp_path / "narrow")]) == 0
    capsys.readouterr()


def test_instability_sweep_rows(tmp_path, capsys):
    assert run(["instability-sweep", "--R", "25", "--M", "1000",
                "--tmax", "3", "--lambda-grid", "0.95,1.05",
                "--mu-grid", "1.0", "--outdir", str(tmp_path)]) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[0] == "lambda,mu,in_I_initial,termination,t_escape"
    assert len(rows) == 3
    stable = rows[1].split(",")
    assert float(stable[0]) == 0.95
    assert stable[2] == "0"          # lambda < 1 starts outside the set
    assert stable[4] == ""           # no escape time for a surviving run
    unstable = rows[2].split(",")
    assert unstable[3] == "BlowupDetected"
    assert float(unstable[4]) > 0.0
    capsys.readouterr()


def test_verify_theorem1_quick(tmp_path, capsys):
    assert run(["verify-theorem1", "--N", "1", "--R", "25", "--M", "1000",
                "--family-size", "8", "--outdir", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "theorem1.json")
    assert payload["pass"] is True
    assert payload["region"] == "Interior"
    assert np.isclose(payload["min_S"], payload["m_ref"],
                      rtol=0, atol=1e-3 * payload["m_ref"])
    members = (tmp_path / "theorem1_members.csv").read_text().splitlines()
    assert len(members) == 9
    capsys.readouterr()


def test_verify_theorem1_in_three_dimensions(tmp_path, capsys):
    # the default shooting bracket (1, 4) lies below the N = 3 critical
    # amplitude 4.34; shooting doubles its upper end
    assert run(["verify-theorem1", "--N", "3", "--p", "3", "--alpha", "1", "--beta", "0",
                "--family-size", "3", "--outdir", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "theorem1.json")
    assert payload["pass"] is True
    assert payload["failures"] == 0
    capsys.readouterr()


def test_outdir_env_override(tmp_path, monkeypatch, capsys):
    preferred = tmp_path / "env-out"
    ignored = tmp_path / "flag-out"
    monkeypatch.setenv("VARKG_OUTDIR", str(preferred))
    grid = RadialGrid(1, 25.0, 500)
    gs = closed_form_1d(3.0, 0.0, grid)
    src = tmp_path / "phi.csv"
    save_profile(str(src), gs.profile)
    assert run(["functionals", "--from", str(src),
                "--outdir", str(ignored)]) == 0
    assert (preferred / "functionals.json").exists()
    assert not ignored.exists()
    capsys.readouterr()


def test_verify_theorem2_artifacts(tmp_path, capsys):
    assert run(["verify-theorem2", "--R", "40", "--M", "4000",
                "--family-size", "8", "--outdir", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "theorem2.json")
    assert payload["pass"] is True
    assert payload["region"] == "Limit"
    assert payload["path_admissible"] is True
    assert np.isclose(payload["path_max"], payload["m_ref"],
                      rtol=0.01, atol=0)
    path_rows = (tmp_path / "theorem2_path.csv").read_text().splitlines()
    assert path_rows[0] == "t,action"
    assert len(path_rows) > 64
    assert (tmp_path / "theorem2_members.csv").exists()
    capsys.readouterr()


def test_verify_lemma_mint_artifacts(tmp_path, capsys):
    assert run(["verify-lemma-minT", "--R", "25", "--M", "1000",
                "--amplitudes", "1,1.25,1.5,2",
                "--outdir", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "lemma_minT.json")
    assert payload["pass"] is True
    assert payload["amplitude_members"] == 4
    assert payload["max_amplitude_deviation"] <= 0.01
    members = (tmp_path / "lemma_minT_members.csv").read_text().splitlines()
    assert members[0] == "index,lambda0,kinetic"
    assert len(members) == 9  # header plus 4 amplitude and 4 bump members
    capsys.readouterr()


def test_verify_theorem2_width_members_sit_at_the_level(tmp_path, capsys):
    # every width member is phi's moments scaled, and along (1, 1) its
    # projection has the action of phi's own projection, 2.9e-9 m above
    # m; resampled, member 9 read m (1 - 2.1e-4) and set min S
    assert run(["verify-theorem2", "--alpha", "1", "--beta", "1",
                "--outdir", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "theorem2.json")
    assert payload["pass"] is True
    assert 0.0 <= payload["min_S"] - payload["m_ref"] <= 5e-9 * payload["m_ref"]
    rows = (tmp_path / "theorem2_members.csv").read_text().splitlines()[1:]
    actions = [float(row.split(",")[2]) for row in rows]
    assert all(abs(s - actions[0]) <= 1e-14 * actions[0] for s in actions[1:10])
    capsys.readouterr()


@pytest.mark.parametrize("amplitudes", ["1,inf", "nan", "-inf,2"])
def test_verify_lemma_mint_refuses_a_non_finite_amplitude(tmp_path, capsys, monkeypatch,
                                                          amplitudes):
    # inf * phi made nan nodes and a numpy RuntimeWarning before the
    # refusal; the suite turns RuntimeWarning into an error
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the amplitudes were checked")

    monkeypatch.setattr("varkg.cli.shoot_radial", no_work)
    assert run(["verify-lemma-minT", f"--amplitudes={amplitudes}",
                "--outdir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("varkg: InvalidInput: --amplitudes must be finite")
    manifest = read_json(tmp_path / "manifest.json")
    assert (manifest["status"], manifest["error"]) == (1, "InvalidInput")


@pytest.mark.parametrize("amplitude", ["1e200", "1e77"])
def test_verify_lemma_mint_refuses_an_amplitude_past_the_float_range(tmp_path, capsys,
                                                                     amplitude):
    # |c|^4 overflows a float at 1e200 and ||c phi||_4^4 at 1e77; the
    # measured member c phi refused both with NumericalOverflow too
    assert run(["verify-lemma-minT", "--R", "25", "--M", "1000", "--amplitudes", amplitude,
                "--outdir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("varkg: NumericalOverflow: the moments at "
                                              f"lambda = {float(amplitude):.6g} leave the "
                                              "float range")


def test_verify_lemma_mint_rejects_zero_amplitude(tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the amplitudes were checked")

    monkeypatch.setattr("varkg.cli.shoot_radial", no_work)
    assert run(["verify-lemma-minT", "--amplitudes", "1,0",
                "--outdir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("varkg: InvalidInput: --amplitudes")
    manifest = read_json(tmp_path / "manifest.json")
    assert (manifest["status"], manifest["error"]) == (1, "InvalidInput")
