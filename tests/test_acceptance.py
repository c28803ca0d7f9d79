"""Acceptance suite: one test per published guarantee, at stated tolerances.

Each test prints a single PASS/FAIL line (run with -s to see them) and
times its own body against the stated budget.
"""

import math
import time

import numpy as np
from scipy.special import j0

from varkg import (
    BLOWUP_DETECTED,
    GeneralG,
    GridFunction,
    PowerKG,
    RadialGrid,
    ScalingExponents,
    build_path,
    classify_exponents,
    closed_form_1d,
    default_trial_family,
    energy_drift,
    evolve,
    invariant_monitor,
    make_initial_data,
    moments,
    mountain_pass_estimate,
    project_to_constraint,
    shoot_radial,
    strauss_decay_profile,
    verify_T_min_over_P,
    verify_min_on_constraint,
)

from general_g import LINEAR_KG
from oracle_townes import J0_FIRST_ZERO, TOWNES_L2


class Budget:
    """Wall-clock guard: body must finish inside the stated seconds."""

    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.start
        return False


def report(number, label, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} ({label}): {verdict}{suffix}")


# interior exponent pairs covering both branches of the admissibility
# conditions at N=2, p=3: six with beta >= 0, six with beta < 0
INTERIOR_PAIRS = (
    (1.0, 0.0), (1.0, 0.5), (1.0, 0.9), (1.5, 1.0), (2.0, 1.0), (3.0, 2.0),
    (1.0, -1.0), (1.0, -0.5), (0.5, -1.0), (2.0, -1.0), (0.3, -0.7), (1.0, -2.0),
)


def test_acceptance_1_closed_form_oracle():
    with Budget("closed form", 5.0) as budget:
        grid = RadialGrid(1, 20.0, 40000)
        gs = closed_form_1d(3.0, 0.0, grid)
        m = moments(gs.profile, gs.nonlinearity)
        values = {
            "S": (m.action(), 4.0 / 3.0),
            "T": (m.kinetic, 2.0 / 3.0),
            "P": (m.potential(), -2.0 / 3.0),
            "K": (m.nehari(), 0.0),
            "pohozaev_residual": (m.pohozaev_residual(), 0.0),
        }
        worst = max(abs(got - want) for got, want in values.values())
    ok = worst <= 1e-4 and budget.elapsed < 5.0
    report(1, "closed-form oracle", ok,
           f"max abs err {worst:.2e}, {budget.elapsed:.2f}s")
    assert worst <= 1e-4
    assert budget.elapsed < 5.0


def test_acceptance_2_shooting_cross_validation():
    with Budget("shooting", 30.0) as budget:
        gs = shoot_radial(PowerKG(3.0, 0.0), RadialGrid(2, 40.0, 4000))
        fine = shoot_radial(PowerKG(3.0, 0.0), RadialGrid(2, 40.0, 8000))
        m = moments(gs.profile, gs.nonlinearity)
        l2 = m.l2
        grad_ratio = m.grad / l2
        power_ratio = m.pot / l2
        l2_fine = moments(fine.profile, fine.nonlinearity).l2
        rel = abs(l2 - l2_fine) / l2_fine
    ok = (abs(grad_ratio - 1.0) <= 1e-3 and abs(power_ratio - 2.0) <= 1e-3
          and rel <= 1e-3 and abs(l2_fine - TOWNES_L2) / TOWNES_L2 <= 1e-3
          and budget.elapsed < 30.0)
    report(2, "shooting cross-validation", ok,
           f"grad/l2-1 {grad_ratio - 1:+.1e}, l4/l2-2 {power_ratio - 2:+.1e}, "
           f"l2 rel {rel:.1e}, {budget.elapsed:.1f}s")
    assert abs(grad_ratio - 1.0) <= 1e-3
    assert abs(power_ratio - 2.0) <= 1e-3
    assert rel <= 1e-3
    assert budget.elapsed < 30.0


def test_acceptance_3_interior_minimization_sweep(townes, nl3):
    with Budget("sweep", 120.0) as budget:
        m = townes.level
        family = default_trial_family(townes, count=50, seed=0)
        reports = []
        for alpha, beta in INTERIOR_PAIRS:
            assert classify_exponents(alpha, beta, 3.0, 2) == "Interior"
            se = ScalingExponents(alpha, beta)
            reports.append(verify_min_on_constraint(family, se, m, tol=1e-3 * m))
        all_pass = all(rep.passed for rep in reports)
        # members with no constraint point are recorded, not silently
        # dropped; require those records to be NoRoot and to stay rare
        # (TruncationOverflow leaves the sweep instead of being recorded)
        benign = all(kind in ("NoRoot",)
                     for rep in reports for _, kind in rep.failures)
        coverage = min(1.0 - len(rep.failures) / rep.members_total
                       for rep in reports)
        worst_min = min(rep.min_action for rep in reports)
        worst_cells = max(max(rep.argmax_cells_off, default=0)
                          for rep in reports)
    ok = (all_pass and benign and coverage >= 0.9
          and budget.elapsed < 120.0)
    report(3, "interior minimization sweep", ok,
           f"{len(reports)} pairs, min S - m = {worst_min - m:+.2e}, "
           f"worst argmax offset {worst_cells} cells, coverage "
           f"{coverage:.0%}, {budget.elapsed:.1f}s")
    assert all_pass
    assert benign
    assert coverage >= 0.9
    assert budget.elapsed < 120.0


def test_acceptance_4_limit_paths(townes, nl3):
    with Budget("limit paths", 60.0) as budget:
        m = townes.level
        paths = []
        details = []
        for alpha, beta in ((1.0, 1.0), (0.0, -1.0)):
            assert classify_exponents(alpha, beta, 3.0, 2) == "Limit"
            se = ScalingExponents(alpha, beta)
            path = build_path(moments(townes.profile, nl3), se)
            first = path.action_values[path.t <= path.segment_breaks[0]]
            rising = bool(np.all(np.diff(first) > 0.0))
            paths.append(path)
            details.append((path.admissible,
                            abs(path.max_action - m) <= 0.01 * m, rising))
        all_ok = all(all(flags) for flags in details)
    ok = all_ok and budget.elapsed < 60.0
    worst = max(abs(p.max_action - m) / m for p in paths)
    report(4, "limit-pair glued paths", ok,
           f"max |S-m|/m = {worst:.1e}, {budget.elapsed:.1f}s")
    assert all_ok
    assert budget.elapsed < 60.0


def test_acceptance_5_kinetic_equivalence(townes, nl3):
    with Budget("T/P equivalence", 60.0) as budget:
        m = townes.level
        q = townes.profile
        scaled = [moments(GridFunction(q.grid, c * q.values), nl3)
                  for c in np.linspace(1.0, 2.0, 11)]
        scaled_report = verify_T_min_over_P(scaled, m, tol=0.01 * m)
        every_c = all(t is not None and abs(t - m) <= 0.01 * m
                      for t in scaled_report.kinetics)
        rng = np.random.default_rng(5)
        perturbed = []
        for _ in range(10):
            eps = rng.uniform(0.05, 0.25)
            width = rng.uniform(0.5, 3.0)
            bump = 1.0 + eps * np.exp(-((q.grid.r / width) ** 2))
            # the 1.2 amplitude margin keeps every trial strictly inside
            # P > 0, so none are skipped by the boundary band
            perturbed.append(moments(GridFunction(q.grid, 1.2 * q.values * bump), nl3))
        pert_report = verify_T_min_over_P(perturbed, m, tol=1e-3 * m)
    ok = (every_c and scaled_report.passed and pert_report.passed
          and not pert_report.skipped and budget.elapsed < 60.0)
    report(5, "kinetic minimum over P >= 0", ok,
           f"ray max dev {max(abs(t - m) for t in scaled_report.kinetics):.2e}, "
           f"perturbed min T - m = {pert_report.min_kinetic - m:+.2e}, "
           f"{budget.elapsed:.1f}s")
    assert every_c
    assert scaled_report.passed
    assert not pert_report.skipped
    assert pert_report.min_kinetic >= m - 1e-3 * m
    assert budget.elapsed < 60.0


def test_acceptance_6_mountain_pass_sandwich(townes, nl3):
    with Budget("mountain pass", 60.0) as budget:
        m = townes.level
        base = moments(townes.profile, nl3)
        paths = []
        for alpha, beta in ((1.0, 0.0), (1.0, -1.0), (2.0, -1.0)):
            se = ScalingExponents(alpha, beta)
            _, _, projected = project_to_constraint(base, se)
            paths.append(build_path(projected, se))
        for alpha, beta in ((1.0, 1.0), (0.0, -1.0)):
            paths.append(build_path(base, ScalingExponents(alpha, beta)))
        estimate = mountain_pass_estimate(paths)
        rel = abs(estimate - m) / m
    ok = rel <= 0.01 and budget.elapsed < 60.0
    report(6, "mountain-pass sandwich", ok,
           f"|c - m|/m = {rel:.2e} over {len(paths)} paths, {budget.elapsed:.1f}s")
    assert rel <= 0.01
    assert budget.elapsed < 60.0


def test_acceptance_7_integrator_order():
    with Budget("integrator order", 60.0) as budget:
        outer = 10.0
        k = J0_FIRST_ZERO / outer
        period = 2.0 * math.pi / math.sqrt(k * k + 1.0)
        errors = []
        for cells in (200, 400, 800):
            grid = RadialGrid(2, outer, cells)
            vals = j0(k * grid.r)
            vals[-1] = 0.0
            mode = GridFunction(grid, vals)
            traj = evolve(mode, GridFunction.zeros(grid), LINEAR_KG,
                          t_max=period)
            errors.append(np.abs(traj.final_u - vals).max())
        ratios = [errors[i] / errors[i + 1] for i in range(2)]
        grid = RadialGrid(2, outer, 800)
        vals = j0(k * grid.r)
        vals[-1] = 0.0
        long_run = evolve(GridFunction(grid, vals), GridFunction.zeros(grid),
                          LINEAR_KG, t_max=10.0 * period)
        drift = abs(energy_drift(long_run))
    ok = (all(r >= 3.5 for r in ratios) and drift <= 1e-5
          and budget.elapsed < 60.0)
    report(7, "integrator order", ok,
           f"ratios {ratios[0]:.2f}, {ratios[1]:.2f}; 10-period drift "
           f"{drift:.1e}, {budget.elapsed:.1f}s")
    assert all(r >= 3.5 for r in ratios)
    assert drift <= 1e-5
    assert budget.elapsed < 60.0


def test_acceptance_8_instability_experiment():
    with Budget("instability", 300.0) as budget:
        gs = shoot_radial(PowerKG(3.0, 0.0), RadialGrid(2, 80.0, 4000))
        nl = gs.nonlinearity
        m = gs.level
        u0 = make_initial_data(gs, 1.05, 1.05)
        traj = evolve(u0, GridFunction.zeros(u0.grid), nl, t_max=40.0, m_ref=m, cfl=0.01)
        membership = traj.records[0]
        action_ok = abs(membership.action - 0.978 * m) <= 1e-3 * m
        p_ok = abs(membership.p_value - 0.73) <= 5e-3
        inside = membership.in_invariant_set
        blew_up = traj.termination == BLOWUP_DETECTED
        monitor = invariant_monitor(traj)
        p0 = membership.p_value
        held = monitor.in_set_throughout and monitor.min_p >= 0.5 * p0
        drift = abs(energy_drift(traj))
    ok = (inside and action_ok and p_ok and blew_up and held
          and drift <= 1e-3 and budget.elapsed < 300.0)
    report(8, "instability experiment", ok,
           f"S/m {membership.action / m:.4f}, P {membership.p_value:.3f}, "
           f"escape t {traj.records[-1].t:.2f}, min P/P0 "
           f"{monitor.min_p / p0:.2f}, pre-escape drift {drift:.1e}, "
           f"{budget.elapsed:.0f}s")
    assert inside and action_ok and p_ok
    assert blew_up
    assert held
    assert drift <= 1e-3
    assert budget.elapsed < 300.0


def test_acceptance_9_strauss_decay(townes):
    with Budget("strauss", 1.0) as budget:
        ratios = strauss_decay_profile(townes.profile)
        bounded = bool(np.all(ratios <= 1.0))
        r = townes.grid.r[1:-1]
        tail = ratios[r >= 5.0]
        decreasing = bool(np.all(np.diff(tail) < 0.0))
    ok = bounded and decreasing and budget.elapsed < 1.0
    report(9, "radial decay bound", ok,
           f"max ratio {ratios.max():.3f}, {budget.elapsed:.2f}s")
    assert bounded
    assert decreasing
    assert budget.elapsed < 1.0


def test_acceptance_10_modulus_action(nl3):
    with Budget("modulus", 5.0) as budget:
        grid = RadialGrid(2, 10.0, 200)
        rng = np.random.default_rng(10)
        general = GeneralG(name="acceptance_quartic",
                           g=lambda s: -s + s**3,
                           G=lambda s: -0.5 * s**2 + 0.25 * s**4,
                           rho=1.0)
        diamagnetic = True
        modulus_exact = True
        for _ in range(100):
            # a sign-changing profile: |v| has its P and S, and no larger gradient
            envelope = np.exp(-grid.r)
            vals = rng.standard_normal(grid.cells + 1) * envelope
            vals[-1] = 0.0
            v = GridFunction(grid, vals)
            w = GridFunction(grid, np.abs(vals))
            if moments(w, nl3).grad > moments(v, nl3).grad + 1e-15:
                diamagnetic = False
            for nl in (nl3, general):
                if moments(v, nl).potential() != moments(w, nl).potential():
                    modulus_exact = False
    ok = diamagnetic and modulus_exact and budget.elapsed < 5.0
    report(10, "modulus action", ok,
           f"100 samples, {budget.elapsed:.2f}s")
    assert diamagnetic
    assert modulus_exact
    assert budget.elapsed < 5.0
