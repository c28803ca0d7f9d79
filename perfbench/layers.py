"""Per-layer metrics from the spans of one traced pass over a workload.

A span is [name, start, end, parent_index, ok] as child.py records it;
names are `<module>.<function>`, so the layer of a span is its module.
A span's self time is its duration minus the durations of its direct
children.  Every span nests under the `cli.run` root of its process, so
the layer self times of a pass add up to its traced solve_s.
"""

LAYERS = ("radial_core", "model", "ground_state", "paths", "evolution", "cli")

# metric group -> the spans it covers
GROUPS = {
    "radial_core.grid": ("radial_core.RadialGrid",),
    "radial_core.norms": ("radial_core.l2_norm_sq", "radial_core.grad_norm_sq",
                          "radial_core.h1_norm_sq"),
    "radial_core.io": ("radial_core.save_profile", "radial_core.load_profile"),
    "model.functionals": ("model.action_S", "model.constraint_K", "model.pohozaev_P",
                          "model.kinetic_T", "model.nehari_K", "model.pohozaev_residual",
                          "model.energy_E", "model.power_integral"),
    "ground_state.solve": ("ground_state.shoot_radial", "ground_state.closed_form_1d"),
    "ground_state.residual": ("ground_state.equation_residual",),
    "paths.rescale": ("paths.rescale",),
    "paths.project": ("paths.project_to_constraint", "paths.project_to_P_zero"),
    "paths.path": ("paths.build_path_interior", "paths.build_path_limit"),
    "paths.sweep": ("paths.verify_min_on_constraint", "paths.verify_T_min_over_P",
                    "paths.default_trial_family"),
    "evolution.evolve": ("evolution.evolve",),
    "evolution.diag": ("evolution._record", "evolution._outer_fraction"),
    "evolution.initial_data": ("evolution.make_initial_data",),
}


def span_totals(spans):
    """name -> [calls, self seconds, inclusive seconds, failed calls]."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {}
    for i, (name, start, end, _, ok) in enumerate(spans):
        entry = totals.setdefault(name, [0, 0.0, 0.0, 0])
        entry[0] += 1
        entry[1] += (end - start) - child_time[i]
        entry[2] += end - start
        entry[3] += not ok
    return totals


def merge(totals_list):
    merged = {}
    for totals in totals_list:
        for name, (calls, self_s, incl_s, failed) in totals.items():
            entry = merged.setdefault(name, [0, 0.0, 0.0, 0])
            entry[0] += calls
            entry[1] += self_s
            entry[2] += incl_s
            entry[3] += failed
    return merged


def _group(totals, group):
    calls = self_s = incl_s = failed = 0
    for name in GROUPS[group]:
        if name in totals:
            c, s, i, f = totals[name]
            calls, self_s, incl_s, failed = calls + c, self_s + s, incl_s + i, failed + f
    return calls, self_s, incl_s, failed


def layer_self(totals):
    out = {layer: 0.0 for layer in LAYERS}
    for name, (_, self_s, _, _) in totals.items():
        out[name.split(".", 1)[0]] += self_s
    return out


def metrics(totals, counts):
    """Per-layer metrics of one traced pass.

    totals: merged span_totals over the pass's processes; counts: the
    exact counts derived from the pass's outputs.  Ratios over zero calls
    read 0.
    """
    def per(value, n, scale=1.0):
        return scale * value / n if n else 0.0

    out = {f"{layer}.self_s": s for layer, s in layer_self(totals).items()}
    for group in ("radial_core.grid", "radial_core.norms", "model.functionals",
                  "ground_state.solve", "paths.rescale", "paths.project", "paths.path",
                  "evolution.evolve"):
        calls, self_s, _, _ = _group(totals, group)
        out[f"{group}.calls"] = calls
        out[f"{group}.s"] = self_s
    for group in ("radial_core.io", "ground_state.residual", "paths.sweep"):
        out[f"{group}.s"] = _group(totals, group)[1]
    out["model.functionals.us_per_call"] = per(out["model.functionals.s"],
                                               out["model.functionals.calls"], 1e6)
    project_calls, _, _, project_failed = _group(totals, "paths.project")
    out["paths.project.failed"] = project_failed
    out["paths.project.success_ratio"] = per(project_calls - project_failed, project_calls)

    # diagnostics and initial data are whole operations: inclusive time
    diag_s = _group(totals, "evolution.diag")[2]
    evolve_s = _group(totals, "evolution.evolve")[2]
    steps, records = counts["evolution.steps"], counts["evolution.records"]
    out["evolution.steps"] = steps
    out["evolution.records"] = records
    out["evolution.diag.s"] = diag_s
    out["evolution.diag.us_per_record"] = per(diag_s, records, 1e6)
    out["evolution.leapfrog.us_per_step"] = per(evolve_s - diag_s, steps, 1e6)
    out["evolution.initial_data.s"] = _group(totals, "evolution.initial_data")[2]
    for key, value in counts.items():
        if key.startswith("evolution.termination.") or key in ("cli.out_bytes",
                                                               "radial_core.io.bytes"):
            out[key] = value
    return out


def consistency(totals, counts):
    """Trace-derived counts that must equal the output-derived ones."""
    record_spans = totals.get("evolution._record", [0])[0]
    projections, _, _, failed = _group(totals, "paths.project")
    return [
        ("trace records", record_spans == counts["evolution.records"],
         f"{record_spans} _record spans, {counts['evolution.records']} records derived"),
        ("trace projections", projections == counts["paths.members"],
         f"{projections} projections traced, {counts['paths.members']} members in outputs"),
        ("trace projection failures", failed == counts["paths.members_failed"],
         f"{failed} failed projections traced, "
         f"{counts['paths.members_failed']} blank members in outputs"),
    ]
