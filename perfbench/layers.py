"""Per-layer metrics of a traced run, derived from the tracer's stats.

LAYER_METRICS lists every metric a traced run reports, with its unit and
the workloads on which it is predicted to be nonzero.  The self-check
holds the tracer to those predictions; README.md explains them.
"""

import statistics

BS, ODE, RAD = "bs-sweep", "ode-certify", "radial-levels"
ALL = (BS, ODE, RAD)

# (name, unit, workloads predicted to load it)
LAYER_METRICS = [
    ("model.cubic_roots.calls", "count", (BS, ODE)),
    ("model.cubic_roots.busy_s", "s", (BS, ODE)),
    ("model.turning_points.calls", "count", (ODE,)),
    ("quadrature.adaptive_segment.calls", "count", (BS, ODE)),
    ("quadrature.adaptive_segment.n_evals", "count", (BS, ODE)),
    ("quadrature.adaptive_segment.busy_s", "s", (BS, ODE)),
    ("quadrature.sqrt_cubic_segment.calls", "count", ()),
    ("quadrature.sqrt_cubic_polyline.calls", "count", (BS,)),
    ("actions.action_S01.calls", "count", (BS, ODE)),
    ("actions.action_S01.busy_s", "s", (BS, ODE)),
    ("actions.action_S01.n_evals", "count", (BS, ODE)),
    ("actions.action_S01_dE.calls", "count", (BS, ODE)),
    ("actions.action_S01_dE.busy_s", "s", (BS, ODE)),
    ("actions.action_S01_dE.n_evals", "count", (BS, ODE)),
    ("quantization.solve_resonance.calls", "count", (BS, ODE)),
    ("quantization.solve_resonance.busy_s", "s", (BS, ODE)),
    ("quantization.solve_resonance.self_s", "s", (BS, ODE)),
    ("quantization.newton_iters_per_root", "ratio", (BS, ODE)),
    ("quantization.resonance_set.busy_s", "s", (BS,)),
    ("ode_oracle.jost_cplus.calls", "count", (ODE,)),
    ("ode_oracle.jost_cplus.busy_s", "s", (ODE,)),
    ("ode_oracle.jost_cplus.self_s", "s", (ODE,)),
    ("ode_oracle.jost_cplus.R_max_p50", "radius", (ODE,)),
    ("ode_oracle.jost_cplus.plateau_rel_max", "ratio", (ODE,)),
    ("ode_oracle.jost_per_zero", "ratio", (ODE,)),
    ("ode_oracle.integrate_system.calls", "count", (ODE,)),
    ("ode_oracle.integrate_system.busy_s", "s", (ODE,)),
    ("ode_oracle.integrate_system.steps", "count", (ODE,)),
    ("ode_oracle.integrate_system.wronskian_drift_max", "ratio", (ODE,)),
    ("ode_oracle.frobenius_init.busy_s", "s", (ODE,)),
    ("ode_oracle.pplus_eigen_oracle.calls", "count", (RAD,)),
    ("ode_oracle.pplus_eigen_oracle.busy_s", "s", (RAD,)),
    ("ode_oracle.pplus_eigen_oracle.levels", "count", (RAD,)),
    ("scipy.solve_ivp.DOP853.calls", "count", (ODE, RAD)),
    ("scipy.solve_ivp.DOP853.nfev", "count", (ODE, RAD)),
    ("scipy.solve_ivp.DOP853.busy_s", "s", (ODE, RAD)),
    ("scipy.solve_ivp.Radau.calls", "count", (ODE,)),
    ("scipy.solve_ivp.Radau.nfev", "count", (ODE,)),
    ("scipy.solve_ivp.Radau.njev", "count", (ODE,)),
    ("scipy.solve_ivp.Radau.nlu", "count", (ODE,)),
    ("scipy.solve_ivp.Radau.busy_s", "s", (ODE,)),
    ("scipy.brentq.calls", "count", (RAD,)),
    ("cli.render_document.busy_s", "s", ALL),
    ("cli.render_document.bytes", "B", ALL),
    ("cli.main.self_s", "s", ALL),
    ("bench.untraced_s", "s", ALL),
    ("bench.traced_s", "s", ALL),
    ("bench.trace_overhead_frac", "ratio", ()),
]

UNITS = {name: unit for name, unit, _ in LAYER_METRICS}

# Counts that may or may not load a workload, depending on the seeded h:
# the one BS solve inside verify-ode takes the straight segment at
# h >= ~0.12 and the deflected polyline below.
ROUTE_DEPENDENT = {"quadrature.sqrt_cubic_segment.calls": (ODE,),
                   "quadrature.sqrt_cubic_polyline.calls": (ODE,)}


def _field(stats, layer, field):
    """Named counter of one layer; extra fields are summed."""
    if layer not in stats:
        return 0
    stat = stats[layer]
    if field in ("calls", "errors", "busy_s", "self_s"):
        return getattr(stat, field)
    return sum(stat.extra.get(field, ()))


def layer_metrics(stats, untraced_s, traced_s):
    """Every metric of LAYER_METRICS from one traced pass's stats."""
    def get(layer, field):
        return _field(stats, layer, field)

    def values(layer, field):
        return stats[layer].extra.get(field, []) if layer in stats else []

    out = {}
    for name, _, _ in LAYER_METRICS:
        layer, _, field = name.rpartition(".")
        if field in ("calls", "busy_s", "self_s", "n_evals", "steps",
                     "levels", "nfev", "njev", "nlu", "bytes"):
            out[name] = get(layer, field)

    solved = get("quantization.solve_resonance", "calls") \
        - get("quantization.solve_resonance", "errors")
    out["quantization.newton_iters_per_root"] = (
        get("quantization.solve_resonance", "iterations") / solved
        if solved else 0.0)
    r_max = values("ode_oracle.jost_cplus", "R_max")
    out["ode_oracle.jost_cplus.R_max_p50"] = (
        statistics.median(r_max) if r_max else 0.0)
    out["ode_oracle.jost_cplus.plateau_rel_max"] = max(
        values("ode_oracle.jost_cplus", "plateau_rel"), default=0.0)
    zeros = get("ode_oracle.find_resonance_ode", "calls") \
        - get("ode_oracle.find_resonance_ode", "errors")
    out["ode_oracle.jost_per_zero"] = (
        get("ode_oracle.jost_cplus", "calls") / zeros if zeros else 0.0)
    out["ode_oracle.integrate_system.wronskian_drift_max"] = max(
        values("ode_oracle.integrate_system", "wronskian_drift"), default=0.0)
    out["bench.untraced_s"] = untraced_s
    out["bench.traced_s"] = traced_s
    out["bench.trace_overhead_frac"] = traced_s / untraced_s - 1.0
    return {name: out[name] for name, _, _ in LAYER_METRICS}
