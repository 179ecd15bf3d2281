"""In-memory span tracer that wraps the public functions of conires.

The wrappers live here, in the benchmark, not in the program: a traced
run patches each public function of the traced modules wherever a
conires module binds it (``from .x import y`` copies the binding into
the calling module, so patching only the defining module would record
nothing), plus ``solve_ivp`` and ``brentq`` where ``ode_oracle`` looks
them up.  ``uninstall`` restores every original binding.

A span is (name, start, end, parent, run_id) with perf_counter times
and parent the index of the enclosing span (or None).  Spans stay in a
list until the run ends.  Per name the tracer keeps calls, busy time
(outermost spans of that name only, so recursion is not counted twice)
and self time, which is a span's duration minus the time covered by its
child conires spans.  Library spans (scipy) do not subtract from their
caller's self time: the caller asked for that work, and the library's
own busy time is reported under its own name.

The tracer is single-threaded by design: the benchmark runs the
program serially, with RES_LAT_THREADS unset.
"""

import inspect
import json
import math
import sys
import time
from collections import defaultdict

TRACED_MODULES = ("cli", "quantization", "actions", "quadrature", "model",
                  "ode_oracle")


class _Stat:
    __slots__ = ("calls", "errors", "busy_s", "self_s", "active", "extra")

    def __init__(self):
        self.calls = 0
        self.errors = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.active = 0
        self.extra = defaultdict(list)


def _solve_ivp_name(args, kwargs):
    return "scipy.solve_ivp." + str(kwargs.get("method", "RK45"))


def _observe_solve_ivp(stat, result):
    for key in ("nfev", "njev", "nlu"):
        stat.extra[key].append(int(getattr(result, key, 0)))


def _observe(key, get):
    def observe(stat, result):
        stat.extra[key].append(get(result))
    return observe


def _observe_jost(stat, result):
    stat.extra["R_max"].append(result.R_max)
    stat.extra["plateau_rel"].append(
        result.plateau_error / abs(result.c_plus) if result.c_plus
        else math.inf)


def _observe_integration(stat, result):
    stat.extra["steps"].append(result.steps)
    stat.extra["wronskian_drift"].append(result.wronskian_drift)


# Values read off a layer's return value, keyed by wrapped name.
_OBSERVERS = {
    "quadrature.adaptive_segment": _observe("n_evals", lambda r: r[2]),
    "actions.action_S01": _observe("n_evals", lambda r: r.n_evals),
    "actions.action_S01_dE": _observe("n_evals", lambda r: r.n_evals),
    "quantization.solve_resonance": _observe("iterations",
                                             lambda r: r.iterations),
    "ode_oracle.jost_cplus": _observe_jost,
    "ode_oracle.integrate_system": _observe_integration,
    "ode_oracle.pplus_eigen_oracle": _observe("levels", len),
    "cli.render_document": _observe("bytes",
                                    lambda r: len(r.encode("utf-8"))),
    "scipy.solve_ivp": _observe_solve_ivp,
}


class Tracer:
    """Span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.stats = defaultdict(_Stat)
        self._stack = []  # [span index, child time] per open span
        self._patches = []  # (namespace dict, key, original)

    def _wrap(self, fn, name_of, observe, layer):
        spans, stack, stats, run_id = (self.spans, self._stack, self.stats,
                                       self.run_id)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs)
            stat = stats[name]
            parent = stack[-1] if stack else None
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            stat.active += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                end = clock()
                stack.pop()
                stat.active -= 1
                duration = end - start
                spans[frame[0]] = (name, start, end,
                                   None if parent is None else parent[0],
                                   run_id)
                stat.calls += 1
                if stat.active == 0:
                    stat.busy_s += duration
                stat.self_s += duration - frame[1]
                if layer and parent is not None:
                    parent[1] += duration
            if observe is not None:
                observe(stat, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch_everywhere(self, original, wrapper, namespaces):
        """Rebind ``original`` to ``wrapper`` in every namespace that holds
        it, module-level dicts included (the CLI dispatch table)."""
        for ns in namespaces:
            for key, value in list(ns.items()):
                if value is original:
                    self._patches.append((ns, key, original))
                    ns[key] = wrapper
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k2, v2 in list(value.items()):
                        if v2 is original:
                            self._patches.append((value, k2, original))
                            value[k2] = wrapper

    def install(self):
        import conires  # noqa: F401  (loads every submodule)

        modules = [sys.modules["conires." + m] for m in TRACED_MODULES]
        namespaces = [vars(m) for m in modules] + [vars(sys.modules["conires"])]
        for mod, short in zip(modules, TRACED_MODULES):
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                wrapper = self._wrap(obj, lambda a, k, n=name: n,
                                     _OBSERVERS.get(name), layer=True)
                self._patch_everywhere(obj, wrapper, namespaces)
        oracle = vars(sys.modules["conires.ode_oracle"])
        self._patch_everywhere(
            oracle["solve_ivp"],
            self._wrap(oracle["solve_ivp"], _solve_ivp_name,
                       _OBSERVERS["scipy.solve_ivp"], layer=False),
            [oracle])
        self._patch_everywhere(
            oracle["brentq"],
            self._wrap(oracle["brentq"], lambda a, k: "scipy.brentq", None,
                       layer=False),
            [oracle])

    def uninstall(self):
        for ns, key, original in reversed(self._patches):
            ns[key] = original
        self._patches.clear()

    def write_spans(self, path):
        """Write every span as one JSON line: name, start, end, parent,
        run id."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                name, start, end, parent, run_id = span
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "run": run_id}) + "\n")
