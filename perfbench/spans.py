"""Per-layer tracing from outside the program.

The tracer wraps mwiv's layer-boundary functions and methods while it is
installed and restores the originals afterwards; the package itself is not
modified. Most modules bind names directly (``from .critval import
cw_critical_value``), so every module namespace that holds the original
function object gets the wrapper, and methods are replaced on their class.

Inner numeric helpers (``closed_form_c``, ``t2_w_curve``, ``fixed_point``,
``find_tangency``, ``extend_three_crossing``) are left unwrapped: a curve
build calls them once per knot, and wrapping them would multiply the build
time the trace is meant to attribute.

Spans are kept in memory, one per wrapped call, with the span that caused
it and the top-level call it belongs to. A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import tracemalloc

# (module, attribute, group). A group is the unit the per-layer metrics add up.
FUNCTIONS = [
    ("projection", "build_projection", "projection.build"),
    ("projection", "quadratic_form_Q", "projection.other"),
    ("projection", "cross_moment_B", "projection.other"),
    ("estimators", "normalized_stats", "estimators"),
    ("estimators", "variance_estimates_at", "estimators"),
    ("estimators", "jive_point_estimate", "estimators"),
    ("estimators", "jive_variance", "estimators"),
    ("estimators", "jive_t_squared", "estimators"),
    ("estimators", "t_squared_from_triple", "estimators"),
    ("critval", "build_vtfo_curve", "critval.build"),
    ("critval", "cw_critical_value", "critval.cw"),
    ("critval", "load_curve_csv", "critval.load"),
    ("critval", "load_two_sided_table", "critval.load"),
    ("critval", "write_curve_csv", "critval.write"),
    ("critval", "evaluate_critical_value", "critval.eval"),
    ("critval", "curve_csv_text", "output"),
    ("inference", "run_test", "inference"),
    ("inference", "invert_confidence_set", "inference"),
    ("inference", "default_grid", "inference"),
    ("inference", "detect_unbounded", "inference"),
    ("inference", "cs_csv_text", "output"),
    ("inference", "write_cs_csv", "output"),
    ("power", "rejection_rates", "power"),
    ("power", "alternative_variances", "power"),
    ("power", "draw_q_tr", "power"),
    ("power", "analytic_power_bounds", "power"),
    ("power", "power_csv_text", "output"),
    ("power", "write_power_csv", "output"),
    ("power", "write_power_svg", "output"),
    ("data", "read_dataset_csv", "data.read"),
    ("data", "write_dataset_csv", "output"),
    ("judge", "simulate_judge_data", "judge"),
    ("judge", "judge_population_moments", "judge"),
    ("cli", "main", "cli"),
]

# (module, class, method, group)
METHODS = [
    ("projection", "ProjectionContext", "quad_pp", "projection.kernel"),
    ("projection", "ProjectionContext", "pair_weighted", "projection.kernel"),
    ("projection", "ProjectionContext", "annihilate", "projection.kernel"),
    ("projection", "ProjectionContext", "leave_out_fit", "projection.kernel"),
    ("critval", "CurveCache", "get", "critval.get"),
    ("critval", "CriticalValueCurve", "evaluate", "critval.eval"),
    ("critval", "CriticalValueCurve", "evaluate_array", "critval.eval"),
    ("critval", "TwoSidedTable", "lookup", "critval.eval"),
    ("critval", "TwoSidedTable", "lookup_array", "critval.eval"),
]

# name -> unit; the order is the report order.
PER_LAYER = {
    "projection.build_s": "s",
    "projection.build_peak_mb": "MB",
    "projection.kernel_calls": "count",
    "projection.kernel_s": "s",
    "estimators.stats_calls": "count",
    "estimators.self_s": "s",
    "critval.curve_builds": "count",
    "critval.curve_build_s": "s",
    "critval.knots_built": "count",
    "critval.cache_gets": "count",
    "critval.cache_hit_ratio": "ratio",
    "critval.disk_loads": "count",
    "critval.load_s": "s",
    "critval.cache_bytes": "bytes",
    "critval.write_s": "s",
    "critval.cw_solves": "count",
    "critval.cw_s": "s",
    "critval.eval_s": "s",
    "inference.grid_points": "count",
    "inference.self_s": "s",
    "power.cells": "count",
    "power.draws": "count",
    "power.self_s": "s",
    "data.read_s": "s",
    "cli.calls": "count",
    "cli.output_s": "s",
    "judge.simulate_s": "s",
    "trace.overhead_pct": "%",
}

# Work done inside a build, a load or a cache write (say, the CSV text of a
# curve being cached) is charged to that group, not to the callee's own.
_INCLUSIVE = {"critval.build", "critval.load", "critval.write"}

# per-layer time metric -> the group whose self time it sums
_TIME_GROUPS = {
    "projection.build_s": "projection.build",
    "projection.kernel_s": "projection.kernel",
    "estimators.self_s": "estimators",
    "critval.curve_build_s": "critval.build",
    "critval.load_s": "critval.load",
    "critval.write_s": "critval.write",
    "critval.cw_s": "critval.cw",
    "critval.eval_s": "critval.eval",
    "inference.self_s": "inference",
    "power.self_s": "power",
    "data.read_s": "data.read",
    "cli.output_s": "output",
    "judge.simulate_s": "judge",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, call, name, group, start, dur, self)
        self._stack: list[list] = []  # [span id, child time, charged group]
        self._next_id = 0
        self._call = 0
        self._patches: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Start a fresh tally (the span log is kept)."""
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.peak_build_bytes = 0

    def _count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mods = [m for name, m in list(sys.modules.items()) if m is not None and name.split(".")[0] == "mwiv"]
        by_name = {m.__name__.rpartition(".")[2]: m for m in mods}
        for mod_name, attr, group in FUNCTIONS:
            home = by_name.get(mod_name)
            if home is None or not hasattr(home, attr):
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, f"{mod_name}.{attr}", group)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, meth, group in METHODS:
            cls = getattr(by_name.get(mod_name), cls_name, None)
            if cls is None:
                continue
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, f"{cls_name}.{meth}", group))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- spans ----------------------------------------------------------------

    def _wrap(self, fn, name: str, group: str):
        tracer = self
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            if not tracer._stack:
                tracer._call += 1
            parent, inherited = tracer._stack[-1][::2] if tracer._stack else (-1, None)
            charge = inherited if inherited in _INCLUSIVE else group
            frame = [span_id, 0.0, charge]
            tracer._stack.append(frame)
            builds_before = tracer.counts.get("critval.build", 0)
            measure_mem = group == "projection.build"
            if measure_mem:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if measure_mem:
                    tracer.peak_build_bytes = max(tracer.peak_build_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                tracer._stack.pop()
                dur = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                own = dur - frame[1]
                tracer.spans.append((span_id, parent, tracer._call, name, charge, start, dur, own))
                tracer.self_time[charge] = tracer.self_time.get(charge, 0.0) + own
                tracer._count(group)
                tracer._count(name)
            if after is not None:
                after(tracer, args, kwargs, result, builds_before)
            return result

        return wrapper

    # -- reporting --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values of the current tally; the run adds the overhead."""
        c = self.counts
        out = {name: self.self_time.get(group, 0.0) for name, group in _TIME_GROUPS.items()}
        gets = c.get("critval.get", 0)
        out.update(
            {
                "projection.build_peak_mb": self.peak_build_bytes / 2**20,
                "projection.kernel_calls": c.get("projection.kernel", 0),
                "estimators.stats_calls": c.get("estimators.normalized_stats", 0),
                "critval.curve_builds": c.get("critval.build", 0),
                "critval.knots_built": c.get("knots", 0),
                "critval.cache_gets": gets,
                "critval.cache_hit_ratio": (gets - c.get("gets_built", 0)) / gets if gets else 0.0,
                "critval.disk_loads": c.get("critval.load", 0),
                "critval.cache_bytes": c.get("load_bytes", 0),
                "critval.cw_solves": c.get("critval.cw", 0),
                "inference.grid_points": c.get("grid_points", 0),
                "power.cells": c.get("cells", 0),
                "power.draws": c.get("draws", 0),
                "cli.calls": c.get("cli", 0),
            }
        )
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, call, name, group, start, dur, own in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "call": call, "name": name, "group": group,
                         "start": start, "dur": dur, "self": own}
                    )
                    + "\n"
                )


def _after_build(tracer, args, kwargs, result, builds_before):
    tracer._count("knots", int(result.knots_nu.size))


def _after_get(tracer, args, kwargs, result, builds_before):
    if tracer.counts.get("critval.build", 0) > builds_before:
        tracer._count("gets_built")


def _after_load(tracer, args, kwargs, result, builds_before):
    path = args[0] if args else kwargs.get("path")
    try:
        tracer._count("load_bytes", os.path.getsize(path))
    except (OSError, TypeError):
        pass


def _after_cs(tracer, args, kwargs, result, builds_before):
    tracer._count("grid_points", int(result.grid_n))


def _after_power(tracer, args, kwargs, result, builds_before):
    cells = int(result.delta_grid.size)
    tracer._count("cells", cells * len(result.methods))
    tracer._count("draws", cells * int(result.n_draws))


_AFTER = {
    "critval.build_vtfo_curve": _after_build,
    "CurveCache.get": _after_get,
    "critval.load_curve_csv": _after_load,
    "critval.load_two_sided_table": _after_load,
    "inference.invert_confidence_set": _after_cs,
    "power.rejection_rates": _after_power,
}
