#!/usr/bin/env python3
"""Time the beta0 profile and the calls that read it, per cs-large-n design.

    python3 tools/profile_times.py --repeat 5

The designs are the benchmark's ``cs-large-n`` pair: dense instruments
with N = 2000 and K = 40 (first stage 0.15 per instrument, error
correlation 0.5) and a judge design of 2000 judges with 50 cases each (pi
alternating +-0.1, error correlation 0.5). For each it prints the fastest
of ``--repeat`` runs, in milliseconds, of:

* ``build``: ``build_projection``;
* ``profile``: the first ``estimators._profile`` call on a new context,
  which builds the profile;
* ``variance``, ``grid`` and ``ms2_set``: ``jive_variance``,
  ``default_grid(ctx, data, 41)`` and a 41-point ms2
  ``invert_confidence_set`` on a context whose profile was already built.
  A checkout that memoizes the profile serves these from it; one that
  does not builds it again in each call.

and two memory columns, in MB of 2**20 bytes: ``build_mb`` and
``profile_mb``, the tracemalloc peaks of one ``build_projection`` and of
the first profile on a new context, each measured in its own untimed run.

``sha256`` covers the variance, the grid and the ms2 set's statistics,
critical values, reject flags and intervals; two checkouts print the same
digest when those are byte-identical. ``--src`` picks the source tree to
import ``mwiv`` from, so the same script times another checkout. Uses
numpy and mwiv only.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import time
import tracemalloc

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def dense_design(mwiv, seed: int):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 7])))
    z = rng.standard_normal((2000, 40))
    e = rng.standard_normal(2000)
    v = 0.5 * e + math.sqrt(0.75) * rng.standard_normal(2000)
    x = z @ np.full(40, 0.15) + v
    return mwiv.Dataset(y=x + e, x=x, instruments=z)


def judge_design(mwiv, seed: int):
    spec = mwiv.JudgeDesignSpec(n_judges=2000, per_judge=(50,) * 2000, pi=tuple(np.resize([0.1, -0.1], 2000)),
                                beta=1.0, error_corr=0.5, seed=seed)
    return mwiv.simulate_judge_data(spec)


def fastest(call, repeat: int, fresh=None) -> tuple[float, object]:
    """(fastest milliseconds, last result) of ``repeat`` calls; ``fresh``,
    when given, makes each call's argument outside the timing."""
    best, out = math.inf, None
    for _ in range(repeat):
        arg = fresh() if fresh else None
        start = time.perf_counter()
        out = call(arg) if fresh else call()
        best = min(best, time.perf_counter() - start)
    return 1e3 * best, out


def traced_peak_mb(call) -> tuple[float, object]:
    """(tracemalloc peak of ``call`` in MB, its result)."""
    tracemalloc.start()
    try:
        out = call()
        return tracemalloc.get_traced_memory()[1] / 2**20, out
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=5, help="runs per call; the fastest is shown")
    parser.add_argument("--seed", type=int, default=1, help="design seed")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="source tree holding mwiv")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import mwiv
    from mwiv import estimators

    print(f"{'design':>6} {'build':>8} {'profile':>8} {'variance':>8} {'grid':>8} {'ms2_set':>8} "
          f"{'build_mb':>8} {'profile_mb':>10} {'sha256':>16}")
    for name, make in (("dense", dense_design), ("judge", judge_design)):
        data = make(mwiv, args.seed)
        build_ms, ctx = fastest(lambda: mwiv.build_projection(data), args.repeat)
        profile_ms, _ = fastest(lambda c: estimators._profile(c, data), args.repeat,
                                fresh=lambda: mwiv.build_projection(data))
        estimators._profile(ctx, data)
        beta = mwiv.jive_point_estimate(ctx, data)
        var_ms, var = fastest(lambda: mwiv.jive_variance(ctx, data, beta), args.repeat)
        grid_ms, grid = fastest(lambda: mwiv.default_grid(ctx, data, 41), args.repeat)
        set_ms, cs = fastest(lambda: mwiv.invert_confidence_set("ms2", ctx, data, grid=grid), args.repeat)
        build_mb, fresh_ctx = traced_peak_mb(lambda: mwiv.build_projection(data))
        profile_mb, _ = traced_peak_mb(lambda: estimators._profile(fresh_ctx, data))
        del fresh_ctx
        h = hashlib.sha256(repr((var, grid, cs.intervals)).encode())
        for part in (cs.statistics, cs.criticals, cs.rejects):
            h.update(part.tobytes())
        print(f"{name:>6} {build_ms:8.2f} {profile_ms:8.2f} {var_ms:8.3f} {grid_ms:8.3f} {set_ms:8.3f} "
              f"{build_mb:8.1f} {profile_mb:10.1f} {h.hexdigest()[:16]:>16}")
        del ctx
    return 0


if __name__ == "__main__":
    sys.exit(main())
