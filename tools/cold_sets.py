#!/usr/bin/env python3
"""Time cold vtfo confidence sets on the default grid, per judge design.

    python3 tools/cold_sets.py --repeat 3 --n 801

Each design is ``JudgeDesignSpec(J, (m,) * J, pi alternating +-a, beta 1,
error_corr 0.5, seed 1)``: 40 x 10 at +-1.5 and 100 x 8 at +-1.0 (strong)
and 32 x 10 at +-0.3 (weak). For each it inverts the vtfo test over
``default_grid(ctx, data, --n)`` with a fresh memory-only ``CurveLibrary``,
``--repeat`` times, and prints the fastest set in seconds, its curve
builds (calls of ``critval.build_vtfo_curve``, a resumed prefix
included), its continuation steps (new knots placed by
``critval._continuation``), ``nu_hat`` and a sha256 over the set's
statistics, critical values, reject flags and intervals. Two checkouts
print the same digest when their sets are byte-identical. ``--src`` picks
the source tree to import ``mwiv`` from, so the same script times another
checkout. Uses numpy and mwiv only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import os
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (judges, cases per judge, |pi|)
DESIGNS = ((40, 10, 1.5), (100, 8, 1.0), (32, 10, 0.3))


def set_digest(cs) -> str:
    h = hashlib.sha256()
    for part in (cs.statistics, cs.criticals, cs.rejects):
        h.update(part.tobytes())
    h.update(repr(cs.intervals).encode())
    return h.hexdigest()[:16]


@contextlib.contextmanager
def counting(critval):
    """Count, in the yielded [builds, steps], the calls of
    ``critval.build_vtfo_curve`` and the new knots ``critval._continuation``
    places while the block runs; a resumed prefix's knots are not new."""
    counts = [0, 0]
    build, continuation = critval.build_vtfo_curve, critval._continuation
    signature = inspect.signature(continuation)

    def counting_build(*args, **kwargs):
        counts[0] += 1
        return build(*args, **kwargs)

    def counting_continuation(*args, **kwargs):
        out = continuation(*args, **kwargs)
        # start is (t, nu_mid, nu_prev, knots_nu, knots_c)
        start = signature.bind(*args, **kwargs).arguments.get("start")
        counts[1] += len(out[0]) - (len(start[3]) if start else 0)
        return out

    critval.build_vtfo_curve, critval._continuation = counting_build, counting_continuation
    try:
        yield counts
    finally:
        critval.build_vtfo_curve, critval._continuation = build, continuation


def counted_set(mwiv, ctx, data, grid) -> tuple[object, int, int]:
    """(set, builds, continuation steps) of one cold vtfo set."""
    with counting(mwiv.critval) as counts:
        cs = mwiv.invert_confidence_set("vtfo", ctx, data, grid=grid, curves=mwiv.CurveLibrary())
    return cs, counts[0], counts[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=3, help="sets per design; the fastest is shown")
    parser.add_argument("--n", type=int, default=801, help="grid points")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="source tree holding mwiv")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    import mwiv

    print(f"{'design':>14} {'nu_hat':>8} {'set_s':>8} {'builds':>6} {'steps':>7} {'sha256':>16}")
    for judges, per, a in DESIGNS:
        spec = mwiv.JudgeDesignSpec(
            n_judges=judges, per_judge=(per,) * judges, pi=tuple(np.resize([a, -a], judges)),
            beta=1.0, error_corr=0.5, seed=1,
        )
        data = mwiv.simulate_judge_data(spec)
        ctx = mwiv.build_projection(data)
        grid = mwiv.default_grid(ctx, data, args.n)
        best = float("inf")
        for _ in range(args.repeat):
            start = time.perf_counter()
            mwiv.invert_confidence_set("vtfo", ctx, data, grid=grid, curves=mwiv.CurveLibrary())
            best = min(best, time.perf_counter() - start)
        cs, builds, steps = counted_set(mwiv, ctx, data, grid)
        nu_hat = float(mwiv.normalized_stats(ctx, data, float(grid[0])).nu)
        print(f"{f'{judges}x{per} +-{a}':>14} {nu_hat:8.3f} {best:8.4f} {builds:6d} {steps:7d} {set_digest(cs):>16}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
