#!/usr/bin/env python3
"""Time the conditional-Wald quantile and cw confidence sets.

    python3 tools/cw_times.py --repeat 5 --n 801

For each rho of the tests' oracle set, one ``cw_critical_value`` call on
512 T spread over [-6.3, 14.1] at alpha 0.05: the fastest of ``--repeat``
calls in milliseconds, the Newton iterations it took in c (calls of
``critval._cw_reject``) and in z (calls of ``critval._cw_residual``, less
the one per c iteration that tests for the inner pair of roots), and the
worst |P - 0.95| over the 512 quantiles, where P is the acceptance
probability that ``tests/conftest.py::oracle_cw_accept`` (``np.roots``)
gives at the returned c. A checkout without those two functions prints
``-`` for the counts. Then, on the three judge designs of
``tools/cold_sets.py``, the fastest cw confidence set over
``default_grid(ctx, data, --n)`` in seconds, its reject count and a sha256
over its reject flags. ``--src`` picks the source tree to import ``mwiv``
from, so the same script times another checkout. Uses numpy, mwiv and the
tests' oracle.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from cold_sets import DESIGNS  # noqa: E402

# ORACLE_RHO of tests/test_critval.py
RHOS = (0.05, 0.3, 0.5, 0.7, 0.931, 0.99, 0.9999, -0.6)
T_GRID = np.linspace(-6.3, 14.1, 512)
ALPHA = 0.05


def fastest(repeat: int, call) -> tuple[float, object]:
    best, out = float("inf"), None
    for _ in range(repeat):
        start = time.perf_counter()
        out = call()
        best = min(best, time.perf_counter() - start)
    return best, out


def counted(critval, call) -> tuple[str, str]:
    """Newton iterations in c and in z of one call, or '-' where the
    checkout has no such solver."""
    names = ("_cw_reject", "_cw_residual")
    if not all(hasattr(critval, n) for n in names):
        call()
        return "-", "-"
    originals = [getattr(critval, n) for n in names]
    counts = [0, 0]

    def counting(i):
        def wrapper(*args, **kwargs):
            counts[i] += 1
            return originals[i](*args, **kwargs)
        return wrapper

    for i, n in enumerate(names):
        setattr(critval, n, counting(i))
    try:
        call()
    finally:
        for n, f in zip(names, originals):
            setattr(critval, n, f)
    return str(counts[0]), str(counts[1] - counts[0])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=5, help="calls per timing; the fastest is shown")
    parser.add_argument("--n", type=int, default=801, help="grid points of each confidence set")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="source tree holding mwiv")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    sys.path.insert(1, os.path.join(ROOT, "tests"))
    import mwiv
    from conftest import oracle_cw_accept

    print(f"{'rho':>8} {'solve_ms':>9} {'c_iter':>6} {'z_iter':>6} {'worst_size_err':>15}")
    for rho in RHOS:
        best, c = fastest(args.repeat, lambda: mwiv.cw_critical_value(rho, T_GRID, ALPHA))
        c_iter, z_iter = counted(mwiv.critval, lambda: mwiv.cw_critical_value(rho, T_GRID, ALPHA))
        err = max(abs(oracle_cw_accept(rho, t, ci) - (1.0 - ALPHA)) for t, ci in zip(T_GRID, c))
        print(f"{rho:8.4f} {1e3 * best:9.2f} {c_iter:>6} {z_iter:>6} {err:15.2e}")

    print(f"\n{'design':>14} {'set_s':>8} {'rejects':>7} {'sha256':>16}")
    for judges, per, a in DESIGNS:
        spec = mwiv.JudgeDesignSpec(
            n_judges=judges, per_judge=(per,) * judges, pi=tuple(np.resize([a, -a], judges)),
            beta=1.0, error_corr=0.5, seed=1,
        )
        data = mwiv.simulate_judge_data(spec)
        ctx = mwiv.build_projection(data)
        grid = mwiv.default_grid(ctx, data, args.n)
        best, cs = fastest(args.repeat, lambda: mwiv.invert_confidence_set(
            "cw", ctx, data, grid=grid, curves=mwiv.CurveLibrary()))
        digest = hashlib.sha256(cs.rejects.tobytes()).hexdigest()[:16]
        print(f"{f'{judges}x{per} +-{a}':>14} {best:8.4f} {int(cs.rejects.sum()):7d} {digest:>16}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
