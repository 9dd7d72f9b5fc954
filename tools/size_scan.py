#!/usr/bin/env python3
"""Conditional size of built vtfo curves.

    python3 tools/size_scan.py --rho 0.02,0.3,0.9999 --t 1e-4,1e-3,0.1
    python3 tools/size_scan.py --rho 0.1,0.5,0.9,0.99,0.9999 --dense 2000

For each |rho| of ``--rho`` it builds the curve at alpha 0.05
(``build_vtfo_curve``) and prints, for each T of ``--t``, p - alpha, where
p is the exact rejection probability of nu | T ~ N(T, rho^2) against the
curve that ``tests/conftest.py::conditional_reject_prob`` integrates. A
negative entry is a conservative test, a positive one over-rejects. The
last column is the worst |p - alpha| of the row.

``--dense N`` scans the continuation range instead: N uniform T on
[t_tilde, t_last] and 50 geometric T in t_tilde + [1e-4, 2]. Per |rho| it
prints the worst |p - alpha| and the T where it occurs, near the tangency
(T <= t_tilde + 2) and in the tail (T past t_tilde + 2), and the seconds
the scan took. ``--src`` picks the source tree to import ``mwiv`` from,
so the same script scans another checkout. Uses numpy, mwiv and the tests'
oracle.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

ALPHA = 0.05
NEAR = 2.0  # the near-tangency range is t_tilde + [0, NEAR]


def dense_ts(np, t_tilde: float, t_last: float, n: int):
    """The dense scan's T: n uniform on [t_tilde, t_last] and 50 geometric
    in t_tilde + [1e-4, NEAR], those past t_last dropped, sorted."""
    ts = np.concatenate([np.linspace(t_tilde, t_last, n), t_tilde + np.geomspace(1e-4, NEAR, 50)])
    return np.unique(ts[ts <= t_last])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rho", default="0.01,0.02,0.05,0.1,0.2,0.3,0.5,0.9,0.99,0.9999",
                        help="comma-separated |rho| of the curves")
    parser.add_argument("--t", default="1e-4,1e-3,3e-3,0.01,0.03,0.1", help="comma-separated conditioning values")
    parser.add_argument("--dense", type=int, default=0, metavar="N",
                        help="scan N uniform T over the continuation range instead of --t")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="source tree holding mwiv")
    args = parser.parse_args(argv)
    rhos = [float(r) for r in args.rho.split(",")]
    sys.path.insert(0, os.path.abspath(args.src))
    sys.path.insert(1, os.path.join(ROOT, "tests"))
    import numpy as np

    import mwiv
    from conftest import conditional_reject_prob

    if args.dense:
        print(f"{'rho':>8} {'t_tilde':>8} {'t_last':>8} {'near':>9} {'at_T':>10} {'tail':>9} {'at_T':>10} "
              f"{'scan_s':>7}")
        for rho in rhos:
            curve = mwiv.build_vtfo_curve(rho, ALPHA)
            start = time.perf_counter()
            ts = dense_ts(np, curve.t_tilde, curve.t_last, args.dense)
            errs = np.abs([conditional_reject_prob(curve, t) - ALPHA for t in ts])
            seconds = time.perf_counter() - start
            cells = []
            for part in (ts <= curve.t_tilde + NEAR, ts > curve.t_tilde + NEAR):
                if part.any():
                    i = np.flatnonzero(part)[np.argmax(errs[part])]
                    cells.append(f"{errs[i]:9.2e} {ts[i]:10.4f}")
                else:
                    cells.append(f"{'-':>9} {'-':>10}")
            print(f"{rho:8.4f} {curve.t_tilde:8.4f} {curve.t_last:8.4f} {cells[0]} {cells[1]} {seconds:7.1f}")
        return 0

    ts = [float(t) for t in args.t.split(",")]
    print(f"{'rho':>8} " + " ".join(f"{t:>9.0e}" for t in ts) + f" {'worst':>9}")
    for rho in rhos:
        curve = mwiv.build_vtfo_curve(rho, ALPHA)
        errs = [conditional_reject_prob(curve, t) - ALPHA for t in ts]
        print(f"{rho:8.4f} " + " ".join(f"{e:+9.1e}" for e in errs) + f" {max(map(abs, errs)):9.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
