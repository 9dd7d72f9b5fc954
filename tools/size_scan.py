#!/usr/bin/env python3
"""Conditional size of built vtfo curves at small conditioning values.

    python3 tools/size_scan.py --rho 0.02,0.3,0.9999 --t 1e-4,1e-3,0.1

For each |rho| of ``--rho`` it builds the curve at alpha 0.05
(``build_vtfo_curve``) and prints, for each T of ``--t``, p - alpha, where
p is the exact rejection probability of nu | T ~ N(T, rho^2) against the
curve that ``tests/conftest.py::conditional_reject_prob`` integrates. A
negative entry is a conservative test, a positive one over-rejects. The
last column is the worst |p - alpha| of the row. ``--src`` picks the
source tree to import ``mwiv`` from, so the same script scans another
checkout. Uses numpy, mwiv and the tests' oracle.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

ALPHA = 0.05


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rho", default="0.01,0.02,0.05,0.1,0.2,0.3,0.5,0.9,0.99,0.9999",
                        help="comma-separated |rho| of the curves")
    parser.add_argument("--t", default="1e-4,1e-3,3e-3,0.01,0.03,0.1", help="comma-separated conditioning values")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="source tree holding mwiv")
    args = parser.parse_args(argv)
    rhos = [float(r) for r in args.rho.split(",")]
    ts = [float(t) for t in args.t.split(",")]
    sys.path.insert(0, os.path.abspath(args.src))
    sys.path.insert(1, os.path.join(ROOT, "tests"))
    import mwiv
    from conftest import conditional_reject_prob

    print(f"{'rho':>8} " + " ".join(f"{t:>9.0e}" for t in ts) + f" {'worst':>9}")
    for rho in rhos:
        curve = mwiv.build_vtfo_curve(rho, ALPHA)
        errs = [conditional_reject_prob(curve, t) - ALPHA for t in ts]
        print(f"{rho:8.4f} " + " ".join(f"{e:+9.1e}" for e in errs) + f" {max(map(abs, errs)):9.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
