#!/usr/bin/env python3
"""Time vtfo curve builds per (rho, alpha), split into their two parts.

    python3 tools/build_times.py --rho 0.1,0.5,0.99,0.9999 --alpha 0.05 --repeat 5

For each pair it builds the curve ``--repeat`` times and prints the
fastest build with its split: the continuation (``critval._continuation``)
and the rest, which is nearly all closed-form knots (small-rho limit knots
below the build floor). One more, untimed build counts the continuation's
steps, its gap evaluations per step, the calls to the function whose root
is the middle crossing (``critval._excess``, or ``critval._gap`` in
checkouts that solve it with ``brentq``), and ``fallbacks``, the steps
whose middle crossing took the bracketed solve rather than the predicted
one. A step falls back when the gap is evaluated at the last crossing
itself, which only the bracketed solve does, so in checkouts without the
predictor every step counts ("-" in checkouts without
``critval._middle_crossing``). The last two columns are the fastest
prefix build to ``--prefix-nu`` (``build_vtfo_curve(..., nu_max=...)``, as
the power lab builds its exact-rho curves) and its knot count; a checkout
without prefix builds prints "-". ``csv_rows`` and ``csv_s`` are the row
count of the curve's CSV table and the fastest of ``--repeat`` calls of
``critval.curve_csv_text`` on the full curve, the text ``mwiv curve``
writes. ``--src`` picks the source tree to import ``mwiv`` from, so the
same script times another checkout. Uses numpy and mwiv only.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _wrapped(module, name, hook):
    """Replace ``module.name`` by ``hook(original)``; returns the original."""
    original = getattr(module, name)
    setattr(module, name, hook(original))
    return original


def time_build(critval, rho: float, alpha: float) -> tuple[float, float, int]:
    """(build seconds, continuation seconds, knots) of one build."""
    spent = [0.0]

    def hook(continuation):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return continuation(*args, **kwargs)
            finally:
                spent[0] += time.perf_counter() - start

        return timed

    original = _wrapped(critval, "_continuation", hook)
    try:
        start = time.perf_counter()
        curve = critval.build_vtfo_curve(rho, alpha)
        total = time.perf_counter() - start
    finally:
        critval._continuation = original
    return total, spent[0], curve.knots_nu.size


def time_prefix(critval, rho: float, alpha: float, nu_max: float, repeat: int) -> tuple[float, int]:
    """(fastest seconds, knots) of ``repeat`` builds that stop at ``nu_max``."""
    best, knots = float("inf"), 0
    for _ in range(repeat):
        start = time.perf_counter()
        curve = critval.build_vtfo_curve(rho, alpha, nu_max=nu_max)
        best, knots = min(best, time.perf_counter() - start), curve.knots_nu.size
    return best, knots


def time_csv(critval, rho: float, alpha: float, repeat: int) -> tuple[int, float]:
    """(table rows, fastest seconds) of ``repeat`` ``curve_csv_text`` calls
    on the full curve."""
    curve = critval.build_vtfo_curve(rho, alpha)
    best, text = float("inf"), ""
    for _ in range(repeat):
        start = time.perf_counter()
        text = critval.curve_csv_text([curve])
        best = min(best, time.perf_counter() - start)
    return text.partition("rho,nu,crit\n")[2].count("\n"), best


def count_steps(critval, rho: float, alpha: float) -> tuple[int, int, int | None]:
    """(continuation steps, gap evaluations, fallbacks) of one build; None
    for the fallbacks of a checkout without ``_middle_crossing``."""
    calls = [0]
    steps = [0]
    last = [None]  # the last crossing of the step being solved
    fallbacks = [0]

    def counter(gap):
        def counted(nu, *args):
            calls[0] += 1
            fallbacks[0] += nu == last[0]
            return gap(nu, *args)

        return counted

    def solver(middle):
        def counted(lo, *args):
            last[0] = lo
            return middle(lo, *args)

        return counted

    def stepper(continuation):
        def counted(*args, **kwargs):
            out = continuation(*args, **kwargs)
            steps[0] += len(out[0])
            return out

        return counted

    gap_name = "_excess" if hasattr(critval, "_excess") else "_gap"
    gap = _wrapped(critval, gap_name, counter)
    continuation = _wrapped(critval, "_continuation", stepper)
    middle = _wrapped(critval, "_middle_crossing", solver) if hasattr(critval, "_middle_crossing") else None
    try:
        critval.build_vtfo_curve(rho, alpha)
    finally:
        setattr(critval, gap_name, gap)
        critval._continuation = continuation
        if middle is not None:
            critval._middle_crossing = middle
    return steps[0], calls[0], None if middle is None else fallbacks[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rho", default="0.1,0.5,0.9,0.99,0.9999", help="comma-separated |rho| values")
    parser.add_argument("--alpha", default="0.05", help="comma-separated levels")
    parser.add_argument("--repeat", type=int, default=5, help="builds per pair; the fastest is shown")
    parser.add_argument("--prefix-nu", type=float, default=7.0, help="stop point of the prefix builds")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="source tree holding mwiv")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from mwiv import critval

    prefixes = "nu_max" in inspect.signature(critval.build_vtfo_curve).parameters
    print(f"{'rho':>7} {'alpha':>6} {'knots':>8} {'build_s':>9} {'closed_s':>9} {'cont_s':>9} "
          f"{'steps':>6} {'evals/step':>10} {'fallbacks':>9} {'prefix_s':>9} {'p_knots':>8} {'csv_rows':>8} {'csv_s':>8}")
    for alpha in (float(a) for a in args.alpha.split(",")):
        for rho in (float(r) for r in args.rho.split(",")):
            runs = [time_build(critval, rho, alpha) for _ in range(args.repeat)]
            total, cont, knots = min(runs)
            steps, evals, fallbacks = count_steps(critval, rho, alpha)
            per_step = f"{evals / steps:10.2f}" if steps else f"{'-':>10}"
            fallbacks = f"{'-' if fallbacks is None else fallbacks:>9}"
            prefix = f"{'-':>9} {'-':>8}"
            if prefixes:
                prefix_s, prefix_knots = time_prefix(critval, rho, alpha, args.prefix_nu, args.repeat)
                prefix = f"{prefix_s:9.4f} {prefix_knots:8d}"
            csv_rows, csv_s = time_csv(critval, rho, alpha, args.repeat)
            print(f"{rho:7.4g} {alpha:6.3g} {knots:8d} {total:9.4f} {total - cont:9.4f} {cont:9.4f} "
                  f"{steps:6d} {per_step} {fallbacks} {prefix} {csv_rows:8d} {csv_s:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
