#!/usr/bin/env python3
"""Time the curve build, the cw quantile and the beta0 profile, layer by layer.

    python3 tools/layer_times.py builds --rho 0.1,0.5,0.99,0.9999 --repeat 5
    python3 tools/layer_times.py sets --repeat 3 --n 801
    python3 tools/layer_times.py cw --repeat 5 --n 801
    python3 tools/layer_times.py --src ../parent/src profile --repeat 5

Each subcommand prints one table. A time is the fastest of ``--repeat``
runs, and a count comes from one more, untimed run whose calls
``watching`` records, the one place this script replaces an ``mwiv``
attribute. A digest is the first 16 hex digits of a sha256 over a run's
outputs, equal on two checkouts whose outputs are byte-identical.
``--src`` picks the source tree to import ``mwiv`` from.

``builds``, per (rho, alpha): a vtfo curve build split into the
continuation (``critval._continuation``) and the rest, nearly all
closed-form knots; its knots and continuation steps; the calls per step of
``critval._excess``, whose root is the middle crossing; ``fallbacks``, the
steps whose middle crossing took the bracketed solve, not the predicted
one; the prefix build to ``--prefix-nu``, as the power lab builds its
exact-rho curves, and its knots; and the rows and time of
``curve_csv_text`` on the full curve, the text ``mwiv curve`` writes.

``sets``, per judge design of JUDGE_DESIGNS: a cold vtfo confidence set
over ``default_grid(ctx, data, --n)`` with a fresh memory-only
``CurveLibrary``, with nu_hat, seconds, curve builds (a resumed prefix
included), the continuation steps they add, and a digest of its
statistics, critical values, reject flags and intervals.

``cw``: per rho of the tests' oracle set, one ``cw_critical_value`` call
on 512 T over [-6.3, 14.1] at alpha 0.05, with milliseconds, Newton
iterations in c (calls of ``critval._cw_reject``) and in z (calls of
``critval._cw_residual``, less the one per c iteration that tests for the
inner pair of roots), and the worst |P - 0.95| over the quantiles, P the
acceptance probability ``tests/conftest.py::oracle_cw_accept`` gives at
the returned c. Then, per judge design, a cw set over the grid of
``sets``: seconds, rejects and a digest of its reject flags.

``profile``, per design of the benchmark's ``cs-large-n`` pair (dense,
N 2000 and K 40; 2000 judges with 50 cases each, pi +-0.1), in
milliseconds: ``build_projection``; the first ``estimators._profile`` on
a new context; ``jive_variance``, ``default_grid(ctx, data, 41)`` and a
41-point ms2 set on a context whose profile is built; then the
tracemalloc peaks, in MB of 2**20 bytes, of one build and of the first
profile, each in its own untimed run; and a digest of the variance, the
grid and the set.

Uses numpy, mwiv and, for ``cw``, the tests' oracle.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import math
import os
import sys
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (judges, cases per judge, |pi|): two strong designs and a weak one
JUDGE_DESIGNS = ((40, 10, 1.5), (100, 8, 1.0), (32, 10, 0.3))
# ORACLE_RHO of tests/test_critval.py
CW_RHOS = (0.05, 0.3, 0.5, 0.7, 0.931, 0.99, 0.9999, -0.6)
CW_T = np.linspace(-6.3, 14.1, 512)
ALPHA = 0.05


def fastest(repeat: int, call, fresh=None) -> tuple[float, object]:
    """(fastest seconds, that call's result) of ``repeat`` calls; ``fresh``,
    when given, makes each call's argument outside the timing."""
    best, out = math.inf, None
    for _ in range(repeat):
        arg = (fresh(),) if fresh else ()
        start = time.perf_counter()
        result = call(*arg)
        seconds = time.perf_counter() - start
        if seconds < best:
            best, out = seconds, result
    return best, out


def digest(*parts) -> str:
    """sha256 over the parts in order (an array's bytes, another value's
    repr), cut to 16 hex digits."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()[:16]


def judge_design(mwiv, judges: int, per: int, a: float, seed: int = 1):
    """Judge data: ``judges`` judges with ``per`` cases each, pi alternating
    +-a, beta 1, error correlation 0.5."""
    spec = mwiv.JudgeDesignSpec(n_judges=judges, per_judge=(per,) * judges, pi=tuple(np.resize([a, -a], judges)),
                                beta=1.0, error_corr=0.5, seed=seed)
    return mwiv.simulate_judge_data(spec)


@contextlib.contextmanager
def watching(module, *names):
    """Record each call of ``module.<name>``, for each of ``names``, while
    the block runs. The yielded list holds one record per call, in the
    order the calls began, with its ``name``, ``args``, ``kwargs``,
    ``result`` and ``seconds``."""
    calls, originals = [], {name: getattr(module, name) for name in names}

    def watched(name, f):
        def call(*args, **kwargs):
            record = SimpleNamespace(name=name, args=args, kwargs=kwargs)
            calls.append(record)
            start = time.perf_counter()
            record.result = f(*args, **kwargs)
            record.seconds = time.perf_counter() - start
            return record.result

        return call

    try:
        for name, f in originals.items():
            setattr(module, name, watched(name, f))
        yield calls
    finally:
        for name, f in originals.items():
            setattr(module, name, f)


def steps(curve) -> int:
    """Continuation steps of a built curve (0 for None): its knots past
    ``formula_end``, one per step under any step rule."""
    return 0 if curve is None else int(np.sum(curve.knots_nu > curve.formula_end))


def added_steps(builds) -> int:
    """The continuation steps that recorded ``build_vtfo_curve`` calls
    added: each curve's steps less those of the prefix it resumed."""
    return sum(steps(b.result) - steps(b.kwargs.get("prefix")) for b in builds)


def judge_sets(mwiv, n: int):
    """(label, ctx, data, grid) per design of JUDGE_DESIGNS, the grid
    ``default_grid(ctx, data, n)``."""
    for judges, per, a in JUDGE_DESIGNS:
        data = judge_design(mwiv, judges, per, a)
        ctx = mwiv.build_projection(data)
        yield f"{judges}x{per} +-{a}", ctx, data, mwiv.default_grid(ctx, data, n)


def counted_build(critval, rho: float, alpha: float):
    """(curve, gap evaluations, fallbacks) of one build. Only the bracketed
    solve evaluates the gap at the last crossing itself, the first argument
    of ``_middle_crossing``, so a step that does is a fallback."""
    with watching(critval, "_middle_crossing", "_excess") as calls:
        curve = critval.build_vtfo_curve(rho, alpha)
    evals, fallbacks, last = 0, 0, None
    for c in calls:
        if c.name == "_middle_crossing":
            last = c.args[0]
        else:
            evals, fallbacks = evals + 1, fallbacks + (c.args[0] == last)
    return curve, evals, fallbacks


def builds(mwiv, args) -> None:
    critval = mwiv.critval

    def continuation_s(rho, alpha):
        with watching(critval, "_continuation") as calls:
            critval.build_vtfo_curve(rho, alpha)
        return sum(c.seconds for c in calls)

    print(f"{'rho':>7} {'alpha':>6} {'knots':>8} {'build_s':>9} {'closed_s':>9} {'cont_s':>9} {'steps':>6} "
          f"{'evals/step':>10} {'fallbacks':>9} {'prefix_s':>9} {'p_knots':>8} {'csv_rows':>8} {'csv_s':>8}")
    for alpha in (float(a) for a in args.alpha.split(",")):
        for rho in (float(r) for r in args.rho.split(",")):
            total, cont = fastest(args.repeat, lambda: continuation_s(rho, alpha))
            curve, evals, fallbacks = counted_build(critval, rho, alpha)
            n = steps(curve)
            per_step = f"{evals / n:10.2f}" if n else f"{'-':>10}"
            prefix_s, prefix = fastest(args.repeat,
                                       lambda: critval.build_vtfo_curve(rho, alpha, nu_max=args.prefix_nu))
            csv_s, text = fastest(args.repeat, lambda: critval.curve_csv_text([curve]))
            csv_rows = text.partition("rho,nu,crit\n")[2].count("\n")
            print(f"{rho:7.4g} {alpha:6.3g} {curve.knots_nu.size:8d} {total:9.4f} {total - cont:9.4f} {cont:9.4f} "
                  f"{n:6d} {per_step} {fallbacks:>9} {prefix_s:9.4f} {prefix.knots_nu.size:8d} {csv_rows:8d} "
                  f"{csv_s:8.4f}")


def sets(mwiv, args) -> None:
    print(f"{'design':>14} {'nu_hat':>8} {'set_s':>8} {'builds':>6} {'steps':>7} {'sha256':>16}")
    for label, ctx, data, grid in judge_sets(mwiv, args.n):
        def cold_set():
            return mwiv.invert_confidence_set("vtfo", ctx, data, grid=grid, curves=mwiv.CurveLibrary())

        best, _ = fastest(args.repeat, cold_set)
        with watching(mwiv.critval, "build_vtfo_curve") as calls:
            cs = cold_set()
        nu_hat = float(mwiv.normalized_stats(ctx, data, float(grid[0])).nu)
        print(f"{label:>14} {nu_hat:8.3f} {best:8.4f} {len(calls):6d} {added_steps(calls):7d} "
              f"{digest(cs.statistics, cs.criticals, cs.rejects, cs.intervals):>16}")


def cw(mwiv, args) -> None:
    from conftest import oracle_cw_accept

    print(f"{'rho':>8} {'solve_ms':>9} {'c_iter':>6} {'z_iter':>6} {'worst_size_err':>15}")
    for rho in CW_RHOS:
        best, c = fastest(args.repeat, lambda: mwiv.cw_critical_value(rho, CW_T, ALPHA))
        with watching(mwiv.critval, "_cw_reject", "_cw_residual") as calls:
            mwiv.cw_critical_value(rho, CW_T, ALPHA)
        c_iter = sum(call.name == "_cw_reject" for call in calls)
        err = max(abs(oracle_cw_accept(rho, t, ci) - (1.0 - ALPHA)) for t, ci in zip(CW_T, c))
        print(f"{rho:8.4f} {1e3 * best:9.2f} {c_iter:6d} {len(calls) - 2 * c_iter:6d} {err:15.2e}")

    print(f"\n{'design':>14} {'set_s':>8} {'rejects':>7} {'sha256':>16}")
    for label, ctx, data, grid in judge_sets(mwiv, args.n):
        best, cs = fastest(args.repeat, lambda: mwiv.invert_confidence_set(
            "cw", ctx, data, grid=grid, curves=mwiv.CurveLibrary()))
        print(f"{label:>14} {best:8.4f} {int(cs.rejects.sum()):7d} {digest(cs.rejects):>16}")


def dense_design(mwiv, seed: int):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 7])))
    z = rng.standard_normal((2000, 40))
    e = rng.standard_normal(2000)
    v = 0.5 * e + math.sqrt(0.75) * rng.standard_normal(2000)
    x = z @ np.full(40, 0.15) + v
    return mwiv.Dataset(y=x + e, x=x, instruments=z)


def traced_peak_mb(call) -> tuple[float, object]:
    """(tracemalloc peak of ``call`` in MB, its result)."""
    tracemalloc.start()
    try:
        out = call()
        return tracemalloc.get_traced_memory()[1] / 2**20, out
    finally:
        tracemalloc.stop()


def profile(mwiv, args) -> None:
    from mwiv import estimators

    print(f"{'design':>6} {'build':>8} {'profile':>8} {'variance':>8} {'grid':>8} {'ms2_set':>8} "
          f"{'build_mb':>8} {'profile_mb':>10} {'sha256':>16}")
    for name, data in (("dense", dense_design(mwiv, args.seed)),
                       ("judge", judge_design(mwiv, 2000, 50, 0.1, args.seed))):
        build_s, ctx = fastest(args.repeat, lambda: mwiv.build_projection(data))
        profile_s, _ = fastest(args.repeat, lambda c: estimators._profile(c, data),
                               fresh=lambda: mwiv.build_projection(data))
        estimators._profile(ctx, data)
        beta = mwiv.jive_point_estimate(ctx, data)
        var_s, var = fastest(args.repeat, lambda: mwiv.jive_variance(ctx, data, beta))
        grid_s, grid = fastest(args.repeat, lambda: mwiv.default_grid(ctx, data, 41))
        set_s, cs = fastest(args.repeat, lambda: mwiv.invert_confidence_set("ms2", ctx, data, grid=grid))
        build_mb, fresh_ctx = traced_peak_mb(lambda: mwiv.build_projection(data))
        profile_mb, _ = traced_peak_mb(lambda: estimators._profile(fresh_ctx, data))
        del ctx, fresh_ctx
        ms = [1e3 * s for s in (build_s, profile_s, var_s, grid_s, set_s)]
        print(f"{name:>6} {ms[0]:8.2f} {ms[1]:8.2f} {ms[2]:8.3f} {ms[3]:8.3f} {ms[4]:8.3f} {build_mb:8.1f} "
              f"{profile_mb:10.1f} {digest((var, grid, cs.intervals), cs.statistics, cs.criticals, cs.rejects):>16}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="source tree holding mwiv")
    tables = parser.add_subparsers(dest="table", required=True)
    sub = {}
    for run, repeat, what in ((builds, 5, "vtfo curve builds per (rho, alpha)"),
                              (sets, 3, "cold vtfo confidence sets per judge design"),
                              (cw, 5, "cw quantile solves and cw confidence sets"),
                              (profile, 5, "the beta0 profile and the calls that read it")):
        sub[run] = tables.add_parser(run.__name__, help=what)
        sub[run].add_argument("--repeat", type=int, default=repeat, help="runs per timing; the fastest is shown")
        sub[run].set_defaults(run=run)
    sub[builds].add_argument("--rho", default="0.1,0.5,0.9,0.99,0.9999", help="comma-separated |rho| values")
    sub[builds].add_argument("--alpha", default="0.05", help="comma-separated levels")
    sub[builds].add_argument("--prefix-nu", type=float, default=7.0, help="stop point of the prefix builds")
    for run in (sets, cw):
        sub[run].add_argument("--n", type=int, default=801, help="grid points of each confidence set")
    sub[profile].add_argument("--seed", type=int, default=1, help="design seed")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    sys.path.insert(1, os.path.join(ROOT, "tests"))
    import mwiv

    args.run(mwiv, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
