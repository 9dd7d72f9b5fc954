"""Command-line front end.

Subcommands: estimate, test, cs, curve, power, simulate. Every command is
a pure function of its flags and input files: identical invocations
produce byte-identical outputs. Exit codes: 0 success, 2 input error,
3 missing table dependency, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .critval import CurveCache, curve_csv_text, load_two_sided_table, write_curve_csv
from .data import _dataset_csv_text, read_dataset_csv, write_dataset_csv
from .errors import DataError, NumericalError, TableError
from .estimators import jive_point_estimate, jive_variance, normalized_stats
from .inference import (
    CurveLibrary,
    _fmt_bool,
    cs_csv_text,
    invert_confidence_set,
    run_test,
    write_cs_csv,
)
from .judge import JudgeDesignSpec, simulate_judge_data
from .power import (
    MAX_DELTAS,
    AsymptoticDGP,
    power_csv_text,
    rejection_rates,
    write_power_csv,
    write_power_svg,
)
from .projection import build_projection

__all__ = ["main"]

_DEFAULT_METHODS = "vtfo,cw,ms1,ms2,lm"
_EXIT_CODES = {DataError: 2, TableError: 3, NumericalError: 4}


def _resolve_cache_dir(flag: str | None) -> str:
    return flag or os.environ.get("MWIV_CACHE_DIR") or os.path.join(os.path.expanduser("~"), ".cache", "mwiv")


def _library(args) -> CurveLibrary:
    table = load_two_sided_table(args.vtf_table) if args.vtf_table else None
    return CurveLibrary(cache=CurveCache(directory=_resolve_cache_dir(args.cache_dir)), two_sided=table)


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise DataError(f"grid must be lo:hi:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise DataError(f"grid must be lo:hi:n, got {text!r}") from exc
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise DataError(f"grid must be lo:hi:n with finite lo and hi, got {text!r}")
    return lo, hi, n


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise DataError(f"{flag} must be a comma-separated float list, got {text!r}") from exc
    if not values:
        raise DataError(f"{flag} must be a nonempty comma-separated float list")
    return values


def _load(args):
    data = read_dataset_csv(args.data)
    return data, build_projection(data)


def cmd_estimate(args) -> int:
    data, ctx = _load(args)
    beta_hat = jive_point_estimate(ctx, data)
    v_hat = jive_variance(ctx, data, beta_hat)
    # noiseless designs degenerate the normalized stats while the point
    # estimate stays exact; report nan for the affected fields
    try:
        stats = normalized_stats(ctx, data, args.beta0)
        nu, rho, t_squared = stats.nu, stats.rho, stats.t_squared
    except NumericalError:
        nu = rho = t_squared = float("nan")
    for name, value in (("beta_hat", beta_hat), ("v_hat", v_hat), ("nu", nu), ("rho", rho), ("beta0", args.beta0),
                        ("t_squared", t_squared)):
        print(f"{name}={float(value)!r}")
    return 0


def cmd_test(args) -> int:
    data, ctx = _load(args)
    decision = run_test(args.method, ctx, data, args.beta0, args.alpha, _library(args))
    print(f"method={decision.method}")
    print(f"beta0={decision.beta0!r}")
    print(f"alpha={decision.alpha!r}")
    print(f"statistic={decision.statistic!r}")
    print(f"critical={decision.critical!r}")
    print(f"reject={_fmt_bool(decision.reject)}")
    print(f"nu={decision.nu!r}")
    print(f"rho={decision.rho!r}")
    return 0


def cmd_cs(args) -> int:
    data, ctx = _load(args)
    grid = _parse_grid(args.grid) if args.grid else None
    cs = invert_confidence_set(args.method, ctx, data, args.alpha, grid, _library(args))
    if args.out:
        write_cs_csv(args.out, cs)
    else:
        sys.stdout.write(cs_csv_text(cs))
    return 0


def cmd_curve(args) -> int:
    rhos = _parse_float_list(args.rho, "--rho")
    cache = CurveCache(directory=_resolve_cache_dir(args.cache_dir))
    curves = cache.get_many(rhos, args.alpha)
    if args.out:
        write_curve_csv(args.out, curves)
    else:
        sys.stdout.write(curve_csv_text(curves))
    return 0


def cmd_power(args) -> int:
    dgp = AsymptoticDGP(s=args.s, r=args.r)
    lo, hi, n = _parse_grid(args.grid)
    if not 1 <= n <= MAX_DELTAS:
        raise DataError(f"grid must have n >= 1 and <= {MAX_DELTAS}")
    methods = args.method.split(",") if args.method else _DEFAULT_METHODS.split(",")
    if args.method is None and args.vtf_table:
        methods.append("vtf")
    result = rejection_rates(
        dgp,
        np.linspace(lo, hi, n),
        methods=methods,
        n_draws=args.draws,
        alpha=args.alpha,
        curves=_library(args),
        seed=args.seed,
    )
    if args.out:
        write_power_csv(args.out, result)
        base, ext = os.path.splitext(args.out)
        if ext == ".csv":
            write_power_svg(base + ".svg", result)
    else:
        sys.stdout.write(power_csv_text(result))
    return 0


def cmd_simulate(args) -> int:
    pis = _parse_float_list(args.pi, "--pi")
    if len(pis) == 1:
        pis = pis * args.judges
    if len(pis) != args.judges:
        raise DataError("--pi must list one value, or one per judge")
    spec = JudgeDesignSpec(
        n_judges=args.judges,
        per_judge=tuple([args.cluster_size] * args.judges),
        pi=tuple(pis),
        beta=args.beta,
        error_corr=args.corr,
        error_scales=(args.scale_e, args.scale_v),
        seed=args.seed,
    )
    data = simulate_judge_data(spec)
    if args.out:
        write_dataset_csv(args.out, data)
    else:
        sys.stdout.write(_dataset_csv_text(data))
    return 0


def _add_common(sub, data=False, beta0=False, method=None, grid=False, out=False, seed=False, alpha=False,
                cache_dir=False, vtf_table=False):
    if data:
        sub.add_argument("--data", required=True, help="dataset CSV (y,x plus z1..zK or judge)")
    if beta0:
        sub.add_argument("--beta0", type=float, default=0.0, help="hypothesized coefficient")
    if alpha:
        sub.add_argument("--alpha", type=float, default=0.05, help="test level in (0, 0.5)")
    if method is not None:
        sub.add_argument("--method", default=method, help="one of vtfo,vtf,cw,ms1,ms2,lm")
    if grid:
        sub.add_argument("--grid", default=None, help="lo:hi:n")
    if out:
        sub.add_argument("--out", default=None, help="output file (stdout when omitted)")
    if seed:
        sub.add_argument("--seed", type=int, default=0, help="RNG seed")
    if cache_dir:
        sub.add_argument("--cache-dir", default=None, help="curve cache directory")
    if vtf_table:
        sub.add_argument("--vtf-table", default=None, help="two-sided table CSV for method vtf")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mwiv",
        description="Estimation, tests, confidence sets, critical-value curves, "
        "power simulation, and data simulation for many-weak-instrument models.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("estimate", help="point estimate, variance, and t-statistic report")
    # estimate reads no curve, but scripts pass it --cache-dir as they do the commands that read one
    _add_common(p, data=True, beta0=True, cache_dir=True)
    p.set_defaults(func=cmd_estimate)

    p = subs.add_parser("test", help="test beta0 with one procedure")
    _add_common(p, data=True, beta0=True, method="vtfo", alpha=True, cache_dir=True, vtf_table=True)
    p.set_defaults(func=cmd_test)

    p = subs.add_parser("cs", help="confidence set by grid inversion")
    _add_common(p, data=True, method="vtfo", grid=True, out=True, alpha=True, cache_dir=True, vtf_table=True)
    p.set_defaults(func=cmd_cs)

    p = subs.add_parser("curve", help="build and emit critical-value curves")
    _add_common(p, out=True, alpha=True, cache_dir=True)
    p.add_argument("--rho", default="0.5", help="comma-separated correlation values")
    p.set_defaults(func=cmd_curve)

    p = subs.add_parser("power", help="Monte Carlo power curves in the limit experiment")
    _add_common(p, out=True, seed=True, alpha=True, cache_dir=True, vtf_table=True)
    p.add_argument("--method", default=None, help="comma-separated method list")
    p.add_argument("--grid", default="-10:10:41", help="delta grid lo:hi:n")
    p.add_argument("--s", type=float, default=3.0, help="concentration parameter")
    p.add_argument("--r", type=float, default=0.5, help="error correlation knob in (-1,1)")
    p.add_argument("--draws", type=int, default=10000, help="Monte Carlo draws per delta")
    p.set_defaults(func=cmd_power)

    p = subs.add_parser("simulate", help="simulate a judge-design dataset CSV")
    _add_common(p, out=True, seed=True)
    p.add_argument("--judges", type=int, default=100, help="number of judges K")
    p.add_argument("--cluster-size", type=int, default=50, help="cases per judge")
    p.add_argument("--pi", default="0.1", help="judge first-stage means (one value broadcasts)")
    p.add_argument("--beta", type=float, default=1.0, help="true coefficient")
    p.add_argument("--corr", type=float, default=0.5, help="corr(e, v) in (-1,1)")
    p.add_argument("--scale-e", type=float, default=1.0, help="outcome error scale")
    p.add_argument("--scale-v", type=float, default=1.0, help="first-stage error scale")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES[type(exc)]


if __name__ == "__main__":
    sys.exit(main())
