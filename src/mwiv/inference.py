"""Decision layer: tests at a hypothesized coefficient, grid-inversion
confidence sets, and unbounded-set detection.

Six procedures share one dispatch: the curve test (vtfo), the external
two-sided table test (vtf), the conditional-Wald quantile test (cw), the
one- and two-sided quadratic-form tests (ms1, ms2), and the score test
(lm). Ties accept everywhere: reject only on statistic strictly greater
than the critical value, so a +inf critical value never rejects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .critval import (
    CurveCache,
    TwoSidedTable,
    _check_alpha,
    cw_critical_value,
    snap_rho_to_grid,
    two_sided_chi2,
)
from .data import Dataset
from .errors import DataError, NumericalError, TableError
from .estimators import (
    NormalizedStats,
    jive_point_estimate,
    jive_variance,
    normalized_stats,
)
from .projection import ProjectionContext

__all__ = [
    "METHODS",
    "CurveLibrary",
    "TestDecision",
    "ConfidenceSet",
    "UnboundednessCheck",
    "run_test",
    "invert_confidence_set",
    "detect_unbounded",
    "default_grid",
    "cs_csv_text",
    "write_cs_csv",
]

METHODS = ("vtfo", "vtf", "cw", "ms1", "ms2", "lm")


@dataclass(frozen=True)
class CurveLibrary:
    """Critical-value sources shared across calls.

    Construct one per session and pass it around; the default builds a
    memory-only cache, so handing a fresh library to every call rebuilds
    curves from scratch.
    """

    cache: CurveCache = field(default_factory=CurveCache)
    two_sided: TwoSidedTable | None = None


@dataclass(frozen=True)
class TestDecision:
    method: str
    beta0: float
    alpha: float
    statistic: float
    critical: float
    reject: bool
    nu: float
    rho: float
    rho_clamped: bool


@dataclass(frozen=True)
class UnboundednessCheck:
    """Analytic unbounded-confidence-set verdict, truthy when unbounded."""

    method: str
    unbounded: bool
    rule: str
    quartic_leading: float | None = None

    def __bool__(self) -> bool:
        return self.unbounded


@dataclass(frozen=True)
class ConfidenceSet:
    method: str
    alpha: float
    grid_lo: float
    grid_hi: float
    grid_n: int
    betas: np.ndarray
    statistics: np.ndarray
    criticals: np.ndarray
    rejects: np.ndarray
    degenerate: np.ndarray
    intervals: tuple[tuple[float, float], ...]
    unbounded_flag: bool
    unbounded_reason: str
    analytic_unbounded: bool | None = None


def _decide(method: str, stats: NormalizedStats, alpha: float, curves: CurveLibrary):
    """Map (method, stats) to the (statistic, critical value) pair."""
    if method == "vtfo":
        curve = curves.cache.get(snap_rho_to_grid(stats.rho), alpha)
        return stats.t_squared, curve.evaluate(stats.nu)
    if method == "vtf":
        if curves.two_sided is None:
            raise TableError("two-sided table unavailable")
        return stats.t_squared, curves.two_sided.lookup(stats.nu, stats.rho)
    if method == "cw":
        t_cond = stats.nu - stats.rho * stats.xi
        return stats.t_squared, cw_critical_value(stats.rho, t_cond, alpha)
    if method == "ms1":
        return stats.ar, float(ndtri(1.0 - alpha))
    if method == "ms2":
        return stats.ar**2, two_sided_chi2(alpha)
    if method == "lm":
        return stats.xi**2, two_sided_chi2(alpha)
    raise DataError(f"unknown method {method!r}; expected one of {', '.join(METHODS)}")


def run_test(
    method: str,
    ctx: ProjectionContext,
    data: Dataset,
    beta0: float,
    alpha: float = 0.05,
    curves: CurveLibrary | None = None,
) -> TestDecision:
    """Test beta = beta0 at level alpha with the chosen procedure."""
    _check_alpha(alpha)
    if method not in METHODS:
        raise DataError(f"unknown method {method!r}; expected one of {', '.join(METHODS)}")
    curves = curves if curves is not None else CurveLibrary()
    stats = normalized_stats(ctx, data, beta0)
    statistic, critical = _decide(method, stats, alpha, curves)
    return TestDecision(
        method=method,
        beta0=float(beta0),
        alpha=float(alpha),
        statistic=float(statistic),
        critical=float(critical),
        reject=bool(statistic > critical),
        nu=float(stats.nu),
        rho=float(stats.rho),
        rho_clamped=stats.rho_clamped,
    )


def default_grid(ctx: ProjectionContext, data: Dataset, n: int = 2001) -> tuple[float, float, int]:
    """beta_hat +- 20 jackknife standard errors; a fixed wide band when the
    variance estimate is unavailable."""
    beta_hat = jive_point_estimate(ctx, data)
    try:
        v_hat = jive_variance(ctx, data, beta_hat)
    except NumericalError:
        v_hat = 0.0
    half = 20.0 * float(np.sqrt(v_hat)) if v_hat > 0.0 else 1000.0
    return beta_hat - half, beta_hat + half, n


def invert_confidence_set(
    method: str,
    ctx: ProjectionContext,
    data: Dataset,
    alpha: float = 0.05,
    grid: tuple[float, float, int] | None = None,
    curves: CurveLibrary | None = None,
) -> ConfidenceSet:
    """Accepted beta0 values on a grid, merged into closed intervals.

    Grid points where the statistics are degenerate (nonpositive variance
    estimates) are excluded from the set and marked; if every point is
    degenerate the inversion has nothing to report and errors out.
    """
    _check_alpha(alpha)
    if method not in METHODS:
        raise DataError(f"unknown method {method!r}; expected one of {', '.join(METHODS)}")
    curves = curves if curves is not None else CurveLibrary()
    if grid is None:
        grid = default_grid(ctx, data)
    lo, hi, n = float(grid[0]), float(grid[1]), int(grid[2])
    if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo and n >= 3):
        raise DataError("grid must be finite with hi > lo and n >= 3")

    betas = np.linspace(lo, hi, n)
    statistics = np.full(n, np.nan)
    criticals = np.full(n, np.nan)
    rejects = np.zeros(n, dtype=bool)
    degenerate = np.zeros(n, dtype=bool)
    first_stats: NormalizedStats | None = None
    for i, b0 in enumerate(betas):
        try:
            stats = normalized_stats(ctx, data, float(b0))
            statistic, critical = _decide(method, stats, alpha, curves)
        except NumericalError:
            degenerate[i] = True
            rejects[i] = True
            continue
        if first_stats is None:
            first_stats = stats
        statistics[i] = statistic
        criticals[i] = critical
        rejects[i] = bool(statistic > critical)
    if first_stats is None:
        raise NumericalError("inversion failed: all grid points degenerate")

    accepted = ~rejects
    intervals = []
    start = None
    for i in range(n):
        if accepted[i] and start is None:
            start = i
        elif not accepted[i] and start is not None:
            intervals.append((float(betas[start]), float(betas[i - 1])))
            start = None
    if start is not None:
        intervals.append((float(betas[start]), float(betas[n - 1])))

    unbounded_flag = bool(accepted[0] and accepted[-1])
    if unbounded_flag:
        reason = "both grid endpoints accepted; set extends beyond the grid"
    elif accepted[0] or accepted[-1]:
        reason = "one grid endpoint accepted; set may extend beyond the grid"
    else:
        reason = ""
    try:
        analytic = bool(detect_unbounded(method, first_stats, alpha))
    except ValueError:
        analytic = None
    return ConfidenceSet(
        method=method,
        alpha=float(alpha),
        grid_lo=lo,
        grid_hi=hi,
        grid_n=n,
        betas=betas,
        statistics=statistics,
        criticals=criticals,
        rejects=rejects,
        degenerate=degenerate,
        intervals=tuple(intervals),
        unbounded_flag=unbounded_flag,
        unbounded_reason=reason,
        analytic_unbounded=analytic,
    )


def detect_unbounded(method: str, stats: NormalizedStats, alpha: float = 0.05) -> UnboundednessCheck:
    """Analytic large-|beta0| behavior of each procedure's acceptance rule.

    The comparisons are exact at the level of Q_xx^2 vs B_xxxx when the
    stats carry those moments; otherwise the nu-threshold versions apply.
    Boundary equality counts as unbounded. The cw rule has no analytic
    characterization and raises ValueError.
    """
    _check_alpha(alpha)
    sq = float(ndtri(1.0 - alpha))
    q2 = two_sided_chi2(alpha)
    have_moments = stats.b_xxxx is not None and np.isfinite(stats.q_xx)
    quartic_leading = stats.q_xx**2 - q2 * stats.b_xxxx if have_moments else None

    if method in ("ms2", "vtf"):
        if have_moments:
            unb = quartic_leading <= 0.0
            rule = "Q_xx^2 <= q2 * B_xxxx"
        else:
            unb = stats.nu**2 <= q2
            rule = "nu^2 <= q2"
    elif method == "ms1":
        if have_moments:
            unb = stats.q_xx <= 0.0 or stats.q_xx**2 <= sq**2 * stats.b_xxxx
            rule = "Q_xx <= 0 or Q_xx^2 <= q1 * B_xxxx"
        else:
            unb = stats.nu <= sq
            rule = "nu <= one-sided cutoff"
    elif method == "vtfo":
        # Characterized only in the |rho| -> 1 limit; reported as approximate.
        unb = stats.nu <= sq
        rule = "nu <= one-sided cutoff (approximate for |rho| < 1)"
    elif method == "lm":
        # xi(beta0)^2 -> nu^2 as |beta0| grows, so the score rule matches ms2's
        # nu-threshold form.
        unb = stats.nu**2 <= q2
        rule = "nu^2 <= q2 (large-beta0 limit of xi^2)"
    elif method == "cw":
        raise ValueError("unboundedness is not characterized for method 'cw'")
    else:
        raise DataError(f"unknown method {method!r}; expected one of {', '.join(METHODS)}")
    return UnboundednessCheck(
        method=method,
        unbounded=bool(unb),
        rule=rule,
        quartic_leading=quartic_leading,
    )


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def cs_csv_text(cs: ConfidenceSet) -> str:
    """`beta0,method,statistic,critical,reject` rows plus a summary comment
    with the merged intervals and the unbounded flag."""
    lines = [_cs_summary_line(cs) + "\n", "beta0,method,statistic,critical,reject\n"]
    for i in range(cs.grid_n):
        lines.append(
            f"{float(cs.betas[i])!r},{cs.method},{float(cs.statistics[i])!r},"
            f"{float(cs.criticals[i])!r},{_fmt_bool(bool(cs.rejects[i]))}\n"
        )
    return "".join(lines)


def write_cs_csv(path, cs: ConfidenceSet) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(cs_csv_text(cs))


def _cs_summary_line(cs: ConfidenceSet) -> str:
    parts = ";".join(f"[{a!r},{b!r}]" for a, b in cs.intervals)
    return (
        f"# intervals={parts or 'empty'} unbounded={_fmt_bool(cs.unbounded_flag)}"
        f" method={cs.method} alpha={cs.alpha!r}"
    )
