"""Decision layer: tests at a hypothesized coefficient, grid-inversion
confidence sets, and unbounded-set detection.

Every procedure compares a statistic with a critical value read at the
normalized (nu, rho, T): the curve test (vtfo), the external two-sided
table test (vtf), the conditional-Wald quantile test (cw), the one- and
two-sided quadratic-form tests (ms1, ms2), and the score test (lm).
``decide`` holds all six rules, over arrays, for one test, a confidence
set's grid and the power lab's draws alike. Ties accept everywhere: reject
only on statistic strictly greater than the critical value, so a +inf
critical value never rejects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .critval import (
    RHO_CAP,
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
    _profile,
    jive_point_estimate,
    jive_variance,
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

# A cw set, the costliest, peaks at about 760 bytes per grid point under
# tracemalloc (1e5 and 2e5 points), so the largest set stays under 1 GB.
MAX_GRID_POINTS = 10**6


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


def _check_method(method: str, curves: CurveLibrary | None = None) -> None:
    """Raise for an unknown method, or for vtf when ``curves`` lacks its table."""
    if method not in METHODS:
        raise DataError(f"unknown method {method!r}; expected one of {', '.join(METHODS)}")
    if method == "vtf" and curves is not None and curves.two_sided is None:
        raise TableError("two-sided table unavailable")


def decide(method: str, stats: NormalizedStats, alpha: float, curves: CurveLibrary):
    """(statistic, critical value) arrays of one procedure's rejection rule;
    a test rejects where the statistic is strictly greater.

    ``stats`` holds xi, ar and t_squared as arrays of one shape: one test's
    point, a confidence set's grid or the power lab's draws; nu is an array
    of that shape or, from the beta0 profile, one scalar. The shape of
    ``stats.rho`` says what rho is:

    * an array holds one estimate per row. vtfo snaps each up to the
      tabulation grid (``snap_rho_to_grid``), so a set reads at most one
      curve per bin.
    * a float is a known population rho, as in the power lab. vtfo reads
      the curve at exactly |rho|, capped at RHO_CAP (the capped curve
      sits above, so it stays valid); snapping would move vtfo power by up
      to 0.037 on the benchmark designs (0.5804 to 0.5432 at s 2, r -0.3,
      delta 2, rho 0.931).

    Either way vtfo asks the cache for all its curves in one
    ``CurveCache.get_many`` call, which builds the missing ones on the
    usable CPUs at once, and for each curve only up to the largest nu it
    reads (a NaN asks for the full curve). A confidence set has one nu, so
    in the weak-identification regime most bins need no continuation step,
    and the power lab's draws rarely pass nu 7. The prefix gives the full
    curve's critical values bit for bit; the cache keeps it, and builds
    anew from the tangency when a later call reads further.

    Either way cw solves every row's quantile at its own T, exactly, in one
    ``cw_critical_value`` call, each row as a scalar call would, to a size
    error below 1e-12 (the power lab interpolates its own between 512
    solved T per delta instead, see ``rejection_rates``). vtf interpolates
    the external table at rho. ``method`` must have passed ``_check_method``.
    """
    rho = stats.rho
    known = np.ndim(rho) == 0
    nu = np.broadcast_to(stats.nu, np.shape(stats.t_squared))
    if method == "vtfo":
        bins = np.broadcast_to(min(abs(rho), RHO_CAP) if known else snap_rho_to_grid(rho), nu.shape)
        rhos = np.unique(bins)
        rows = [bins == r for r in rhos]
        critical = np.full(nu.shape, np.nan)
        for at, curve in zip(rows, curves.cache.get_many(rhos, alpha, [np.max(nu[at]) for at in rows])):
            critical[at] = curve.evaluate_array(nu[at])
        return stats.t_squared, critical
    if method == "vtf":
        return stats.t_squared, curves.two_sided.lookup_array(nu, rho)
    if method == "cw":
        return stats.t_squared, cw_critical_value(rho, stats.nu - rho * stats.xi, alpha)
    with np.errstate(over="ignore"):  # a square that overflows to inf rejects, as it should
        if method == "ms1":
            statistic, critical = stats.ar, float(ndtri(1.0 - alpha))
        elif method == "ms2":
            statistic, critical = stats.ar**2, two_sided_chi2(alpha)
        else:  # lm
            statistic, critical = stats.xi**2, two_sided_chi2(alpha)
    return statistic, np.full(np.shape(statistic), critical)


def _testable_stats(method: str, profile, beta0) -> tuple[NormalizedStats, np.ndarray]:
    """Stats at beta0 and the points ``method`` cannot test: those the profile
    marks degenerate, and for vtfo, vtf and cw (which read it) a non-finite
    t^2, as at every point where psi at the point estimate is not positive."""
    stats, degenerate = profile.stats(beta0)
    if method in ("vtfo", "vtf", "cw"):
        degenerate = degenerate | ~np.isfinite(stats.t_squared)
    return stats, degenerate


def run_test(
    method: str,
    ctx: ProjectionContext,
    data: Dataset,
    beta0: float,
    alpha: float = 0.05,
    curves: CurveLibrary | None = None,
) -> TestDecision:
    """Test beta = beta0 at level alpha with the chosen procedure; raises
    NumericalError where ``invert_confidence_set`` marks beta0 degenerate."""
    alpha = _check_alpha(alpha)
    curves = curves if curves is not None else CurveLibrary()
    _check_method(method, curves)
    profile = _profile(ctx, data)
    stats, degenerate = _testable_stats(method, profile, np.array([beta0], dtype=float))
    profile.refuse(degenerate)
    statistic, critical = (float(v[0]) for v in decide(method, stats, alpha, curves))
    return TestDecision(method=method, beta0=float(beta0), alpha=float(alpha), statistic=statistic, critical=critical,
                        reject=statistic > critical, nu=float(stats.nu), rho=float(stats.rho[0]),
                        rho_clamped=bool(stats.rho_clamped[0]))


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

    One beta0 profile of (ctx, data) gives the statistics on the whole
    grid, and the ends of the default grid when none is given, so the
    projection kernels run once per set, not once per point.
    Grid points where the statistics are degenerate (a nonpositive or
    numerically zero variance object, or for vtfo, vtf and cw a t_squared
    that is not finite, as at every point where psi at the point estimate
    is not positive) are excluded from the set and marked; if every point
    is degenerate the inversion has nothing to report and errors out. The
    other points go through ``decide`` together, so an error there (a
    failed curve build, say) is the set's error, not a degenerate point.
    """
    alpha = _check_alpha(alpha)
    curves = curves if curves is not None else CurveLibrary()
    _check_method(method, curves)
    if grid is None:
        grid = default_grid(ctx, data)
    lo, hi, n = float(grid[0]), float(grid[1]), int(grid[2])
    if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo and 3 <= n <= MAX_GRID_POINTS):
        raise DataError(f"grid must be finite with hi > lo and 3 <= n <= {MAX_GRID_POINTS}")

    profile = _profile(ctx, data)
    betas = np.linspace(lo, hi, n)
    stats, degenerate = _testable_stats(method, profile, betas)
    if degenerate.all():
        raise NumericalError("inversion failed: all grid points degenerate")
    statistics = np.full(n, np.nan)
    criticals = np.full(n, np.nan)
    keep = ~degenerate
    kept = stats if keep.all() else profile.stats(betas[keep])[0]
    statistics[keep], criticals[keep] = decide(method, kept, alpha, curves)
    rejects = degenerate | (statistics > criticals)

    accepted = ~rejects
    # maximal accepted runs: +1 and -1 steps of the flags padded with rejects
    steps = np.flatnonzero(np.diff(np.concatenate([[0], accepted.astype(np.int8), [0]])))
    intervals = [(float(betas[a]), float(betas[b - 1])) for a, b in zip(steps[::2], steps[1::2])]

    unbounded_flag = bool(accepted[0] and accepted[-1])
    if unbounded_flag:
        reason = "both grid endpoints accepted; set extends beyond the grid"
    elif accepted[0] or accepted[-1]:
        reason = "one grid endpoint accepted; set may extend beyond the grid"
    else:
        reason = ""
    try:
        analytic = bool(detect_unbounded(method, stats, alpha))
    except ValueError:
        analytic = None
    return ConfidenceSet(method=method, alpha=float(alpha), grid_lo=lo, grid_hi=hi, grid_n=n, betas=betas,
                         statistics=statistics, criticals=criticals, rejects=rejects, degenerate=degenerate,
                         intervals=tuple(intervals), unbounded_flag=unbounded_flag, unbounded_reason=reason,
                         analytic_unbounded=analytic)


def detect_unbounded(method: str, stats: NormalizedStats, alpha: float = 0.05) -> UnboundednessCheck:
    """Analytic large-|beta0| behavior of each procedure's acceptance rule.

    The comparisons are exact at the level of Q_xx^2 vs B_xxxx when the
    stats carry those moments; otherwise the nu-threshold versions apply.
    Boundary equality counts as unbounded. The cw rule has no analytic
    characterization and raises ValueError.
    """
    _check_alpha(alpha)
    _check_method(method)
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
    else:
        raise ValueError("unboundedness is not characterized for method 'cw'")
    return UnboundednessCheck(method=method, unbounded=bool(unb), rule=rule, quartic_leading=quartic_leading)


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
