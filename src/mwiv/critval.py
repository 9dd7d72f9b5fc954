"""Critical-value functions for the many-weak-instrument t-statistic.

Three families live here:

* the one-sided curve c(nu) built for a given (|rho|, alpha): a closed-form
  segment from the fixed point nu* = |rho| z_alpha up to nu_tilde =
  t_tilde + nu*, where t_tilde = (3 + 2 sqrt 2) nu* is the first
  conditioning value with three statistic/curve crossings (both follow
  from the algebra of the closed form), then an iterative three-crossing
  continuation that keeps the conditional rejection probability at alpha
  for every conditioning value 0 <= T <= t_last, the last continuation
  step. Each step takes its low crossing from a quadratic root and solves
  only the middle one numerically. Past the last knot the curve holds its
  final value, which at NU_MAX = 40 ends within 0.014 of the chi-squared
  constant q2 = 3.8415; there the measured conditional rejection rate at
  alpha 0.05 stays between 0.0496 and 0.0504, so at strong identification
  the test is the Wald test up to that cutoff gap. For T < 0 the curve is
  conservative;
* the conditional-Wald quantile c_cw(rho, T);
* a loader for externally supplied two-sided tables in the curve CSV format.

Curves are immutable and cheap to evaluate; building one is the expensive
step, so a small disk cache with atomic writes is provided.
"""

from __future__ import annotations

import hashlib
import math
import os
import tempfile
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri

from .errors import DataError, NumericalError, TableError

__all__ = [
    "RHO_CAP",
    "RHO_BUILD_FLOOR",
    "CriticalValueCurve",
    "closed_form_c",
    "small_rho_limit_c",
    "fixed_point",
    "find_tangency",
    "build_vtfo_curve",
    "cw_critical_value",
    "two_sided_chi2",
    "TwoSidedTable",
    "load_two_sided_table",
    "curve_csv_text",
    "write_curve_csv",
    "load_curve_csv",
    "CurveCache",
    "snap_rho_to_grid",
]

RHO_CAP = 0.9999
RHO_BUILD_FLOOR = 0.02
_FORMAT_VERSION = "4"

# Curve construction grid and tolerances.
T_STEP = 0.01  # continuation step in the conditioning value T
NU_STEP = 0.01  # base panel width of the closed-form knots
# The exact-size curve oscillates about q2 = 3.8415 with a period of
# about 4|rho| z_{alpha/2} in nu and slowly shrinking swings; at rho 0.9
# it dips below q2 by 0.159 (nu 10.5), 0.061 (17.9), 0.032 (25.1),
# 0.020 (32.3) and 0.014 (39.4). Building out to 40 ends every grid
# curve within 0.0137 of q2, so the constant extension past the last
# knot holds size to within 5e-4. The knots below 12 do not depend on
# NU_MAX.
NU_MAX = 40.0
ROOT_TOL = 1e-10
MAX_ITER = 100000

# Cache files carry this key in their names, so a change to the format or
# to any build constant never reuses an old file.
_CACHE_KEY = hashlib.sha256(
    "|".join([_FORMAT_VERSION, *map(repr, (T_STEP, NU_STEP, NU_MAX, ROOT_TOL, MAX_ITER))]).encode()
).hexdigest()[:12]


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 0.5:
        raise DataError(f"alpha must be in (0, 0.5), got {alpha}")


def two_sided_chi2(alpha: float) -> float:
    """Square of the two-sided standard-normal cutoff."""
    return float(ndtri(1.0 - alpha / 2.0) ** 2)


@dataclass(frozen=True)
class CriticalValueCurve:
    """Tabulated c(nu) for one (|rho|, alpha) with its domain floor.

    Below ``domain_low`` the critical value is +inf (never reject); above
    the last knot the final value extends as a constant. ``t_tilde`` and
    ``t_last`` record the conditioning values where the continuation
    started and stopped (None for the small-rho limit curve and for
    ranges the continuation never reached).

    A built curve has conditional size exactly alpha for 0 <= T <=
    ``t_last``. Past it the constant extension is not exact: with the
    build range out to NU_MAX the measured conditional rejection rate at alpha
    0.05 stays between 0.0496 and 0.0504 (grid rho 0.02 to 0.99 and the
    cap, T up to 200).
    """

    rho_abs: float
    alpha: float
    knots_nu: np.ndarray
    knots_c: np.ndarray
    domain_low: float
    t_tilde: float | None = None
    t_last: float | None = None

    def evaluate(self, nu: float) -> float:
        return float(self.evaluate_array(nu))

    def evaluate_array(self, nu: np.ndarray) -> np.ndarray:
        """Linear interpolation with the +inf sentinel below the domain floor."""
        nu = np.asarray(nu, dtype=float)
        out = np.interp(nu, self.knots_nu, self.knots_c)
        return np.where(nu < self.domain_low, np.inf, out)


def t2_w_curve(nu: float, t: float, rho: float) -> float:
    """The W-shaped statistic surface nu^2 (nu-T)^2 / (rho^2 T^2 + (1-rho^2)(nu-T)^2)."""
    u = nu - t
    denom = rho**2 * t**2 + (1.0 - rho**2) * u**2
    if denom == 0.0:
        raise NumericalError("degenerate W-curve point")
    return nu**2 * u**2 / denom


def _closed(nu, rho_abs: float, nu_star: float):
    """Closed-form segment nu^2 / (rho^2 (nu/nu* - 1)^2 + 1 - rho^2), on
    floats or arrays."""
    r2 = rho_abs**2
    return nu**2 / (r2 * (nu / nu_star - 1.0) ** 2 + (1.0 - r2))


def _nu_star(rho: float, alpha: float) -> tuple[float, float]:
    """(|rho|, nu* = |rho| sqrt(q)) after the checks every closed-form entry point shares."""
    _check_alpha(alpha)
    rho_abs = abs(rho)
    if rho_abs == 0.0 or rho_abs >= 1.0:
        raise NumericalError("closed form undefined at rho boundary")
    return rho_abs, rho_abs * float(ndtri(1.0 - alpha))


def closed_form_c(nu_bar: float, rho: float, alpha: float) -> float:
    """Initial curve segment: c = nu^2 / (rho^2 (nu/(|rho| sqrt(q)) - 1)^2 + 1 - rho^2)."""
    return _closed(nu_bar, *_nu_star(rho, alpha))


def fixed_point(rho: float, alpha: float) -> tuple[float, float]:
    """Starting knot (nu*, c*) = (|rho| sqrt(q), rho^2 q / (1 - rho^2))."""
    rho_abs, nu_star = _nu_star(rho, alpha)
    return nu_star, _closed(nu_star, rho_abs, nu_star)


def small_rho_limit_c(nu_bar: float, alpha: float = 0.05) -> float:
    """Pointwise |rho| -> 0 limit of the curve: c = q2 nu^2 / (nu^2 + q2).

    At rho = 0 the conditioning value collapses onto nu and the leftover
    randomness is an independent unit normal, so exact conditional size
    forces c T^2 / (T^2 - c) = q2 at every T != 0, which inverts to this
    curve. It coincides with the conditional-Wald quantile at rho = 0.
    """
    _check_alpha(alpha)
    q2 = two_sided_chi2(alpha)
    return q2 * nu_bar**2 / (nu_bar**2 + q2)


def find_tangency(rho: float, alpha: float) -> tuple[float, float]:
    """Onset (t_tilde, nu_tilde) of the three-crossing region, in closed form.

    On the closed-form segment, t2(nu; T) = c(nu) reduces to
    |nu - T| |nu - nu*| = nu* T. Between nu* and T that is the quadratic
    nu^2 - (T + nu*) nu + 2 nu* T = 0, whose discriminant T^2 - 6 nu* T +
    nu*^2 first vanishes at t_tilde = (3 + 2 sqrt 2) nu*. Above T the one
    crossing is nu = T + nu*, so nu_tilde = t_tilde + nu*.
    """
    _, nu_star = _nu_star(rho, alpha)
    t_tilde = (3.0 + 2.0 * math.sqrt(2.0)) * nu_star
    return t_tilde, t_tilde + nu_star


@dataclass
class ContinuationState:
    """Mutable bookkeeping for the three-crossing continuation. Its knots
    start at (nu_tilde, c(nu_tilde)), where the closed form ends."""

    rho_abs: float
    alpha: float
    nu_star: float
    t_tilde: float
    nu_tilde: float
    last_t: float | None = None

    def __post_init__(self):
        self.cont_nu = [self.nu_tilde]
        self.cont_c = [_closed(self.nu_tilde, self.rho_abs, self.nu_star)]
        # at t_tilde the low and middle crossings meet in the double root
        self.prev_nu_m = 0.5 * (self.t_tilde + self.nu_star)

    def curve_value(self, nu: float) -> float:
        """Built curve so far: exact closed form, then the knots."""
        if nu <= self.nu_tilde:
            return _closed(nu, self.rho_abs, self.nu_star)
        i = bisect_right(self.cont_nu, nu)
        if i == len(self.cont_nu):
            return self.cont_c[-1]
        x0, y0, x1, y1 = self.cont_nu[i - 1], self.cont_c[i - 1], self.cont_nu[i], self.cont_c[i]
        return y0 + (nu - x0) / (x1 - x0) * (y1 - y0)

    @property
    def frontier(self) -> float:
        return self.cont_nu[-1]


def _expand_bracket(h, lo: float, hi: float, cap: float, grow: float) -> tuple[float, float]:
    """Grow hi until h changes sign on [lo, hi]; respects an upper cap."""
    h_lo = h(lo)
    for _ in range(200):
        h_hi = h(min(hi, cap))
        if h_lo == 0.0 or h_lo * h_hi < 0.0:
            return lo, min(hi, cap)
        if hi >= cap:
            break
        hi = min(cap, hi + grow)
        grow *= 2.0
    raise NumericalError("continuation step failed: root bracketing failure")


def _closed_form_crossings(nu_star: float, t: float) -> tuple[float, float]:
    """Roots nu_l <= nu_hi of nu^2 - (T + nu*) nu + 2 nu* T = 0, where the
    statistic at T meets the closed form between nu* and T. For T >= t_tilde,
    nu_l lies in (2 nu*, nu_tilde / 2], on the closed-form segment; it comes
    from the product of the roots, 2 nu* T, which does not cancel."""
    nu_hi = 0.5 * (t + nu_star + math.sqrt(max(t * t - 6.0 * nu_star * t + nu_star**2, 0.0)))
    return 2.0 * nu_star * t / nu_hi, nu_hi


def _statistic_gap(nu: float, t: float, state: ContinuationState) -> float:
    """t2 - c at nu: the statistic at T = t against the curve built so far."""
    return t2_w_curve(nu, t, state.rho_abs) - state.curve_value(nu)


def extend_three_crossing(state: ContinuationState, t_next: float) -> tuple[float, float]:
    """One continuation step at T = t_next: the low crossing from the
    closed-form quadratic, the middle crossing by ``brentq`` on the built
    curve, the high crossing from the acceptance-probability equation; the
    new knot is appended. Returns (nu_h, c_h)."""
    rho = state.rho_abs
    t = float(t_next)
    if t < state.t_tilde - 1e-12:
        raise NumericalError("continuation step failed: T below the tangency onset")

    def h(nu):
        return _statistic_gap(nu, t, state)

    nu_l, quad_hi = _closed_form_crossings(state.nu_star, t)

    # Middle crossing: moves up with T, capped strictly below T. brentq keeps
    # its function in a reference cycle, so the state goes in args: a closure
    # would hold every finished build's knots until a full collection.
    cap = t * (1.0 - 1e-12)
    lo_m = state.prev_nu_m
    hi_m = min(max(quad_hi, lo_m + T_STEP), cap)
    if h(lo_m) <= 0.0 or h(hi_m) >= 0.0:
        lo_m, hi_m = _expand_bracket(h, lo_m, hi_m, cap=cap, grow=T_STEP)
    nu_m = float(brentq(_statistic_gap, lo_m, hi_m, args=(t, state), xtol=ROOT_TOL))

    if not state.nu_star <= nu_l <= nu_m <= t:
        raise NumericalError("crossing order violated")

    z_l = (nu_l - t) / rho
    z_m = (nu_m - t) / rho
    hump_prob = float(ndtr(z_m) - ndtr(z_l))
    target = 1.0 - state.alpha + hump_prob
    if not 0.5 < target < 1.0:
        raise NumericalError("continuation step failed: acceptance probability out of range")
    nu_h = t + rho * float(ndtri(target))
    if nu_h <= state.frontier:
        raise NumericalError("continuation step failed: frontier did not advance")
    c_h = t2_w_curve(nu_h, t, rho)

    state.cont_nu.append(nu_h)
    state.cont_c.append(c_h)
    state.prev_nu_m = nu_m
    state.last_t = t
    return nu_h, c_h


def _base_grid(lo: float, hi: float) -> np.ndarray:
    return np.linspace(lo, hi, max(2, int(np.ceil((hi - lo) / NU_STEP)) + 1))


def _refine_knots(c, base: np.ndarray, pairs: list[tuple[float, float]]) -> tuple[list[float], list[float]]:
    """Knots for c over the panels of ``base``, halved until the
    piecewise-linear interpolant tracks c to ~5e-7, merged with the knots
    already in ``pairs``."""
    stack = [(float(base[i]), float(base[i + 1])) for i in range(len(base) - 2, -1, -1)]
    while stack:
        a, b = stack.pop()
        mid = 0.5 * (a + b)
        ca, cb, cm = c(a), c(b), c(mid)
        if abs(cm - 0.5 * (ca + cb)) > 5e-7 and (b - a) > 64 * ROOT_TOL:
            stack.append((mid, b))
            stack.append((a, mid))
        else:
            pairs.append((mid, cm))
            pairs.append((b, cb))
    pairs.sort()
    nus: list[float] = []
    cs: list[float] = []
    for nu, cc in pairs:
        if not nus or nu > nus[-1]:
            nus.append(nu)
            cs.append(cc)
    return nus, cs


def _closed_form_knots(rho_abs: float, nu_star: float, nu_end: float):
    """Knots for the closed-form segment on [nu*, nu_end].

    At T = 0 the statistic surface touches the curve tangentially at the
    fixed point, so interpolation error there converts into conditional
    size error at square-root rate. A geometric ladder of knots out of
    nu_star keeps the panel error quadratically small in the distance to
    the contact and removes that sliver.
    """

    def c(nu):
        return _closed(nu, rho_abs, nu_star)

    base = _base_grid(nu_star, nu_end)
    pairs = [(float(base[0]), c(base[0]))]
    eps = 1e-8 * max(nu_star, 1.0)
    first_step = float(base[1] - base[0])
    while eps < first_step and nu_star + eps < nu_end:
        pairs.append((nu_star + eps, c(nu_star + eps)))
        eps *= 1.4
    return _refine_knots(c, base, pairs)


def build_vtfo_curve(rho: float, alpha: float = 0.05) -> CriticalValueCurve:
    """Construct the one-sided curve for |rho| at level alpha.

    Closed-form knots run from nu* to nu_tilde (``find_tangency``), then
    the continuation steps T by T_STEP from t_tilde until its high
    crossing passes NU_MAX. When t_tilde >= NU_MAX the three-crossing
    region starts past the build range and the closed form alone is the
    curve (at the cap, alpha below about 3.4e-12).

    The construction only sees rho through rho^2 and |rho|, so the sign of
    rho is irrelevant. Below RHO_BUILD_FLOOR the continuation is
    ill-conditioned (the hump probability approaches alpha and the
    high-crossing quantile diverges; builds fail outright below ~0.003),
    so those curves use the small-rho limit instead. The limit sits within
    ~6e-4 of the exact curve at the floor, a conditional size error of
    roughly 2e-5.

    The continuation is made for conventional levels: from alpha 0.14 some
    steps meet five crossings, not three, and from alpha 0.18 (rho >= 0.3)
    builds fail with a NumericalError naming rho and alpha.
    """
    _check_alpha(alpha)
    rho_abs = abs(float(rho))
    if rho_abs > RHO_CAP:
        raise DataError(f"rho out of range: |rho| must be <= {RHO_CAP}")

    def curve(nus, cs, domain_low, **extra):
        knots_nu, knots_c = np.array(nus), np.array(cs)
        return CriticalValueCurve(rho_abs, alpha, knots_nu, knots_c, domain_low, **extra)

    if rho_abs < RHO_BUILD_FLOOR:
        def limit(nu):
            return small_rho_limit_c(nu, alpha)

        return curve(*_refine_knots(limit, _base_grid(0.0, NU_MAX), [(0.0, 0.0)]), 0.0)

    nu_star, _ = fixed_point(rho_abs, alpha)
    t_tilde, nu_tilde = find_tangency(rho_abs, alpha)
    if t_tilde >= NU_MAX:
        # the three-crossing region starts past the build range
        return curve(*_closed_form_knots(rho_abs, nu_star, NU_MAX), nu_star)

    nus, cs = _closed_form_knots(rho_abs, nu_star, nu_tilde)
    state = ContinuationState(
        rho_abs=rho_abs,
        alpha=alpha,
        nu_star=nu_star,
        t_tilde=t_tilde,
        nu_tilde=nu_tilde,
    )
    t = t_tilde
    try:
        for _ in range(MAX_ITER):
            t += T_STEP
            nu_h, _ = extend_three_crossing(state, t)
            if nu_h >= NU_MAX:
                break
        else:
            raise NumericalError("continuation step failed: NU_MAX not reached")
    except NumericalError as exc:
        raise NumericalError(f"vtfo curve build failed at rho={rho_abs!r}, alpha={float(alpha)!r}: {exc}") from exc

    knots = curve(nus + state.cont_nu[1:], cs + state.cont_c[1:], nu_star, t_tilde=t_tilde, t_last=state.last_t)
    if not np.all(np.diff(knots.knots_nu) > 0.0):
        raise NumericalError("continuation step failed: knots not strictly increasing")
    return knots


# Brent settings of the cw quantile.
_CW_XTOL = 1e-9
_CW_MAXITER = 200
_SUBDIAGONAL = {n: np.eye(n, k=-1) for n in (2, 4)}


def _real_roots(first_row: np.ndarray) -> np.ndarray:
    """Real roots of monic polynomials given the first rows of their
    companion matrices, one polynomial per row; a complex root comes back
    as +inf, which sorts past the real ones."""
    m, n = first_row.shape
    comp = np.empty((m, n, n))
    comp[:] = _SUBDIAGONAL[n]
    comp[:, 0] = first_row
    try:
        ev = np.linalg.eigvals(comp)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"CW quantile failure: {exc}") from exc
    return np.where(np.abs(ev.imag) <= 1e-9 * (1.0 + np.abs(ev.real)), ev.real, np.inf)


def _cw_accept(rho_abs: np.ndarray, r2: np.ndarray, t: np.ndarray, c: np.ndarray) -> np.ndarray:
    """P(t2 <= c | T = t) over Z ~ N(0,1), for 1-D arrays of |rho|, its
    square r2, t and c > 0, one row each.

    t2 <= c is the quartic inequality r^2 z^4 + 2 t r z^3 + (t^2 - c(1 -
    r^2)) z^2 - c t^2 <= 0 in z. As in ``np.roots``, trailing zero
    coefficients are split off as exact zero roots, and the other roots are
    the eigenvalues of the companion matrices. The constant -c t^2 is zero
    only where t^2 underflows, and the z^2 coefficient is then -c(1 - r^2),
    which is not, so such a row is a quadratic times z^2; no lower degree
    occurs. The roots cut the line into intervals, and the normal mass of
    each interval whose midpoint satisfies the inequality is summed from
    left to right.
    """
    rho_abs, r2, t, c = rho_abs[:, None], r2[:, None], t[:, None], c[:, None]
    a3 = 2.0 * t * rho_abs
    a2 = t * t - c * (1.0 - r2)
    a0 = -c * t * t
    first_row = np.concatenate([a3, a2, np.zeros(t.shape), a0], axis=1) / -r2
    quad = a0[:, 0] == 0.0
    edges = np.empty((t.size, 6))
    edges[:, 0], edges[:, 5] = -np.inf, np.inf
    edges[~quad, 1:5] = _real_roots(first_row[~quad])
    if quad.any():
        edges[quad, 1:3] = _real_roots(first_row[quad, :2])
        edges[quad, 3:5] = 0.0
    edges.sort(axis=1)
    left, right = edges[:, :-1], edges[:, 1:]
    finite = np.isfinite(edges)
    left_fin, right_fin = finite[:, :-1], finite[:, 1:]
    with np.errstate(invalid="ignore"):
        mid = np.where(
            left_fin,
            np.where(right_fin, 0.5 * (left + right), left + 1.0),
            np.where(right_fin, right - 1.0, 0.0),
        )
        v = a3 + r2 * mid
        v = a2 + v * mid
        v = 0.0 + v * mid
        v = a0 + v * mid
    inside = (right > left) & (v <= 0.0)
    cdf = ndtr(edges)
    return np.cumsum(np.where(inside, cdf[:, 1:] - cdf[:, :-1], 0.0), axis=1)[:, -1]


def _cw_bracket(rho_abs: np.ndarray, r2: np.ndarray, t: np.ndarray, hi: np.ndarray, target: float) -> np.ndarray:
    """Double each upper end ``hi`` (in place) until it accepts with
    probability at least ``target``; returns the acceptance there."""
    p_hi = np.empty(t.size)
    open_ = np.arange(t.size)
    for _ in range(200):
        p = _cw_accept(rho_abs[open_], r2[open_], t[open_], hi[open_])
        ok = p >= target
        p_hi[open_[ok]] = p[ok]
        open_ = open_[~ok]
        if not open_.size:
            return p_hi
        hi[open_] *= 2.0
    raise NumericalError("CW quantile failure: no upper bracket")


def _brentq_array(f, hi: np.ndarray, f_lo: float, f_hi: np.ndarray) -> np.ndarray:
    """``brentq(f_i, 0, hi_i, xtol=_CW_XTOL, maxiter=_CW_MAXITER)`` for every i at once.

    A numpy transcription of scipy's C Brent iteration (``brentq.c``, with
    its default rtol): the same updates in the same floating-point order,
    so every root equals the scalar solver's bit for bit. ``f(idx, x)``
    evaluates the functions ``idx`` at ``x``; ``f_lo`` is their common
    value at 0 and ``f_hi`` their values at ``hi``. Each step updates the
    still-open brackets only.
    """
    xtol, rtol = _CW_XTOL, 4.0 * np.finfo(float).eps
    out = np.array(hi, dtype=float)
    idx = np.flatnonzero(f_hi != 0.0)
    xcur, fcur = out[idx], f_hi[idx]
    xpre, fpre = np.zeros(idx.size), np.full(idx.size, f_lo)
    xblk, fblk = np.zeros(idx.size), np.zeros(idx.size)
    spre, scur = np.zeros(idx.size), np.zeros(idx.size)
    for _ in range(_CW_MAXITER):
        new = (fpre != 0.0) & (fcur != 0.0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk, fblk = np.where(new, xpre, xblk), np.where(new, fpre, fblk)
        spre, scur = np.where(new, xcur - xpre, spre), np.where(new, xcur - xpre, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = np.where(swap, xcur, xpre), np.where(swap, xblk, xcur), np.where(swap, xcur, xblk)
        fpre, fcur, fblk = np.where(swap, fcur, fpre), np.where(swap, fblk, fcur), np.where(swap, fcur, fblk)

        delta = (xtol + rtol * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0.0) | (np.abs(sbis) < delta)
        if done.any():
            out[idx[done]] = xcur[done]
            keep = ~done
            idx, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
                a[keep] for a in (idx, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis)
            )
        if not idx.size:
            return out

        # both steps are formed everywhere and used only where C would
        with np.errstate(all="ignore"):
            secant = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            inverse_quad = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        stry = np.where(xpre == xblk, secant, inverse_quad)
        short = (np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
        short &= 2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)
        spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)

        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        fcur = f(idx, xcur)
    raise NumericalError(f"CW quantile failure: no convergence after {_CW_MAXITER} iterations")


def cw_critical_value(rho, t_stat, alpha: float = 0.05):
    """Conditional quantile of the statistic given T = t_stat.

    Solves P(t2(T + rho Z, T, rho) <= c) = 1 - alpha over Z ~ N(0,1) for c
    by Brent's method on [0, hi], where ``hi`` doubles until it accepts;
    the acceptance probability comes from the real roots of a quartic in z
    (``_cw_accept``). ``rho`` and ``t_stat`` are floats or arrays that
    broadcast against each other, so every row may carry its own rho. Two
    floats (or 0-d arrays) give a float, anything else an array of the
    broadcast shape. Every row, one or many, goes through
    ``_brentq_array``, a numpy transcription of scipy's ``brentq`` that
    solves them all at once and gives each row the value the scalar
    iteration would, bit for bit.
    """
    _check_alpha(alpha)
    rho, t = np.broadcast_arrays(np.asarray(rho, dtype=float), np.asarray(t_stat, dtype=float))
    if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(t))):
        raise DataError("the conditional quantile needs finite rho and T")
    rho_abs, flat = np.abs(rho).ravel(), t.ravel()
    if np.any(rho_abs >= 1.0):
        raise DataError("rho out of range: |rho| must be < 1 for the conditional quantile")
    q2 = two_sided_chi2(alpha)
    # Python's r**2 (libm pow), not numpy's r*r: each row is the scalar solve's
    r2 = np.array([r**2 for r in rho_abs.tolist()])
    c_star = q2 * flat * flat / (flat * flat + q2)  # the rho -> 0 closed form
    solve = np.flatnonzero(rho_abs >= 1e-12)
    if solve.size:
        ra, r2s, ts = rho_abs[solve], r2[solve], flat[solve]
        target = 1.0 - alpha
        hi = np.maximum(np.maximum(4.0 * q2, 2.0 * r2s * q2 / (1.0 - r2s)), ts * ts)
        p_hi = _cw_bracket(ra, r2s, ts, hi, target)
        c_star[solve] = _brentq_array(
            lambda idx, c: _cw_accept(ra[idx], r2s[idx], ts[idx], c) - target,
            hi, -target, p_hi - target,
        )
    return float(c_star[0]) if t.ndim == 0 else c_star.reshape(t.shape)


# ---------------------------------------------------------------------------
# Serialization: curve CSV with `# key=value` sidecar comments.
# ---------------------------------------------------------------------------


def _sidecar_key(base: str, rho_abs: float, multi: bool) -> str:
    return f"{base}[rho={rho_abs!r}]" if multi else base


def curve_csv_text(curves) -> str:
    """Curve CSV as a string: comment sidecar, `rho,nu,crit` header, rows
    sorted by (rho, nu). Infinite values are never serialized; the domain
    floor rides in the sidecar, and ``knots`` records each curve's row
    count so that a truncated file is detected on load."""
    if isinstance(curves, CriticalValueCurve):
        curves = [curves]
    curves = sorted(curves, key=lambda c: c.rho_abs)
    multi = len(curves) > 1
    lines = []
    for cv in curves:
        lines.append(f"# {_sidecar_key('domain_low', cv.rho_abs, multi)}={cv.domain_low!r}\n")
        lines.append(f"# {_sidecar_key('alpha', cv.rho_abs, multi)}={cv.alpha!r}\n")
        if cv.t_tilde is not None:
            lines.append(f"# {_sidecar_key('t_tilde', cv.rho_abs, multi)}={cv.t_tilde!r}\n")
        if cv.t_last is not None:
            lines.append(f"# {_sidecar_key('t_last', cv.rho_abs, multi)}={cv.t_last!r}\n")
        lines.append(f"# {_sidecar_key('knots', cv.rho_abs, multi)}={cv.knots_nu.size}\n")
    lines.append("rho,nu,crit\n")
    for cv in curves:
        for nu, c in zip(cv.knots_nu, cv.knots_c):
            lines.append(f"{cv.rho_abs!r},{float(nu)!r},{float(c)!r}\n")
    return "".join(lines)


def write_curve_csv(path, curves) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(curve_csv_text(curves))


def _parse_curve_file(path):
    """(sidecar, rows, whether the last line ends with a line break)."""
    meta: dict[str, float] = {}
    rows: list[tuple[float, float, float]] = []
    raw = ""
    try:
        with open(path, encoding="utf-8") as fh:
            saw_header = False
            for raw in fh:
                line = raw.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    body = line[1:].strip()
                    if "=" in body:
                        # bracketed keys contain '='; the value follows the last one
                        key, _, value = body.rpartition("=")
                        try:
                            meta[key.strip()] = float(value)
                        except ValueError as exc:
                            raise TableError(f"table parse error: bad sidecar {line!r}") from exc
                    continue
                if not saw_header:
                    if [p.strip() for p in line.split(",")] != ["rho", "nu", "crit"]:
                        raise TableError(f"table parse error: bad header {line!r}")
                    saw_header = True
                    continue
                parts = line.split(",")
                if len(parts) != 3:
                    raise TableError(f"table parse error: bad row {line!r}")
                try:
                    rows.append((float(parts[0]), float(parts[1]), float(parts[2])))
                except ValueError as exc:
                    raise TableError(f"table parse error: bad row {line!r}") from exc
    except OSError as exc:
        raise TableError(f"table parse error: {exc}") from exc
    if not saw_header or not rows:
        raise TableError("table parse error: empty table")
    return meta, rows, raw.endswith("\n")


def load_curve_csv(path) -> list[CriticalValueCurve]:
    """Read curves back; sidecar metadata is optional.

    A file that records ``knots`` must hold exactly that many rows per
    curve, one curve per ``knots`` entry, and end with a line break;
    otherwise it was cut short and a TableError is raised.
    """
    meta, rows, complete = _parse_curve_file(path)
    blocks: list[tuple[float, list[float], list[float]]] = []
    current = None
    for rho, nu, c in rows:
        if rho != current:
            current, nus, cs = rho, [], []
            blocks.append((rho, nus, cs))
        nus.append(nu)
        cs.append(c)
    rhos = [b[0] for b in blocks]
    if sorted(rhos) != rhos or len(set(rhos)) != len(rhos):
        raise TableError("table grid error: rho blocks not sorted")
    n_counts = sum(1 for key in meta if key.partition("[")[0] == "knots")
    if n_counts and (n_counts != len(blocks) or not complete):
        raise TableError("table truncated: curves or rows missing")
    out = []
    for rho, nus, cs in blocks:
        def get(base, default=None):
            return meta.get(f"{base}[rho={rho!r}]", meta.get(base, default))

        nu_arr = np.array(nus)
        if np.any(np.diff(nu_arr) <= 0.0):
            raise TableError("table grid error: nu not strictly increasing")
        if n_counts and get("knots") != len(nus):
            raise TableError(f"table truncated: rho {rho!r} has {len(nus)} rows, knots={get('knots')!r}")
        out.append(
            CriticalValueCurve(
                rho_abs=rho,
                alpha=float(get("alpha", float("nan"))),
                knots_nu=nu_arr,
                knots_c=np.array(cs),
                domain_low=float(get("domain_low", nus[0])),
                t_tilde=get("t_tilde"),
                t_last=get("t_last"),
            )
        )
    return out


@dataclass(frozen=True)
class TwoSidedTable:
    """Externally supplied c(nu, rho) lookup, bilinear between curves."""

    curves: tuple[CriticalValueCurve, ...]

    def lookup_array(self, nu, rho) -> np.ndarray:
        """c(nu, |rho|), rho a float or an array broadcast against nu; linear
        in |rho| between two curves, else the nearest curve alone."""
        nu, r = np.broadcast_arrays(np.asarray(nu, dtype=float), np.abs(np.asarray(rho, dtype=float)))
        rhos = np.array([c.rho_abs for c in self.curves])
        lower = np.clip(np.searchsorted(rhos, r, side="right") - 1, 0, rhos.size - 1)
        # on a curve the blend is skipped: 0 * inf below the next curve's floor would be nan
        mix = (r > rhos[0]) & (r < rhos[-1]) & (r != rhos[lower])
        out = np.full(nu.shape, np.nan)
        for j in np.unique(lower):
            rows = lower == j
            out[rows] = self.curves[j].evaluate_array(nu[rows])
            blend = rows & mix
            if blend.any():
                w = (r[blend] - rhos[j]) / (rhos[j + 1] - rhos[j])
                out[blend] = (1.0 - w) * out[blend] + w * self.curves[j + 1].evaluate_array(nu[blend])
        return out

    def lookup(self, nu: float, rho: float) -> float:
        return float(self.lookup_array(np.array([nu]), rho)[0])


def load_two_sided_table(path) -> TwoSidedTable:
    """Load an external two-sided table in the curve CSV format."""
    return TwoSidedTable(curves=tuple(load_curve_csv(path)))


# ---------------------------------------------------------------------------
# Disk + memory cache.
# ---------------------------------------------------------------------------


def snap_rho_to_grid(rho):
    """Nearest not-smaller |rho| on the tabulation grid {0.00..0.99, cap};
    a float gives a float, an array an array."""
    r = np.abs(np.asarray(rho, dtype=float))
    snapped = np.ceil(r * 100.0 - 1e-9) / 100.0
    out = np.where(r > 0.99, RHO_CAP, np.where(snapped <= 0.0, 0.0, np.minimum(snapped, 0.99)))
    return float(out) if out.ndim == 0 else out


class CurveCache:
    """Build-once curve store keyed by (rho, alpha).

    ``directory=None`` keeps curves in memory only. File names carry a key
    over the file format and the build constants. Disk writes go through a
    temporary file and an atomic rename, so concurrent builders can race
    without corrupting the cache; a file that fails to load (cut short,
    say) is rebuilt and replaced.
    """

    def __init__(self, directory=None):
        self.directory = directory
        self._memory: dict[tuple[str, str], CriticalValueCurve] = {}

    def _filename(self, rho_abs: float, alpha: float) -> str:
        return f"vtfo_rho{rho_abs!r}_alpha{alpha!r}_{_CACHE_KEY}.csv"

    def get(self, rho: float, alpha: float = 0.05) -> CriticalValueCurve:
        rho_abs = abs(float(rho))
        key = (repr(rho_abs), repr(float(alpha)))
        hit = self._memory.get(key)
        if hit is not None:
            return hit
        path = None
        if self.directory is not None:
            path = os.path.join(self.directory, self._filename(rho_abs, alpha))
            if os.path.exists(path):
                try:
                    self._memory[key] = load_curve_csv(path)[0]
                    return self._memory[key]
                except TableError:
                    pass  # cut short or damaged: rebuilt below and replaced
        curve = build_vtfo_curve(rho_abs, alpha)
        if path is not None:
            os.makedirs(self.directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            os.close(fd)
            try:
                write_curve_csv(tmp, curve)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        self._memory[key] = curve
        return curve
