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
  only the middle one numerically, in plain floats: Newton's iteration
  from the secant extrapolation of the last two middle crossings (a
  predictor-corrector step), with a safeguarded, bracketed Newton solve
  where the prediction fails. The step in T is controlled (Allgower and
  Georg, *Numerical Continuation Methods*, ch. 6): each is as long as a
  local estimate of the size error it leaves allows, short just past
  t_tilde and long in the flat tail, and a step lands exactly on each T
  where the middle crossing meets a kink of the curve, as steps land on
  breakpoints in delay differential equations (Bellen and Zennaro,
  *Numerical Methods for Delay Differential Equations*). On a dense scan
  of T over [t_tilde, t_last] at alpha 0.05 the size is within 6e-7 of
  alpha at rho 0.1 to the cap (``tools/size_scan.py --dense``). Past the
  last knot the curve holds its
  final value, which at NU_MAX = 40 ends within 0.014 of the chi-squared
  constant q2 = 3.8415; there the measured conditional rejection rate at
  alpha 0.05 stays between 0.0496 and 0.0504, so at strong
  identification the test is the Wald test up to that cutoff gap. For
  T < 0 the curve is conservative;
* the conditional-Wald quantile c_cw(rho, T);
* a loader for externally supplied two-sided tables in the curve CSV format.

Curves are immutable and cheap to evaluate; building one is the expensive
step, so a small disk cache with atomic writes is provided. The curve CSV
is a table: on a built curve's formula segment its rows sample the formula
(``_sample``, as the knots do, but to TABLE_TOL * max(c, 1)), and past
nu_tilde they are the continuation's knots. A table read from a file is
written back row for row.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import pickle
import tempfile
import threading
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DataError, NumericalError, TableError

__all__ = [
    "RHO_CAP",
    "RHO_BUILD_FLOOR",
    "CriticalValueCurve",
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
_FORMAT_VERSION = "10"

# Curve construction grid and tolerances.
STEP_FIRST = 1e-5  # the continuation's first step past t_tilde and past each breakpoint, in T
STEP_MIN = 1e-8  # a step this short is kept whatever its error estimate
STEP_MAX = 0.5  # the longest step
STEP_TOL = 3e-7  # the size error a step may leave at its panel's midpoint (``_continuation``)
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
PREDICT_ITER = 6  # Newton steps from a predicted middle crossing
# Formula knots and formula table rows are samples (``_sample``) whose
# chords stay within a tolerance times max(c, 1) of the formula. A table
# row serves a reader; a knot also sets conditional size, and knots at
# TABLE_TOL put it 6.1e-7 off on criterion 2's grid and 1.3e-6 off at rho
# 0.5, T 3e-3, against 1.7e-7 and 7.4e-7 at BUILD_TOL. The small-rho limit
# over-rejects at small T, and coarse chords near 0 hide part of that (rho
# 0.01, T 0.01: 0.082; 0.15 at BUILD_TOL), so LIMIT_TOL keeps the knots of
# midpoint halving to 5e-7 with whole panels' midpoints kept (ROADMAP item 2).
BUILD_TOL = 5e-8
LIMIT_TOL = 5e-7 / 3.6
TABLE_TOL = 5e-7

# Cache files carry this key in their names, so a change to the format, to
# any build constant or to the solver (which bumps _FORMAT_VERSION) never
# reuses an old file.
_CACHE_KEY = hashlib.sha256("|".join([
    _FORMAT_VERSION,
    *map(repr, (STEP_FIRST, STEP_MIN, STEP_MAX, STEP_TOL, NU_STEP, NU_MAX, ROOT_TOL, MAX_ITER, PREDICT_ITER, BUILD_TOL,
                LIMIT_TOL)),
]).encode()).hexdigest()[:12]


def _check_alpha(alpha) -> float:
    """alpha as a Python float, so that a NumPy scalar never reaches a
    name or a table as its repr; a DataError unless 0 < alpha < 0.5."""
    if not 0.0 < alpha < 0.5:
        raise DataError(f"alpha must be in (0, 0.5), got {alpha}")
    return float(alpha)


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
    ranges the continuation never reached), ``nu_mid`` the middle
    crossing at ``t_last`` and ``nu_prev`` the one a step before, which
    with it predicts the next, ``step_last`` the step between them,
    ``step_next`` the step the controller proposes next and ``breakpoint``
    the kink the middle crossing meets next (``_continuation``): with
    ``t_last`` they are the state the continuation stopped in, from which
    a prefix resumes.

    A built curve is made for conditional size alpha at 0 <= T <=
    ``t_last``: the formula holds it exactly, and so does each continuation
    step at its T. But the knots interpolate the formula, and at small T,
    where the statistic meets the curve just past nu*, interpolation error
    becomes size error: over T 1e-4 to 0.1 the test is conservative by up
    to 1.5e-2 at rho 0.02, 9.1e-5 at 0.1 and 5.7e-6 at 0.3, and within
    7.4e-7 of alpha from rho 0.5 up (``tools/size_scan.py``). Between
    continuation steps the knots interpolate the exact-size curve, and on
    2,050 T over [t_tilde, t_last] the size at alpha 0.05 is within 3.9e-7
    of alpha up to t_tilde + 2 and 6.0e-7 past it, at rho 0.1, 0.5, 0.9,
    0.99 and the cap (``tools/size_scan.py --dense 2000``). Past
    ``t_last`` the constant extension is not exact: with the build range
    out to NU_MAX the measured conditional rejection rate at alpha 0.05
    stays between 0.0496 and 0.0504 (grid rho 0.02 to 0.99 and the cap, T
    up to 200).

    ``formula_end`` marks a curve the package built (``_built``): up to it
    the curve is a formula (``_formula``), past it the knots are the
    continuation's. It is None for a table read from a file.
    """

    rho_abs: float
    alpha: float
    knots_nu: np.ndarray
    knots_c: np.ndarray
    domain_low: float
    t_tilde: float | None = None
    t_last: float | None = None
    formula_end: float | None = None
    nu_mid: float | None = None
    nu_prev: float | None = None
    step_last: float | None = None
    step_next: float | None = None
    breakpoint: float | None = None

    @classmethod
    def _built(cls, rho_abs, alpha, knots_nu, knots_c, domain_low, t_tilde=None, t_last=None, *state):
        """A built curve, whose formula segment ends at nu_tilde = t_tilde +
        nu*, or at NU_MAX for the small-rho limit (no t_tilde); ``state`` is
        (nu_mid, nu_prev, step_last, step_next, breakpoint), or empty."""
        end = NU_MAX if t_tilde is None else t_tilde + domain_low
        return cls(rho_abs, alpha, knots_nu, knots_c, domain_low, t_tilde, t_last, end, *state)

    def _reaches(self, nu_max: float) -> bool:
        """Whether the curve holds every knot the full curve has up to
        ``nu_max``: its last knot is at or past it, or at NU_MAX, where a
        full curve ends (a NaN asks for the full curve)."""
        return self.knots_nu[-1] >= (nu_max if nu_max < NU_MAX else NU_MAX)

    def _formula(self, nu):
        """The built curve's formula below ``formula_end``: the small-rho
        limit under RHO_BUILD_FLOOR, else the closed form from nu* =
        ``domain_low``."""
        if self.rho_abs < RHO_BUILD_FLOOR:
            return small_rho_limit_c(nu, self.alpha)
        return _closed(nu, self.rho_abs, self.domain_low)

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
    """(|rho|, nu* = |rho| sqrt(q)) for an alpha already checked; raises
    unless 0 < |rho| < 1."""
    rho_abs = abs(rho)
    if rho_abs == 0.0 or rho_abs >= 1.0:
        raise NumericalError("closed form undefined at rho boundary")
    return rho_abs, rho_abs * float(ndtri(1.0 - alpha))


def fixed_point(rho: float, alpha: float) -> tuple[float, float]:
    """Starting knot (nu*, c*) = (|rho| sqrt(q), rho^2 q / (1 - rho^2))."""
    _check_alpha(alpha)
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
    _check_alpha(alpha)
    return _tangency(_nu_star(rho, alpha)[1])


def _tangency(nu_star: float) -> tuple[float, float]:
    """``find_tangency``'s (t_tilde, nu_tilde) from nu*."""
    t_tilde = (3.0 + 2.0 * math.sqrt(2.0)) * nu_star
    return t_tilde, t_tilde + nu_star


def _closed_form_crossings(nu_star: float, t: float) -> tuple[float, float]:
    """Roots nu_l <= nu_hi of nu^2 - (T + nu*) nu + 2 nu* T = 0, where the
    statistic at T meets the closed form between nu* and T. For T >= t_tilde,
    nu_l lies in (2 nu*, nu_tilde / 2], on the closed-form segment; it comes
    from the product of the roots, 2 nu* T, which does not cancel."""
    nu_hi = 0.5 * (t + nu_star + math.sqrt(max(t * t - 6.0 * nu_star * t + nu_star**2, 0.0)))
    return 2.0 * nu_star * t / nu_hi, nu_hi


def _excess(nu: float, t: float, rho: float, nu_star: float, nu_tilde: float, cont_nu: list, cont_c: list,
            panel: int) -> tuple[float, float]:
    """(t2 - c, its derivative in nu) at nu, for the statistic at T = t
    against the curve built so far: the closed form up to nu_tilde, then
    the knots ``cont_nu``/``cont_c``, held past the last one. The knot
    panel is found by bisection from ``panel``, a lower bound on its index."""
    r2 = rho * rho
    u = nu - t
    nu_u, uu = nu * u, u * u
    w = r2 * t * t + (1.0 - r2) * uu
    t2, t2_slope = nu_u * nu_u / w, 2.0 * nu_u * ((nu + u) * w - (1.0 - r2) * nu * uu) / (w * w)
    if nu <= nu_tilde:
        s = nu / nu_star - 1.0
        e = r2 * s * s + (1.0 - r2)
        return t2 - nu * nu / e, t2_slope - 2.0 * nu * (e - nu * r2 * s / nu_star) / (e * e)
    i = bisect_right(cont_nu, nu, panel)
    if i == len(cont_nu):
        return t2 - cont_c[-1], t2_slope
    slope = (cont_c[i] - cont_c[i - 1]) / (cont_nu[i] - cont_nu[i - 1])
    return t2 - (cont_c[i - 1] + (nu - cont_nu[i - 1]) * slope), t2_slope - slope


def _middle_crossing(lo: float, quad_hi: float, t: float, rho: float, nu_star: float, nu_tilde: float,
                     cont_nu: list, cont_c: list, panel: int, step: float, guess: float | None = None) -> float:
    """The middle crossing at T = t: a root of ``_excess`` in (lo, T), lo
    the crossing a step of ``step`` before.

    From ``guess``, the predicted crossing, Newton steps run, and the root
    is kept once it lies in (lo, T (1 - 1e-12)) and a step is at most
    ROOT_TOL, or, while every iterate has stayed on one smooth piece of the
    gap (the closed form or one knot panel), where Newton's method
    converges quadratically, once the error a step leaves, about
    |dx|^3 / |dx_before|^2, is. Otherwise (no ``guess``, an iterate outside
    that interval, a zero slope or no convergence in PREDICT_ITER steps)
    the bracketed solve runs: the bracket [lo, max(quad_hi, lo + step)] on
    the closed segment and [lo, lo + step] past it, capped below T, grows
    in doubling steps to a sign change, and Newton steps start from the
    secant point of its ends (the exact root quad_hi on the closed
    segment), bisecting where a step would leave the shrinking bracket,
    until a step of at most ROOT_TOL or a bracket of at most 2 ROOT_TOL.
    Where a step meets several roots, from alpha 0.1 around some
    breakpoints, the prediction follows the root continuous in T and the
    bracketed solve the one its secant point leads to."""
    cap = t * (1.0 - 1e-12)
    if guess is not None:
        # the smooth piece of the gap that holds every iterate so far, or -1
        x, last, home = guess, 0.0, 0 if guess <= nu_tilde else bisect_right(cont_nu, guess, panel)
        for _ in range(PREDICT_ITER):
            if not lo < x < cap:  # also catches nan
                break
            g, slope = _excess(x, t, rho, nu_star, nu_tilde, cont_nu, cont_c, panel)
            dx = g / slope if slope != 0.0 else math.inf
            x -= dx
            if home != (0 if x <= nu_tilde else bisect_right(cont_nu, x, panel)):
                home = -1
            # on one smooth piece Newton's method converges quadratically, and
            # a step leaves an error of about |dx|^3 / last^2
            if abs(dx) <= ROOT_TOL or (home >= 0 and abs(dx) ** 3 <= ROOT_TOL * last * last):
                if lo < x < cap:
                    return x
                break
            last = abs(dx)
    hi, grow = min(max(quad_hi, lo + step) if lo < nu_tilde else lo + step, cap), step
    g_lo = _excess(lo, t, rho, nu_star, nu_tilde, cont_nu, cont_c, panel)[0]
    if g_lo == 0.0:
        return lo
    for _ in range(200):
        g_hi = _excess(hi, t, rho, nu_star, nu_tilde, cont_nu, cont_c, panel)[0]
        if g_lo * g_hi < 0.0:
            break
        hi, grow = min(cap, hi + grow), 2.0 * grow
    else:
        raise NumericalError("continuation step failed: root bracketing failure")
    x = lo + (hi - lo) * g_lo / (g_lo - g_hi)
    for _ in range(100):
        g, slope = _excess(x, t, rho, nu_star, nu_tilde, cont_nu, cont_c, panel)
        lo, hi = (x, hi) if (g < 0.0) == (g_lo < 0.0) else (lo, x)
        dx = g / slope if slope != 0.0 else math.inf
        if abs(dx) <= ROOT_TOL:
            return min(max(x - dx, lo), hi)
        x -= dx
        if not lo < x < hi:  # also catches nan
            x = 0.5 * (lo + hi)
            if hi - lo <= 2.0 * ROOT_TOL:
                return x
    raise NumericalError("continuation step failed: middle crossing did not converge")


def _landing(b: float, rho: float, nu_star: float, nu_tilde: float, cont_nu: list, cont_c: list) -> float:
    """The T at which the middle crossing meets the breakpoint b, a knot of
    the curve built so far or nu_tilde: the one T past b where the
    statistic meets the curve there, from (b^2 - (1 - rho^2) c) (T - b)^2 =
    rho^2 c T^2. It is inf where there is none, or where the gap is not
    falling into b from the left at that T: the hump then ends below b,
    and its end can only jump past b."""
    c_b = cont_c[bisect_left(cont_nu, b)]
    d = b * b - (1.0 - rho * rho) * c_b
    k = rho * math.sqrt(c_b / d) if d > 0.0 else math.inf
    t_b = b / (1.0 - k) if k < 1.0 else math.inf
    if t_b == math.inf or _excess(math.nextafter(b, -math.inf), t_b, rho, nu_star, nu_tilde, cont_nu, cont_c,
                                  1)[1] >= 0.0:
        return math.inf
    return t_b


def _continuation(rho: float, alpha: float, nu_star: float, t_tilde: float, nu_tilde: float,
                  nu_max: float = NU_MAX, start=None):
    """Three-crossing continuation until a high crossing passes ``nu_max``:
    (its knots past nu_tilde, their c, and the state it stopped in: the
    last T, the middle crossing there and a step before, the step between
    them, the step proposed next and the pending breakpoint).

    ``start`` is that state of a prefix, followed by its knots past
    nu_tilde and their c. None starts at the tangency, T = t_tilde, with no
    knots past nu_tilde, no crossing before the double root there, a first
    step of STEP_FIRST and nu_tilde the pending breakpoint.

    Each step takes the low crossing from the closed-form quadratic, the
    middle one from ``_middle_crossing`` on the curve built so far,
    predicted by the secant of the last two scaled to the step,
    lo + (lo - prev) h / h_prev, and the high one from the
    acceptance-probability equation; the high crossing is the new knot.
    The middle crossing only moves up, and so does the index of its knot
    panel, which is therefore the first panel ending past it (panel 1
    while it lies below nu_tilde).

    Step length. Between two steps the size error comes from the new
    panel alone, where the statistic meets a chord instead of the curve.
    The new knot's gap from the line through the two knots before it
    estimates the chord's error at its midpoint, |gap| dn / (4 (dn +
    dn_prev)); the normal density at the high crossing over rho times the
    slope between the statistic and the chord turns it into a size error.
    A step whose estimate exceeds STEP_TOL is taken again from the same T,
    at 0.9 (STEP_TOL / estimate)^(1/2) of its length (at least a fifth).
    Else the next step is the one that scaling gives, at most four times
    the step proposed before and at most STEP_MAX. A step of STEP_MIN is
    kept whatever its estimate: where the middle crossing jumps, as it
    can from alpha 0.1, no step is short enough. So the steps are short
    just past t_tilde, where the crossings move like (T - t_tilde)^(1/2),
    and long in the flat tail.

    Breakpoints. The curve has a kink where the continuation meets the
    closed form, at nu_tilde, and the kink travels: where the middle
    crossing meets it, the high crossing made at that T is a new kink, and
    past each the curve rises or falls like the square root of the
    distance, as it does past nu_tilde. So the pending breakpoint is
    nu_tilde, then each high crossing made at a T where the middle
    crossing met the one before. A step that would pass that T
    (``_landing``) is cut to land on it, with the middle crossing exactly
    on the breakpoint, and one that would leave less than a step before it
    goes half way. The next step restarts at STEP_FIRST, and the error
    estimate needs three knots on one side of a kink, so it is taken as
    two half steps and checked as one, on the longer of its two panels.
    No step depends on ``nu_max``, so a stop below NU_MAX gives the first
    knots of the full run, and a run resumed from that stop gives the
    rest, bit for bit.
    """
    # at t_tilde the low and middle crossings meet in the double root
    t, nu_m, nu_prev, step_last, h, brk, past_nu, past_c = start or (
        t_tilde, 0.5 * (t_tilde + nu_star), None, None, STEP_FIRST, nu_tilde, [], [])
    cont_nu = [nu_tilde, *past_nu]
    cont_c = [_closed(nu_tilde, rho, nu_star), *past_c]
    panel = max(1, bisect_right(cont_nu, nu_m))
    t_break = _landing(brk, rho, nu_star, nu_tilde, cont_nu, cont_c)
    r2 = rho * rho
    for _ in range(MAX_ITER):
        gap = t_break - t
        land = gap <= h
        t_end = t_break if land else t + (0.5 * gap if gap < 2.0 * h else h)
        # past a breakpoint knot two half steps are taken, and checked, as one
        ends = (0.5 * (t + t_end), t_end) if brk == cont_nu[-1] else (t_end,)
        n, t_new, m, m_prev, s_last, p = len(cont_nu), t, nu_m, nu_prev, step_last, panel
        for t_next in ends:
            step, t_new = t_next - t_new, t_next
            nu_l, quad_hi = _closed_form_crossings(nu_star, t_new)
            if t_new == t_break:
                new_m = brk  # the hump ends at the breakpoint it reaches
            else:
                guess = None if m_prev is None else m + (m - m_prev) * (step / s_last)
                new_m = _middle_crossing(m, quad_hi, t_new, rho, nu_star, nu_tilde, cont_nu, cont_c, p, step, guess)
            m_prev, m, s_last = m, new_m, step
            p = bisect_right(cont_nu, m, p)

            if not nu_star <= nu_l <= m <= t_new:
                raise NumericalError("crossing order violated")

            z_l = (nu_l - t_new) / rho
            z_m = (m - t_new) / rho
            hump_prob = float(ndtr(z_m) - ndtr(z_l))
            target = 1.0 - alpha + hump_prob
            if not 0.5 < target < 1.0:
                raise NumericalError("continuation step failed: acceptance probability out of range")
            z_h = float(ndtri(target))
            nu_h = t_new + rho * z_h
            if nu_h <= cont_nu[-1]:
                raise NumericalError("continuation step failed: frontier did not advance")
            cont_nu.append(nu_h)
            cont_c.append(t2_w_curve(nu_h, t_new, rho))

        n0, n1, n2 = cont_nu[-3:]
        c0, c1, c2 = cont_c[-3:]
        chord = (c2 - c1) / (n2 - n1)
        dn = n2 - n1 if len(ends) == 1 else max(n2 - n1, n1 - n0)
        u = n2 - t_new
        w = r2 * t_new * t_new + (1.0 - r2) * u * u
        t2_slope = 2.0 * n2 * u * ((n2 + u) * w - (1.0 - r2) * n2 * u * u) / (w * w)
        err = (abs(chord - (c1 - c0) / (n1 - n0)) * dn * dn / (4.0 * (n2 - n0))
               * math.exp(-0.5 * z_h * z_h) / (math.sqrt(2.0 * math.pi) * rho * abs(t2_slope - chord)))
        scale = 0.9 * math.sqrt(STEP_TOL / err) if err > 0.0 else math.inf
        if err > STEP_TOL and h > STEP_MIN:
            del cont_nu[n:], cont_c[n:]
            h = max(0.2 * (t_end - t), scale * (t_end - t), STEP_MIN)
            continue
        h = max(STEP_MIN, min(STEP_MAX, 4.0 * h, scale * (t_end - t)))
        t, nu_prev, nu_m, step_last, panel = t_new, m_prev, m, s_last, p
        if land or nu_m >= brk:
            brk, h = cont_nu[-1], STEP_FIRST
            t_break = _landing(brk, rho, nu_star, nu_tilde, cont_nu, cont_c)
        if cont_nu[-1] >= nu_max:
            return cont_nu[1:], cont_c[1:], t, nu_m, nu_prev, step_last, h, brk
    raise NumericalError("continuation step failed: NU_MAX not reached")


def _base_grid(lo: float, hi: float) -> np.ndarray:
    return np.linspace(lo, hi, max(2, int(np.ceil((hi - lo) / NU_STEP)) + 1))


def _sample(f, lo: float, hi: float, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Samples (nu, f(nu)) on [lo, hi], ends included, whose chords track f
    to tol * max(f, 1): the one knot refinement, of a build's formula knots
    (BUILD_TOL, LIMIT_TOL for the small-rho limit) and of a table's rows
    (TABLE_TOL). Each panel of ``_base_grid`` is halved until f at a
    quarter, half and three quarters of it lies within 0.9 tol * max(f, 1)
    of the chord, or the panel is 64 ROOT_TOL wide; a midpoint alone
    misses the error where f bends the other way within the panel.
    Measured on a dense grid, a built curve's table errs by at most that
    0.9 TABLE_TOL * max(f, 1). One numpy pass per halving level."""
    probes = np.array([[0.25], [0.5], [0.75]])  # one row per probe: numpy loops run along the panels
    base = _base_grid(lo, hi)
    a, b = base[:-1], base[1:]
    fa, fb = f(a), f(b)
    nus, cs = [base[:1]], [fa[:1]]
    while a.size:
        x = a + (b - a) * probes
        fx = f(x)
        off = np.abs(fx - (fa + (fb - fa) * probes)) > 0.9 * tol * np.maximum(fx, 1.0)
        split = off.any(axis=0) & (b - a > 64 * ROOT_TOL)
        nus.append(b[~split])
        cs.append(fb[~split])
        mid, fm = x[1, split], fx[1, split]
        a, b = np.concatenate([a[split], mid]), np.concatenate([mid, b[split]])
        fa, fb = np.concatenate([fa[split], fm]), np.concatenate([fm, fb[split]])
    nu = np.concatenate(nus)
    order = np.argsort(nu)
    return nu[order], np.concatenate(cs)[order]


def _closed_form_knots(rho_abs: float, nu_star: float, nu_end: float):
    """Knots for the closed-form segment on [nu*, nu_end]: its samples at
    BUILD_TOL, merged with a geometric ladder of exact points out of nu*.

    At T = 0 the statistic surface touches the curve tangentially at the
    fixed point, and at a small T it crosses the curve about T past it, so
    interpolation error there converts into conditional size error at
    square-root rate. The ladder, each point 1.1 times as far out as the
    last, keeps the panel error quadratically small in the distance to the
    contact; with a ratio of 1.4 the size at rho 0.5, T 1e-3 is 3.8e-6
    off, with 1.1 it is 2.5e-7 off (``tools/size_scan.py``).
    """
    def closed(nu):
        return _closed(nu, rho_abs, nu_star)

    ladder, eps = [], 1e-8 * max(nu_star, 1.0)
    first_step = float(_base_grid(nu_star, nu_end)[1] - nu_star)
    while eps < first_step and nu_star + eps < nu_end:
        ladder.append(nu_star + eps)
        eps *= 1.1
    nus, cs = _sample(closed, nu_star, nu_end, BUILD_TOL)
    ladder = np.array(ladder)
    nus, first = np.unique(np.concatenate([nus, ladder]), return_index=True)
    return nus, np.concatenate([cs, closed(ladder)])[first]


def build_vtfo_curve(rho: float, alpha: float = 0.05, nu_max: float = NU_MAX,
                     prefix: CriticalValueCurve | None = None) -> CriticalValueCurve:
    """Construct the one-sided curve for |rho| at level alpha.

    Closed-form knots (``_closed_form_knots``) run from nu* to nu_tilde
    (``find_tangency``), then the continuation steps T from t_tilde, each
    step as long as its size error allows and landing on each breakpoint
    (``_continuation``), until its high crossing passes stop =
    min(nu_max, NU_MAX). At alpha 0.05 a full build takes 1,768, 671, 439,
    405 and 402 steps at rho 0.1, 0.5, 0.9, 0.99 and the cap, where a fixed
    step of 0.01 took 3,885, 3,425, 2,969, 2,866 and 2,855; the steps grow
    as rho falls and alpha rises (6,558 at rho 0.02, 25,020 at rho 0.02
    and alpha 0.1).

    ``nu_max`` is the largest nu the caller will read; a non-finite one
    builds the full curve. A stop at or below nu_tilde runs no step, and
    the closed-form knots on [nu*, nu_tilde] are the curve: a short prefix,
    or a tangency past the build range (at the cap, alpha below about
    2.3e-9). A curve with nu_max below NU_MAX is a prefix: its knots are
    the full curve's first knots bit for bit, so up to ``nu_max`` it
    evaluates exactly as the full curve does, and past its last knot it is
    not the curve. The closed-form knots always span [nu*, nu_tilde],
    because their base panels depend on the end point, and the small-rho
    limit is always built in full.

    ``prefix`` is a curve built earlier for the same |rho| and alpha. Its
    closed-form knots are reused, and the continuation resumes from the
    state it stopped in (``t_last``, ``nu_mid``, ``nu_prev``,
    ``step_last``, ``step_next``, ``breakpoint``) instead of the tangency,
    running at least one step. No step depends on where a run stopped, so
    a curve grown in any number of pieces equals one built at once, bit
    for bit. ``CurveCache.get`` grows its curves this way.

    The construction only sees rho through rho^2 and |rho|, so the sign of
    rho is irrelevant. Below RHO_BUILD_FLOOR the continuation is
    ill-conditioned (the hump probability approaches alpha and the
    high-crossing quantile diverges; builds fail outright below ~0.003),
    so those curves use the small-rho limit, sampled at LIMIT_TOL, instead.
    The limit sits within ~7e-4 of the exact curve at the floor, but its
    domain starts at 0, not at nu*, and at small T it over-rejects: at rho
    0.01 by 0.012 at T 1e-3, 0.082 at T 0.01, 3.9e-3 at T 0.1 and 3.7e-5 at
    T 1 (``tools/size_scan.py``).

    The continuation is made for conventional levels. From alpha 0.1 some
    steps meet five crossings, not three, and the middle crossing follows
    the root that is continuous in T (``_middle_crossing``). From alpha
    0.17 the builds fail with a NumericalError naming rho and alpha (all
    of rho 0.02, 0.05, 0.1 to 0.9 by 0.1 and 0.85, at alpha 0.17 to 0.45).
    """
    alpha = _check_alpha(alpha)
    rho_abs = abs(float(rho))
    if not rho_abs <= RHO_CAP:  # also rejects nan
        raise DataError(f"rho out of range: |rho| must be <= {RHO_CAP}, got {float(rho)!r}")

    if rho_abs < RHO_BUILD_FLOOR:
        nus, cs = _sample(lambda nu: small_rho_limit_c(nu, alpha), 0.0, NU_MAX, LIMIT_TOL)
        return CriticalValueCurve._built(rho_abs, alpha, nus, cs, 0.0)

    _, nu_star = _nu_star(rho_abs, alpha)
    t_tilde, nu_tilde = _tangency(nu_star)
    stop = nu_max if nu_max < NU_MAX else NU_MAX  # nan builds in full too
    start = None
    if prefix is None:
        nus, cs = _closed_form_knots(rho_abs, nu_star, nu_tilde)
        if stop <= nu_tilde:
            return CriticalValueCurve._built(rho_abs, alpha, nus, cs, nu_star, t_tilde=t_tilde)
    else:
        n = int(np.searchsorted(prefix.knots_nu, nu_tilde, side="right"))
        nus, cs = prefix.knots_nu[:n], prefix.knots_c[:n]
        if prefix.t_last is not None:
            start = (prefix.t_last, prefix.nu_mid, prefix.nu_prev, prefix.step_last, prefix.step_next,
                     prefix.breakpoint, prefix.knots_nu[n:].tolist(), prefix.knots_c[n:].tolist())
    try:
        cont_nu, cont_c, *state = _continuation(rho_abs, alpha, nu_star, t_tilde, nu_tilde, stop, start)
    except NumericalError as exc:
        raise NumericalError(f"vtfo curve build failed at rho={rho_abs!r}, alpha={alpha!r}: {exc}") from exc

    nus, cs = np.concatenate([nus, cont_nu]), np.concatenate([cs, cont_c])
    knots = CriticalValueCurve._built(rho_abs, alpha, nus, cs, nu_star, t_tilde, *state)
    if not np.all(np.diff(knots.knots_nu) > 0.0):
        raise NumericalError("continuation step failed: knots not strictly increasing")
    return knots


_CW_MAXITER = 100  # per cw solve, in c and in each root
_CW_Z_TOL = 1e-12  # relative Newton step, or bracket width, at which a root is final
_CW_P_TOL = 1e-15  # |P(t2 > c | T) - alpha| at which c is final
# Per root x1 < x2 < x3 < x4: the branch s of h (``_cw_residual``) and whether h > 0 below the root.
_CW_BRANCH = np.array([1.0, -1.0, -1.0, 1.0])
_CW_POSITIVE_BELOW = np.array([True, True, False, False])


def _cw_residual(r, a, tau, th, c, s, z):
    """h(z) = z(rz + T) - s sqrt(c g(z)), g(z) = a z^2 + T^2, its derivative
    and sqrt(c g), all over tau = max(T, 1), with T = tau th and a = 1 - r^2.
    No term passes T z / tau, so none overflows where T^2 is finite."""
    v = z / tau
    root = np.sqrt(c * (a * v * v + th * th))
    return z * (r * v + th) - s * root, 2.0 * r * v + th - s * c * a * v / (tau * root), root


def _positive_root(r, b, k):
    """The positive root of r x^2 + b x - k = 0 (k >= 0), without cancellation."""
    d = np.sqrt(b * b + 4.0 * r * k)
    return np.where(b > 0.0, 2.0 * k / (b + d), (d - b) / (2.0 * r))


def _cw_reject(r, t, c, guess):
    """P(t2 > c | T = t) over Z ~ N(0,1) and its derivative in c, for 1-D
    arrays of |rho| in [1e-12, 1), t >= 0 and c > 0; also the real roots
    x1 < x2 < x3 < x4 of f(z) = (z(rz + T))^2 - c g(z) in an (m, 4) array
    (x2, x3 NaN where f has two) and their derivatives in c.

    f' = 2z(2r^2 z^2 + 3rTz + T^2 - ca) vanishes at 0 and z+- = (-3T +-
    sqrt(T^2 + 8ca))/(4r): f falls to a minimum at z- < -T/r, rises to a
    maximum and falls to a minimum at max(0, z+), both minima <= 0. So
    x1 < z- and x4 > max(0, z+), and the inner pair exists only where
    f(z+) > 0, with -T/r < x2 < z+ < x3 < 0. A quadratic below h bounds x1
    below and x4 above, exactly at T = 0 and as T -> inf. Newton's method
    on h (``_cw_residual``) solves each root in its bracket, bisecting where
    a step leaves it, from ``guess`` where that lies inside, else from the
    outer end. t2 > c outside [x1, x4] and inside (x2, x3); each root moves
    away from the acceptance region as c grows, so P falls at sum phi(x)|dx/dc|.
    """
    m, a, tau = r.size, (1.0 - r) * (1.0 + r), np.maximum(t, 1.0)
    th = t / tau
    hat = np.sqrt(th * th + 8.0 * a * c / (tau * tau))
    z_plus = 2.0 * tau * (a * c / (tau * tau) - th * th) / (r * (hat + 3.0 * th))
    b, k = th - np.sqrt(a * c) / tau, np.sqrt(c) * th / tau
    outer = -tau * (th / r + _positive_root(r, b, k * (1.0 + np.sqrt(a) / r)))
    inner = (z_plus < 0.0) & (_cw_residual(r, a, tau, th, c, -1.0, z_plus)[0] < 0.0)
    lo = np.stack([outer, -t / r, z_plus, np.maximum(z_plus, 0.0)], axis=1)
    hi = np.stack([-tau * (3.0 * th + hat) / (4.0 * r), z_plus, np.zeros(m), tau * _positive_root(r, b, k)], axis=1)
    live = np.stack([np.ones(m, dtype=bool), inner, inner, np.ones(m, dtype=bool)], axis=1)
    rows, col = np.nonzero(live)
    s, below_pos, lo, hi, z = _CW_BRANCH[col], _CW_POSITIVE_BELOW[col], lo[live], hi[live], guess[live]
    z = np.where((z > lo) & (z < hi), z, np.where(below_pos, lo, hi))
    r, a, tau, th, c = r[rows], a[rows], tau[rows], th[rows], c[rows]
    roots, slopes, open_ = z.copy(), np.zeros(z.size), np.ones(z.size, dtype=bool)
    for _ in range(_CW_MAXITER):
        h, dh, root = _cw_residual(r, a, tau, th, c, s, z)
        below = (h > 0.0) == below_pos
        lo, hi = np.where(below, z, lo), np.where(below, hi, z)
        step = h / dh
        small = np.abs(step) <= _CW_Z_TOL * np.abs(z)
        new = np.where(small | ((z - step > lo) & (z - step < hi)), z - step, 0.5 * (lo + hi))
        done = open_ & (small | (h == 0.0) | (hi - lo <= _CW_Z_TOL * np.abs(new)))
        slopes = np.where(done, s * root / (2.0 * c * dh), slopes)
        z = roots = np.where(open_, new, roots)
        open_ &= ~done
        if not open_.any():
            break
    else:
        raise NumericalError("CW quantile failure: a root of the quartic did not converge")
    z, dz = np.full((m, 4), np.nan), np.zeros((m, 4))
    z[live], dz[live] = roots, slopes
    phi_dz = np.exp(-0.5 * z * z) * np.abs(dz) / math.sqrt(2.0 * math.pi)
    reject = ndtr(z[:, 0]) + ndtr(-z[:, 3]) + np.where(inner, ndtr(z[:, 2]) - ndtr(z[:, 1]), 0.0)
    return reject, -(phi_dz[:, 0] + phi_dz[:, 3] + np.where(inner, phi_dz[:, 1] + phi_dz[:, 2], 0.0)), z, dz


def cw_critical_value(rho, t_stat, alpha: float = 0.05):
    """Conditional quantile of the statistic given T = t_stat.

    Solves P(t2(T + rho Z, T, rho) > c) = alpha over Z ~ N(0,1) for c, with
    P from the roots of a quartic in z (``_cw_reject``); below |rho| = 1e-12,
    c is the closed form q2 T^2/(T^2 + q2). Newton's method in c runs on
    the probit Phi^-1(P/2), linear in sqrt(c) at T = 0 and as T -> inf, from
    q2 (T^2 + r^2 q2)/(T^2 + (1 - r^2) q2), exact there and as r -> 0. It
    bisects its bracket, first [0, q2/(1 - r^2)] (t2 <= z^2/(1 - r^2) by
    Cauchy-Schwarz), where a step leaves it or is not half the last; each
    step starts its roots from the last step's, moved along dz/dc. ``rho``
    and ``t_stat`` are floats or arrays that broadcast together, so every
    row may carry its own rho; two floats (or 0-d arrays) give a float,
    anything else an array of the broadcast shape. Every row stops on its
    own test, so a scalar call equals its row of an array call bit for bit;
    after a refused step a row also stops at P's rounding, 1e-12 sum phi(x)|x|.
    A non-finite rho or T, or |rho| >= 1, is a DataError; a T whose square
    overflows is a NumericalError.
    """
    _check_alpha(alpha)
    rho, t = np.broadcast_arrays(np.asarray(rho, dtype=float), np.asarray(t_stat, dtype=float))
    if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(t))):
        raise DataError("the conditional quantile needs finite rho and T")
    r_all, t_all = np.abs(rho).ravel(), np.abs(t).ravel()
    if np.any(r_all >= 1.0):
        raise DataError("rho out of range: |rho| must be < 1 for the conditional quantile")
    q2 = two_sided_chi2(alpha)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if not np.all(np.isfinite(t_all * t_all)):
            bad = float(t.ravel()[~np.isfinite(t_all * t_all)][0])
            raise NumericalError(f"CW quantile failure: T = {bad!r} overflows its square")
        # where q2 T^2 overflows, the closed form is q2 to the last bit
        c_star = np.minimum(q2 * t_all * t_all / (t_all * t_all + q2), q2)
        idx = np.flatnonzero(r_all >= 1e-12)
        r, t_abs = r_all[idx], t_all[idx]
        a = (1.0 - r) * (1.0 + r)
        c = q2 * ((t_abs * t_abs + r * r * q2) / (t_abs * t_abs + a * q2))
        lo, hi = np.zeros(idx.size), q2 / a
        step, guess = hi.copy(), np.full((idx.size, 4), np.nan)
        for _ in range(_CW_MAXITER):
            reject, d_reject, z, dz = _cw_reject(r, t_abs, c, guess)
            lo, hi = np.where(reject > alpha, c, lo), np.where(reject > alpha, hi, c)
            probit = ndtri(0.5 * reject)
            density = np.exp(-0.5 * probit * probit) / math.sqrt(2.0 * math.pi)
            new = c - (probit - ndtri(0.5 * alpha)) * 2.0 * density / d_reject
            refused = ~((new > lo) & (new < hi) & (np.abs(new - c) <= 0.5 * np.abs(step)))
            new = np.where(refused, 0.5 * (lo + hi), new)
            step = new - c
            tol, zr = np.full(idx.size, _CW_P_TOL), z[refused]
            rounding = _CW_Z_TOL * np.nansum(np.abs(zr) * np.exp(-0.5 * zr * zr), axis=1) / math.sqrt(2.0 * math.pi)
            tol[refused] = np.maximum(rounding, _CW_P_TOL)
            close = np.abs(reject - alpha) <= tol
            done = close | (np.abs(step) <= 4.0 * np.finfo(float).eps * c)
            c_star[idx[done]] = np.where(close, c, new)[done]
            idx, r, t_abs, lo, hi, step, guess, c = (
                x[~done] for x in (idx, r, t_abs, lo, hi, step, z + dz * step[:, None], new)
            )
            if not idx.size:
                return float(c_star[0]) if t.ndim == 0 else c_star.reshape(t.shape)
    raise NumericalError(f"CW quantile failure: no convergence after {_CW_MAXITER} iterations")


# ---------------------------------------------------------------------------
# Serialization: curve CSV with `# key=value` sidecar comments.
# ---------------------------------------------------------------------------


def _sidecar_key(base: str, rho_abs: float, multi: bool) -> str:
    return f"{base}[rho={rho_abs!r}]" if multi else base


def _table_rows(cv: CriticalValueCurve) -> tuple[np.ndarray, np.ndarray]:
    """A curve's table rows: on a built curve, samples of its formula
    segment and then the knots past it; on a table read from a file, its
    rows."""
    if cv.formula_end is None:
        return cv.knots_nu, cv.knots_c
    nu, c = _sample(cv._formula, cv.domain_low, cv.formula_end, TABLE_TOL)
    past = np.searchsorted(cv.knots_nu, cv.formula_end, side="right")
    return np.concatenate([nu, cv.knots_nu[past:]]), np.concatenate([c, cv.knots_c[past:]])


def curve_csv_text(curves) -> str:
    """Curve CSV as a string: comment sidecar, `rho,nu,crit` header, rows
    sorted by (rho, nu) (``_table_rows``). Infinite values are never
    serialized; the domain floor rides in the sidecar, and ``knots``
    records each curve's row count so that a truncated file is detected on
    load. Two curves with one |rho| are a DataError: the file could not be
    read back."""
    if isinstance(curves, CriticalValueCurve):
        curves = [curves]
    curves = sorted(curves, key=lambda c: c.rho_abs)
    for a, b in zip(curves, curves[1:]):
        if a.rho_abs == b.rho_abs:
            raise DataError(f"a curve table holds one curve per |rho|, and |rho| {b.rho_abs!r} repeats")
    multi = len(curves) > 1
    lines, rows = [], []
    for cv in curves:
        nu, c = (np.asarray(col, dtype=float).tolist() for col in _table_rows(cv))
        lines.append(f"# {_sidecar_key('domain_low', cv.rho_abs, multi)}={cv.domain_low!r}\n")
        lines.append(f"# {_sidecar_key('alpha', cv.rho_abs, multi)}={cv.alpha!r}\n")
        if cv.t_tilde is not None:
            lines.append(f"# {_sidecar_key('t_tilde', cv.rho_abs, multi)}={cv.t_tilde!r}\n")
        if cv.t_last is not None:
            lines.append(f"# {_sidecar_key('t_last', cv.rho_abs, multi)}={cv.t_last!r}\n")
        lines.append(f"# {_sidecar_key('knots', cv.rho_abs, multi)}={len(nu)}\n")
        rho = f"{cv.rho_abs!r},"
        rows += [f"{rho}{n!r},{v!r}\n" for n, v in zip(nu, c)]
    return "".join([*lines, "rho,nu,crit\n", *rows])


def write_curve_csv(path, curves) -> None:
    text = curve_csv_text(curves)  # before the file opens: a refused table leaves no file
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


def load_curve_csv(path) -> list[CriticalValueCurve]:
    """Read curves back; sidecar metadata is optional.

    ``# key=value`` sidecar lines may precede the `rho,nu,crit` header; the
    rows below it are read as one numeric array and split into curves
    where rho changes. A file that records ``knots`` must hold exactly
    that many rows per curve, one curve per ``knots`` entry, and end with
    a line break; otherwise it was cut short and a TableError is raised.
    """
    meta: dict[str, float] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        lines = text.split("\n")
        for skip, raw in enumerate(lines, 1):
            line = raw.strip()
            if not line:
                continue
            if not line.startswith("#"):
                if [p.strip() for p in line.split(",")] != ["rho", "nu", "crit"]:
                    raise TableError(f"table parse error: bad header {line!r}")
                break
            body = line[1:].strip()
            if "=" in body:
                # bracketed keys contain '='; the value follows the last one
                key, _, value = body.rpartition("=")
                try:
                    meta[key.strip()] = float(value)
                except ValueError as exc:
                    raise TableError(f"table parse error: bad sidecar {line!r}") from exc
        else:
            raise TableError("table parse error: empty table")
        with warnings.catch_warnings():
            # a header without rows is reported as an empty table below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(lines, delimiter=",", skiprows=skip, ndmin=2)
    except OSError as exc:
        raise TableError(f"table parse error: {exc}") from exc
    except ValueError as exc:
        raise TableError(f"table parse error: bad row ({exc})") from exc
    if not rows.size:
        raise TableError("table parse error: empty table")
    if rows.shape[1] != 3:
        raise TableError(f"table parse error: bad row (expected 3 columns, got {rows.shape[1]})")
    starts = np.flatnonzero(np.concatenate([[True], rows[1:, 0] != rows[:-1, 0]]))
    rhos = rows[starts, 0]
    if not np.all(np.diff(rhos) > 0.0):
        raise TableError("table grid error: rho blocks not sorted")
    n_counts = sum(1 for key in meta if key.partition("[")[0] == "knots")
    if n_counts and (n_counts != starts.size or not text.endswith("\n")):
        raise TableError("table truncated: curves or rows missing")
    out = []
    for rho, lo, hi in zip(rhos.tolist(), starts, [*starts[1:], rows.shape[0]]):
        def get(base, default=None):
            return meta.get(f"{base}[rho={rho!r}]", meta.get(base, default))

        # contiguous copies: np.interp would copy a strided column on every call
        nu_arr = rows[lo:hi, 1].copy()
        if np.any(np.diff(nu_arr) <= 0.0):
            raise TableError("table grid error: nu not strictly increasing")
        if n_counts and get("knots") != nu_arr.size:
            raise TableError(f"table truncated: rho {rho!r} has {nu_arr.size} rows, knots={get('knots')!r}")
        out.append(CriticalValueCurve(rho_abs=rho, alpha=float(get("alpha", float("nan"))), knots_nu=nu_arr,
                                      knots_c=rows[lo:hi, 2].copy(), domain_low=float(get("domain_low", nu_arr[0])),
                                      t_tilde=get("t_tilde"), t_last=get("t_last")))
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


def _usable_cpus() -> int:
    """The CPUs this process may run on (1 where the platform cannot tell)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _build_share(misses, alpha: float) -> list:
    """``build_vtfo_curve`` for each (|rho|, nu_max, prefix) of ``misses`` in
    turn, up to the first that fails, whose error takes its curve's place."""
    built = []
    for rho_abs, stop, prefix in misses:
        try:
            built.append(build_vtfo_curve(rho_abs, alpha, stop, prefix=prefix))
        except Exception as exc:  # raised by CurveCache.get_many, in |rho| order
            built.append(exc)
            break
    return built


def _dealt(m: int, k: int) -> tuple[int, int]:
    """(share, place in it) of the m-th miss dealt to shares 0, 1, ..., k - 1,
    k - 1, ..., 0, 0, 1, ..., which balances them better than a round robin."""
    row, col = divmod(m, k)
    return (col if row % 2 == 0 else k - 1 - col), row


def _build_shares(misses, alpha: float) -> list:
    """``_build_share(misses, alpha)`` on the usable CPUs at once.

    The misses, in ascending |rho| and so costliest first, are dealt back
    and forth into k = min(misses, usable CPUs) shares (``_dealt``). This
    process builds the last share and forks a child for each other one,
    which pickles its curves to an unnamed temporary file (a pipe took
    three times as long to pass a weak set's 2 MB of knots); a share no
    child stored is built here. The builds stay here when k is 1, without
    ``os.fork``, or while another thread runs (a child would inherit its
    locks held). Every child is reaped before this returns.
    """
    k = min(len(misses), _usable_cpus())
    if k < 2 or not hasattr(os, "fork") or threading.active_count() != 1:
        return _build_share(misses, alpha)
    shares = [[] for _ in range(k)]
    for m, miss in enumerate(misses):
        shares[_dealt(m, k)[0]].append(miss)
    children, received = [], []
    try:
        for share in shares[:-1]:
            spool = tempfile.TemporaryFile(buffering=0)
            pid = os.fork()
            if pid == 0:  # the child: store its share, then exit without the parent's clean-up
                code = 1
                try:
                    with open(spool.fileno(), "wb", closefd=False) as sink:
                        pickle.dump(_build_share(share, alpha), sink)
                    code = 0
                finally:
                    os._exit(code)
            children.append((pid, spool))
        own = _build_share(shares[-1], alpha)
    finally:
        for pid, spool in children:
            with spool:
                stored = os.waitpid(pid, 0)[1] == 0
                spool.seek(0)
                received.append(spool.readall() if stored else None)
    built = [_build_share(share, alpha) if sent is None else pickle.loads(sent)
             for share, sent in zip(shares, received)] + [own]
    out = []
    for m in range(len(misses)):
        share, place = _dealt(m, k)
        out.append(built[share][place])
        if isinstance(out[-1], Exception):
            break
    return out


class CurveCache:
    """Curve store keyed by (|rho|, alpha) that builds each curve only as
    far as it is read, and keeps and resumes what it built.

    ``get_many`` builds the curves one call misses on the usable CPUs at
    once (``_build_shares``), with no option; ``get`` is its one-curve
    case. Only the calling process writes files and fills memory.

    ``directory=None`` keeps curves in memory only. On disk each (|rho|,
    alpha) has up to two binary files (``_save_file``), named from one stem
    that carries a key over the file format and the build constants:

    * ``<stem>.bin`` holds the full curve. Once written it is never
      rewritten, so a warm cache directory stays as it is;
    * ``<stem>.part.bin`` holds the longest prefix built so far, with the
      state its continuation stopped in. A longer prefix replaces it, and
      the full file, once written, deletes it.

    Each file is a JSON header line, then the (2, n) little-endian float64
    array of ``knots_nu`` and ``knots_c``. Writes go through a temporary
    file and an atomic rename, so concurrent processes can race without
    corrupting the cache; a file that is cut short, damaged or made for
    another request is a miss, rebuilt and replaced.
    """

    def __init__(self, directory=None):
        self.directory = directory
        self._memory: dict[tuple[str, str], CriticalValueCurve] = {}

    def _stem(self, rho_abs: float, alpha: float) -> str:
        """The name of the (|rho|, alpha) files, without their suffix."""
        return f"vtfo_rho{rho_abs!r}_alpha{alpha!r}_{_CACHE_KEY}"

    def get(self, rho: float, alpha: float = 0.05, nu_max: float = NU_MAX) -> CriticalValueCurve:
        """A curve for (|rho|, alpha) that holds the full curve's knots up to
        ``nu_max``, the largest nu the caller reads (NU_MAX, the default, or
        a NaN asks for the full curve); past its last knot a prefix is not
        the curve, so read it no further than ``nu_max``. The one-curve case
        of ``get_many``."""
        return self.get_many([rho], alpha, [nu_max])[0]

    def get_many(self, rhos, alpha: float = 0.05, nu_maxes=None) -> list[CriticalValueCurve]:
        """``get`` for each of ``rhos``, each up to its entry of ``nu_maxes``
        (all NU_MAX when None); a |rho| asked for twice is served once.

        Each curve comes from memory, else the full file, else the prefix
        file. The misses, which none holds far enough, continue the longest
        of them (``build_vtfo_curve``'s ``prefix``) or build from the start,
        all at once (``_build_shares``). In ascending |rho|, each built curve
        is kept in memory and written to the full file when it is the full
        curve, deleting the prefix file, else to the prefix file; the first
        failed build raises its error there, and no later curve is kept.
        """
        alpha = _check_alpha(alpha)
        wanted = {}
        for rho, nu_max in zip(rhos, [NU_MAX] * len(rhos) if nu_maxes is None else nu_maxes):
            rho_abs, stop = abs(float(rho)), (nu_max if nu_max < NU_MAX else NU_MAX)
            wanted[rho_abs] = max(stop, wanted.get(rho_abs, stop))
        curves, misses = {}, []
        for rho_abs, stop in sorted(wanted.items()):
            key = (repr(rho_abs), repr(alpha))
            best = self._memory.get(key)
            if self.directory is not None and (best is None or not best._reaches(stop)):
                stem = os.path.join(self.directory, self._stem(rho_abs, alpha))
                for path in (stem + ".bin", stem + ".part.bin"):
                    hit = self._load_file(path, rho_abs, alpha, 0 if best is None else best.knots_nu.size)
                    if hit is not None:
                        best = self._memory[key] = hit
                        if hit._reaches(stop):
                            break
            if best is not None and best._reaches(stop):
                curves[rho_abs] = best
            else:
                misses.append((rho_abs, stop, best))
        for (rho_abs, _, _), curve in zip(misses, _build_shares(misses, alpha)):
            if isinstance(curve, Exception):
                raise curve
            if self.directory is not None:
                stem = os.path.join(self.directory, self._stem(rho_abs, alpha))
                try:
                    os.makedirs(self.directory, exist_ok=True)
                    if curve._reaches(NU_MAX):
                        self._save_file(stem + ".bin", curve)
                        # the full file is read first and always reaches
                        with contextlib.suppress(FileNotFoundError):
                            os.remove(stem + ".part.bin")
                    else:
                        self._save_file(stem + ".part.bin", curve)
                except OSError as exc:
                    raise DataError(f"cannot write the curve cache directory {self.directory!r}: {exc}") from exc
            self._memory[(repr(rho_abs), repr(alpha))] = curves[rho_abs] = curve
        return [curves[abs(float(rho))] for rho in rhos]

    @staticmethod
    def _save_file(path, curve: CriticalValueCurve) -> None:
        """Write the header line, then the body. The header's sha256 covers
        the other header fields and the body, so a flipped byte anywhere is
        caught on load."""
        body = np.stack([curve.knots_nu, curve.knots_c]).astype("<f8", copy=False)
        meta = {
            "format": _FORMAT_VERSION,
            "rho": curve.rho_abs,
            "alpha": curve.alpha,
            "knots": body.shape[1],
            "domain_low": curve.domain_low,
            "t_tilde": curve.t_tilde,
            "t_last": curve.t_last,
            "nu_mid": curve.nu_mid,
            "nu_prev": curve.nu_prev,
            "step_last": curve.step_last,
            "step_next": curve.step_next,
            "breakpoint": curve.breakpoint,
        }
        digest = hashlib.sha256(json.dumps(meta).encode())
        digest.update(body)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(json.dumps({**meta, "sha256": digest.hexdigest()}).encode() + b"\n")
                fh.write(body)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    @staticmethod
    def _load_file(path, rho_abs: float, alpha: float, known: int = 0) -> CriticalValueCurve | None:
        """The curve stored at ``path``, or None when the file is missing,
        cut short, damaged, made for another (rho, alpha) or format, or
        holds no more than ``known`` knots (its body is then not read)."""
        try:
            with open(path, "rb") as fh:
                line = fh.readline(4096)
                meta = json.loads(line)
                want = meta.pop("sha256")
                n = meta["knots"]
                if (meta["format"], meta["rho"], meta["alpha"]) != (_FORMAT_VERSION, rho_abs, alpha) or n <= known:
                    return None
                if os.fstat(fh.fileno()).st_size != len(line) + 16 * n:
                    return None
                body = np.empty((2, n), dtype="<f8")
                if fh.readinto(body) != body.nbytes:
                    return None
            digest = hashlib.sha256(json.dumps(meta).encode())
            digest.update(body)
            if digest.hexdigest() != want:
                return None
            return CriticalValueCurve._built(
                rho_abs, meta["alpha"], body[0], body[1], meta["domain_low"], meta["t_tilde"], meta["t_last"],
                meta["nu_mid"], meta["nu_prev"], meta["step_last"], meta["step_next"], meta["breakpoint"],
            )
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return None
