"""Shared fixtures and independent reference implementations.

Everything here recomputes package quantities from first principles:
dense hat matrices come from a linear solve, the quadratic and cross
moments from explicit double loops, a judge design's population variance
objects from their formulas, and the conditional size auditor integrates
the normal law directly against a built curve. None of it
shares kernels with the package, so agreement is evidence rather than
tautology. The loop oracles at the end (``oracle_cw_accept`` and
``oracle_cw_quantile``, ``oracle_decide``, ``oracle_normalized_stats``,
``oracle_vtfo_curve``)
are different: they are the package's earlier scalar, per-point paths,
kept so the array and Newton paths that replaced them can be checked
against them. ``kernel_b`` beside them composes the package's own kernels
into a cross moment, as the beta0 profile does.
"""

import math
import os
from bisect import bisect_right
import subprocess
import sys
from typing import NamedTuple

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri
from scipy.stats import norm

from mwiv import (
    METHODS,
    RHO_BUILD_FLOOR,
    RHO_CAP,
    CurveCache,
    CurveLibrary,
    DataError,
    NormalizedStats,
    NumericalError,
    TableError,
    cw_critical_value,
    snap_rho_to_grid,
    two_sided_chi2,
)
from mwiv import critval
from mwiv.critval import find_tangency, fixed_point, small_rho_limit_c, t2_w_curve
from mwiv.projection import JudgeProjection

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def judge_indicator_matrix(labels):
    """Dense 0/1 instrument matrix with one column per judge."""
    labels = np.asarray(labels)
    values = np.unique(labels)
    z = np.zeros((labels.size, values.size))
    for col, v in enumerate(values):
        z[labels == v, col] = 1.0
    return z


def dense_hat_matrix(z):
    """P = Z (Z'Z)^{-1} Z' by direct solve; reference only, O(N^2) storage."""
    z = np.asarray(z, dtype=float)
    return z @ np.linalg.solve(z.T @ z, z.T)


def oracle_q(p, k, a, b):
    """(1/sqrt(K)) sum_{i != j} P_ij a_i b_j by explicit loops."""
    n = len(a)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if j != i:
                total += p[i, j] * a[i] * b[j]
    return total / math.sqrt(k)


def oracle_ptil2(p, i, j):
    """Squared-projection weight for one (i, j) pair, i != j."""
    mii = 1.0 - p[i, i]
    mjj = 1.0 - p[j, j]
    mij = -p[i, j]
    return p[i, j] ** 2 / (mii * mjj + mij**2)


def oracle_ptil2_matrix(p):
    """``oracle_ptil2`` for every pair at once, with a zero diagonal: the
    explicit N x N matrix the streamed dense kernel never forms."""
    m = 1.0 - np.diag(p)
    ptil2 = p**2 / (np.outer(m, m) + p**2)
    np.fill_diagonal(ptil2, 0.0)
    return ptil2


def oracle_pair(p, k, f, g):
    """sum_{i != j} Ptil2_ij f_i g_j by explicit loops (no 1/K, no 2)."""
    n = len(f)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if j != i:
                total += oracle_ptil2(p, i, j) * f[i] * g[j]
    return total


def oracle_b(p, k, a, b, c, d):
    """(2/K) sum_{i != j} Ptil2_ij [a (Mb)]_i [c (Md)]_j by loops."""
    n = len(a)
    m = np.eye(n) - p
    f = np.asarray(a) * (m @ b)
    g = np.asarray(c) * (m @ d)
    return 2.0 * oracle_pair(p, k, f, g) / k


def oracle_leave_out_fit(p, x):
    """xhat_i = sum_{j != i} P_ij x_j."""
    return p @ x - np.diag(p) * x


def oracle_variances(p, k, x, e):
    """Loop versions of (Upsilon, tau, Psi, Phi) at the residual e."""
    n = len(x)
    m = np.eye(n) - p
    mdiag = np.diag(m)
    xhat = oracle_leave_out_fit(p, x)
    mx = m @ x
    me = m @ e
    x_mx = x * mx
    e_mx = e * mx
    e_me = e * me
    upsilon = (np.sum(xhat**2 * x_mx / mdiag) + oracle_pair(p, k, x_mx, x_mx)) / k
    tau = (
        0.5 * np.sum(xhat**2 * (x * me + e * mx) / mdiag)
        + oracle_pair(p, k, x_mx, e_mx)
    ) / k
    psi = (np.sum(xhat**2 * e_me / mdiag) + oracle_pair(p, k, e_mx, e_mx)) / k
    phi = 2.0 * oracle_pair(p, k, e_me, e_me) / k
    return float(upsilon), float(tau), float(psi), float(phi)


def oracle_v_hat(p, k, x, e_hat, q_xx):
    """Plug-in variance: the psi kernel at (x, e_hat) over Q_xx^2."""
    n = len(x)
    m = np.eye(n) - p
    mdiag = np.diag(m)
    xhat = oracle_leave_out_fit(p, x)
    mx = m @ x
    me = m @ e_hat
    e_mx = e_hat * mx
    psi = (np.sum(xhat**2 * e_hat * me / mdiag) + oracle_pair(p, k, e_mx, e_mx)) / k
    return float(psi) / q_xx**2



class JudgeMoments(NamedTuple):
    """Population variance objects at the true coefficient, plus the
    concentration summary (mu_sq, s)."""

    phi: float
    psi: float
    upsilon: float
    tau: float
    sigma12: float
    sigma13: float
    mu_sq: float
    s: float


def oracle_judge_moments(spec):
    """Exact finite-design variance objects of a ``JudgeDesignSpec``.

    With w_k = (N_k - 1)/N_k, m_k = pi_k^2 (N_k - 1), and sigma_ev the
    error covariance, the leave-out quadratic forms have variances

      Phi     = (1/K) sum_k w_k 2 sigma_e^4
      Psi     = (1/K) sum_k w_k (m_k sigma_e^2 + sigma_e^2 sigma_v^2 + sigma_ev^2)
      Upsilon = (1/K) sum_k w_k (4 m_k sigma_v^2 + 2 sigma_v^4)
      tau     = (1/K) sum_k w_k 2 sigma_ev (m_k + sigma_v^2)
      Sigma12 = (1/K) sum_k w_k 2 sigma_e^2 sigma_ev
      Sigma13 = (1/K) sum_k w_k 2 sigma_ev^2

    and the concentration is mu_sq = sum_k (N_k - 1) pi_k^2, s = mu_sq /
    sqrt(K Upsilon). The per-judge heteroskedastic option replaces
    sigma_e by sigma_e * judge_error_scale_k inside the sums.
    """
    k = spec.n_judges
    n_k = np.asarray(spec.per_judge, dtype=float)
    pi = np.asarray(spec.pi)
    scale_e, scale_v = spec.error_scales
    se = np.full(k, scale_e)
    if spec.judge_error_scale is not None:
        se = se * np.asarray(spec.judge_error_scale)
    sv = scale_v
    sev = spec.error_corr * se * sv

    w = (n_k - 1.0) / n_k
    m = pi**2 * (n_k - 1.0)
    phi = float(np.sum(w * 2.0 * se**4) / k)
    psi = float(np.sum(w * (m * se**2 + se**2 * sv**2 + sev**2)) / k)
    upsilon = float(np.sum(w * (4.0 * m * sv**2 + 2.0 * sv**4)) / k)
    tau = float(np.sum(w * 2.0 * sev * (m + sv**2)) / k)
    sigma12 = float(np.sum(w * 2.0 * se**2 * sev) / k)
    sigma13 = float(np.sum(w * 2.0 * sev**2) / k)
    mu_sq = float(np.sum((n_k - 1.0) * pi**2))
    s = float(mu_sq / np.sqrt(k * upsilon)) if upsilon > 0.0 else float("inf") if mu_sq > 0.0 else 0.0
    return JudgeMoments(phi, psi, upsilon, tau, sigma12, sigma13, mu_sq, s)

def conditional_reject_prob(curve, t):
    """Exact rejection probability for nu | T = t distributed N(t, rho^2).

    Locates every crossing of the statistic surface with the piecewise
    linear curve (knots, their midpoints, and the analytic crossing
    candidates seed the sign scan; brentq polishes each root), then sums
    normal mass over the intervals where the statistic exceeds the curve.
    Mass below the domain floor accepts by construction; mass above the
    scan ceiling is 14 conditional standard deviations out.
    """
    rho = curve.rho_abs
    lo = float(curve.domain_low)
    hi = float(max(curve.knots_nu[-1], t + 14.0 * rho, lo + 14.0 * rho))

    pts = {lo, hi}
    for knot in np.asarray(curve.knots_nu, dtype=float):
        if lo < knot < hi:
            pts.add(float(knot))
    nu_star = lo
    disc = t * t - 6.0 * nu_star * t + nu_star**2
    if disc >= 0.0:
        root = math.sqrt(disc)
        for cand in (0.5 * (t + nu_star - root), 0.5 * (t + nu_star + root)):
            if lo < cand < hi:
                pts.add(cand)
    for cand in (t, t + nu_star):
        if lo < cand < hi:
            pts.add(cand)
    xs = np.array(sorted(pts))
    grid = np.empty(2 * xs.size - 1)
    grid[0::2] = xs
    grid[1::2] = 0.5 * (xs[:-1] + xs[1:])

    u = grid - t
    denom = rho**2 * t**2 + (1.0 - rho**2) * u**2
    with np.errstate(invalid="ignore", divide="ignore"):
        t2 = np.where(denom > 0.0, (grid * u) ** 2 / denom, 0.0)
    gap_vals = t2 - curve.evaluate_array(grid)

    def gap(nu):
        return t2_w_curve(nu, t, rho) - curve.evaluate(nu)

    edges = [lo]
    for idx in range(grid.size - 1):
        fa, fb = gap_vals[idx], gap_vals[idx + 1]
        if fa == 0.0:
            edges.append(float(grid[idx]))
        elif fa * fb < 0.0:
            edges.append(float(brentq(gap, grid[idx], grid[idx + 1], xtol=1e-12)))
    if gap_vals[-1] == 0.0:
        edges.append(float(grid[-1]))
    edges.append(hi)
    edges = sorted(set(edges))

    reject = 0.0
    for a, b in zip(edges, edges[1:]):
        if gap(0.5 * (a + b)) > 0.0:
            reject += float(norm.cdf((b - t) / rho) - norm.cdf((a - t) / rho))
    return reject


def run_cli(args, cwd=None, env=None):
    """Run the command line front end in a subprocess; returns the result.

    The child imports mwiv from this checkout's ``src``, as the tests do,
    whether or not PYTHONPATH names it.
    """
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "mwiv.cli", *[str(a) for a in args]]
    return subprocess.run(
        cmd, cwd=cwd, env=env, capture_output=True, text=False, timeout=300
    )


@pytest.fixture(scope="session")
def curve_library(tmp_path_factory):
    """One cache shared across the whole run so slow builds happen once."""
    directory = tmp_path_factory.mktemp("curve-cache")
    return CurveLibrary(cache=CurveCache(directory=str(directory)))


def oracle_cw_accept(rho, t, c):
    """P(t2 <= c | T = t) over Z ~ N(0,1), by one scalar pass: ``np.roots``
    on the quartic in z and a ``Polynomial`` sign test between its real
    roots, summing the normal mass of each accepting interval."""
    if c <= 0.0:
        return 0.0
    rho_abs, t = abs(float(rho)), float(t)
    coeffs = [
        rho_abs**2,
        2.0 * t * rho_abs,
        t * t - c * (1.0 - rho_abs**2),
        0.0,
        -c * t * t,
    ]
    roots = np.roots(coeffs)
    real = np.sort(roots[np.abs(roots.imag) <= 1e-9 * (1.0 + np.abs(roots.real))].real)
    points = [float(r) for r in real]
    prob = 0.0
    prev = -np.inf
    poly = np.polynomial.Polynomial(coeffs[::-1])
    for right in points + [np.inf]:
        if right > prev:
            if np.isinf(prev):
                mid = (right - 1.0) if np.isfinite(right) else 0.0
            elif np.isinf(right):
                mid = prev + 1.0
            else:
                mid = 0.5 * (prev + right)
            if poly(mid) <= 0.0:
                lo_cdf = 0.0 if np.isinf(prev) else float(ndtr(prev))
                hi_cdf = 1.0 if np.isinf(right) else float(ndtr(right))
                prob += hi_cdf - lo_cdf
            prev = right
    return prob


def oracle_cw_quantile(rho, t, alpha=0.05):
    """The conditional-Wald quantile by one scalar solve per T: ``brentq``
    on ``oracle_cw_accept`` with xtol 1e-9. The package's Newton solver
    agrees with it to that xtol, 1e-9 * max(1, c); its conditional size,
    measured by ``oracle_cw_accept``, is the tighter check.
    """
    rho_abs = abs(float(rho))
    t = float(t)
    q2 = float(ndtri(1.0 - alpha / 2.0) ** 2)
    if rho_abs < 1e-12:
        if t == 0.0:
            return 0.0
        return q2 * t * t / (t * t + q2)
    target = 1.0 - alpha
    hi = max(4.0 * q2, 2.0 * rho_abs**2 * q2 / (1.0 - rho_abs**2), t * t)
    for _ in range(200):
        if oracle_cw_accept(rho_abs, t, hi) >= target:
            break
        hi *= 2.0
    else:
        raise RuntimeError("no upper bracket")
    return float(brentq(lambda c: oracle_cw_accept(rho_abs, t, c) - target, 0.0, hi, xtol=1e-9, maxiter=200))


def oracle_decide(method, stats, alpha, curves):
    """The per-point rejection rule: (statistic, critical value) for one
    NormalizedStats, with scalar curve, table and quantile reads. The
    package's array ``decide`` must give every grid point the same
    critical value and reject flag."""
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


def pair(ctx, f, g):
    """sum_{i != j} Ptil2_ij f_i g_j: the (0, 1) entry of the package's pair
    kernel on the two-column stack (f, g)."""
    return float(ctx.pair_weighted(np.column_stack([f, g]))[0, 1])


def kernel_b(ctx, a, b, c, d):
    """B_abcd = (2/K) sum_{i != j} Ptil2_ij [a (Mb)]_i [c (Md)]_j from the
    context's own annihilator and pair kernel on the two-column stack
    (a Mb, c Md); the beta0 profile takes all eight of its cross moments
    from one call on a four-column stack. ``oracle_b`` is the loop version."""
    return 2.0 * pair(ctx, a * ctx.annihilate(b), c * ctx.annihilate(d)) / ctx.k


def quad_pp(ctx, a, b):
    """sum_{i != j} P_ij a_i b_j, one form at a time, from the context's
    own state: per judge (sum a)(sum b) - sum ab over N_k, or for dense
    instruments (q'a).(q'b) - sum_i P_ii a_i b_i. The package's forms
    (``ProjectionContext.quad_forms``) must equal it bit for bit."""
    if isinstance(ctx, JudgeProjection):
        sa, sb, ab = (ctx._judge_sums(v) for v in (a, b, a * b))
        return float(np.sum((sa * sb - ab) * ctx.inv_counts))
    return float((ctx.q.T @ a) @ (ctx.q.T @ b) - np.sum((1.0 - ctx.m) * (a * b)))


def quadratic_form_Q(ctx, a, b):
    """Q_ab = (1/sqrt(K)) sum_{i != j} P_ij a_i b_j from ``quad_pp``;
    ``oracle_q`` is the loop version."""
    return quad_pp(ctx, a, b) / np.sqrt(ctx.k)


def oracle_normalized_stats(ctx, data, beta0):
    """The direct per-point path: the variance objects from the projection
    kernels at e0 = y - beta0 x, then the normalization. The package's
    beta0 profile must give the same statistics and the same degenerate
    points (NumericalError here, for a nonpositive variance object). t^2
    is the closed form in (xi, nu, rho), inf where its denominator is not
    positive."""
    x = data.x
    e0 = data.y - beta0 * x
    xhat = ctx.leave_out_fit(x)
    mx = ctx.annihilate(x)
    me = ctx.annihilate(e0)
    k = ctx.k
    lead_base = xhat**2 / ctx.m

    x_mx = x * mx
    e_mx = e0 * mx
    pair_xx = pair(ctx, x_mx, x_mx)
    upsilon = (float(np.sum(lead_base * x_mx)) + pair_xx) / k
    tau = (
        0.5 * float(np.sum(lead_base * (x * me + e0 * mx)))
        + pair(ctx, x_mx, e_mx)
    ) / k
    psi = (float(np.sum(lead_base * e0 * me)) + pair(ctx, e_mx, e_mx)) / k
    # Fourth-moment plug-in; same pair kernel applied to e*(Me).
    e_me = e0 * me
    phi = 2.0 * pair(ctx, e_me, e_me) / k
    b_xxxx = 2.0 * pair_xx / k

    if upsilon <= 0.0:
        raise NumericalError("variance estimate nonpositive")
    if psi <= 0.0 or phi <= 0.0:
        raise NumericalError("variance estimate nonpositive at beta0")

    q_xx = quadratic_form_Q(ctx, data.x, data.x)
    q_xe = quadratic_form_Q(ctx, data.x, e0)
    q_ee = quadratic_form_Q(ctx, e0, e0)

    xi = q_xe / np.sqrt(psi)
    nu = q_xx / np.sqrt(upsilon)
    rho_raw = tau / np.sqrt(psi * upsilon)
    clamped = abs(rho_raw) > RHO_CAP
    rho = float(np.clip(rho_raw, -RHO_CAP, RHO_CAP))
    ar = q_ee / np.sqrt(phi)
    # t^2 = xi^2 / (1 - 2 rho xi/nu + xi^2/nu^2), multiplied through by
    # nu^2; the identity is raw algebra, so it sees the unclamped rho.
    denom = nu**2 - 2.0 * rho_raw * nu * xi + xi**2
    t_squared = (xi * nu) ** 2 / denom if denom > 0.0 else math.inf
    return NormalizedStats(
        xi=xi,
        nu=nu,
        rho=rho,
        rho_raw=rho_raw,
        rho_clamped=clamped,
        ar=ar,
        t_squared=t_squared,
        beta0=beta0,
        q_xx=q_xx,
        b_xxxx=b_xxxx,
    )



def _oracle_sample(f, lo, hi, tol):
    """The scalar knot refinement, ``critval._sample``'s rule, as a list of
    (nu, f(nu)) from lo: a depth-first stack of the base panels, each
    halved until f at a quarter, half and three quarters of it lies within
    0.9 tol * max(f, 1) of the chord (or the panel is 64 ROOT_TOL wide),
    one scalar formula call per point."""
    base = critval._base_grid(lo, hi)
    pairs = [(float(base[0]), f(float(base[0])))]
    stack = [(float(base[i]), float(base[i + 1])) for i in range(len(base) - 2, -1, -1)]
    while stack:
        a, b = stack.pop()
        fa, fb = f(a), f(b)
        off = False
        for p in (0.25, 0.5, 0.75):
            fx = f(a + (b - a) * p)
            off = off or abs(fx - (fa + (fb - fa) * p)) > 0.9 * tol * max(fx, 1.0)
        if off and b - a > 64 * critval.ROOT_TOL:
            mid = a + (b - a) * 0.5
            stack.append((mid, b))
            stack.append((a, mid))
        else:
            pairs.append((b, fb))
    return pairs


def _oracle_closed_form_knots(rho_abs, nu_star, nu_end):
    """Closed-form knots on [nu*, nu_end]: the samples at BUILD_TOL and a
    ladder of points out of nu*, each 1.1 times as far as the last, sorted
    and deduplicated in a loop."""

    def c(nu):
        return critval._closed(nu, rho_abs, nu_star)

    pairs = _oracle_sample(c, nu_star, nu_end, critval.BUILD_TOL)
    eps = 1e-8 * max(nu_star, 1.0)
    first_step = float(critval._base_grid(nu_star, nu_end)[1] - nu_star)
    while eps < first_step and nu_star + eps < nu_end:
        pairs.append((nu_star + eps, c(nu_star + eps)))
        eps *= 1.1
    pairs.sort()
    nus, cs = [], []
    for nu, cc in pairs:
        if not nus or nu > nus[-1]:
            nus.append(nu)
            cs.append(cc)
    return nus, cs


def _oracle_gap(nu, t, rho_abs, nu_star, nu_tilde, cont_nu, cont_c):
    """t2 - c at nu against the curve built so far: the closed form up to
    nu_tilde, then the continuation knots, held past the last one."""
    if nu <= nu_tilde:
        c = critval._closed(nu, rho_abs, nu_star)
    else:
        i = bisect_right(cont_nu, nu)
        if i == len(cont_nu):
            c = cont_c[-1]
        else:
            x0, y0, x1, y1 = cont_nu[i - 1], cont_c[i - 1], cont_nu[i], cont_c[i]
            c = y0 + (nu - x0) / (x1 - x0) * (y1 - y0)
    return t2_w_curve(nu, t, rho_abs) - c


def accepted_steps(calls):
    """The calls of a build's accepted continuation steps, from every call
    it made at a T (each call a tuple whose first item is its T). A
    rejected trial is retaken from the same T at a shorter step, so a call
    at or past the T of a later call was rejected."""
    kept = []
    for call in calls:
        while kept and kept[-1][0] >= call[0]:
            kept.pop()
        kept.append(call)
    return kept


def continuation_steps(rho, alpha=0.05):
    """(curve, the T of each continuation step): a package build with
    ``critval._closed_form_crossings``, called once per step at its T,
    recorded and kept to the accepted steps."""
    calls, crossings = [], critval._closed_form_crossings

    def record(nu_star, t):
        calls.append((t,))
        return crossings(nu_star, t)

    critval._closed_form_crossings = record
    try:
        curve = critval.build_vtfo_curve(rho, alpha)
    finally:
        critval._closed_form_crossings = crossings
    return curve, [t for t, in accepted_steps(calls)]


def _oracle_middle(lo, guess, step, quad_hi, nu_tilde, cap, args):
    """The middle crossing at one step by ``brentq``: the first sign change
    of the gap above ``lo``, the crossing a step before, where the hump it
    ended has grown. From ``guess``, the secant prediction, the gap is
    scanned up from ``lo`` in 64ths of the predicted move, then in steps
    that double, and at every knot on the way, where the gap has its
    corners; a knot where the gap is within 1e-11 c of zero is the
    crossing, as at a breakpoint the package lands on. Without a guess
    (the first step), the bracket is the one the package grows from
    ``lo``."""
    g_lo = _oracle_gap(lo, *args)
    if g_lo == 0.0:
        return lo
    cont_nu = args[4]
    if guess is not None and lo < guess < cap:
        a, width = lo, (guess - lo) / 64.0
        for k in range(2000):
            end = min(cap, a + width * (1.0 if k < 256 else 2.0 ** (k - 255)))
            knots = range(bisect_right(cont_nu, a), bisect_right(cont_nu, end))
            for b, touch in [*((cont_nu[i], 1e-11 * args[5][i]) for i in knots), (end, 0.0)]:
                g = math.copysign(1.0, g_lo) * _oracle_gap(b, *args)
                if abs(g) <= touch:
                    return b
                if g < 0.0:
                    return float(brentq(_oracle_gap, a, b, args=args, xtol=critval.ROOT_TOL))
                a = b
            if end == cap:
                break
    hi, grow = min(max(quad_hi, lo + step) if lo < nu_tilde else lo + step, cap), step
    for _ in range(200):
        if g_lo * _oracle_gap(hi, *args) < 0.0:
            break
        hi, grow = min(cap, hi + grow), 2.0 * grow
    else:
        raise NumericalError("continuation step failed: root bracketing failure")
    return float(brentq(_oracle_gap, lo, hi, args=args, xtol=critval.ROOT_TOL))


def _oracle_continuation(rho, alpha, nu_star, t_tilde, nu_tilde, ts):
    """The continuation at the conditioning values ``ts`` with its middle
    crossing from ``brentq`` (``_oracle_middle``), predicted from the last
    two by the secant in T: (knots past nu_tilde, their c, the last T, the
    middle crossing at each T)."""
    cont_nu = [nu_tilde]
    cont_c = [critval._closed(nu_tilde, rho, nu_star)]
    nu_m, nu_prev, last, step, mids = 0.5 * (t_tilde + nu_star), None, t_tilde, None, []
    for t in ts:
        step, step_prev, last = t - last, step, t
        nu_l, quad_hi = critval._closed_form_crossings(nu_star, t)
        args = (t, rho, nu_star, nu_tilde, cont_nu, cont_c)
        guess = None if nu_prev is None else nu_m + (nu_m - nu_prev) * (step / step_prev)
        nu_prev, nu_m = nu_m, _oracle_middle(nu_m, guess, step, quad_hi, nu_tilde, t * (1.0 - 1e-12), args)
        mids.append(nu_m)
        if not nu_star <= nu_l <= nu_m <= t:
            raise NumericalError("crossing order violated")
        hump_prob = float(ndtr((nu_m - t) / rho) - ndtr((nu_l - t) / rho))
        target = 1.0 - alpha + hump_prob
        if not 0.5 < target < 1.0:
            raise NumericalError("continuation step failed: acceptance probability out of range")
        nu_h = t + rho * float(ndtri(target))
        if nu_h <= cont_nu[-1]:
            raise NumericalError("continuation step failed: frontier did not advance")
        cont_nu.append(nu_h)
        cont_c.append(t2_w_curve(nu_h, t, rho))
    return cont_nu[1:], cont_c[1:], last, mids


def oracle_vtfo_curve(rho, alpha=0.05, ts=()):
    """The curve build with scalar loops: formula knots sampled panel by
    panel and the continuation's middle crossing from ``brentq``, at the
    conditioning values ``ts`` (the package's steps, ``continuation_steps``).
    Returns (knots_nu, knots_c, domain_low, t_tilde, t_last, n_closed),
    where the first ``n_closed`` knots are closed-form or limit knots; a
    failed continuation raises the package's NumericalError message."""
    rho_abs = abs(float(rho))
    if rho_abs < RHO_BUILD_FLOOR:
        pairs = _oracle_sample(lambda nu: small_rho_limit_c(nu, alpha), 0.0, critval.NU_MAX, critval.LIMIT_TOL)
        nus, cs = np.array(pairs).T
        return nus, cs, 0.0, None, None, nus.size
    nu_star, _ = fixed_point(rho_abs, alpha)
    t_tilde, nu_tilde = find_tangency(rho_abs, alpha)
    if t_tilde >= critval.NU_MAX:
        nus, cs = _oracle_closed_form_knots(rho_abs, nu_star, critval.NU_MAX)
        return np.array(nus), np.array(cs), nu_star, None, None, len(nus)
    nus, cs = _oracle_closed_form_knots(rho_abs, nu_star, nu_tilde)
    try:
        cont_nu, cont_c, t_last, _ = _oracle_continuation(rho_abs, alpha, nu_star, t_tilde, nu_tilde, ts)
    except NumericalError as exc:
        raise NumericalError(f"vtfo curve build failed at rho={rho_abs!r}, alpha={float(alpha)!r}: {exc}") from exc
    return np.array(nus + cont_nu), np.array(cs + cont_c), nu_star, t_tilde, t_last, len(nus)


def oracle_middle_crossings(rho, alpha=0.05, ts=()):
    """The middle crossing at each of the conditioning values ``ts`` (the
    package's steps, ``continuation_steps``), from the oracle continuation
    (``_oracle_continuation``)."""
    rho_abs = abs(float(rho))
    nu_star, _ = fixed_point(rho_abs, alpha)
    t_tilde, nu_tilde = find_tangency(rho_abs, alpha)
    return _oracle_continuation(rho_abs, alpha, nu_star, t_tilde, nu_tilde, ts)[3]
