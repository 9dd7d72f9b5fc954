"""Shared fixtures and independent reference implementations.

Everything here recomputes package quantities from first principles:
dense hat matrices come from a linear solve, the quadratic and cross
moments from explicit double loops, and the conditional size auditor
integrates the normal law directly against a built curve. None of it
shares kernels with the package, so agreement is evidence rather than
tautology.
"""

import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri
from scipy.stats import norm

from mwiv import (
    METHODS,
    CurveCache,
    CurveLibrary,
    DataError,
    TableError,
    cw_critical_value,
    snap_rho_to_grid,
    two_sided_chi2,
)
from mwiv.critval import t2_w_curve


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
    """Run the command line front end in a subprocess; returns the result."""
    cmd = [sys.executable, "-m", "mwiv.cli", *[str(a) for a in args]]
    return subprocess.run(
        cmd, cwd=cwd, env=env, capture_output=True, text=False, timeout=300
    )


@pytest.fixture(scope="session")
def curve_library(tmp_path_factory):
    """One cache shared across the whole run so slow builds happen once."""
    directory = tmp_path_factory.mktemp("curve-cache")
    return CurveLibrary(cache=CurveCache(directory=str(directory)))


def oracle_cw_quantile(rho, t, alpha=0.05):
    """The conditional-Wald quantile by one scalar solve per T.

    The acceptance probability of a candidate c comes from ``np.roots`` on
    the quartic in z and a ``Polynomial`` sign test between its real roots;
    ``brentq`` solves for c. The package's array solver must agree with it
    bit for bit.
    """
    rho_abs = abs(float(rho))
    t = float(t)
    q2 = float(ndtri(1.0 - alpha / 2.0) ** 2)
    if rho_abs < 1e-12:
        if t == 0.0:
            return 0.0
        return q2 * t * t / (t * t + q2)

    def accept_prob(c):
        if c <= 0.0:
            return 0.0
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

    target = 1.0 - alpha
    hi = max(4.0 * q2, 2.0 * rho_abs**2 * q2 / (1.0 - rho_abs**2), t * t)
    for _ in range(200):
        if accept_prob(hi) >= target:
            break
        hi *= 2.0
    else:
        raise RuntimeError("no upper bracket")
    return float(brentq(lambda c: accept_prob(c) - target, 0.0, hi, xtol=1e-9, maxiter=200))


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
