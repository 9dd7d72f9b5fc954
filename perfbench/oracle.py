"""Reference computations for the benchmark's correctness checks.

Nothing here imports mwiv. Hat matrices come from a linear solve (dense
instruments and small judge designs) or from per-judge sums over sorted
labels (large judge designs); normal probabilities come from the standard
library and from root scans of the statistic surface, not from the
package's quantile solvers.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np
from scipy.special import erfc

ALPHA = 0.05
_STD = NormalDist()
Z1 = _STD.inv_cdf(1.0 - ALPHA)  # one-sided cutoff
Z2 = _STD.inv_cdf(1.0 - ALPHA / 2.0)  # two-sided cutoff
Q2 = Z2 * Z2
RHO_CLAMP = 0.9999
RHO_FLOOR = 0.02


def norm_cdf(x):
    return 0.5 * erfc(-np.asarray(x, dtype=float) / math.sqrt(2.0))


def close(a: float, b: float, rel: float = 1e-8, floor: float = 1e-10) -> bool:
    """Relative agreement, with an absolute floor for values near zero."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(abs(a), abs(b)) + floor


# -- normalized statistics --------------------------------------------------


class _Kernels:
    """Leave-out kernels from an explicit hat matrix or from judge sums."""

    def stats(self, y: np.ndarray, x: np.ndarray, beta0: float) -> dict | None:
        k = self.k
        e = y - beta0 * x
        xhat = self.leave_out(x)
        mx, me = self.resid(x), self.resid(e)
        lead = xhat**2 / self.m
        x_mx, e_mx, e_me = x * mx, e * mx, e * me
        ups = (np.sum(lead * x_mx) + self.pair(x_mx, x_mx)) / k
        tau = (0.5 * np.sum(lead * (x * me + e * mx)) + self.pair(x_mx, e_mx)) / k
        psi = (np.sum(lead * e_me) + self.pair(e_mx, e_mx)) / k
        phi = 2.0 * self.pair(e_me, e_me) / k
        if min(ups, psi, phi) <= 0.0:
            return None  # degenerate point: a nonpositive variance estimate
        root_k = math.sqrt(k)
        q_xx = self.cross(x, x) / root_k
        q_xe = self.cross(x, e) / root_k
        q_ee = self.cross(e, e) / root_k
        xi = q_xe / math.sqrt(psi)
        nu = q_xx / math.sqrt(ups)
        rho_raw = tau / math.sqrt(psi * ups)
        t2 = (xi * nu) ** 2 / ((nu - rho_raw * xi) ** 2 + (1.0 - rho_raw**2) * xi**2)
        return {
            "xi": float(xi),
            "nu": float(nu),
            "rho": float(min(max(rho_raw, -RHO_CLAMP), RHO_CLAMP)),
            "t_squared": float(t2),
            "ar": float(q_ee / math.sqrt(phi)),
        }

    def jive(self, y: np.ndarray, x: np.ndarray) -> tuple[float, float]:
        """Point estimate Q_yx / Q_xx and its jackknife variance."""
        q_xx = self.cross(x, x) / math.sqrt(self.k)
        beta = self.cross(y, x) / self.cross(x, x)
        e = y - beta * x
        xhat, mx = self.leave_out(x), self.resid(x)
        psi = (np.sum(xhat**2 * e * self.resid(e) / self.m) + self.pair(e * mx, e * mx)) / self.k
        return float(beta), float(psi / q_xx**2)


class DenseOracle(_Kernels):
    """P = Z (Z'Z)^{-1} Z' by linear solve; O(N^2) memory, for N up to a few thousand."""

    def __init__(self, z: np.ndarray):
        z = np.asarray(z, dtype=float)
        p = z @ np.linalg.solve(z.T @ z, z.T)
        diag = np.diag(p).copy()
        self.k = z.shape[1]
        self.m = 1.0 - diag
        self.p = p
        self.p_off = p - np.diag(diag)
        p_sq = self.p_off**2
        self.ptil2 = p_sq / (np.outer(self.m, self.m) + p_sq)

    def leave_out(self, v):
        return self.p_off @ v

    def resid(self, v):
        return v - self.p @ v

    def cross(self, a, b):
        return float(a @ (self.p_off @ b))

    def pair(self, f, g):
        return float(f @ (self.ptil2 @ g))


def judge_indicators(labels: np.ndarray) -> np.ndarray:
    values, inverse = np.unique(labels, return_inverse=True)
    z = np.zeros((labels.size, values.size))
    z[np.arange(labels.size), inverse] = 1.0
    return z


class JudgeSumOracle(_Kernels):
    """P_ij = 1{same judge} / N_k, applied through sorted-segment sums."""

    def __init__(self, labels: np.ndarray):
        labels = np.asarray(labels)
        self.order = np.argsort(labels, kind="stable")
        sorted_labels = labels[self.order]
        self.starts = np.flatnonzero(np.r_[True, sorted_labels[1:] != sorted_labels[:-1]])
        sizes = np.diff(np.r_[self.starts, labels.size]).astype(float)
        self.k = sizes.size
        self.group = np.empty(labels.size, dtype=np.int64)
        self.group[self.order] = np.repeat(np.arange(self.k), sizes.astype(np.int64))
        self.inv_size = 1.0 / sizes
        self.m = 1.0 - self.inv_size[self.group]
        self.weight = self.inv_size**2 / ((1.0 - self.inv_size) ** 2 + self.inv_size**2)

    def _sums(self, v):
        return np.add.reduceat(np.asarray(v, dtype=float)[self.order], self.starts)

    def leave_out(self, v):
        return (self._sums(v)[self.group] - v) * self.inv_size[self.group]

    def resid(self, v):
        return v - self._sums(v)[self.group] * self.inv_size[self.group]

    def cross(self, a, b):
        return float(np.sum((self._sums(a) * self._sums(b) - self._sums(a * b)) * self.inv_size))

    def pair(self, f, g):
        return float(np.sum((self._sums(f) * self._sums(g) - self._sums(f * g)) * self.weight))


# -- confidence-set structure ------------------------------------------------


def accepted_runs(betas: np.ndarray, rejects: np.ndarray) -> list[tuple[float, float]]:
    """Maximal runs of accepted grid points as (first beta, last beta)."""
    runs, start = [], None
    for i, rej in enumerate(rejects):
        if not rej and start is None:
            start = i
        if rej and start is not None:
            runs.append((float(betas[start]), float(betas[i - 1])))
            start = None
    if start is not None:
        runs.append((float(betas[start]), float(betas[-1])))
    return runs


def snap_up(rho: float) -> float | None:
    """The 0.01 tabulation bin at or above |rho| (0.9999 past 0.99); None
    when |rho| sits so close to a bin edge that rounding could pick either."""
    r = abs(rho)
    if r > 0.99:
        return None if r - 0.99 < 1e-9 else RHO_CLAMP
    scaled = r * 100.0
    if abs(scaled - round(scaled)) < 1e-6:
        return None
    return max(math.ceil(scaled), 0) / 100.0


# -- conditional probabilities by root scan -----------------------------------


def _t2(nu, t, rho):
    u = nu - t
    denom = rho**2 * t**2 + (1.0 - rho**2) * u**2
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom > 0.0, (nu * u) ** 2 / denom, 0.0)


def _mass_where_positive(gap, pts: np.ndarray, t: float, rho: float) -> float:
    """Normal mass of nu ~ N(t, rho^2) over {gap(nu) > 0} within [pts[0], pts[-1]].

    Sign changes of gap on the sample points are polished by bisection; the
    mass between neighbouring roots is classified at the interval midpoint.
    """
    vals = gap(pts)
    idx = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0.0)
    a, b = pts[idx].copy(), pts[idx + 1].copy()
    fa = vals[idx]
    for _ in range(60):
        mid = 0.5 * (a + b)
        fm = gap(mid)
        left = np.sign(fm) == np.sign(fa)
        a = np.where(left, mid, a)
        fa = np.where(left, fm, fa)
        b = np.where(left, b, mid)
    edges = np.unique(np.r_[pts[0], 0.5 * (a + b), pts[-1]])
    mids = 0.5 * (edges[:-1] + edges[1:])
    inside = gap(mids) > 0.0
    cdf = norm_cdf((edges - t) / rho)
    return float(np.sum((cdf[1:] - cdf[:-1])[inside]))


def conditional_reject(rho: float, knots_nu, knots_c, domain_low: float, t: float) -> float:
    """P(t2 > c(nu) | T = t) for nu ~ N(t, rho^2) against a piecewise-linear
    curve that holds its last value and never rejects below domain_low."""
    knots_nu = np.asarray(knots_nu, dtype=float)
    knots_c = np.asarray(knots_c, dtype=float)
    lo = float(domain_low)
    hi = max(float(knots_nu[-1]), t + 12.0 * rho, lo + 12.0 * rho)
    inner = knots_nu[(knots_nu > lo) & (knots_nu < hi)]
    uniform = np.linspace(lo, hi, 40001)
    pts = np.unique(np.r_[lo, inner, 0.5 * (inner[:-1] + inner[1:]), uniform, hi])

    def gap(nu):
        return _t2(nu, t, rho) - np.interp(nu, knots_nu, knots_c)

    return _mass_where_positive(gap, pts, t, rho)


def cw_acceptance(rho: float, t: float, c: float) -> float:
    """P(t2 <= c | T = t) for nu ~ N(t, rho^2), the conditional-Wald rule."""
    rho = abs(rho)
    lo, hi = t - 12.0 * rho, t + 12.0 * rho
    pts = np.linspace(lo, hi, 80001)
    reject = _mass_where_positive(lambda nu: _t2(nu, t, rho) - c, pts, t, rho)
    return float(norm_cdf(12.0) - norm_cdf(-12.0)) - reject


def curve_problems(rho: float, curve, tag: str) -> list[str]:
    """Shape checks any correct one-sided curve passes: it starts at the
    analytic fixed point (or on the small-rho limit below the build floor)
    and its last knot sits within 0.02 of the chi-squared constant."""
    nus = np.asarray(curve.knots_nu, dtype=float)
    cs = np.asarray(curve.knots_c, dtype=float)
    out = []
    if nus.size < 2 or not np.all(np.diff(nus) > 0.0):
        return [f"{tag}: knots not strictly increasing"]
    if rho >= RHO_FLOOR:
        nu0 = rho * Z1
        c0 = rho**2 * Z1**2 / (1.0 - rho**2)
        if abs(nus[0] - nu0) > 1e-6 or abs(cs[0] - c0) > 1e-6 * max(1.0, c0):
            out.append(f"{tag}: first knot ({nus[0]:.9g}, {cs[0]:.9g}) is not the fixed point ({nu0:.9g}, {c0:.9g})")
    else:
        sample = np.linspace(0, nus.size - 1, 50).astype(int)
        limit = Q2 * nus[sample] ** 2 / (nus[sample] ** 2 + Q2)
        if np.max(np.abs(cs[sample] - limit)) > 1e-6:
            out.append(f"{tag}: knots off the small-rho limit curve")
    if abs(cs[-1] - Q2) > 0.02:
        out.append(f"{tag}: last knot c = {cs[-1]:.6f} is not within 0.02 of {Q2:.6f}")
    return out


def size_problems(rho: float, curve, tag: str) -> list[str]:
    """Conditional size within 1e-4 of alpha at T = 0.5, 2 and 0.75 t_last."""
    if curve.t_last is None:
        return []
    out = []
    for t in (0.5, 2.0, 0.75 * float(curve.t_last)):
        p = conditional_reject(rho, curve.knots_nu, curve.knots_c, curve.domain_low, t)
        if abs(p - ALPHA) > 1e-4:
            out.append(f"{tag}: conditional size {p:.6f} at T = {t:.3f}")
    return out


# -- limit-experiment moment tests --------------------------------------------


def moment_test_power(cov: np.ndarray, mean: np.ndarray, delta: float) -> dict[str, float]:
    """Closed-form rejection rates of ms1, ms2 and lm at offset delta.

    The shifted forms q_ee0 = q_ee + 2 d q_xe + d^2 q_xx and q_xe0 = q_xe + d q_xx
    are normal, so each normalized statistic is N(mean, 1).
    """
    a = np.array([1.0, 2.0 * delta, delta**2])
    b = np.array([0.0, 1.0, delta])
    m_ar = float(a @ mean / math.sqrt(a @ cov @ a))
    m_xi = float(b @ mean / math.sqrt(b @ cov @ b))

    def two_sided(m):
        return _STD.cdf(-Z2 - m) + 1.0 - _STD.cdf(Z2 - m)

    return {"ms1": 1.0 - _STD.cdf(Z1 - m_ar), "ms2": two_sided(m_ar), "lm": two_sided(m_xi)}


def mc_band(p: float, n: int) -> float:
    """Four Monte Carlo standard errors of a rate with true value p."""
    return 4.0 * math.sqrt(p * (1.0 - p) / n)
