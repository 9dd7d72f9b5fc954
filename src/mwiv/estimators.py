"""Point estimate, jackknife variance, and normalized statistics.

With residuals e0 = y - b0 * x, every b0-dependent quantity is a
polynomial in b0: Q_xe and tau have degree 1, Q_ee and psi degree 2, phi
degree 4; Q_xx, upsilon and B_xxxx do not depend on b0. One profile per
(ctx, data), memoized, takes their coefficients from five kernel calls
and evaluates them on a float or an array of b0 without forming an N x
grid array. ``_normalize`` turns them into (xi, nu, rho, ar, t^2), here
and in the power lab. t^2 is the Wald ratio Q_xe(b0)^2 / psi(bhat); acceptance
criterion 1 checks the paper's identity, that it equals the just-identified
TSLS t^2 written in (xi, nu, rho).

A point is degenerate where upsilon, psi or phi is not positive; a psi or
phi within 1e-12 of the summed magnitude of its terms counts as zero, so
an exact fit (e0 = 0: the terms cancel to about 1e-15) stays degenerate.
Where psi(bhat) is not positive, t^2 is inf at every b0; only the
procedures that read t^2 treat that as degenerate too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

from .critval import RHO_CAP
from .data import Dataset
from .errors import DataError, NumericalError
from .projection import ProjectionContext

__all__ = [
    "NormalizedStats",
    "jive_point_estimate",
    "jive_variance",
    "normalized_stats",
]

# A sum within this fraction of its terms' summed magnitude is zero.
_ZERO = 1e-12


@dataclass(frozen=True)
class NormalizedStats:
    """(xi, nu, rho, ar, t_squared) at ``beta0``.

    rho is clamped to +-RHO_CAP (0.9999) for curve lookup; rho_raw keeps the
    unclamped value, reported and read by no rule. q_xx and b_xxxx
    ride along for unboundedness checks. For an array of beta0 the
    beta0-dependent fields are arrays of its shape; nu, q_xx and b_xxxx
    stay scalars.
    """

    xi: float
    nu: float
    rho: float
    rho_raw: float
    rho_clamped: bool
    ar: float
    t_squared: float
    beta0: float
    q_xx: float = float("nan")
    b_xxxx: float | None = None


def _normalize(q_xe, q_xx, q_ee, upsilon, tau, psi, phi, psi_hat):
    """(xi, nu, rho_raw, ar, t_squared) from the quadratic forms, the variance
    objects and psi_hat, psi at the point estimate; elementwise, with no
    warning. t_squared is the Wald ratio q_xe^2 / psi_hat: inf where psi_hat
    is not positive, 0 where it is inf."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        xi = q_xe / np.sqrt(psi)
        nu = q_xx / np.sqrt(upsilon)
        rho_raw = tau / np.sqrt(psi * upsilon)
        ar = q_ee / np.sqrt(phi)
        t_squared = np.where(psi_hat > 0.0, q_xe**2 / psi_hat, np.inf)
    return xi, nu, rho_raw, ar, t_squared


@dataclass(frozen=True)
class _Profile:
    """The b0 polynomials of one (ctx, data): Q_xe, Q_ee, tau, psi and phi,
    coefficients ascending in b0. Q_xe's constant is Q_xy; Q_xx counts as zero
    against q_xx_scale = Q(|x|, |x|); psi_hat is psi at the estimate Q_xy / Q_xx."""

    q_xx: float
    q_xx_scale: float
    upsilon: float
    b_xxxx: float
    polys: tuple
    psi_hat: float

    def values(self, beta0) -> list[np.ndarray]:
        """The five polynomials at the flattened beta0; psi and phi are 0.0
        where numerically zero."""
        b = np.asarray(beta0, dtype=float).reshape(-1)
        if not np.all(np.isfinite(b)):
            raise DataError("beta0 must be finite")
        with np.errstate(over="ignore", invalid="ignore"):
            out = [polyval(b, c) for c in self.polys]
            terms = [polyval(np.abs(b), np.abs(c)) for c in self.polys[3:]]
        if not np.all(np.isfinite(out + terms)):
            raise DataError(f"|beta0| up to {np.max(np.abs(b)):g} overflows the beta0 polynomials")
        for i, scale in zip((3, 4), terms):
            out[i] = np.where(np.abs(out[i]) <= _ZERO * scale, 0.0, out[i])
        return out

    def stats(self, beta0) -> tuple[NormalizedStats, np.ndarray]:
        """NormalizedStats at beta0 (floats for a float) and the mask of
        degenerate points (upsilon, psi or phi nonpositive), where the
        fields hold nan or inf. t_squared is inf at every point where
        psi_hat is not positive."""
        q_xe, q_ee, tau, psi, phi = self.values(beta0)
        xi, nu, rho_raw, ar, t_squared = _normalize(q_xe, self.q_xx, q_ee, self.upsilon, tau, psi, phi, self.psi_hat)
        degenerate = (psi <= 0.0) | (phi <= 0.0) | (self.upsilon <= 0.0)
        per_point = dict(xi=xi, rho=np.clip(rho_raw, -RHO_CAP, RHO_CAP), rho_raw=rho_raw,
                         rho_clamped=np.abs(rho_raw) > RHO_CAP, ar=ar, t_squared=t_squared,
                         beta0=np.asarray(beta0, dtype=float), degenerate=degenerate)
        out = {name: np.reshape(v, np.shape(beta0))[()] for name, v in per_point.items()}
        degenerate = out.pop("degenerate")
        return NormalizedStats(nu=nu, q_xx=self.q_xx, b_xxxx=self.b_xxxx, **out), degenerate

    def refuse(self, bad) -> None:
        """Raise NumericalError if any point of the mask ``bad`` is set."""
        if np.any(bad):
            raise NumericalError("variance estimate nonpositive" + (" at beta0" if self.upsilon > 0.0 else ""))


def _profile(ctx: ProjectionContext, data: Dataset) -> _Profile:
    """ctx's memoized profile when it is of ``data`` (read-only y and x: the
    same object, the same content), else a new one that replaces it."""
    memo = ctx._memo
    if memo is not None and memo[0] is data:
        return memo[1]
    x, y, k = data.x, data.y, ctx.k
    lead = ctx.leave_out_fit(x) ** 2 / ctx.m
    mx, my = ctx.annihilate(x), ctx.annihilate(y)
    # e0 (M e0) = u0 - b0 u1 + b0^2 u2 and e0 (M x) = w - b0 u2
    u0, u1, u2, w = y * my, x * my + y * mx, x * mx, y * mx
    l0, l1, l2 = (float(np.sum(lead * u)) for u in (u0, u1, u2))
    stack = np.array((u0, u1, u2, w)).T  # (N, 4) with contiguous columns
    p = ctx.pair_weighted(stack).tolist()  # upper triangle: (u0, u1, u2, w) pairs
    p00, p01, p02, p11, p12, p22, pw2, pww = *p[0][:3], *p[1][1:3], *p[2][2:], p[3][3]
    q_xx, q_xy, q_yy, q_abs = (q / np.sqrt(k) for q in ctx.quad_forms(x, y))
    ups = (l2 + p22) / k
    phi = (2.0 * p00, -4.0 * p01, 2.0 * (2.0 * p02 + p11), -4.0 * p12, 2.0 * p22)
    polys = ((q_xy, -q_xx), (q_yy, -2.0 * q_xy, q_xx), ((0.5 * l1 + pw2) / k, -ups),
             ((l0 + pww) / k, -(l1 + 2.0 * pw2) / k, ups), tuple(c / k for c in phi))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # psi at beta_hat, as in values
        b = q_xy / q_xx
        psi_hat, scale = polyval(b, polys[3]), polyval(abs(b), np.abs(polys[3]))
    # a beta_hat that is not finite, or a psi there that overflows, reads inf: t^2 reads 0, the nu -> 0 limit
    psi_hat = float(np.inf if not np.isfinite(scale) else 0.0 if abs(psi_hat) <= _ZERO * scale else psi_hat)
    profile = _Profile(q_xx=q_xx, q_xx_scale=q_abs, upsilon=ups, b_xxxx=2.0 * p22 / k, polys=polys, psi_hat=psi_hat)
    object.__setattr__(ctx, "_memo", (data, profile))
    return profile


def jive_point_estimate(ctx: ProjectionContext, data: Dataset) -> float:
    """Ratio of leave-out quadratic forms Q_yx / Q_xx, from the profile."""
    profile = _profile(ctx, data)
    if abs(profile.q_xx) < _ZERO * max(profile.q_xx_scale, 1e-300):
        raise NumericalError("degenerate first stage: |Q_xx| is numerically zero")
    return profile.polys[0][0] / profile.q_xx


def jive_variance(ctx: ProjectionContext, data: Dataset, beta_hat: float) -> float:
    """Jackknife variance of the point estimate: psi at beta_hat over Q_xx^2,
    and 0.0 at an exact fit (every residual zero at beta_hat)."""
    profile = _profile(ctx, data)
    if not np.isfinite(beta_hat):
        raise NumericalError("variance estimate nonpositive: beta_hat not finite")
    psi = profile.values(beta_hat)[3][0]
    if psi > 0.0:
        return float(psi / profile.q_xx**2)
    if np.any(data.y - beta_hat * data.x != 0.0):
        raise NumericalError("variance estimate nonpositive")
    return 0.0


def normalized_stats(ctx: ProjectionContext, data: Dataset, beta0) -> NormalizedStats:
    """Normalized statistics (xi, nu, rho, ar) and t_squared at beta0.

    A float beta0 gives float fields, an array gives arrays of its shape
    from the same profile. Raises NumericalError if any point is
    degenerate or has a non-finite t_squared (every point, where psi at
    the point estimate is not positive), DataError for a non-finite beta0
    or one whose polynomials overflow.
    """
    profile = _profile(ctx, data)
    stats, degenerate = profile.stats(beta0)
    profile.refuse(degenerate | ~np.isfinite(stats.t_squared))
    return stats
