"""Point estimate, jackknife variance, and normalized statistics.

All hypothesis-dependent quantities are evaluated at residuals
e(b0) = y - b0 * x. The central numerical fact, checked on every call to
:func:`jive_t_squared`, is that the Wald ratio (bhat - b0)^2 / Vhat equals
a closed form in the normalized triple (xi, nu, rho); this is exact algebra,
not an approximation, so disagreement flags an implementation bug.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import NumericalError
from .projection import ProjectionContext, quadratic_form_Q

__all__ = [
    "VarianceEstimates",
    "NormalizedStats",
    "jive_point_estimate",
    "jive_variance",
    "variance_estimates_at",
    "normalized_stats",
    "t_squared_from_triple",
    "jive_t_squared",
]

RHO_CLAMP = 0.9999


@dataclass(frozen=True)
class VarianceEstimates:
    """Variance-object estimates at a hypothesized coefficient.

    upsilon_hat is hypothesis-free; tau_hat, psi_hat, phi_hat are evaluated
    at ``at_beta0``. b_xxxx is the fourth cross moment of x with itself,
    carried for the confidence-set unboundedness diagnostics.
    """

    upsilon_hat: float
    tau_hat: float
    psi_hat: float
    phi_hat: float
    at_beta0: float
    b_xxxx: float


@dataclass(frozen=True)
class NormalizedStats:
    """(xi, nu, rho, ar, t_squared) at ``beta0``.

    rho is clamped to [-0.9999, 0.9999] for curve lookup; rho_raw keeps the
    unclamped value and feeds the exact t_squared identity. q_xx and b_xxxx
    ride along for unboundedness checks.
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


def _q_xx_with_scale(ctx: ProjectionContext, x: np.ndarray) -> float:
    q_xx = quadratic_form_Q(ctx, x, x)
    scale = quadratic_form_Q(ctx, np.abs(x), np.abs(x))
    if abs(q_xx) < 1e-12 * max(scale, 1e-300):
        raise NumericalError("degenerate first stage: |Q_xx| is numerically zero")
    return q_xx


def jive_point_estimate(ctx: ProjectionContext, data: Dataset) -> float:
    """Ratio of leave-out quadratic forms Q_yx / Q_xx."""
    q_xx = _q_xx_with_scale(ctx, data.x)
    return quadratic_form_Q(ctx, data.y, data.x) / q_xx


def _psi_kernel(ctx: ProjectionContext, x: np.ndarray, e: np.ndarray) -> float:
    """(1/K)[ sum_i xhat_i^2 e_i(Me)_i/M_ii + pair(e*Mx, e*Mx) ]."""
    xhat = ctx.leave_out_fit(x)
    me = ctx.annihilate(e)
    mx = ctx.annihilate(x)
    lead = float(np.sum(xhat**2 * e * me / ctx.m))
    pair = ctx.pair_weighted(e * mx, e * mx)
    return (lead + pair) / ctx.k


def jive_variance(ctx: ProjectionContext, data: Dataset, beta_hat: float) -> float:
    """Jackknife variance of the point estimate, residuals at beta_hat."""
    if not np.isfinite(beta_hat):
        raise NumericalError("variance estimate nonpositive: beta_hat not finite")
    e_hat = data.y - beta_hat * data.x
    q_xx = quadratic_form_Q(ctx, data.x, data.x)
    v_hat = _psi_kernel(ctx, data.x, e_hat) / q_xx**2
    if v_hat < 0.0 or (v_hat == 0.0 and np.any(e_hat != 0.0)):
        raise NumericalError("variance estimate nonpositive")
    return v_hat


def variance_estimates_at(ctx: ProjectionContext, data: Dataset, beta0: float) -> VarianceEstimates:
    """Evaluate the four variance objects at beta0."""
    x = data.x
    e0 = data.y - beta0 * x
    xhat = ctx.leave_out_fit(x)
    mx = ctx.annihilate(x)
    me = ctx.annihilate(e0)
    k = ctx.k
    lead_base = xhat**2 / ctx.m

    x_mx = x * mx
    e_mx = e0 * mx
    pair_xx = ctx.pair_weighted(x_mx, x_mx)
    upsilon = (float(np.sum(lead_base * x_mx)) + pair_xx) / k
    tau = (
        0.5 * float(np.sum(lead_base * (x * me + e0 * mx)))
        + ctx.pair_weighted(x_mx, e_mx)
    ) / k
    psi = (float(np.sum(lead_base * e0 * me)) + ctx.pair_weighted(e_mx, e_mx)) / k
    # Fourth-moment plug-in; same pair kernel applied to e*(Me).
    e_me = e0 * me
    phi = 2.0 * ctx.pair_weighted(e_me, e_me) / k
    b_xxxx = 2.0 * pair_xx / k

    if upsilon <= 0.0:
        raise NumericalError("variance estimate nonpositive")
    if psi <= 0.0 or phi <= 0.0:
        raise NumericalError("variance estimate nonpositive at beta0")
    return VarianceEstimates(
        upsilon_hat=upsilon,
        tau_hat=tau,
        psi_hat=psi,
        phi_hat=phi,
        at_beta0=beta0,
        b_xxxx=b_xxxx,
    )


def t_squared_from_triple(xi: float, nu: float, rho: float) -> float:
    """Closed form xi^2 / (1 - 2 rho xi/nu + xi^2/nu^2), in overflow-safe shape."""
    denom = (nu - rho * xi) ** 2 + (1.0 - rho**2) * xi**2
    if denom <= 0.0:
        raise NumericalError("variance estimate nonpositive")
    return (xi * nu) ** 2 / denom


def normalized_stats(ctx: ProjectionContext, data: Dataset, beta0: float) -> NormalizedStats:
    """Normalized statistics (xi, nu, rho, ar) and the exact t_squared at beta0."""
    est = variance_estimates_at(ctx, data, beta0)
    e0 = data.y - beta0 * data.x
    q_xx = quadratic_form_Q(ctx, data.x, data.x)
    q_xe = quadratic_form_Q(ctx, data.x, e0)
    q_ee = quadratic_form_Q(ctx, e0, e0)

    xi = q_xe / np.sqrt(est.psi_hat)
    nu = q_xx / np.sqrt(est.upsilon_hat)
    rho_raw = est.tau_hat / np.sqrt(est.psi_hat * est.upsilon_hat)
    clamped = abs(rho_raw) > RHO_CLAMP
    rho = float(np.clip(rho_raw, -RHO_CLAMP, RHO_CLAMP))
    ar = q_ee / np.sqrt(est.phi_hat)
    # The identity is raw algebra; it must see the unclamped correlation.
    t_squared = t_squared_from_triple(xi, nu, rho_raw)
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
        b_xxxx=est.b_xxxx,
    )


def jive_t_squared(ctx: ProjectionContext, data: Dataset, beta0: float) -> float:
    """Wald statistic at beta0, computed both ways and cross-checked.

    Routes: (bhat - b0)^2 / Vhat and the closed form from the normalized
    triple. They agree to machine accuracy by algebra; tolerance 1e-8
    relative guards against kernel regressions.
    """
    stats = normalized_stats(ctx, data, beta0)
    beta_hat = jive_point_estimate(ctx, data)
    v_hat = jive_variance(ctx, data, beta_hat)
    if v_hat <= 0.0:
        raise NumericalError("variance estimate nonpositive")
    direct = (beta_hat - beta0) ** 2 / v_hat
    closed = stats.t_squared
    rel = abs(direct - closed) / max(abs(direct), abs(closed), 1e-12)
    if rel > 1e-8:
        raise NumericalError(
            f"t-statistic identity violation: ratio form {direct!r} vs closed form {closed!r}"
        )
    return closed
