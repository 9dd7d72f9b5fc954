"""Asymptotic power laboratory.

Draws the limiting quadratic-form triple (q_ee, q_xe, q_xx) directly from
its Gaussian law, shifts it across a grid of coefficient divergences
delta, applies each procedure's rejection rule with known variances, and
reports Monte Carlo rejection rates next to the analytic large-|delta|
power bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr, ndtri

from .critval import _check_alpha
from .errors import DataError
from .estimators import NormalizedStats
from .inference import CurveLibrary, _check_method, decide

__all__ = [
    "AsymptoticDGP",
    "AltVariances",
    "PowerCurveResult",
    "draw_q_tr",
    "alternative_variances",
    "rejection_rates",
    "analytic_power_bounds",
    "power_csv_text",
    "write_power_csv",
    "write_power_svg",
]


def _default_base(r: float) -> tuple[float, float, float, float, float, float]:
    return 1.0, (1.0 + r**2) / 2.0, 1.0, r / 2.0, r / 2.0, r**2


@dataclass(frozen=True)
class AsymptoticDGP:
    """Limiting distribution parameters: concentration s, correlation knob r,
    and the six base variance objects (defaults derived from r)."""

    s: float
    r: float
    phi: float = None  # type: ignore[assignment]
    psi: float = None  # type: ignore[assignment]
    upsilon: float = None  # type: ignore[assignment]
    tau: float = None  # type: ignore[assignment]
    sigma12: float = None  # type: ignore[assignment]
    sigma13: float = None  # type: ignore[assignment]

    def __post_init__(self):
        if not np.isfinite(self.s):
            raise DataError("invalid DGP: s must be finite")
        if not abs(self.r) < 1.0:
            raise DataError("invalid DGP: |r| must be < 1")
        defaults = _default_base(self.r)
        names = ("phi", "psi", "upsilon", "tau", "sigma12", "sigma13")
        for name, value in zip(names, defaults):
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
            else:
                object.__setattr__(self, name, float(getattr(self, name)))
        if self.phi <= 0.0 or self.psi <= 0.0 or self.upsilon <= 0.0:
            raise DataError("invalid DGP: phi, psi, upsilon must be positive")
        if float(np.linalg.eigvalsh(self.covariance())[0]) < -1e-10:
            raise DataError("invalid DGP: covariance not positive semidefinite")

    def covariance(self) -> np.ndarray:
        """Covariance of (q_ee, q_xe, q_xx) in that order."""
        return np.array(
            [
                [self.phi, self.sigma12, self.sigma13],
                [self.sigma12, self.psi, self.tau],
                [self.sigma13, self.tau, self.upsilon],
            ]
        )

    def mean(self) -> np.ndarray:
        return np.array([0.0, 0.0, self.s * np.sqrt(self.upsilon)])


class AltVariances(NamedTuple):
    phi_b0: float
    psi_b0: float
    tau_b0: float
    sigma12_b0: float
    sigma13_b0: float


def alternative_variances(dgp: AsymptoticDGP, delta: float) -> AltVariances:
    """Variance objects at a hypothesized coefficient offset delta from the
    truth, via the polynomial expansion in delta."""
    d = float(delta)
    u, t = dgp.upsilon, dgp.tau
    psi, phi = dgp.psi, dgp.phi
    s12, s13 = dgp.sigma12, dgp.sigma13
    return AltVariances(
        phi_b0=d**4 * u + 4.0 * d**3 * t + d**2 * (4.0 * psi + 2.0 * s13) + 4.0 * d * s12 + phi,
        psi_b0=d**2 * u + 2.0 * d * t + psi,
        tau_b0=d * u + t,
        sigma12_b0=d**3 * u + 3.0 * d**2 * t + d * (2.0 * psi + s13) + s12,
        sigma13_b0=d**2 * u + 2.0 * d * t + s13,
    )


def _factor(cov: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        # PSD boundary: fall back to an eigenvalue square root.
        vals, vecs = np.linalg.eigh(cov)
        vals = np.clip(vals, 0.0, None)
        return vecs * np.sqrt(vals)


def _draw_with_rng(dgp: AsymptoticDGP, n_draws: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((int(n_draws), 3))
    return z @ _factor(dgp.covariance()).T + dgp.mean()


def draw_q_tr(dgp: AsymptoticDGP, n_draws: int, seed: int) -> np.ndarray:
    """(n_draws, 3) array of (q_ee, q_xe, q_xx) draws; counter-based RNG so
    identical seeds give identical draws."""
    if n_draws < 1:
        raise DataError("n_draws must be >= 1")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    return _draw_with_rng(dgp, n_draws, rng)


def analytic_power_bounds(s: float, alpha: float = 0.05) -> tuple[float, float]:
    """Large-|delta| power limits: one minus the probability that the
    confidence set is unbounded, for nu ~ N(s, 1).

    These are limits, not finite-|delta| values: the remainder shrinks
    like 1/|delta|. At s = 3, r = 0.5 and 1e5 draws (seed 7), the largest
    gap between Monte Carlo power of vtfo, ms1, ms2 or lm and its bound
    is 0.061 at |delta| = 8, 0.0042 at 80 and 0.0008 at 800.
    """
    _check_alpha(alpha)
    sq = float(ndtri(1.0 - alpha))
    z = float(ndtri(1.0 - alpha / 2.0))
    one_sided = 1.0 - float(ndtr(sq - s))
    two_sided = 1.0 - float(ndtr(z - s) - ndtr(-z - s))
    return one_sided, two_sided


_BOUND_SIDE = {"vtfo": "one", "ms1": "one", "vtf": "two", "ms2": "two", "lm": "two", "cw": None}


@dataclass(frozen=True)
class PowerCurveResult:
    delta_grid: np.ndarray
    methods: tuple[str, ...]
    rates: dict[str, np.ndarray]
    n_draws: int
    seed: int
    alpha: float
    s: float
    r: float
    bound_one_sided: float
    bound_two_sided: float

    def bound_for(self, method: str) -> float | None:
        side = _BOUND_SIDE.get(method)
        if side == "one":
            return self.bound_one_sided
        if side == "two":
            return self.bound_two_sided
        return None


def rejection_rates(
    dgp: AsymptoticDGP,
    delta_grid,
    methods=("vtfo", "cw", "ms1", "ms2", "lm"),
    n_draws: int = 10000,
    alpha: float = 0.05,
    curves: CurveLibrary | None = None,
    seed: int = 0,
) -> PowerCurveResult:
    """Monte Carlo rejection rate per method per delta.

    Every delta gets its own RNG substream spawned from the seed, so the
    result is independent of evaluation order. Known (not estimated)
    variance objects enter the normalizations: this is the limit
    experiment at a known rho. Each (delta, method) is one ``decide`` call
    on all the draws, with rho a float, so the curve test reads the curve
    built at the exact rho and cw interpolates its quantile in T; see
    ``decide`` for how that differs from the decision layer's estimated
    rho.
    """
    _check_alpha(alpha)
    if n_draws < 1:
        raise DataError("n_draws must be >= 1")
    methods = tuple(methods)
    curves = curves if curves is not None else CurveLibrary()
    for m in methods:
        _check_method(m, curves)

    delta_grid = np.asarray(delta_grid, dtype=float)
    if delta_grid.ndim != 1 or delta_grid.size == 0:
        raise DataError("delta_grid must be a nonempty 1-D array")
    rates = {m: np.zeros(delta_grid.size) for m in methods}
    children = np.random.SeedSequence(seed).spawn(delta_grid.size)

    for i, d in enumerate(delta_grid):
        rng = np.random.Generator(np.random.Philox(children[i]))
        draws = _draw_with_rng(dgp, n_draws, rng)
        q_ee, q_xe, q_xx = draws[:, 0], draws[:, 1], draws[:, 2]
        q_ee0 = q_ee + 2.0 * d * q_xe + d**2 * q_xx
        q_xe0 = q_xe + d * q_xx
        alt = alternative_variances(dgp, d)

        xi = q_xe0 / np.sqrt(alt.psi_b0)
        nu = q_xx / np.sqrt(dgp.upsilon)
        rho0 = alt.tau_b0 / np.sqrt(alt.psi_b0 * dgp.upsilon)
        ar = q_ee0 / np.sqrt(alt.phi_b0)
        denom = (nu - rho0 * xi) ** 2 + (1.0 - rho0**2) * xi**2
        with np.errstate(divide="ignore", invalid="ignore"):
            t2 = np.where(denom > 0.0, (xi * nu) ** 2 / denom, np.inf)
        stats = NormalizedStats(
            xi=xi, nu=nu, rho=rho0, rho_raw=rho0, rho_clamped=False, ar=ar, t_squared=t2, beta0=float(d)
        )
        for m in methods:
            statistic, critical = decide(m, stats, alpha, curves)
            rates[m][i] = float(np.mean(statistic > critical))

    one_b, two_b = analytic_power_bounds(dgp.s, alpha)
    return PowerCurveResult(
        delta_grid=delta_grid,
        methods=methods,
        rates=rates,
        n_draws=int(n_draws),
        seed=int(seed),
        alpha=float(alpha),
        s=dgp.s,
        r=dgp.r,
        bound_one_sided=one_b,
        bound_two_sided=two_b,
    )


def power_csv_text(result: PowerCurveResult) -> str:
    lines = ["delta,method,reject_rate,n_draws,s,r,alpha\n"]
    for i, d in enumerate(result.delta_grid):
        for m in result.methods:
            lines.append(
                f"{float(d)!r},{m},{float(result.rates[m][i])!r},{result.n_draws},"
                f"{result.s!r},{result.r!r},{result.alpha!r}\n"
            )
    return "".join(lines)


def write_power_csv(path, result: PowerCurveResult) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(power_csv_text(result))


_SVG_COLORS = {
    "vtfo": "#1f77b4",
    "vtf": "#17becf",
    "cw": "#9467bd",
    "ms1": "#d62728",
    "ms2": "#ff7f0e",
    "lm": "#2ca02c",
}


def write_power_svg(path, result: PowerCurveResult) -> None:
    """Minimal standalone plot: one polyline per method, dashed horizontal
    lines at the analytic bounds."""
    width, height = 640.0, 420.0
    ml, mr, mt, mb = 60.0, 20.0, 20.0, 45.0
    d_lo, d_hi = float(result.delta_grid[0]), float(result.delta_grid[-1])
    span = d_hi - d_lo if d_hi > d_lo else 1.0

    def sx(d):
        return ml + (d - d_lo) / span * (width - ml - mr)

    def sy(p):
        return height - mb - p * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<line x1="{ml}" y1="{sy(0.0)}" x2="{width - mr}" y2="{sy(0.0)}" stroke="black"/>',
        f'<line x1="{ml}" y1="{sy(0.0)}" x2="{ml}" y2="{sy(1.0)}" stroke="black"/>',
    ]
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(
            f'<text x="{ml - 8:.1f}" y="{sy(p) + 4:.1f}" font-size="11" text-anchor="end">{p:.2f}</text>'
        )
    for d in np.linspace(d_lo, d_hi, 5):
        parts.append(
            f'<text x="{sx(d):.1f}" y="{height - mb + 16:.1f}" font-size="11" text-anchor="middle">{d:.1f}</text>'
        )
    parts.append(
        f'<text x="{(ml + width - mr) / 2:.1f}" y="{height - 8:.1f}" font-size="12" '
        f'text-anchor="middle">delta</text>'
    )
    for label, value in (("one-sided bound", result.bound_one_sided), ("two-sided bound", result.bound_two_sided)):
        parts.append(
            f'<line x1="{ml}" y1="{sy(value):.2f}" x2="{width - mr}" y2="{sy(value):.2f}" '
            f'stroke="gray" stroke-dasharray="5,4"/>'
        )
        parts.append(
            f'<text x="{width - mr:.1f}" y="{sy(value) - 4:.2f}" font-size="10" '
            f'text-anchor="end" fill="gray">{label}</text>'
        )
    for j, m in enumerate(result.methods):
        color = _SVG_COLORS.get(m, "#000000")
        pts = " ".join(
            f"{sx(float(d)):.2f},{sy(float(result.rates[m][i])):.2f}"
            for i, d in enumerate(result.delta_grid)
        )
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{ml + 10:.1f}" y="{mt + 14 + 14 * j:.1f}" font-size="12" fill="{color}">{m}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
