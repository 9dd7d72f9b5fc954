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

from .critval import _check_alpha, _lookup, cw_critical_value
from .errors import DataError
from .estimators import NormalizedStats, _normalize
from .inference import CurveLibrary, _check_method, decide
from .judge import _check_seed

__all__ = [
    "AsymptoticDGP",
    "AltVariances",
    "PowerCurveResult",
    "alternative_variances",
    "rejection_rates",
    "analytic_power_bounds",
    "power_csv_text",
    "write_power_csv",
    "write_power_svg",
]

# One delta's draws peak at about 89 bytes per draw under tracemalloc (the
# five default methods, 1e5 and 2e5 draws, one delta to a chunk), so the most
# stay under 0.5 GB.
MAX_DRAWS = 5 * 10**6
# A delta leaves only its rates behind, 8 bytes per method (24 bytes under
# tracemalloc for three methods, 1e4 and 2e4 deltas, one draw each): its seed
# substream is made when it is drawn. So the most take 40 MB for the five
# default methods; the bound is on time, at 0.1 ms or more per delta (one
# draw, ms1, a 2-vCPU Xeon).
MAX_DELTAS = 10**6
# cw's quantile is solved at this many T spanning a delta's draws of T, and
# interpolated in between.
CW_KNOTS = 512
# The deltas of a chunk have their cw knots solved in one cw_critical_value
# call. On the knots of ``mwiv power``'s default 41 deltas (1e4 draws, a
# 2-vCPU Xeon) its cost per row falls from 5.3 us at 512 rows (one delta) to
# 3.4 us at 1,536 and 3,072, then rises (4.4 us at 4,096, 5.9 us at 20,992).
# Its tracemalloc peak is 0.7 to 1.1 kB per row, 1.1 to 1.6 MB at 1,536
# over six (rho, T) tried. A chunk also holds its deltas' t^2
# and T, 16 bytes per draw, until the solve, so it ends at 1e5 draws held
# (1.6 MB). What a chunk holds is thus bounded whatever the delta count; with
# 1e6 deltas of one draw, one unbounded chunk would hold 5e8 rows.
CW_CHUNK_ROWS = 3 * CW_KNOTS
CW_CHUNK_DRAWS = 10**5


@dataclass(frozen=True)
class AsymptoticDGP:
    """Limiting distribution parameters: concentration s and correlation
    knob r, with the six base variance objects set from r: phi = upsilon =
    1, psi = (1 + r^2) / 2, tau = sigma12 = r / 2 and sigma13 = r^2. Their
    covariance is positive definite at every |r| < 1: its leading minors
    are 1 and 1/2 + r^2 / 4, and its determinant is (1 - r^6) / 2."""

    s: float
    r: float
    phi: float = field(init=False)
    psi: float = field(init=False)
    upsilon: float = field(init=False)
    tau: float = field(init=False)
    sigma12: float = field(init=False)
    sigma13: float = field(init=False)

    def __post_init__(self):
        if not np.isfinite(self.s):
            raise DataError("invalid DGP: s must be finite")
        if not abs(self.r) < 1.0:
            raise DataError("invalid DGP: |r| must be < 1")
        r = self.r
        base = (1.0, (1.0 + r**2) / 2.0, 1.0, r / 2.0, r / 2.0, r**2)
        for name, value in zip(("phi", "psi", "upsilon", "tau", "sigma12", "sigma13"), base):
            object.__setattr__(self, name, value)

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
    truth, via the polynomial expansion in delta; DataError where one overflows."""
    d = np.float64(delta)  # its powers are Python's bit for bit, but overflow to inf
    u, t = dgp.upsilon, dgp.tau
    psi, phi = dgp.psi, dgp.phi
    s12, s13 = dgp.sigma12, dgp.sigma13
    with np.errstate(over="ignore", invalid="ignore"):
        alt = AltVariances(
            phi_b0=d**4 * u + 4.0 * d**3 * t + d**2 * (4.0 * psi + 2.0 * s13) + 4.0 * d * s12 + phi,
            psi_b0=d**2 * u + 2.0 * d * t + psi,
            tau_b0=d * u + t,
            sigma12_b0=d**3 * u + 3.0 * d**2 * t + d * (2.0 * psi + s13) + s12,
            sigma13_b0=d**2 * u + 2.0 * d * t + s13,
        )
    if not np.all(np.isfinite(alt)):
        raise DataError(f"delta={d:g} overflows the variance objects at it")
    return alt


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


def _lab_stats(dgp: AsymptoticDGP, d, n_draws: int, seed_seq: np.random.SeedSequence) -> NormalizedStats:
    """One delta's draws, normalized with the known variance objects at it."""
    draws = _draw_with_rng(dgp, n_draws, np.random.Generator(np.random.Philox(seed_seq)))
    q_ee, q_xe, q_xx = draws[:, 0], draws[:, 1], draws[:, 2]
    # psi at the draw's estimate (delta -q_xe / q_xx), the square completed so an infinite ratio gives inf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # s delta may overflow to inf
        psi_hat = dgp.upsilon * (q_xe / q_xx - dgp.tau / dgp.upsilon) ** 2 + (dgp.psi - dgp.tau**2 / dgp.upsilon)
        q_ee0 = q_ee + 2.0 * d * q_xe + d**2 * q_xx
        q_xe0 = q_xe + d * q_xx
    alt = alternative_variances(dgp, d)
    xi, nu, rho0, ar, t2 = _normalize(q_xe0, q_xx, q_ee0, dgp.upsilon, alt.tau_b0, alt.psi_b0, alt.phi_b0, psi_hat)
    return NormalizedStats(xi=xi, nu=nu, rho=rho0, rho_raw=rho0, rho_clamped=False, ar=ar, t_squared=t2,
                           beta0=float(d))


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

    Every delta gets its own RNG substream of the seed (the i-th child that
    ``SeedSequence(seed).spawn`` would give), so the result is independent
    of evaluation order. Known (not estimated) variance objects enter the
    normalizations: this is the limit experiment at a known rho. Each
    (delta, method) but cw is one ``decide`` call on all the draws, with rho
    a float, so the curve test reads the curve built at the exact rho; see
    ``decide`` for how that differs from the decision layer's estimated rho.
    cw solves its quantile at CW_KNOTS points spanning the delta's draws of
    T and interpolates between them; the deltas of a chunk (CW_CHUNK_ROWS,
    CW_CHUNK_DRAWS) are solved in one ``cw_critical_value`` call, every row
    at its own rho, which equals the per-delta calls bit for bit. So within
    a chunk, a later delta's error can be raised before an earlier delta's
    cw solve fails.
    """
    alpha = _check_alpha(alpha)
    if not 1 <= n_draws <= MAX_DRAWS:
        raise DataError(f"n_draws must be >= 1 and <= {MAX_DRAWS}")
    _check_seed(seed)
    methods = tuple(methods)
    curves = curves if curves is not None else CurveLibrary()
    for m in methods:
        _check_method(m, curves)

    delta_grid = np.asarray(delta_grid, dtype=float)
    if delta_grid.ndim != 1 or delta_grid.size == 0:
        raise DataError("delta_grid must be a nonempty 1-D array")
    if delta_grid.size > MAX_DELTAS:
        raise DataError(f"delta_grid must hold at most {MAX_DELTAS} deltas")
    if not np.all(np.isfinite(delta_grid)):
        raise DataError("delta_grid must be finite")
    for d in (delta_grid.min(), delta_grid.max()):  # the largest |delta| of each sign, before any draw
        alternative_variances(dgp, d)
    rates = {m: np.zeros(delta_grid.size) for m in methods}
    per_chunk = max(1, min(CW_CHUNK_ROWS // CW_KNOTS, CW_CHUNK_DRAWS // n_draws))

    for first in range(0, delta_grid.size, per_chunk):
        held = []  # (delta index, rho, t^2, T, knots) of each delta of the chunk, for cw
        for i in range(first, min(first + per_chunk, delta_grid.size)):
            stats = _lab_stats(dgp, delta_grid[i], n_draws, np.random.SeedSequence(seed, spawn_key=(i,)))
            for m in methods:
                if m != "cw":
                    statistic, critical = decide(m, stats, alpha, curves)
                    rates[m][i] = float(np.mean(statistic > critical))
                elif not abs(stats.rho) < 1.0:  # the conditional quantile needs |rho| < 1
                    raise DataError(f"cw cannot run at delta={float(delta_grid[i]):g}: "
                                    f"the known rho rounds to {float(stats.rho)!r}")
                else:
                    t_cond = stats.nu - stats.rho * stats.xi
                    knots = np.linspace(np.min(t_cond), np.max(t_cond), CW_KNOTS)
                    held.append((i, stats.rho, stats.t_squared, t_cond, knots))
        if held:
            index, rho, t2, t_cond, knots = zip(*held)
            quantiles = cw_critical_value(np.array(rho)[:, None], np.stack(knots), alpha)
            for i, t2_i, t_i, knots_i, q in zip(index, t2, t_cond, knots, quantiles):
                rates["cw"][i] = float(np.mean(t2_i > _lookup(t_i, knots_i, q)))

    one_b, two_b = analytic_power_bounds(dgp.s, alpha)
    return PowerCurveResult(
        delta_grid=delta_grid,
        methods=methods,
        rates=rates,
        n_draws=int(n_draws),
        seed=int(seed),
        alpha=alpha,
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
