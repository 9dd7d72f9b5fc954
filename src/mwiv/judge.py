"""Finite-sample judge-design data generator.

Each observation is assigned to a judge k with N_k cases; the instrument
set is the judge indicators. The first stage is X_i = pi_k(i) + v_i and
the outcome Y_i = beta X_i + e_i with (e_i, v_i) bivariate normal. A
per-judge scale knob makes the outcome error heteroskedastic across
judges when wanted.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import Dataset
from .errors import DataError

__all__ = [
    "JudgeDesignSpec",
    "JudgeMoments",
    "simulate_judge_data",
    "judge_population_moments",
]


def _check_seed(seed) -> None:
    """Raise a DataError unless ``seed`` is a nonnegative integer, the
    seeds ``np.random.SeedSequence`` takes as one value."""
    try:
        ok = operator.index(seed) >= 0
    except TypeError:
        ok = False
    if not ok:
        raise DataError(f"seed must be a nonnegative integer, got {seed!r}")


@dataclass(frozen=True)
class JudgeDesignSpec:
    """Design for one simulated dataset.

    error_scales = (scale_e, scale_v); zero scales are allowed and give a
    noiseless design. judge_error_scale optionally multiplies the outcome
    error scale judge by judge (heteroskedastic option).
    """

    n_judges: int
    per_judge: tuple[int, ...]
    pi: tuple[float, ...]
    beta: float
    error_corr: float = 0.0
    error_scales: tuple[float, float] = (1.0, 1.0)
    seed: int = 0
    judge_error_scale: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "per_judge", tuple(int(n) for n in self.per_judge))
        object.__setattr__(self, "pi", tuple(float(p) for p in self.pi))
        if self.n_judges < 1 or len(self.per_judge) != self.n_judges:
            raise DataError("invalid design: per_judge must list one count per judge")
        if len(self.pi) != self.n_judges:
            raise DataError("invalid design: pi must list one mean per judge")
        if any(n < 2 for n in self.per_judge):
            raise DataError("invalid design: every judge needs at least 2 cases")
        if not abs(self.error_corr) < 1.0:
            raise DataError("invalid design: |error_corr| must be < 1")
        if len(self.error_scales) != 2 or any(s < 0.0 for s in self.error_scales):
            raise DataError("invalid design: error_scales must be two nonnegative reals")
        if self.judge_error_scale is not None:
            scales = tuple(float(s) for s in self.judge_error_scale)
            if len(scales) != self.n_judges or any(s < 0.0 for s in scales):
                raise DataError("invalid design: judge_error_scale needs one nonnegative value per judge")
            object.__setattr__(self, "judge_error_scale", scales)
        _check_seed(self.seed)

    @property
    def n(self) -> int:
        return sum(self.per_judge)


def simulate_judge_data(spec: JudgeDesignSpec) -> Dataset:
    """One dataset draw; deterministic given spec.seed."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(spec.seed)))
    labels = np.repeat(np.arange(spec.n_judges, dtype=np.int64), spec.per_judge)
    scale_e, scale_v = spec.error_scales
    corr = spec.error_corr
    z1 = rng.standard_normal(spec.n)
    z2 = rng.standard_normal(spec.n)
    e = scale_e * z1
    if spec.judge_error_scale is not None:
        e = e * np.asarray(spec.judge_error_scale)[labels]
    v = scale_v * (corr * z1 + np.sqrt(1.0 - corr**2) * z2)
    x = np.asarray(spec.pi)[labels] + v
    y = spec.beta * x + e
    return Dataset(y=y, x=x, instruments=labels)


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


def judge_population_moments(spec: JudgeDesignSpec) -> JudgeMoments:
    """Exact finite-design variance objects for the homoskedastic case.

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
    return JudgeMoments(
        phi=phi,
        psi=psi,
        upsilon=upsilon,
        tau=tau,
        sigma12=sigma12,
        sigma13=sigma13,
        mu_sq=mu_sq,
        s=s,
    )
