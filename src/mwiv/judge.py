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

import numpy as np

from .data import Dataset
from .errors import DataError

__all__ = [
    "JudgeDesignSpec",
    "simulate_judge_data",
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
    x.flags.writeable = y.flags.writeable = False  # fresh: Dataset keeps them uncopied
    return Dataset(y=y, x=x, instruments=labels)
