"""Projection machinery: P, the annihilator diagonal, and adjusted weights.

Everything downstream consumes the kernels built here:

* leave-out quadratic forms  Q_ab = (1/sqrt(K)) sum_{i != j} P_ij a_i b_j
* the pair kernel            sum_{i != j} Ptil2_ij f_i g_j   with
  Ptil2_ij = P_ij^2 / (M_ii M_jj + M_ij^2)
* the leave-out fit          sum_{j != i} P_ij v_j, and the annihilator Mv

The estimators' beta0 profile takes every variance object from them; a
cross moment B_abcd = (2/K) sum_{i != j} Ptil2_ij [a_i (Mb)_i] [c_j (Md)_j]
is one pair kernel of two annihilated products.

Two representations: a dense path that materializes P (reference), and a
judge-block path that exploits P_ij = 1{same judge}/N_k and never stores an
N x N object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import DataError

__all__ = [
    "ProjectionContext",
    "build_projection",
    "quadratic_form_Q",
]


@dataclass(frozen=True)
class ProjectionContext:
    """Immutable projection state; safe for shared concurrent reads."""

    kind: str  # "dense" or "judge-block"
    n: int
    k: int
    m: np.ndarray  # annihilator diagonal M_ii, strictly inside (0, 1)
    # dense path only
    p: np.ndarray | None = None
    ptil2: np.ndarray | None = None  # zero diagonal
    # judge-block path only
    labels: np.ndarray | None = None  # canonical 0..K-1
    counts: np.ndarray | None = None  # N_k per judge
    pair_w: np.ndarray | None = None  # shared within-judge Ptil2 value
    inv_counts: np.ndarray | None = field(default=None, repr=False)

    def _check_length(self, *vecs: np.ndarray) -> list[np.ndarray]:
        out = []
        for v in vecs:
            v = np.asarray(v, dtype=float)
            if v.ndim != 1 or v.shape[0] != self.n:
                raise DataError(f"dimension error: expected length {self.n}")
            out.append(v)
        return out

    def _judge_sums(self, v: np.ndarray) -> np.ndarray:
        return np.bincount(self.labels, weights=v, minlength=self.k)

    def leave_out_fit(self, v: np.ndarray) -> np.ndarray:
        """sum_{j != i} P_ij v_j for every i."""
        (v,) = self._check_length(v)
        if self.kind == "dense":
            return self.p @ v - np.diag(self.p) * v
        sums = self._judge_sums(v)
        return (sums[self.labels] - v) * self.inv_counts[self.labels]

    def annihilate(self, v: np.ndarray) -> np.ndarray:
        """(Mv)_i = v_i - (Pv)_i."""
        (v,) = self._check_length(v)
        if self.kind == "dense":
            return v - self.p @ v
        sums = self._judge_sums(v)
        return v - sums[self.labels] * self.inv_counts[self.labels]

    def quad_pp(self, a: np.ndarray, b: np.ndarray) -> float:
        """Unnormalized sum_{i != j} P_ij a_i b_j, exactly symmetric in (a, b)."""
        a, b = self._check_length(a, b)
        if self.kind == "dense":
            # Canonical argument order so swapped calls run the same float
            # ops; the judge-block arithmetic below is symmetric as written.
            if a.tobytes() > b.tobytes():
                a, b = b, a
            return float(a @ (self.p @ b) - np.sum(np.diag(self.p) * a * b))
        sa = self._judge_sums(a)
        sb = self._judge_sums(b)
        ab = self._judge_sums(a * b)
        return float(np.sum((sa * sb - ab) * self.inv_counts))

    def pair_weighted(self, f: np.ndarray, g: np.ndarray) -> float:
        """Unnormalized sum_{i != j} Ptil2_ij f_i g_j, exactly symmetric."""
        f, g = self._check_length(f, g)
        if self.kind == "dense":
            if f.tobytes() > g.tobytes():
                f, g = g, f
            return float(f @ (self.ptil2 @ g))
        sf = self._judge_sums(f)
        sg = self._judge_sums(g)
        fg = self._judge_sums(f * g)
        return float(np.sum((sf * sg - fg) * self.pair_w))


def build_projection(data: Dataset) -> ProjectionContext:
    """Build the projection context; block path for judge-label instruments."""
    if data.is_judge:
        return _build_judge(data.instruments)
    return _build_dense(data.instruments)


def _build_judge(raw_labels: np.ndarray) -> ProjectionContext:
    _, labels = np.unique(raw_labels, return_inverse=True)
    labels = labels.astype(np.int64)
    counts = np.bincount(labels)
    if counts.min() < 2:
        raise DataError("insufficient cluster size: every judge needs at least two cases")
    k = counts.size
    n = labels.size
    inv_counts = 1.0 / counts
    m = 1.0 - inv_counts[labels]
    # Within a judge of size N_k: P_ij = 1/N_k and M_ij = -1/N_k off-diagonal,
    # so the adjusted weight is constant per judge.
    p_sq = inv_counts**2
    pair_w = p_sq / ((1.0 - inv_counts) ** 2 + p_sq)
    return ProjectionContext(
        kind="judge-block",
        n=n,
        k=k,
        m=m,
        labels=labels,
        counts=counts,
        pair_w=pair_w,
        inv_counts=inv_counts,
    )


def _build_dense(z: np.ndarray) -> ProjectionContext:
    n, k = z.shape
    if np.linalg.matrix_rank(z) < k:
        raise DataError("rank-deficient instruments: Z'Z is singular")
    # QR keeps the conditioning of Z, not of Z'Z.
    q, _ = np.linalg.qr(z)
    p = q @ q.T
    p = 0.5 * (p + p.T)
    m = 1.0 - np.diag(p)
    if m.min() <= 1e-10 or m.max() >= 1.0:
        raise DataError("insufficient cluster size: an observation has leave-out leverage one")
    p_sq = p**2
    ptil2 = p_sq / (np.outer(m, m) + p_sq)
    np.fill_diagonal(ptil2, 0.0)
    return ProjectionContext(kind="dense", n=n, k=k, m=m, p=p, ptil2=ptil2)


def quadratic_form_Q(ctx: ProjectionContext, a: np.ndarray, b: np.ndarray) -> float:
    """Leave-out quadratic form (1/sqrt(K)) sum_{i != j} P_ij a_i b_j."""
    return ctx.quad_pp(a, b) / np.sqrt(ctx.k)
