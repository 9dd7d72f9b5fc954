"""Projection machinery: P, the annihilator diagonal, and adjusted weights.

Everything downstream consumes the kernels built here:

* leave-out quadratic forms  Q_ab = (1/sqrt(K)) sum_{i != j} P_ij a_i b_j,
  one at a time or the profile's four in one pass
* the pair kernel            F' Ptil2 F of one (N, m) stack F, whose entry
  (a, b) is sum_{i != j} Ptil2_ij f_ia f_jb with
  Ptil2_ij = P_ij^2 / (M_ii M_jj + M_ij^2)
* the leave-out fit          sum_{j != i} P_ij v_j, and the annihilator Mv

The estimators' beta0 profile takes every variance object from them: each
cross moment B_abcd = (2/K) sum_{i != j} Ptil2_ij [a_i (Mb)_i] [c_j (Md)_j]
it needs is an entry of one pair kernel call on four annihilated products.

One class per instrument form, each holding only what its kernels read
and neither holding an N x N array: ``JudgeProjection`` uses P_ij =
1{same judge}/N_k; ``DenseProjection`` holds q of one thin QR of Z (P v =
q q'v, P_ii = sum_k q_ik^2 = 1 - M_ii) and builds Ptil2 from q one row
block at a time inside the pair kernel, the dense path's only O(N^2) work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import DataError

__all__ = [
    "ProjectionContext",
    "JudgeProjection",
    "DenseProjection",
    "build_projection",
]


@dataclass(frozen=True)
class ProjectionContext:
    """Immutable projection state; safe for shared concurrent reads. Each
    public kernel checks lengths, then runs its subclass's private kernel.
    ``_memo`` is the last dataset's beta0 profile, one ``(data, profile)``
    tuple (``estimators._profile``) replaced in one assignment: a concurrent
    reader sees the old pair or the new, and a race builds a profile twice."""

    n: int
    k: int
    m: np.ndarray  # annihilator diagonal M_ii, strictly inside (0, 1)
    _memo: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def _check_length(self, *vecs: np.ndarray) -> list[np.ndarray]:
        out = [np.asarray(v, dtype=float) for v in vecs]
        if any(v.ndim != 1 or v.shape[0] != self.n for v in out):
            raise DataError(f"dimension error: expected length {self.n}")
        return out

    def leave_out_fit(self, v: np.ndarray) -> np.ndarray:
        """sum_{j != i} P_ij v_j for every i."""
        return self._leave_out_fit(*self._check_length(v))

    def annihilate(self, v: np.ndarray) -> np.ndarray:
        """(Mv)_i = v_i - (Pv)_i."""
        return self._annihilate(*self._check_length(v))

    def quad_pp(self, a: np.ndarray, b: np.ndarray) -> float:
        """Unnormalized sum_{i != j} P_ij a_i b_j, exactly symmetric in (a, b):
        the (x, y) form of ``quad_forms``."""
        return self.quad_forms(a, b)[1]

    def quad_forms(self, x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
        """Unnormalized sum_{i != j} P_ij a_i b_j for (a, b) = (x, x), (x, y),
        (y, y) and (|x|, |x|), from the sums they share; |x| |x| is x x
        exactly."""
        return self._quad_forms(*self._check_length(x, y))

    def pair_weighted(self, f: np.ndarray) -> np.ndarray:
        """F' Ptil2 F of an (N, m) stack F, with (a, b) entry the unnormalized sum_{i != j}
        Ptil2_ij f_ia f_jb: the kernel's upper triangle, mirrored, so exactly symmetric."""
        f = np.asarray(f, dtype=float)
        if f.ndim != 2 or f.shape[0] != self.n:
            raise DataError(f"dimension error: expected an ({self.n}, m) stack")
        out = self._pair_weighted(f)
        return np.where(np.tri(len(out), k=-1, dtype=bool), out.T, out)


@dataclass(frozen=True)
class JudgeProjection(ProjectionContext):
    """Judge-block projection: P_ij = 1/N_k within judge k, 0 across judges."""

    labels: np.ndarray  # canonical 0..K-1
    inv_counts: np.ndarray = field(repr=False)  # 1/N_k per judge
    pair_w: np.ndarray  # shared within-judge Ptil2 value

    def _judge_sums(self, v: np.ndarray) -> np.ndarray:
        return np.bincount(self.labels, weights=v, minlength=self.k)

    def _leave_out_fit(self, v: np.ndarray) -> np.ndarray:
        sums = self._judge_sums(v)
        return (sums[self.labels] - v) * self.inv_counts[self.labels]

    def _annihilate(self, v: np.ndarray) -> np.ndarray:
        sums = self._judge_sums(v)
        return v - sums[self.labels] * self.inv_counts[self.labels]

    def _quad_forms(self, x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
        # six judge sums where four forms one by one run twelve
        sx, sy, sa = (self._judge_sums(v) for v in (x, y, np.abs(x)))
        xx, xy, yy = (self._judge_sums(a * b) for a, b in ((x, x), (x, y), (y, y)))
        return tuple(float(np.sum((a * b - ab) * self.inv_counts))
                     for a, b, ab in ((sx, sx, xx), (sx, sy, xy), (sy, sy, yy), (sa, sa, xx)))

    def _pair_weighted(self, f: np.ndarray) -> np.ndarray:
        # the upper triangle, from each column's judge sums and each pair's
        sums = [self._judge_sums(v) for v in f.T]
        out = np.empty((len(sums), len(sums)))
        for a, b in zip(*np.triu_indices(len(sums))):
            out[a, b] = np.sum((sums[a] * sums[b] - self._judge_sums(f[:, a] * f[:, b])) * self.pair_w)
        return out


@dataclass(frozen=True)
class DenseProjection(ProjectionContext):
    """Projection onto the column space of a general instrument matrix Z.

    Holds q and m, O(N K). The pair kernel builds Ptil2 from q in row
    blocks of ``_BLOCK`` floats (4 MB; one block up to N = 724), so a
    context reused across datasets builds them again for each profile."""

    q: np.ndarray = field(repr=False)  # thin QR factor of Z, N x K

    def _leave_out_fit(self, v: np.ndarray) -> np.ndarray:
        return self.m * v - self._annihilate(v)

    def _annihilate(self, v: np.ndarray) -> np.ndarray:
        return v - self.q @ (self.q.T @ v)

    def _quad_forms(self, x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
        qx, qy, qa = (self.q.T @ v for v in (x, y, np.abs(x)))
        w = 1.0 - self.m
        xx, xy, yy = (np.sum(w * (a * b)) for a, b in ((x, x), (x, y), (y, y)))
        return tuple(float(a @ b - d) for a, b, d in ((qx, qx, xx), (qx, qy, xy), (qy, qy, yy), (qa, qa, xx)))

    def _pair_weighted(self, f: np.ndarray) -> np.ndarray:
        # Ptil2 is symmetric, so the block of rows r holds Ptil2[r, r.start:]
        # and its columns past r stand for the block below r too.
        out, spare = 0.0, None
        for rows, ptil2 in _p_blocks(self.q):
            # P_ij^2 / (M_ii M_jj + P_ij^2) in place, beside one denominator
            spare = np.empty(ptil2.size) if spare is None else spare  # the first block is the largest
            denom = np.multiply.outer(self.m[rows], self.m[rows.start:], out=spare[: ptil2.size].reshape(ptil2.shape))
            ptil2 **= 2
            ptil2 /= np.add(denom, ptil2, out=denom)
            np.fill_diagonal(ptil2, 0.0)
            below = ptil2[:, len(ptil2):]
            out = out + f[rows].T @ (ptil2 @ f[rows.start:]) + (below @ f[rows.stop:]).T @ f[rows]
        return out


_BLOCK = 1 << 19  # floats in a block of P's rows


def _p_blocks(q: np.ndarray):
    """(rows, P[rows, rows.start:]) over consecutive row blocks of P = q q',
    the upper triangle and the diagonal block; each is written over the last."""
    n = q.shape[0]
    step = max(1, _BLOCK // n)
    buf = np.empty(min(step, n) * n)
    for lo in range(0, n, step):
        rows = slice(lo, min(lo + step, n))
        shape = (rows.stop - lo, n - lo)
        yield rows, np.matmul(q[rows], q[lo:].T, out=buf[: shape[0] * shape[1]].reshape(shape))


def build_projection(data: Dataset) -> JudgeProjection | DenseProjection:
    """Build the projection context; block path for judge-label instruments."""
    if data.is_judge:
        return _build_judge(data.instruments)
    return _build_dense(data.instruments)


def _build_judge(raw_labels: np.ndarray) -> JudgeProjection:
    _, labels = np.unique(raw_labels, return_inverse=True)
    labels = labels.astype(np.int64)
    counts = np.bincount(labels)
    if counts.min() < 2:
        raise DataError("insufficient cluster size: every judge needs at least two cases")
    inv_counts = 1.0 / counts
    m = 1.0 - inv_counts[labels]
    # Within a judge of size N_k: P_ij = 1/N_k and M_ij = -1/N_k off-diagonal,
    # so the adjusted weight is constant per judge.
    p_sq = inv_counts**2
    pair_w = p_sq / ((1.0 - inv_counts) ** 2 + p_sq)
    return JudgeProjection(n=labels.size, k=counts.size, m=m, labels=labels, inv_counts=inv_counts, pair_w=pair_w)


def _build_dense(z: np.ndarray) -> DenseProjection:
    n, k = z.shape
    # One thin QR, Z = q r, keeps Z's conditioning; r has Z's singular values, and
    # as in np.linalg.matrix_rank, rank < K when s_min <= s_max * max(N, K) * eps.
    q, r = np.linalg.qr(z)
    s = np.linalg.svd(r, compute_uv=False)
    if s[-1] <= s[0] * max(n, k) * np.finfo(float).eps:
        raise DataError("rank-deficient instruments: Z'Z is singular")
    m = 1.0 - np.einsum("ij,ij->i", q, q)  # P_ii = sum_k q_ik^2
    if m.min() <= 1e-10 or m.max() >= 1.0:
        raise DataError("insufficient cluster size: an observation has leave-out leverage one")
    return DenseProjection(n=n, k=k, m=m, q=q)

