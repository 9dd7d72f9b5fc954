"""Dataset container and CSV input/output.

A dataset is an outcome vector y, an endogenous vector x, and instruments
given either as a dense N x K matrix or as integer judge labels (one
instrument per judge, indicator form). CSV layout: header row with columns
``y,x`` plus either ``z1..zK`` or ``judge``.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = ["Dataset", "read_dataset_csv", "write_dataset_csv"]


@dataclass(frozen=True)
class Dataset:
    """Immutable (y, x, instruments) triple.

    ``instruments`` is a 2-D float array (dense form) or a 1-D integer
    array of judge labels. Labels may be arbitrary integers; they are
    canonicalized to 0..K-1 by the projection builder.

    ``y`` and ``x`` are read-only, so identity implies content (a projection
    context memoizes one profile per dataset): an input that is writeable
    or does not own its data is copied, a read-only one that owns it kept.
    """

    y: np.ndarray
    x: np.ndarray
    instruments: np.ndarray

    def __post_init__(self):
        y, x = (np.asarray(v, dtype=float) for v in (self.y, self.x))
        y, x = (v.copy() if v.flags.writeable or not v.flags.owndata else v for v in (y, x))
        y.flags.writeable = x.flags.writeable = False
        inst = np.asarray(self.instruments)
        if inst.ndim == 1:
            if not np.issubdtype(inst.dtype, np.integer):
                if inst.dtype.kind in "fc" and not np.all(np.isfinite(inst)):
                    raise DataError("judge labels contain non-finite values")
                as_int = inst.astype(np.int64)
                if not np.array_equal(as_int, inst):
                    raise DataError("dimension error: judge labels must be integers")
                inst = as_int
        elif inst.ndim == 2:
            inst = inst.astype(float)
            if not np.all(np.isfinite(inst)):
                raise DataError("instruments contain non-finite values")
        else:
            raise DataError("dimension error: instruments must be 1-D labels or an N x K matrix")
        n = y.shape[0]
        if y.ndim != 1 or x.ndim != 1 or x.shape[0] != n or inst.shape[0] != n:
            raise DataError("dimension error: y, x, instruments must share length N")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(x))):
            raise DataError("y or x contains non-finite values")
        k = self.k_instruments(inst)
        if not n > k >= 1:
            raise DataError(f"need N > K >= 1, got N={n}, K={k}")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "instruments", inst)

    @staticmethod
    def k_instruments(inst: np.ndarray) -> int:
        if inst.ndim == 1:
            return int(np.unique(inst).size)
        return int(inst.shape[1])

    @property
    def n(self) -> int:
        return int(self.y.shape[0])

    @property
    def k(self) -> int:
        return self.k_instruments(self.instruments)

    @property
    def is_judge(self) -> bool:
        return self.instruments.ndim == 1


def read_dataset_csv(path) -> Dataset:
    """Read a dataset CSV (header ``y,x`` plus ``z1..zK`` or ``judge``);
    after the header checks one ``np.loadtxt`` call parses the rows."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise DataError("dataset parse error: empty file")
            names = [h.strip() for h in header]
            for required in ("y", "x"):
                if required not in names:
                    raise DataError(f"dataset missing column '{required}'")
            judge_form = "judge" in names
            z_cols = [] if judge_form else [name for name in names if name.startswith("z")]
            if not judge_form and (not z_cols or sorted(z_cols) != sorted(f"z{i}" for i in range(1, len(z_cols) + 1))):
                raise DataError("dataset missing column 'z1..zK' or 'judge'")
            with warnings.catch_warnings():
                # a header without rows is reported as ragged below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                table = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, ndmin=2)
    except OSError as exc:
        raise DataError(f"cannot read dataset: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"dataset parse error: {exc}") from exc
    if table.shape[1] != len(names):
        raise DataError("dataset parse error: ragged rows")
    col = {name: table[:, i] for i, name in enumerate(names)}
    y, x = col["y"], col["x"]
    if judge_form:
        raw = col["judge"]
        labels = raw.astype(np.int64)
        if not np.array_equal(labels, raw):
            raise DataError("dataset parse error: judge labels must be integers")
        return Dataset(y, x, labels)
    z = np.column_stack([col[f"z{i}"] for i in range(1, len(z_cols) + 1)])
    return Dataset(y, x, z)


def write_dataset_csv(path, data: Dataset) -> None:
    """Write a dataset CSV in judge or dense form, shortest round-trip floats."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_dataset_csv_text(data))


def _dataset_csv_text(data: Dataset) -> str:
    """The text ``write_dataset_csv`` writes."""
    if data.is_judge:
        lines = ["y,x,judge\n"]
        for yi, xi, ji in zip(data.y, data.x, data.instruments):
            lines.append(f"{float(yi)!r},{float(xi)!r},{int(ji)}\n")
    else:
        lines = ["y,x," + ",".join(f"z{i}" for i in range(1, data.k + 1)) + "\n"]
        for i in range(data.n):
            zrow = ",".join(repr(float(v)) for v in data.instruments[i])
            lines.append(f"{float(data.y[i])!r},{float(data.x[i])!r},{zrow}\n")
    return "".join(lines)
