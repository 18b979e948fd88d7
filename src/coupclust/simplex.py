"""Euclidean projection onto the probability simplex.

Sort-then-threshold method: shift each column so its largest entry is 0,
sort descending, find the largest prefix whose running mean keeps every
kept coordinate positive after shifting, shift by that threshold, clip at
zero.
"""

from __future__ import annotations

import numpy as np

__all__ = ["simplex_project", "project_columns"]


def _project_columns_np(mat: np.ndarray) -> np.ndarray:
    n = mat.shape[0]
    # A column whose total overflows or is undefined holds no usable point
    # (in the solver it means the iterate diverged), so it is rejected.
    with np.errstate(over="ignore", invalid="ignore"):
        totals = mat.sum(axis=0)
    if not np.all(np.isfinite(totals)):
        raise ValueError("a column sum is not finite")
    # The projection is shift-invariant. With each column's largest entry
    # moved to 0, the kept prefix sums stay small, so `css - 1.0` keeps the 1
    # even when the entries are ~1e16. Entries far below the maximum may
    # overflow to -inf here; they clip to 0.
    with np.errstate(over="ignore"):
        shifted = mat - mat.max(axis=0)
        w = np.sort(shifted, axis=0)[::-1]
        css = np.cumsum(w, axis=0)
        counts = np.arange(1.0, n + 1.0)
        cond = w * counts[:, None] > css - 1.0
    # cond[0] is always True, so the last True index is well defined.
    rho = n - 1 - np.argmax(cond[::-1], axis=0)
    cols = np.arange(mat.shape[1])
    tau = (css[rho, cols] - 1.0) / (rho + 1.0)
    diff = shifted - tau[None, :]
    # where() rather than maximum(): maximum() of -0.0 and 0.0 may return
    # either zero, while where() writes every clipped coordinate as +0.0.
    return np.where(diff > 0.0, diff, 0.0)


def simplex_project(v) -> np.ndarray:
    """argmin over the simplex of ||u - v||_2.

    Raises ValueError if the entries do not sum to a finite number.
    """
    arr = np.ascontiguousarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a nonempty vector")
    return _project_columns_np(arr[:, None])[:, 0]


def project_columns(mat) -> np.ndarray:
    """Project every column of a matrix onto the simplex.

    Raises ValueError if a column does not sum to a finite number.
    """
    arr = np.ascontiguousarray(mat, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("expected a matrix with at least one row")
    return _project_columns_np(arr)
