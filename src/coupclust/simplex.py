"""Euclidean projection of columns onto weighted simplices.

project_columns maps each column v of a matrix onto {a >= 0, w^T a = c},
with one positive weight w_z per row and one positive total c per column.
The projection is a = max(0, v - tau w), where tau solves
sum_z w_z max(0, v_z - tau w_z) = c; it lies among the breakpoints
v_z / w_z. Sort-then-threshold method: shift each column by w times its
largest breakpoint (so that breakpoint is 0), sort the breakpoints
descending, find the largest prefix whose coordinates all stay positive at
that prefix's tau, shift by tau w, clip at zero. The probability simplex is
the case w = 1, c = 1, the default. A single vector v is the column of
v[:, None].
"""

from __future__ import annotations

import numpy as np

__all__ = ["project_columns"]


def project_columns(mat, weights=None, totals=None) -> np.ndarray:
    """Project every column v of a matrix onto {a >= 0, weights^T a = total}.

    weights holds one finite positive number per row, totals one per column
    (or one for all); both default to ones, the probability simplex. The
    result is a = max(0, v - tau weights) column by column. Raises
    ValueError if a column does not sum to a finite number or its largest
    v / weights overflows.
    """
    arr = np.ascontiguousarray(mat, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("expected a matrix with at least one row")
    w = np.ones(arr.shape[0]) if weights is None else np.asarray(weights, np.float64)
    c = np.float64(1.0) if totals is None else np.asarray(totals, np.float64)
    if w.shape != (arr.shape[0],) or c.shape not in ((), (arr.shape[1],)):
        raise ValueError("expected one weight per row and one total, or one per column")
    # min/max of a vector holding nan are nan, which fails both comparisons.
    if not (w.min() > 0.0 and w.max() < np.inf and c.min() > 0.0 and c.max() < np.inf):
        raise ValueError("weights and totals must be finite and positive")
    n = arr.shape[0]
    cols = np.arange(arr.shape[1])
    # A column whose total overflows or is undefined, or whose largest
    # breakpoint overflows, holds no usable point (in the solver it means the
    # iterate diverged), so it is rejected.
    with np.errstate(over="ignore", invalid="ignore"):
        sums = arr.sum(axis=0)
        br = arr / w[:, None]
        top = br.max(axis=0)
    if not np.all(np.isfinite(sums)):
        raise ValueError("a column sum is not finite")
    if not np.all(np.isfinite(top)):
        raise ValueError("a column's largest breakpoint v / w is not finite")
    # The projection is invariant under v -> v + s w. With each column's
    # largest breakpoint moved to exactly 0, the kept prefix sums stay small,
    # so `wv - c` keeps c even when the entries are ~1e16. Breakpoints far
    # below the maximum may overflow to -inf here; they clip to 0. With
    # w = 1 every product by w is exact: this is the plain simplex projection.
    with np.errstate(over="ignore", invalid="ignore"):
        br -= top
        order = np.argsort(br, axis=0, kind="stable")[::-1]
        ww = np.take(w * w, order)
        srt = np.take(br, order * arr.shape[1] + cols)
        wv = np.cumsum(ww * srt, axis=0)
        ww = np.cumsum(ww, axis=0)
        cond = srt * ww > wv - c
    # cond[0] is always True, so the last True index is well defined.
    rho = n - 1 - np.argmax(cond[::-1], axis=0)
    tau = (wv[rho, cols] - c) / ww[rho, cols]
    diff = w[:, None] * (br - tau)
    # where() rather than maximum(): maximum() of -0.0 and 0.0 may return
    # either zero, while where() writes every clipped coordinate as +0.0.
    return np.where(diff > 0.0, diff, 0.0)
