"""Euclidean projection of columns onto weighted simplices.

project_columns maps each column v of a matrix onto {a >= 0, w^T a = c},
with one positive weight w_z per row and one positive total c per column.
The projection is a = max(0, v - tau w), where tau solves
sum_z w_z max(0, v_z - tau w_z) = c; it lies among the breakpoints
v_z / w_z. Michelot's active-set method (Condat 2016, Math. Programming)
finds it: shift each column by w times its largest breakpoint, take tau as
if every row stayed positive, drop the rows whose breakpoint is <= tau and
repeat until none drops; then shift by tau w and clip at zero. The
probability simplex is the case w = 1, c = 1, the default. A single vector
v is the column of v[:, None].
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
    # A column whose sum or largest breakpoint is not finite holds no usable
    # point (in the solver, the iterate diverged), so it is rejected.
    with np.errstate(over="ignore", invalid="ignore"):
        sums = arr.sum(axis=0)
        br = arr / w[:, None]
        top = br.max(axis=0)
    if not np.all(np.isfinite(sums)):
        raise ValueError("a column sum is not finite")
    if not np.all(np.isfinite(top)):
        raise ValueError("a column's largest breakpoint v / w is not finite")
    # The projection is invariant under v -> v + s w. With each column's
    # largest breakpoint at exactly 0 the kept sums stay small, so `sum - c`
    # keeps c even for entries ~1e16. A breakpoint that overflows to -inf
    # clips to 0; where() keeps it out of the sums (0 * -inf is nan). w = 1
    # makes every product by w exact: the plain simplex projection. tau only
    # rises (np.maximum holds that against rounding), so a dropped row stays
    # dropped: one pass per row at most.
    with np.errstate(over="ignore", invalid="ignore"):
        br -= top
        ww = w * w
        wbr = ww[:, None] * br
        active, tau = np.ones(arr.shape, dtype=bool), -np.inf
        for _ in range(len(w)):
            tau = np.maximum(tau, _tau(wbr, ww, c, active))
            keep = br > tau
            if np.array_equal(keep, active):
                break
            active = keep
    diff = w[:, None] * (br - tau)
    # where() rather than maximum(): maximum() of -0.0 and 0.0 may return
    # either zero, while where() writes every clipped coordinate as +0.0.
    return np.where(diff > 0.0, diff, 0.0)


def _tau(wbr, ww, c, active) -> np.ndarray:
    """Each column's tau if its active rows stay positive (wbr = w^2 br)."""
    return (np.where(active, wbr, 0.0).sum(axis=0) - c) / (ww @ active)
