"""SVD routines.

Every full SVD of a DTM is LAPACK (`exact_svd`). Randomized block power
iteration computes a truncated SVD on explicit request; it saves work only
when the rank asked for is much smaller than the matrix, and doubles as the
ACE-style approximation used by the embedding module.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import NonFinite

_OVERSAMPLE = 8
_POWER_ITERS = 30


def exact_svd(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD, singular values descending. Returns (U, s, Vt)."""
    return np.linalg.svd(matrix, full_matrices=False)


def randomized_svd(
    matrix: np.ndarray, rank: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Truncated SVD by block power iteration.

    Subspace of width rank + 8, 30 power iterations with QR
    re-orthonormalization each step, Rayleigh-Ritz extraction at the end.
    When the block covers the whole small dimension the result is exact up
    to round-off.
    """
    m, n = matrix.shape
    small = min(m, n)
    if rank < 1:
        raise ValueError("rank must be >= 1")
    rank = min(rank, small)
    block = min(rank + _OVERSAMPLE, small)

    rng = np.random.default_rng(seed)
    q = rng.standard_normal((n, block))
    q, _ = np.linalg.qr(matrix @ q)
    for _ in range(_POWER_ITERS):
        q, _ = np.linalg.qr(matrix.T @ q)
        q, _ = np.linalg.qr(matrix @ q)

    small_mat = q.T @ matrix
    u_small, s, vt = np.linalg.svd(small_mat, full_matrices=False)
    u = q @ u_small
    return u[:, :rank], s[:rank], vt[:rank]


def top_singular_value_sym(
    apply: Callable[[np.ndarray], np.ndarray], n: int, iters: int = 60
) -> float:
    """Largest |eigenvalue| of a symmetric n x n operator by power iteration.

    The operator is given by its action v -> M v, so M need not be formed.
    Deterministic start vector; used to scale gradient steps, so a rough
    estimate is fine. Raises NonFinite if M v overflows.
    """
    v = np.full(n, 1.0 / np.sqrt(n))
    lam = 0.0
    for _ in range(iters):
        with np.errstate(over="ignore", invalid="ignore"):
            w = apply(v)
            nw = float(np.linalg.norm(w))
        if not math.isfinite(nw):
            raise NonFinite(f"operator norm estimate overflowed ({nw!r})")
        if nw == 0.0:
            return 0.0
        v = w / nw
        lam = nw
    return lam
