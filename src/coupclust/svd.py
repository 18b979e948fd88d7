"""SVD routines.

Every SVD of a DTM is LAPACK's full factorization (`exact_svd`), computed
once and cached on the Dtm, whatever the size of the matrix or the number of
singular vectors a caller reads. The Frobenius step size needs only the top
eigenvalue of a symmetric operator, which `top_singular_value_sym` estimates
by power iteration.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import NonFinite


def exact_svd(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD, singular values descending. Returns (U, s, Vt)."""
    return np.linalg.svd(matrix, full_matrices=False)


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
