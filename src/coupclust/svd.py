"""SVD routines.

A DTM has two spectral routes. Its singular values come from LAPACK's SVD
(`Dtm.singular_values`, for the nuclear norm of a whole joint); the nuclear
solver takes the same full SVD of each small chain DTM. `gram_top` gives the
leading r left singular vectors alone, from one symmetric eigensolve of the
smaller Gram matrix; the item embedding reads only those.
`check_dtm_spectrum` holds the DTM invariants that every route asserts. The
Frobenius step size needs only the top eigenvalue of a symmetric operator,
which `top_singular_value_sym` estimates by power iteration.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import CoupclustError, NonFinite

SPECTRAL_TOL = 1e-10


def gram_top(matrix: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading r left singular vectors and squared singular values, descending.

    One `eigh` of the smaller Gram matrix: B B^T when B has no more rows
    than columns, whose eigenvectors are U; else B^T B, whose eigenvectors
    V give U as the orthonormalized B V (column j is B v_j / sigma_j).
    Squaring halves the digits left to small singular values: an
    eigenvalue is accurate to about eps * sigma_1^2, so sigma below
    sqrt(eps) * sigma_1 is not resolved. Returns (U, eigenvalues); the
    eigenvalues can be slightly negative where sigma is zero.
    """
    wide = matrix.shape[0] <= matrix.shape[1]
    lam, vecs = np.linalg.eigh(matrix @ matrix.T if wide else matrix.T @ matrix)
    lam = lam[::-1][:r]
    vecs = vecs[:, ::-1][:, :r]
    if wide:
        return np.ascontiguousarray(vecs), lam
    # QR rather than dividing by sigma: orthonormal even where sigma is 0.
    return np.linalg.qr(matrix @ vecs)[0], lam


def check_dtm_spectrum(values: np.ndarray) -> None:
    """Raise CoupclustError unless a DTM's spectrum tops at 1 and is >= 0.

    values: descending singular values, or their squares (both tests hold
    for either), within SPECTRAL_TOL. The DTM of a joint meets both, so a
    failure means the matrix is not one.
    """
    if not abs(float(values[0]) - 1.0) <= SPECTRAL_TOL:
        raise CoupclustError(
            f"top of the spectrum {float(values[0])!r} != 1; "
            "DTM invariant violated"
        )
    if float(values[-1]) < -SPECTRAL_TOL:
        raise CoupclustError("negative singular value")


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
