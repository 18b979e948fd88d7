"""SVD routines.

A DTM has two spectral routes. Its singular values come from LAPACK's SVD
(`Dtm.singular_values`, for the nuclear norm of a whole joint); the nuclear
solver takes the same full SVD of each small chain DTM. `gram_top` gives the
leading r left singular vectors alone, from the smaller Gram matrix: by
block subspace iteration with a Rayleigh-Ritz step where that converges in
a few products, else by one symmetric eigensolve. The iteration starts from
hashed +-1 signs, not a random draw, so its bits do not depend on numpy's
Generator streams (which may change between releases) and `numpy.random`
is never loaded. The item embedding reads only those vectors.
`check_dtm_spectrum` holds the DTM invariants that every route asserts.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverError

SPECTRAL_TOL = 1e-10

# A Ritz pair (theta, x) is accepted once ||G x - theta x|| <= _RITZ_RTOL *
# theta_1. The residual's rounding floor is about 1e-15 at n = 768.
_RITZ_RTOL = 1e-13


def _signs(n: int, p: int) -> np.ndarray:
    """A fixed n x p matrix of +-1.0, the sign of a hash of (row, column).

    The hash multiplies the row index and the column index by two odd
    64-bit constants, XORs the products, multiplies by a third constant and
    takes bit 63 as the sign. All products wrap in uint64 arrays, which
    never warn on overflow.
    """
    h = np.arange(n, dtype=np.uint64)[:, None] * np.uint64(0x9E3779B97F4A7C15)
    h = h ^ (np.arange(p, dtype=np.uint64) * np.uint64(0xBF58476D1CE4E5B9))
    h *= np.uint64(0x94D049BB133111EB)
    return np.where(h >> np.uint64(63), -1.0, 1.0)


def _ritz_top(gram: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The r leading eigenpairs of a symmetric PSD matrix, or None.

    Block subspace iteration on p = r + max(r // 2, 8) columns from the
    orthonormalized `_signs(n, p)` (Halko, Martinsson & Tropp 2011, sec.
    4.5). The start needs only a full-rank projection onto the leading
    subspace, which random-sign matrices give as Gaussian ones do; the
    hash fixes its bits on any numpy release.
    Each step takes one product G Q and the Rayleigh-Ritz `eigh` of the
    p x p matrix Q^T G Q, and stops when all r leading Ritz residuals are
    within tolerance. Returns (eigenvalues descending, eigenvectors), or
    None where iterating cannot beat one n x n `eigh`: G has fewer than 4p
    rows, or, from step 3 on, the residuals' last decay rate predicts more
    than n // 25 steps in all (about half the cost of the `eigh` at 768).
    """
    n = gram.shape[0]
    p = r + max(r // 2, 8)
    if n < 4 * p:
        return None
    budget = n // 25
    q = np.linalg.qr(_signs(n, p))[0]
    prev = None
    for step in range(1, budget + 1):
        gq = gram @ q
        theta, w = np.linalg.eigh(q.T @ gq)
        theta, w = theta[::-1], w[:, ::-1]
        x, gx = q @ w, gq @ w
        res = np.linalg.norm(gx[:, :r] - x[:, :r] * theta[:r], axis=0)
        tol = _RITZ_RTOL * theta[0]
        todo = res > tol
        if not todo.any():
            return theta[:r], x[:, :r]
        if step >= 3:
            rate = res[todo] / prev[todo]
            if np.any(rate >= 1.0):
                return None
            steps_left = np.log(res[todo] / tol) / -np.log(rate)
            if step + float(np.max(steps_left)) > budget:
                return None
        prev = res
        q = np.linalg.qr(gx)[0]
    return None


def gram_top(matrix: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading r left singular vectors and squared singular values, descending.

    The eigenpairs of the smaller Gram matrix G: B B^T when B has no more
    rows than columns, whose eigenvectors are U; else B^T B, whose
    eigenvectors V give U as the orthonormalized B V (column j is
    B v_j / sigma_j). They come from `_ritz_top` when it converges within
    its budget, else from one `eigh` of G. Reruns give the same bits.
    Squaring halves the digits left to small singular values: an
    eigenvalue is accurate to about eps * sigma_1^2, so sigma below
    sqrt(eps) * sigma_1 is not resolved. Returns (U, eigenvalues); the
    eigenvalues can be slightly negative where sigma is zero.
    """
    wide = matrix.shape[0] <= matrix.shape[1]
    gram = matrix @ matrix.T if wide else matrix.T @ matrix
    top = _ritz_top(gram, r)
    if top is None:
        lam, vecs = np.linalg.eigh(gram)
        top = lam[::-1][:r], vecs[:, ::-1][:, :r]
    lam, vecs = top
    if wide:
        return np.ascontiguousarray(vecs), lam
    # QR rather than dividing by sigma: orthonormal even where sigma is 0.
    return np.linalg.qr(matrix @ vecs)[0], lam


def check_dtm_spectrum(values: np.ndarray) -> None:
    """Raise SolverError unless a DTM's spectrum tops at 1 and is >= 0.

    values: descending singular values, or their squares (both tests hold
    for either), within SPECTRAL_TOL. The DTM of a joint meets both, so a
    failure means the matrix is not one.
    """
    if not abs(float(values[0]) - 1.0) <= SPECTRAL_TOL:
        raise SolverError(
            f"top of the spectrum {float(values[0])!r} != 1; "
            "DTM invariant violated"
        )
    if float(values[-1]) < -SPECTRAL_TOL:
        raise SolverError("negative singular value")
