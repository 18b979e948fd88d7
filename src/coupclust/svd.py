"""SVD routines.

A DTM has one spectral route, `gram_top` (through `Dtm.top`): its leading r
singular values and left singular vectors, as eigenpairs of the smaller
Gram matrix. They come by block Krylov Rayleigh-Ritz, which touches B only
through products with B and B^T, where that converges within its budget,
else by one symmetric eigensolve of the formed Gram matrix. The iteration
starts from hashed +-1 signs, not a random draw, so its bits do not depend
on numpy's Generator streams (which may change between releases) and
`numpy.random` is never loaded. The item embedding reads only those
vectors. Only the nuclear solver takes a full SVD, LAPACK's, of each small
chain DTM A B.
`check_dtm_spectrum` holds the DTM invariants that both assert.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverError

SPECTRAL_TOL = 1e-10

# A Ritz pair (theta, x) is accepted once ||G x - theta x|| <= _RITZ_RTOL *
# theta_1. The residual's rounding floor is about 1e-15 at n = 768.
_RITZ_RTOL = 1e-13

# Columns per block of the Krylov basis.
_BLOCK = 8
# Steps whose residuals are not extrapolated: a block Krylov basis can
# stall for a few steps before it holds the leading subspace's neighbours
# and then converge fast (steps 3-5 of sparse Zipf at in-group 0.5).
_WARMUP = 5


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


def _ritz_top(matrix: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The r leading eigenpairs of B's smaller Gram matrix G, or None.

    G is B B^T when B is wide, else B^T B, and is never formed: it is
    applied as B (B^T Q) or B^T (B Q). Block Krylov Rayleigh-Ritz (Musco &
    Musco 2015, NeurIPS; Halko, Martinsson & Tropp 2011, SIAM Review) on
    blocks of _BLOCK columns. The basis K starts from the orthonormalized
    `_signs(n, _BLOCK)`: the start needs only a full-rank projection onto
    the leading subspace, which random-sign matrices give as Gaussian ones
    do, and the hash fixes its bits on any numpy release. Each step takes
    one product G Q of the newest block Q and the `eigh` of K^T G K, whose
    new columns are K^T G Q. The products of the older blocks lie in K, so
    the rest of G Q outside K, (I - K K^T) G Q, gives every Ritz residual:
    G x - theta x is that rest times the Ritz vector's coefficients on Q.
    The loop stops when the r leading residuals are all within tolerance;
    else the rest, orthonormalized by a QR, made orthogonal to K again by a
    second Gram-Schmidt pass and a second QR (which also mends a column
    that fell to rounding level), is the next block.

    Returns (eigenvalues descending, eigenvectors), or None where iterating
    cannot beat one n x n `eigh`:
    - the budget, n // 32 blocks (about two thirds of the cost of that
      `eigh` at n = 768), is spent, or cannot hold r columns and one more
      block;
    - from step _WARMUP + 1, the largest residual did not fall, or its
      last decay rate predicts more than 1.5 times the budget (Krylov
      residuals fall ever faster, so the last rate overstates the steps
      left);
    - a rest is rounding-level before the basis holds r columns: K spans
      an invariant subspace too narrow for r;
    - an eigenvalue is held _BLOCK times where a further copy would rank
      in the top r: a _BLOCK-column start cannot reach more copies.
    """
    b = matrix if matrix.shape[0] <= matrix.shape[1] else matrix.T
    n = b.shape[0]
    budget = n // 32
    if budget * _BLOCK < r + _BLOCK:
        return None
    basis = np.empty((n, budget * _BLOCK))
    proj = np.empty((budget * _BLOCK, budget * _BLOCK))
    q = np.linalg.qr(_signs(n, _BLOCK))[0]
    prev = np.inf
    for step in range(1, budget + 1):
        lo, m = (step - 1) * _BLOCK, step * _BLOCK
        basis[:, lo:m] = q
        k = basis[:, :m]
        gq = b @ (b.T @ q)
        col = k.T @ gq
        proj[:m, lo:m], proj[lo:m, :m] = col, col.T
        theta, w = np.linalg.eigh(proj[:m, :m])
        theta, w = theta[::-1], w[:, ::-1]
        tol = _RITZ_RTOL * theta[0]
        rest = gq - k @ col
        if m >= r:
            res = float(np.max(np.linalg.norm(rest @ w[lo:m, :r], axis=0)))
            if res <= tol:
                # theta_i = theta_(i+7) above rounding level, with a ninth
                # copy's place i + 8 inside the top r.
                j = max(r - _BLOCK, 0)
                held = theta[:j] - theta[_BLOCK - 1 : _BLOCK - 1 + j] <= tol
                if np.any(held & (theta[:j] > tol)):
                    return None
                return theta[:r], k @ w[:, :r]
            if step > _WARMUP and (
                res >= prev
                or step + np.log(res / tol) / np.log(prev / res) > 1.5 * budget
            ):
                return None
            prev = res
        elif float(np.max(np.linalg.norm(rest, axis=0))) <= tol:
            return None
        q = np.linalg.qr(rest)[0]
        q = np.linalg.qr(q - k @ (k.T @ q))[0]
    return None


def gram_top(matrix: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading r left singular vectors and squared singular values, descending.

    The eigenpairs of the smaller Gram matrix G: B B^T when B has no more
    rows than columns, whose eigenvectors are U; else B^T B, whose
    eigenvectors V give U as the orthonormalized B V (column j is
    B v_j / sigma_j). They come from `_ritz_top`, which uses only products
    with B and B^T, when it converges within its budget; else G is formed
    and takes one `eigh`. Reruns give the same bits.
    Squaring halves the digits left to small singular values: an
    eigenvalue is accurate to about eps * sigma_1^2, so sigma below
    sqrt(eps) * sigma_1 is not resolved. Returns (U, eigenvalues); the
    eigenvalues can be slightly negative where sigma is zero.
    """
    wide = matrix.shape[0] <= matrix.shape[1]
    top = _ritz_top(matrix, r)
    if top is None:
        lam, vecs = np.linalg.eigh(matrix @ matrix.T if wide else matrix.T @ matrix)
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
