"""Item embeddings from the whitened left singular vectors of the DTM.

Row y of the embedding is the y-th row of [P_Y]^{-1/2} U[:, :d], with the
d leading left singular vectors U[:, :d] of the joint's DTM, the top d
eigenvectors of its smaller Gram matrix (`Dtm.top(d)`, by block Krylov on
products with the DTM, or one eigensolve; see `svd.gram_top`). The first
coordinate is constant across items (the top singular vector of a DTM is
sqrt of the marginal), so informative dimensions start at 2.
`dtm_embed` returns the plain |Y| x d array, its rows in the order of
`dtm.row_pmf.labels`; `write_embedding_tsv` takes the labels beside it.
"""

from __future__ import annotations

import numpy as np

from .core import Dtm
from .data_io import _create
from .errors import ConfigError

__all__ = ["dtm_embed", "write_embedding_tsv"]


def _fix_signs(u: np.ndarray) -> np.ndarray:
    """Flip each column of u, in place, so its largest-magnitude entry is
    positive; returns u."""
    for j in range(u.shape[1]):
        i = int(np.argmax(np.abs(u[:, j])))
        if u[i, j] < 0:
            u[:, j] = -u[:, j]
    return u


def _check_d(d: int) -> int:
    """d as an int, or ConfigError unless d >= 1."""
    d = int(d)
    if d < 1:
        raise ConfigError("d must be >= 1")
    return d


def dtm_embed(dtm: Dtm, d: int) -> np.ndarray:
    """Embed items as rows of [P_Y]^{-1/2} U[:, :d], a |Y| x d array.

    U[:, :d] comes from `dtm.top(d)`, P_Y and the row order from
    dtm.row_pmf. Each column's sign is fixed so that its largest-magnitude
    entry is positive. Raises ConfigError when d is below 1, or exceeds
    min(|Y|, |X|) or the numerical rank of the DTM. The rank is judged on
    the Gram eigenvalues lambda = sigma^2 by numpy's `matrix_rank` rule:
    lambda_d <= max(|Y|, |X|) * eps * lambda_1 counts as zero, i.e. sigma_d
    <= sqrt(max(|Y|, |X|) * eps), about 4e-7 at 768.
    """
    d = _check_d(d)
    if d > min(dtm.shape):
        raise ConfigError(f"d = {d} exceeds min(|Y|, |X|) = {min(dtm.shape)}")
    u, s = dtm.top(d)
    cutoff = max(dtm.shape) * np.finfo(np.float64).eps * float(s[0]) ** 2
    rank = int(np.sum(s**2 > cutoff))
    if rank < d:
        raise ConfigError(
            f"d = {d} exceeds the numerical rank {rank} of the DTM: "
            f"sigma_{d} = {float(s[d - 1]):.3g} is at or below the threshold "
            f"{np.sqrt(cutoff):.3g} = sqrt(max(|Y|, |X|) * eps) * sigma_1"
        )
    return _fix_signs(u) / dtm.row_pmf.sqrt_probs[:, None]


def write_embedding_tsv(path, labels, vectors: np.ndarray) -> None:
    """One line per row of vectors: its label, then the row's coordinates
    at 17 significant digits. ConfigError unless vectors is a matrix with
    one row per label."""
    if vectors.ndim != 2 or len(labels) != vectors.shape[0]:
        raise ConfigError(
            f"{len(labels)} labels for an embedding of shape {vectors.shape}"
        )
    row_format = "%s" + "\t%.17g" * vectors.shape[1] + "\n"
    with _create(path) as fh:
        for label, row in zip(labels, vectors.tolist()):
            fh.write(row_format % (label, *row))
