"""Item embeddings from the whitened left singular vectors of the DTM.

Row y of the embedding is the y-th row of [P_Y]^{-1/2} U[:, :d], with the
d leading left singular vectors U[:, :d] of the joint's DTM, the top d
eigenvectors of its smaller Gram matrix (`Dtm.top(d)`, by block Krylov on
products with the DTM, or one eigensolve; see `svd.gram_top`). The first
coordinate is constant across items (the top singular vector of a DTM is
sqrt of the marginal), so informative dimensions start at 2.
"""

from __future__ import annotations

import numpy as np

from .core import Dtm
from .data_io import _create
from .errors import ConfigError

__all__ = ["EmbeddingMatrix", "dtm_embed", "write_embedding_tsv"]


class EmbeddingMatrix:
    """Labeled |Y| x d embedding, immutable after construction."""

    __slots__ = ("labels", "vectors", "d")

    def __init__(self, labels: tuple[str, ...], vectors: np.ndarray):
        vec = np.array(vectors, dtype=np.float64, copy=True)
        if vec.ndim != 2 or len(labels) != vec.shape[0]:
            raise ConfigError("labels/vectors shape mismatch")
        if not np.all(np.isfinite(vec)):
            raise ConfigError("embedding rows must be finite")
        vec.setflags(write=False)
        self.labels = tuple(labels)
        self.vectors = vec
        self.d = vec.shape[1]


def _fix_signs(u: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    out = u.copy()
    for j in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, j])))
        if out[i, j] < 0:
            out[:, j] = -out[:, j]
    return out


def dtm_embed(dtm: Dtm, d: int) -> EmbeddingMatrix:
    """Embed items as rows of [P_Y]^{-1/2} U[:, :d].

    U[:, :d] comes from `dtm.top(d)`, P_Y and the items from dtm.row_pmf.
    Each column's sign is fixed so that its largest-magnitude entry is
    positive. Raises ConfigError when d exceeds min(|Y|, |X|) or the
    numerical rank of the DTM. The rank is judged on the Gram eigenvalues
    lambda = sigma^2 by numpy's `matrix_rank` rule: lambda_d <= max(|Y|, |X|)
    * eps * lambda_1 counts as zero, i.e. sigma_d <= sqrt(max(|Y|, |X|) *
    eps), about 4e-7 at 768.
    """
    d = int(d)
    if d < 1:
        raise ConfigError("d must be >= 1")
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
    vectors = _fix_signs(u) / dtm.row_pmf.sqrt_probs[:, None]
    return EmbeddingMatrix(dtm.row_pmf.labels, vectors)


def write_embedding_tsv(emb: EmbeddingMatrix, path) -> None:
    """One row per item: label, then d coordinates at 17 significant digits."""
    row_format = "%s" + "\t%.17g" * emb.d + "\n"
    with _create(path) as fh:
        for label, row in zip(emb.labels, emb.vectors.tolist()):
            fh.write(row_format % (label, *row))
