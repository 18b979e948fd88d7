"""Item embeddings from the whitened left singular vectors of the DTM.

Row y of the embedding is the y-th row of [P_Y]^{-1/2} U[:, :d], with U
from the DTM's cached full SVD. The first coordinate is constant across
items (the top singular vector of a DTM is sqrt of the marginal), so
informative dimensions start at 2.
"""

from __future__ import annotations

import numpy as np

from .core import JointPmf, build_dtm
from .errors import InvalidParams, RankDeficient

__all__ = ["EmbeddingMatrix", "dtm_embed", "write_embedding_tsv"]

_RANK_EPS = 1e-12


class EmbeddingMatrix:
    """Labeled |Y| x d embedding, immutable after construction."""

    __slots__ = ("labels", "vectors", "d")

    def __init__(self, labels: tuple[str, ...], vectors: np.ndarray):
        vec = np.array(vectors, dtype=np.float64, copy=True)
        if vec.ndim != 2 or len(labels) != vec.shape[0]:
            raise InvalidParams("labels/vectors shape mismatch")
        if not np.all(np.isfinite(vec)):
            raise InvalidParams("embedding rows must be finite")
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


def dtm_embed(joint: JointPmf, d: int) -> EmbeddingMatrix:
    """Embed items as rows of [P_Y]^{-1/2} U[:, :d].

    Each column's sign is fixed so that its largest-magnitude entry is
    positive. Raises RankDeficient when d exceeds the numerical rank of the
    DTM.
    """
    d = int(d)
    if d < 1:
        raise InvalidParams("d must be >= 1")
    if d > min(joint.shape):
        raise RankDeficient(
            f"d = {d} exceeds min(|Y|, |X|) = {min(joint.shape)}"
        )
    u, s, _ = build_dtm(joint).svd()
    if int(np.sum(s > _RANK_EPS)) < d:
        raise RankDeficient(
            f"d = {d} exceeds the numerical rank "
            f"{int(np.sum(s > _RANK_EPS))} of the DTM"
        )
    u = _fix_signs(u[:, :d])
    vectors = u / joint.marginal_y.sqrt_probs[:, None]
    return EmbeddingMatrix(joint.row_labels, vectors)


def write_embedding_tsv(emb: EmbeddingMatrix, path) -> None:
    """One row per item: label, then d coordinates at 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        for label, row in zip(emb.labels, emb.vectors):
            coords = "\t".join(f"{v:.17g}" for v in row)
            fh.write(f"{label}\t{coords}\n")
