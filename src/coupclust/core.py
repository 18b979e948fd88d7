"""Probability and divergence-transition-matrix algebra.

Conventions, used everywhere downstream:

- A joint distribution over Y x X is a |Y| x |X| matrix of total mass 1 with
  strictly interior marginals. It is held only as its DTM: build_dtm checks
  the matrix and its labels and keeps no copy of it.
- Its DTM is B = [P_Y]^{-1/2} P_{Y,X} [P_X]^{-1/2}, where [v] is diag(v).
  B always has top singular value 1 with singular vectors sqrt(P_X) and
  sqrt(P_Y), and every singular value lies in [0, 1].
- A coupling kernel P(Z|Y) is column stochastic: column y is the cluster
  distribution of item y. A clustering is scored through the DTM of the
  chain joint P_{Z,X} = P_{Z|Y} P_{Y,X}, which is A B for A =
  [P_Z]^{-1/2} P_{Z|Y} [P_Y]^{1/2}.
- Everything after ingest takes the joint's one Dtm: B = dtm.matrix, and
  the item labels and P_Y are dtm.row_pmf.

All types except the solvers' SolveTrace history are immutable after
construction and safe to share across threads; Pmf, CouplingKernel and Dtm
compare and hash by identity, not by their arrays. Nothing is cached: a Dtm
has one spectral route, `Dtm.top` (the top-r Gram eigenproblem of
`svd.gram_top`), and recomputes it on every call with the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError
from .svd import SPECTRAL_TOL, check_dtm_spectrum, gram_top

MASS_TOL = 1e-12
KERNEL_COL_TOL = 1e-9

__all__ = [
    "Pmf",
    "CouplingKernel",
    "Dtm",
    "SolveTrace",
    "build_dtm",
]


def _freeze(arr: np.ndarray) -> np.ndarray:
    # A read-only float64 array that owns its data is already frozen.
    if isinstance(arr, np.ndarray) and arr.dtype == np.float64:
        if arr.flags.owndata and not arr.flags.writeable:
            return arr
    out = np.array(arr, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


def _check_labels(labels: Sequence[str], count: int, what: str) -> tuple[str, ...]:
    out = tuple(str(x) for x in labels)
    if len(out) != count:
        raise DataError(f"{what}: {len(out)} labels for {count} entries")
    if len(set(out)) != len(out):
        raise DataError(f"{what}: duplicate labels")
    return out


@dataclass(frozen=True, eq=False)
class Pmf:
    """Probability mass function over a finite labeled alphabet."""

    labels: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        probs = _freeze(np.atleast_1d(self.probs))
        if probs.ndim != 1:
            raise DataError("probs must be a vector")
        if not np.all(np.isfinite(probs)):
            raise DataError("probs must be finite")
        if np.any(probs < 0):
            raise DataError("negative probability entry")
        total = float(probs.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise DataError(f"probs sum to {total!r}, not 1")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(
            self, "labels", _check_labels(self.labels, probs.size, "Pmf")
        )

    def __len__(self) -> int:
        return self.probs.size

    @property
    def strictly_interior(self) -> bool:
        """True iff every entry is positive (relative interior of the simplex)."""
        return bool(np.all(self.probs > 0))

    @property
    def sqrt_probs(self) -> np.ndarray:
        return np.sqrt(self.probs)

    @classmethod
    def uniform(cls, labels: Sequence[str]) -> "Pmf":
        n = len(labels)
        if n == 0:
            raise DataError("empty alphabet")
        return cls(tuple(labels), np.full(n, 1.0 / n))


@dataclass(frozen=True, eq=False)
class CouplingKernel:
    """Column-stochastic |Z| x |Y| matrix: column y is P(Z | Y=y)."""

    cluster_labels: tuple[str, ...]
    item_labels: tuple[str, ...]
    kernel: np.ndarray

    def __post_init__(self):
        k = _freeze(np.atleast_2d(self.kernel))
        if k.ndim != 2:
            raise DataError("kernel must be a matrix")
        if not np.all(np.isfinite(k)):
            raise DataError("kernel must be finite")
        if np.any(k < 0):
            raise DataError("negative kernel entry")
        col_sums = k.sum(axis=0)
        err = float(np.max(np.abs(col_sums - 1.0))) if k.size else 1.0
        if err > KERNEL_COL_TOL:
            raise DataError(
                f"kernel columns must sum to 1 (max deviation {err:.3e})"
            )
        object.__setattr__(self, "kernel", k)
        object.__setattr__(
            self,
            "cluster_labels",
            _check_labels(self.cluster_labels, k.shape[0], "kernel clusters"),
        )
        object.__setattr__(
            self,
            "item_labels",
            _check_labels(self.item_labels, k.shape[1], "kernel items"),
        )

    @property
    def shape(self) -> tuple[int, int]:
        return self.kernel.shape

    def induced_marginal(self, p_y: Pmf) -> np.ndarray:
        """P_Z implied by pushing p_y through the kernel (raw vector)."""
        if len(p_y) != self.kernel.shape[1]:
            raise DataError("kernel/item marginal size mismatch")
        return self.kernel @ p_y.probs


class Dtm:
    """Divergence transition matrix: the whitened joint and its marginals.

    Rows and columns each carry the marginal they were whitened by, and the
    matrix must satisfy B sqrt(col) = sqrt(row) and B^T sqrt(row) =
    sqrt(col), as the DTM of a joint does. Its top singular value is then
    exactly 1 and all singular values lie in [0, 1]; `top` checks this.
    The row marginal must be strictly interior, since every consumer
    divides by sqrt(P_Y); the column marginal is not checked for it.
    """

    __slots__ = ("matrix", "row_pmf", "col_pmf")

    def __init__(self, matrix: np.ndarray, row_pmf: Pmf, col_pmf: Pmf):
        mat = _freeze(np.atleast_2d(matrix))
        if mat.shape != (len(row_pmf), len(col_pmf)):
            raise DataError(
                f"matrix {mat.shape} vs marginals "
                f"({len(row_pmf)}, {len(col_pmf)})"
            )
        if not np.all(np.isfinite(mat)):
            raise DataError("DTM entries must be finite")
        if not row_pmf.strictly_interior:
            raise DataError("DTM row marginal must be strictly interior")
        sr = row_pmf.sqrt_probs
        sc = col_pmf.sqrt_probs
        col_identity = float(np.max(np.abs(mat.T @ sr - sc)))
        if col_identity > SPECTRAL_TOL:
            raise DataError(
                f"B^T sqrt(row) != sqrt(col) (max error {col_identity:.3e})"
            )
        row_identity = float(np.max(np.abs(mat @ sc - sr)))
        if row_identity > SPECTRAL_TOL:
            raise DataError(
                f"B sqrt(col) != sqrt(row) (max error {row_identity:.3e})"
            )
        self.matrix = mat
        self.row_pmf = row_pmf
        self.col_pmf = col_pmf

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def top(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """(U[:, :r], the r largest singular values), without V; not cached.

        The top r eigenpairs of the smaller Gram matrix (`svd.gram_top`: block
        Krylov on products with B and B^T, or one eigensolve of the formed
        Gram matrix where that cannot pay), much cheaper than a full SVD
        when only a few left vectors are needed.
        Singular values below about sqrt(eps) are not resolved: they come
        back as the root of an eigenvalue at rounding level, or 0.
        """
        r = int(r)
        if not 1 <= r <= min(self.shape):
            raise ConfigError(f"r = {r} outside 1..{min(self.shape)}")
        u, lam = gram_top(self.matrix, r)
        check_dtm_spectrum(lam)
        return u, np.sqrt(np.maximum(lam, 0.0))


@dataclass
class SolveTrace:
    """Per-iteration history of either solver, one append-only row per step.

    For the Frobenius solver every row describes the projected iterate:
    objective = relaxed objective J, penalty = lambda-weighted marginal
    penalty, violation = max kernel column-sum deviation (rounding only).
    The nuclear solver reuses the layout with objective = nuclear norm and
    zero penalty/violation.
    """

    objectives: list[float] = field(default_factory=list)
    penalties: list[float] = field(default_factory=list)
    violations: list[float] = field(default_factory=list)
    status: str = "MaxIters"
    extras: dict[str, list[float]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.objectives)

    def record(self, obj: float, pen: float, viol: float) -> None:
        self.objectives.append(float(obj))
        self.penalties.append(float(pen))
        self.violations.append(float(viol))


def build_dtm(row_labels: Sequence[str], col_labels: Sequence[str], weights) -> Dtm:
    """DTM of a joint: B = [P_Y]^{-1/2} P_{Y,X} [P_X]^{-1/2}.

    weights is the |Y| x |X| joint itself: finite, nonnegative, of total mass
    1 and with no empty row or column. It is not renormalized.
    """
    w = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    if w.ndim != 2:
        raise DataError("weights must be a matrix")
    if not np.all(np.isfinite(w)):
        raise DataError("weights must be finite")
    if np.any(w < 0):
        raise DataError("negative joint weight")
    total = float(w.sum())
    if abs(total - 1.0) > MASS_TOL:
        raise DataError(f"total mass {total!r}, not 1")
    row_labels = _check_labels(row_labels, w.shape[0], "joint rows")
    col_labels = _check_labels(col_labels, w.shape[1], "joint cols")
    py = w.sum(axis=1)
    px = w.sum(axis=0)
    if np.any(py <= 0) or np.any(px <= 0):
        raise DataError("joint has an empty row or column")
    # Row/col sums of a valid mass-1 matrix; renormalize off the dust so
    # the marginal Pmfs pass their own sum check.
    p_y = Pmf(row_labels, py / py.sum())
    p_x = Pmf(col_labels, px / px.sum())
    mat = w / p_y.sqrt_probs[:, None]
    mat /= p_x.sqrt_probs[None, :]
    mat.setflags(write=False)  # so that Dtm keeps it rather than a copy
    return Dtm(mat, p_y, p_x)

