"""Alternating maximization for the nuclear-norm coupling problem.

Repeats two exact subproblem solves: (i) with the kernel fixed, the optimal
whitened factor pair (F, G) comes from the SVD of the chain DTM B_{Z,X} and
attains tr(F^T P_{Z,X} G) = ||B_{Z,X}||_*; (ii) with F, G fixed the
objective is linear in the kernel and decomposes over columns into
per-item argmax assignments (one-hot vertex solutions). The kernel update is
that argmax and nothing else: no target cluster marginal is taken or
imposed, and the induced P_Z is whatever the assignments give.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CouplingKernel,
    Dtm,
    JointPmf,
    Pmf,
    SolveTrace,
    build_dtm,
    nuclear,
)
from .errors import (
    DegenerateCluster,
    DimensionMismatch,
    InvalidParams,
    ZeroMarginal,
    warn_caller,
)

__all__ = [
    "NuclearConfig",
    "KyFanFeatures",
    "kyfan_features",
    "solve_nuclear",
]

# A cluster whose induced mass falls below this is dead and gets rescued.
DEAD_MASS = 1e-12
_WHITEN_TOL = 1e-8


@dataclass(frozen=True)
class NuclearConfig:
    """k clusters, at most max_iters alternations, the random start's seed.

    There is no tolerance: solve_nuclear stops when its assignment repeats.
    """

    k: int
    max_iters: int = 200
    seed: int = 0

    def __post_init__(self):
        if int(self.k) < 1:
            raise InvalidParams("k must be >= 1")
        if int(self.max_iters) < 1:
            raise InvalidParams("max_iters must be >= 1")
        if int(self.seed) < 0:
            raise InvalidParams(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "max_iters", int(self.max_iters))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class KyFanFeatures:
    """Whitened singular-vector factors F = [P_Z]^{-1/2} U, G = [P_X]^{-1/2} V.

    Satisfy F^T [P_Z] F = G^T [P_X] G = I_r with r = min(|X|, |Z|), and
    attain the nuclear norm of the DTM they came from in the trace
    objective.
    """

    f: np.ndarray
    g: np.ndarray
    r: int
    p_z: np.ndarray
    p_x: np.ndarray

    def __post_init__(self):
        f, g = self.f, self.g
        if f.shape[1] != self.r or g.shape[1] != self.r:
            raise DimensionMismatch("F/G column count must equal r")
        fwf = f.T @ (self.p_z[:, None] * f)
        gwg = g.T @ (self.p_x[:, None] * g)
        eye = np.eye(self.r)
        err = max(
            float(np.max(np.abs(fwf - eye))), float(np.max(np.abs(gwg - eye)))
        )
        if err > _WHITEN_TOL:
            raise InvalidParams(
                f"whitening constraint violated (max error {err:.3e})"
            )


def kyfan_features(b: Dtm, p_z: Pmf, p_x: Pmf) -> KyFanFeatures:
    """Optimal factor pair for the trace form of the nuclear norm."""
    nz, nx = b.shape
    if len(p_z) != nz or len(p_x) != nx:
        raise DimensionMismatch(
            f"DTM {b.shape} vs |Z|={len(p_z)}, |X|={len(p_x)}"
        )
    if not p_z.strictly_interior or not p_x.strictly_interior:
        raise ZeroMarginal("marginals must be strictly interior")
    u, _, vt = b.svd()
    r = min(nz, nx)
    f = u[:, :r] / p_z.sqrt_probs[:, None]
    g = vt[:r].T / p_x.sqrt_probs[:, None]
    return KyFanFeatures(f=f, g=g, r=r, p_z=p_z.probs, p_x=p_x.probs)


def _coefficients(f: np.ndarray, g: np.ndarray, joint_yx: JointPmf) -> np.ndarray:
    # C[y, z] weights P(z|y) in tr(F^T P_{Z|Y} P_{Y,X} G)
    if f.shape[1] != g.shape[1]:
        raise DimensionMismatch("F and G must share the feature dimension")
    if g.shape[0] != joint_yx.shape[1]:
        raise DimensionMismatch("G rows must match the joint's columns")
    return (joint_yx.weights @ g) @ f.T


def _one_hot(assign: np.ndarray, nz: int) -> np.ndarray:
    k = np.zeros((nz, assign.size))
    k[assign, np.arange(assign.size)] = 1.0
    return k


def _rescue_dead(
    assign: np.ndarray,
    c: np.ndarray,
    py: np.ndarray,
    nz: int,
    rescues_left: int,
) -> tuple[np.ndarray, int]:
    """Reassign one item into each dead cluster, cheapest to move first.

    A cluster is dead when its induced mass drops below DEAD_MASS. The item
    stolen for dead cluster z* maximizes C[y, z*] - C[y, assign[y]] (the
    least objective loss) among items that are not their own cluster's sole
    member; ties go to the lowest item index.
    """
    while True:
        mass = np.zeros(nz)
        np.add.at(mass, assign, py)
        dead = np.flatnonzero(mass < DEAD_MASS)
        if dead.size == 0:
            return assign, rescues_left
        if rescues_left <= 0:
            raise DegenerateCluster(
                f"cluster {int(dead[0])} emptied and the rescue budget is spent"
            )
        z_star = int(dead[0])
        counts = np.bincount(assign, minlength=nz)
        movable = counts[assign] >= 2
        if not np.any(movable):
            raise DegenerateCluster(
                f"cluster {z_star} emptied and every other cluster is a singleton"
            )
        margin = c[:, z_star] - c[np.arange(assign.size), assign]
        margin[~movable] = -np.inf
        y_star = int(np.argmax(margin))
        assign = assign.copy()
        assign[y_star] = z_star
        rescues_left -= 1


def solve_nuclear(
    joint: JointPmf, cfg: NuclearConfig
) -> tuple[CouplingKernel, SolveTrace]:
    """Alternating maximization of ||B_{Z,X}||_* over coupling kernels.

    The iterate is a cluster assignment (the one-hot kernel), seeded at
    random with one distinct item pinned per cluster (so no cluster starts
    empty). The update is the per-item argmax of the linear subproblem,
    followed by the dead-cluster rescue; it takes no target cluster
    marginal. Stops ("Converged") when the update returns the same
    assignment, or at cfg.max_iters; either way the returned kernel is the
    last one traced, whose nuclear norm is trace.objectives[-1].

    The trace records the nuclear norm per outer iteration (penalty and
    violation columns are zero), plus extras: "kyfan_gap" (attainment error
    of the trace objective against the nuclear norm, per step) and
    "linear_before"/"linear_after" (the fixed-F,G linear objective at the
    old and new assignment). A decrease of the nuclear norm between
    iterations emits a warning, not an error.
    """
    k = cfg.k
    ny = len(joint.marginal_y)
    if k > ny:
        raise InvalidParams(f"k = {k} exceeds |Y| = {ny}")
    cluster_labels = tuple(f"z{i}" for i in range(k))

    w = joint.weights
    py = joint.marginal_y.probs
    items = np.arange(ny)

    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(ny)
    assign = np.empty(ny, dtype=np.intp)
    assign[perm[:k]] = np.arange(k)
    if ny > k:
        assign[perm[k:]] = rng.integers(0, k, size=ny - k)

    trace = SolveTrace()
    trace.extras = {"kyfan_gap": [], "linear_before": [], "linear_after": []}
    rescues_left = k
    prev_norm = None

    for _ in range(cfg.max_iters):
        kernel_mat = _one_hot(assign, k)
        chain = JointPmf.from_weights(
            cluster_labels, joint.col_labels, kernel_mat @ w
        )
        b_zx = build_dtm(chain)
        norm_val = nuclear(b_zx)
        feats = kyfan_features(b_zx, chain.marginal_y, chain.marginal_x)
        attained = float(np.trace(feats.f.T @ chain.weights @ feats.g))
        trace.extras["kyfan_gap"].append(abs(attained - norm_val))

        c = _coefficients(feats.f, feats.g, joint)
        new_assign, rescues_left = _rescue_dead(
            np.argmax(c, axis=1), c, py, k, rescues_left
        )
        trace.extras["linear_before"].append(float(np.sum(c[items, assign])))
        trace.extras["linear_after"].append(float(np.sum(c[items, new_assign])))

        trace.record(norm_val, 0.0, 0.0, float(kernel_mat.min()))
        if prev_norm is not None and norm_val < prev_norm - 1e-12:
            warn_caller(
                f"nuclear norm decreased between iterations "
                f"({prev_norm!r} -> {norm_val!r})"
            )
        prev_norm = norm_val

        if np.array_equal(new_assign, assign):
            trace.status = "Converged"
            break
        assign = new_assign

    return CouplingKernel(cluster_labels, joint.row_labels, kernel_mat), trace
