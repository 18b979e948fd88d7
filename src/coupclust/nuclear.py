"""Alternating maximization for the nuclear-norm coupling problem.

Repeats two exact subproblem solves: (i) with the kernel fixed, the optimal
whitened factor pair (F, G) comes from the SVD of the chain DTM B_{Z,X} and
attains tr(F^T P_{Z,X} G) = ||B_{Z,X}||_*; (ii) with F, G fixed the
objective is linear in the kernel and decomposes over columns into
per-item argmax assignments (one-hot vertex solutions). The kernel update is
that argmax and nothing else: no target cluster marginal is taken or
imposed, and the induced P_Z is whatever the assignments give.

Both steps touch the data only through the joint's DTM B, passed in. For a
kernel K the chain DTM is A B with A = [P_Z]^{-1/2} K [P_Y]^{1/2}, so each
step takes one SVD of that k x |X| matrix (_chain_svd); the per-item
coefficients of step (ii) come from B V and U with no chain joint formed.
"""

from __future__ import annotations

import numpy as np

from .core import CouplingKernel, Dtm, SolveTrace
from .errors import ConfigError, SolverError, warn_caller
from .svd import check_dtm_spectrum

__all__ = ["solve_nuclear"]

# Most alternations per solve.
MAX_ITERS = 200
# A cluster whose induced mass falls below this is dead and gets rescued.
DEAD_MASS = 1e-12
# An item leaves its cluster only for one whose coefficient is higher by more
# than this, relative to the item's largest |coefficient|.
_TIE_RTOL = 1e-12


def _chain_svd(
    b: np.ndarray, py: np.ndarray, kernel: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """SVD of the chain DTM B_{Z,X} = A B of a column-stochastic kernel K.

    b is the DTM of the joint and py its row marginal; A = [P_Z]^{-1/2} K
    [P_Y]^{1/2} with P_Z = K P_Y, which must be positive. Returns (U, s, Vt,
    sqrt(P_Z)), s descending and checked against the DTM invariants. The
    solver and kernel_norm_value both take their norms from here, so the
    norm of a returned kernel repeats the solver's bits.
    """
    sz = np.sqrt(kernel @ py)
    a = kernel * np.sqrt(py)[None, :] / sz[:, None]
    u, s, vt = np.linalg.svd(a @ b, full_matrices=False)
    check_dtm_spectrum(s)
    return u, s, vt, sz


def _one_hot(assign: np.ndarray, nz: int) -> np.ndarray:
    k = np.zeros((nz, assign.size))
    k[assign, np.arange(assign.size)] = 1.0
    return k


def _argmax_step(c: np.ndarray, assign: np.ndarray) -> np.ndarray:
    """Per-item argmax of C, keeping an item's cluster where it ties the max.

    A clustering whose items tie between clusters in exact arithmetic (two
    clusters over one connected block) gets its argmax from rounding, which
    can relabel the same partition at every step and never repeat; keeping
    the current cluster within _TIE_RTOL makes it a fixed point.
    """
    best = np.argmax(c, axis=1)
    items = np.arange(assign.size)
    slack = _TIE_RTOL * np.max(np.abs(c), axis=1)
    return np.where(c[items, assign] >= c[items, best] - slack, assign, best)


def _rescue_dead(
    assign: np.ndarray, c: np.ndarray, py: np.ndarray, nz: int
) -> np.ndarray:
    """Reassign one item into each dead cluster, cheapest to move first.

    A cluster is dead when its induced mass drops below DEAD_MASS. The item
    stolen for dead cluster z* maximizes C[y, z*] - C[y, assign[y]] (the
    least objective loss) among items whose cluster stays alive without
    them; ties go to the lowest item index. No move kills a cluster and no
    item leaves a dead one, so the loop ends, even when items lighter than
    DEAD_MASS take several moves to revive a cluster.
    """
    while True:
        mass = np.zeros(nz)
        np.add.at(mass, assign, py)
        dead = np.flatnonzero(mass < DEAD_MASS)
        if dead.size == 0:
            return assign
        z_star = int(dead[0])
        movable = mass[assign] - py >= DEAD_MASS
        if not np.any(movable):
            raise SolverError(
                f"cluster {z_star} emptied and every other cluster is a singleton"
            )
        margin = c[:, z_star] - c[np.arange(assign.size), assign]
        margin[~movable] = -np.inf
        y_star = int(np.argmax(margin))
        assign = assign.copy()
        assign[y_star] = z_star


def solve_nuclear(
    dtm: Dtm, k: int, *, seed: int = 0
) -> tuple[CouplingKernel, SolveTrace]:
    """Alternating maximization of ||B_{Z,X}||_* over coupling kernels.

    B is dtm.matrix; the items and P_Y are dtm.row_pmf. The iterate is a
    cluster assignment (the one-hot kernel), seeded at random with one
    distinct item pinned per cluster (so no cluster starts empty). The
    update is the per-item argmax of the linear subproblem, followed by the
    dead-cluster rescue; it takes no target cluster marginal. Stops
    ("Converged") when the update returns the same assignment, or at
    MAX_ITERS; either way the returned kernel is the last one traced,
    whose nuclear norm is trace.objectives[-1].

    The trace records the nuclear norm per outer iteration (penalty and
    violation columns are zero), plus extras: "kyfan_gap" (attainment error
    of the trace objective against the nuclear norm, per step) and
    "linear_before"/"linear_after" (the fixed-F,G linear objective at the
    old and new assignment). A decrease of the nuclear norm between
    iterations emits a warning, not an error.

    k must be in 1..|Y| and seed >= 0, else ConfigError.
    """
    k, seed = int(k), int(seed)
    if k < 1:
        raise ConfigError("k must be >= 1")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    ny = len(dtm.row_pmf)
    if k > ny:
        raise ConfigError(f"k = {k} exceeds |Y| = {ny}")
    cluster_labels = tuple(f"z{i}" for i in range(k))

    b, py, sy = dtm.matrix, dtm.row_pmf.probs, dtm.row_pmf.sqrt_probs
    items = np.arange(ny)

    rng = np.random.default_rng(seed)
    perm = rng.permutation(ny)
    assign = np.empty(ny, dtype=np.intp)
    assign[perm[:k]] = np.arange(k)
    if ny > k:
        assign[perm[k:]] = rng.integers(0, k, size=ny - k)

    trace = SolveTrace()
    trace.extras = {"kyfan_gap": [], "linear_before": [], "linear_after": []}
    prev_norm = None

    for _ in range(MAX_ITERS):
        kernel_mat = _one_hot(assign, k)
        u, s, vt, sz = _chain_svd(b, py, kernel_mat)
        norm_val = float(np.sum(s))
        # C[y, z] weights P(z|y) in tr(F^T P_{Z|Y} P_{Y,X} G), where
        # F = [P_Z]^{-1/2} U and G = [P_X]^{-1/2} V are the Ky Fan factors.
        c = sy[:, None] * ((b @ vt.T) @ u.T) / sz[None, :]
        new_assign = _rescue_dead(_argmax_step(c, assign), c, py, k)
        linear_before = float(np.sum(c[items, assign]))
        # At the current assignment the linear objective is tr(F^T P_{Z,X}
        # G), which the factors make equal to the nuclear norm.
        trace.extras["kyfan_gap"].append(abs(linear_before - norm_val))
        trace.extras["linear_before"].append(linear_before)
        trace.extras["linear_after"].append(float(np.sum(c[items, new_assign])))

        trace.record(norm_val, 0.0, 0.0)
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

    return CouplingKernel(cluster_labels, dtm.row_pmf.labels, kernel_mat), trace
