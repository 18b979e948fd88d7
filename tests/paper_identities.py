"""Reference code for the paper's identities, used only by the tests.

The package scores a clustering through the DTM of the chain joint
P_{Z,X}; it never forms the conditional DTM of a kernel, composes DTMs,
measures mutual information or counts graph components. The acceptance
criteria check the paper's claims about those quantities, so they live
here, beside the checks:

- DTMs compose along a Markov chain X -> Y -> Z:
  B_{Z,X} = B_{Z,Y} B_{Y,X}, with B_{Z,Y} = [P_Z]^{-1/2} P_{Z|Y} [P_Y]^{1/2}
  (criterion 2).
- For kernels spherically perturbed around P_Z by epsilon, I(X;Z) equals
  1/2 (||B_{Z,X}||_F^2 - 1) up to o(epsilon^2) (criterion 3).
- The multiplicity of the singular value 1 of a DTM equals the number of
  connected components of the joint's bipartite support graph
  (criterion 4).
- The Frobenius solver's objective J at any A, for the gradient and trace
  checks; the solver itself evaluates J only from its cached A G and
  residual.
- The weighted simplex projection by sort-then-threshold, the reference
  for the package's active-set projection.
- For a hard assignment, ||B_{Z,X}||_F^2 = ||B||_F^2 minus the P_Y-weighted
  k-means cost of the rows phi_y = B[y] / sqrt(P_Y(y)) (ROADMAP item 15).

Logs are natural: information quantities are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from coupclust.core import (
    MASS_TOL,
    SPECTRAL_TOL,
    CouplingKernel,
    Dtm,
    Pmf,
    _check_labels,
    _freeze,
    build_dtm,
)
from coupclust.errors import ConfigError, DataError

from conftest import singular_values

# Entries at or below this are exact zeros for support/component purposes.
SUPPORT_EPS = 1e-15


def dtm_from_kernel(kernel: CouplingKernel, p_y: Pmf, p_z: Pmf) -> Dtm:
    """Conditional DTM: B_{Z,Y} = [P_Z]^{-1/2} P_{Z|Y} [P_Y]^{1/2}.

    p_z must be the induced marginal kernel @ p_y (within the DTM
    tolerance); otherwise B sqrt(P_Y) != sqrt(P_Z) and Dtm raises
    DataError.
    """
    nz, ny = kernel.shape
    if len(p_y) != ny or len(p_z) != nz:
        raise DataError(
            f"kernel {kernel.shape} vs |Y|={len(p_y)}, |Z|={len(p_z)}"
        )
    if kernel.item_labels != p_y.labels:
        raise DataError("kernel item labels disagree with p_y labels")
    if kernel.cluster_labels != p_z.labels:
        raise DataError("kernel cluster labels disagree with p_z labels")
    if not p_z.strictly_interior or not p_y.strictly_interior:
        raise DataError("marginals must be strictly interior")
    mat = kernel.kernel * p_y.sqrt_probs[None, :] / p_z.sqrt_probs[:, None]
    return Dtm(mat, p_z, p_y)


def compose_dtm(b_zy: Dtm, b_yx: Dtm) -> Dtm:
    """B_{Z,X} = B_{Z,Y} B_{Y,X} along a Markov chain X -> Y -> Z."""
    if b_zy.shape[1] != b_yx.shape[0]:
        raise DataError(
            f"inner dimensions {b_zy.shape} x {b_yx.shape}"
        )
    if b_zy.col_pmf.labels != b_yx.row_pmf.labels:
        raise DataError("inner marginal labels disagree")
    gap = float(
        np.max(np.abs(b_zy.col_pmf.sqrt_probs - b_yx.row_pmf.sqrt_probs))
    )
    if gap > SPECTRAL_TOL:
        raise DataError(f"inner marginals differ by {gap:.3e}")
    out = Dtm(b_zy.matrix @ b_yx.matrix, b_zy.row_pmf, b_yx.col_pmf)
    out.top(1)  # re-verifies sigma_1 = 1
    return out


def mutual_information(w: np.ndarray) -> float:
    """I(Y;X) in nats of the mass-1 joint matrix w, with 0 log 0 = 0."""
    py, px = w.sum(axis=1), w.sum(axis=0)
    outer = (py / py.sum())[:, None] * (px / px.sum())[None, :]
    mask = w > 0
    return float(np.sum(w[mask] * np.log(w[mask] / outer[mask])))


@dataclass(frozen=True)
class PerturbationFamily:
    """Spherically perturbed kernels: column y is P_Z + eps * sqrt(P_Z) o phi_y.

    phis holds phi_y as column y of a |Z| x |Y| matrix. Each phi_y is unit
    norm and orthogonal to sqrt(P_Z), which keeps every perturbed column on
    the mass-1 affine plane; epsilon must be small enough that the columns
    stay nonnegative (ValueError otherwise).
    """

    base: Pmf
    item_labels: tuple[str, ...]
    phis: np.ndarray
    epsilon: float

    def __post_init__(self):
        phis = _freeze(np.atleast_2d(self.phis))
        if phis.shape[0] != len(self.base):
            raise DataError(
                f"phi rows {phis.shape[0]} vs |Z| {len(self.base)}"
            )
        object.__setattr__(self, "phis", phis)
        object.__setattr__(
            self,
            "item_labels",
            _check_labels(self.item_labels, phis.shape[1], "family items"),
        )
        object.__setattr__(self, "epsilon", float(self.epsilon))
        if not math.isfinite(self.epsilon):
            raise ConfigError("epsilon must be finite")
        if not self.base.strictly_interior:
            raise DataError("base P_Z must be strictly interior")
        norms = np.linalg.norm(phis, axis=0)
        if float(np.max(np.abs(norms - 1.0))) > MASS_TOL:
            raise ConfigError("each phi_y must be unit norm")
        dots = phis.T @ self.base.sqrt_probs
        if float(np.max(np.abs(dots))) > MASS_TOL:
            raise ConfigError("each phi_y must be orthogonal to sqrt(P_Z)")
        cols = self.columns()
        if np.any(cols < 0) or np.any(cols > 1):
            raise ValueError(
                f"epsilon {self.epsilon!r} pushes a kernel entry outside [0, 1]"
            )

    def columns(self) -> np.ndarray:
        base = self.base.probs[:, None]
        return base + self.epsilon * (self.base.sqrt_probs[:, None] * self.phis)


def perturbed_kernel(fam: PerturbationFamily) -> CouplingKernel:
    """Materialize the family's kernel: column y = P_Z + eps*sqrt(P_Z) o phi_y."""
    return CouplingKernel(fam.base.labels, fam.item_labels, fam.columns())


def local_mi_gap(
    joint_yx: tuple, fam: PerturbationFamily
) -> tuple[float, float, float]:
    """Exact I(X;Z) on the chain X -> Y -> Z versus 1/2(||B_{Z,X}||_F^2 - 1).

    joint_yx is (row labels, col labels, weights). Returns (exact_mi,
    frobenius_approx, gap). The approximation error is o(epsilon^2), so the
    gap collapses much faster than epsilon^2 itself.
    """
    rows, cols, w = joint_yx
    if fam.item_labels != tuple(rows):
        raise DataError("family items disagree with joint rows")
    chain = perturbed_kernel(fam).kernel @ w
    exact = mutual_information(chain)
    chain_dtm = build_dtm(fam.base.labels, cols, chain)
    approx = 0.5 * (float(np.sum(chain_dtm.matrix**2)) - 1.0)
    return exact, approx, abs(exact - approx)


def frobenius_objective(
    a: np.ndarray, c: np.ndarray, sqrt_py: np.ndarray, sqrt_pz: np.ndarray, lam: float
) -> tuple[float, float]:
    """(relaxed objective J, penalty term) at A.

    J = ||A C||_F^2 - lam ||A sqrt(P_Y) - sqrt(P_Z)||_2^2 for any C with
    C C^T = B B^T, B itself among them.
    """
    ac, resid = a @ c, a @ sqrt_py - sqrt_pz
    pen = lam * float(resid @ resid)
    return float(np.sum(ac * ac)) - pen, pen


def sorted_project_columns(arr: np.ndarray, w: np.ndarray, c) -> np.ndarray:
    """Each column v of arr onto {a >= 0, w^T a = c}, by sort-then-threshold.

    Shift each column by w times its largest breakpoint v_z / w_z, sort the
    breakpoints descending, keep the largest prefix whose coordinates all
    stay positive at that prefix's tau, shift by tau w and clip at zero.
    Inputs are not checked: every column must have a finite largest
    breakpoint, and w and c must be finite and positive.
    """
    n, cols = arr.shape[0], np.arange(arr.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        br = arr / w[:, None]
        br -= br.max(axis=0)
        order = np.argsort(br, axis=0, kind="stable")[::-1]
        ww = np.take(w * w, order)
        srt = np.take(br, order * arr.shape[1] + cols)
        wv = np.cumsum(ww * srt, axis=0)
        ww = np.cumsum(ww, axis=0)
        cond = srt * ww > wv - c
    # cond[0] is always True, so the last True index is well defined.
    rho = n - 1 - np.argmax(cond[::-1], axis=0)
    tau = (wv[rho, cols] - c) / ww[rho, cols]
    diff = w[:, None] * (br - tau)
    return np.where(diff > 0.0, diff, 0.0)


def weighted_kmeans_cost(dtm: Dtm, assign: np.ndarray) -> float:
    """sum_y P_Y(y) ||phi_y - mu_{z(y)}||^2 of a hard assignment of the rows.

    phi_y = B[y] / sqrt(P_Y(y)) and mu_z is the P_Y-weighted centroid of the
    rows assigned to z; assign[y] is the cluster index of row y.
    """
    py = dtm.row_pmf.probs
    phi = dtm.matrix / dtm.row_pmf.sqrt_probs[:, None]
    cost = 0.0
    for z in np.unique(assign):
        members = assign == z
        mu = py[members] @ phi[members] / py[members].sum()
        cost += float(py[members] @ np.sum((phi[members] - mu) ** 2, axis=1))
    return cost


def singular_one_multiplicity(dtm: Dtm, tol: float = 1e-6) -> int:
    """Count of singular values above 1 - tol."""
    tol = float(tol)
    if not 0 < tol < 0.5:
        raise ConfigError(f"tol must be in (0, 0.5), got {tol!r}")
    return int(np.sum(singular_values(dtm) > 1.0 - tol))


def bipartite_components(w: np.ndarray) -> int:
    """Connected components of the bipartite support graph of the joint w.

    An edge joins row y and column x when the weight exceeds the support
    threshold (float dust must not connect components). Counted by scipy's
    csgraph, independently of the package's SVD.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    ny, nx = w.shape
    rows, cols = np.nonzero(w > SUPPORT_EPS)
    graph = coo_matrix(
        (np.ones(rows.size), (rows, ny + cols)), shape=(ny + nx, ny + nx)
    )
    count, _ = connected_components(graph, directed=False)
    return int(count)
