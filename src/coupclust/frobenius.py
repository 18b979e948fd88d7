"""Penalized accelerated gradient ascent for the Frobenius coupling problem.

Maximizes J(A) = ||A B||_F^2 - lambda ||A sqrt(P_Y) - sqrt(P_Z)||_2^2 over
the solver variable A = [P_Z]^{-1/2} P_{Z|Y} [P_Y]^{1/2} (the conditional
DTM of the kernel), projecting every step onto the A of column-stochastic
kernels. B is the joint's DTM, passed in. With G = B B^T and the residual
r = A sqrt(P_Y) - sqrt(P_Z), the update

    A <- A + alpha (A G - lambda r sqrt(P_Y)^T)

moves A by alpha/2 times the exact gradient, and J = <A, A G> - lambda
||r||^2 comes from the same A G and r. _gram forms G only when |Y| <= |X|,
where it is no larger than B, and otherwise applies it as (A B) B^T.

The step is alpha = 1/sigma_1 with sigma_1 the largest |eigenvalue|
of G - lambda sqrt(P_Y) sqrt(P_Y)^T. The Hessian of J is twice that
matrix, so its Lipschitz constant is L = 2 sigma_1, and the update above is
the standard 1/L gradient step (Beck & Teboulle 2009). sigma_1 has a closed
form: sqrt(P_Y) is an eigenvector of G = B B^T with eigenvalue 1, so the
matrix has eigenvalue 1 - lambda on sqrt(P_Y) and the sigma_i(B)^2, i >= 2,
(and zeros) on its complement. Hence sigma_1 = max(|1 - lambda|,
sigma_2(B)^2), which is lambda - 1 for lambda >= 2.

The step is taken from an extrapolated point (FISTA, Beck & Teboulle 2009):

    Y = A + beta (A - A_prev),  beta = (theta_k - 1) / theta_{k+1},
    theta_{k+1} = (1 + sqrt(1 + 4 theta_k^2)) / 2,  theta_0 = 1.

The step is linear in A, so the step from Y is the same extrapolation of
plain steps, P + beta (P - P_prev) with P = A + alpha (A G - lambda r
sqrt(P_Y)^T), and P is formed once per accepted A. A step costs one
application of G, to the projected iterate. Every step is projected. If
the projected iterate's J falls below J(A) while beta > 0, the step is
discarded, theta is reset to 1, and the next step is a plain one from A
(function-value restart, O'Donoghue & Candes 2015). A plain step is always
accepted.

The solve stops, Converged, when J changes by less than OBJ_TOL relative
over 10 accepted steps, or as soon as two accepted steps in a row leave A
unchanged, bit for bit. After the first, P = P_prev, so the second is the
plain step from A, and A is a fixed point of the deterministic loop: the
window rule would end later on the same A and J. That happens when the
optimum is a vertex of the feasible set (hard clusters).

The projection is Euclidean in A-space, the metric of the step, so the
loop is projected gradient ascent and a plain step never lowers J. The
feasible set is A >= 0 with A^T sqrt(P_Z) = sqrt(P_Y): the kernel
K = [P_Z]^{1/2} A [P_Y]^{-1/2} is then column-stochastic. Each column v of
the stepped iterate maps to max(0, v - tau sqrt(P_Z)) (simplex.project_columns
with weights sqrt(P_Z) and totals sqrt(P_Y)). K is formed once, from the
last accepted A.
"""

from __future__ import annotations

import math

import numpy as np

from .core import CouplingKernel, Dtm, Pmf, SolveTrace
from .errors import ConfigError, DataError, SolverError, warn_caller
from .simplex import project_columns

__all__ = ["solve_frobenius"]

# Most gradient steps per solve, discarded momentum steps included.
MAX_ITERS = 5000
# Default penalty weight lambda; relative-change tolerance of J.
LAMBDA = 10.0
OBJ_TOL = 1e-9
# Objective window for the relative-change stopping rule.
_OBJ_WINDOW = 10


def _uniform_target(k: int, ny: int) -> Pmf:
    """Uniform P_Z over clusters z0..z(k-1) for a joint with ny items.

    Raises ConfigError unless 1 <= k <= ny (the bound solve_frobenius
    checks); the check comes first, so a huge k builds nothing.
    """
    if k < 1:
        raise ConfigError("k must be >= 1")
    if k > ny:
        raise ConfigError(f"|Z| = {k} exceeds |Y| = {ny}")
    return Pmf.uniform(tuple(f"z{i}" for i in range(k)))


def _check_lam(lam: float) -> None:
    """ConfigError unless the penalty weight lam is finite and positive."""
    if not (math.isfinite(lam) and lam > 0):
        raise ConfigError("lam must be finite and positive")


def _check_target(p_z: Pmf) -> None:
    """DataError unless the target marginal P_Z is strictly interior."""
    if not p_z.strictly_interior:
        raise DataError("target P_Z must be strictly interior")


def _gram(b: np.ndarray):
    """A -> A G with G = B B^T: G itself when |Y| <= |X|, else B twice."""
    if b.shape[0] <= b.shape[1]:
        g = b @ b.T
        return lambda a: a @ g
    return lambda a: (a @ b) @ b.T


def _curvature(dtm: Dtm, lam: float) -> float:
    """sigma_1 of the Hessian half B B^T - lam sqrt(P_Y) sqrt(P_Y)^T.

    The closed form max(|1 - lam|, sigma_2(B)^2) of the module docstring;
    sigma_2 is taken from the DTM only when lam < 2, where it can matter.
    """
    if lam >= 2.0 or min(dtm.shape) < 2:
        return abs(1.0 - lam)
    return max(abs(1.0 - lam), float(dtm.top(2)[1][1]) ** 2)


def _evaluate(a: np.ndarray, gram, sy: np.ndarray, sz: np.ndarray, lam: float):
    """(A G, r, J, lam ||r||^2) at A, with J = <A, A G> - lam ||r||^2."""
    ag, resid = gram(a), a @ sy - sz
    pen = lam * float(resid @ resid)
    return ag, resid, float(np.sum(a * ag)) - pen, pen


def _half_gradient(ag, resid, sy, lam: float) -> np.ndarray:
    """Step direction A G - lam r sqrt(P_Y)^T, half the gradient of J."""
    return ag - lam * np.outer(resid, sy)


def _plain_step(a, ag, resid, sy, lam: float, alpha: float) -> np.ndarray:
    """P = A + alpha (A G - lam r sqrt(P_Y)^T), the unprojected plain step."""
    with np.errstate(over="ignore", invalid="ignore"):
        return a + alpha * _half_gradient(ag, resid, sy, lam)


def _unchanged(a_new: np.ndarray, a: np.ndarray) -> bool:
    """True when an accepted step left A the same, bit for bit."""
    return np.array_equal(a_new, a)


def _violation(a: np.ndarray, sy: np.ndarray, sz: np.ndarray) -> float:
    # Column-sum deviation of K = [P_Z]^{1/2} A [P_Y]^{-1/2}.
    return float(np.max(np.abs(sz @ a / sy - 1.0)))


def solve_frobenius(
    dtm: Dtm,
    p_z: Pmf,
    *,
    lam: float = LAMBDA,
    seed: int = 0,
) -> tuple[CouplingKernel, SolveTrace]:
    """Accelerated gradient-ascent coupling solver with a target marginal.

    B is dtm.matrix; the items and P_Y are dtm.row_pmf. Each kernel column
    starts uniform on the simplex (exponential spacings, seeded by seed).
    Each iteration steps from the momentum point, projects every column of
    A in A-space (the metric of the step) and evaluates the result; a
    momentum step that lowers J is discarded (module docstring), any other
    is traced. MAX_ITERS counts every step, discarded ones included. The
    returned kernel [P_Z]^{1/2} A [P_Y]^{-1/2} is formed from the last
    traced A, so it and every traced objective belong to column-stochastic
    kernels. Converged = relative change of J below OBJ_TOL over 10 traced
    steps, or two traced steps in a row that leave A unchanged bit for bit
    (a fixed point: the window would end on the same kernel and J). The
    momentum point extrapolates the plain steps from the last two traced
    iterates. Raises SolverError, naming the step, if the iterate diverges
    or a column cannot be projected.

    lam must be finite and positive, else ConfigError.
    Above 1/eps, lam draws a warning: the step 1/(lam - 1) then leaves
    A G below the rounding of A, and the solve only matches the target.
    """
    _check_lam(lam)
    seed = int(seed)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    _check_target(p_z)
    nz, ny = len(p_z), len(dtm.row_pmf)
    if nz > ny:
        raise ConfigError(f"|Z| = {nz} exceeds |Y| = {ny}")

    if lam > 1.0 / np.finfo(float).eps:
        warn_caller(
            f"lambda = {lam!r} is above 1/eps: the step 1/(lambda - 1) leaves "
            "A G below the rounding of A, so the solve only matches the "
            "target marginal"
        )

    gram = _gram(dtm.matrix)
    sy, sz = dtm.row_pmf.sqrt_probs, p_z.sqrt_probs

    scale = _curvature(dtm, lam)
    alpha = 1.0 / scale if scale > 1e-12 else 1.0

    rng = np.random.default_rng(seed)
    k = rng.exponential(size=(nz, ny))
    k /= k.sum(axis=0, keepdims=True)
    a = k * sy[None, :] / sz[:, None]
    ag, resid, obj, _ = _evaluate(a, gram, sy, sz, lam)
    p = p_prev = _plain_step(a, ag, resid, sy, lam, alpha)
    theta, unchanged = 1.0, 0

    trace = SolveTrace()
    for t in range(1, MAX_ITERS + 1):
        theta_next = (1.0 + math.sqrt(1.0 + 4.0 * theta * theta)) / 2.0
        beta = (theta - 1.0) / theta_next
        with np.errstate(over="ignore", invalid="ignore"):
            # The step is linear in A, so the step from the extrapolated
            # point is the same extrapolation of the plain steps P.
            y = p + beta * (p - p_prev)
            if not np.all(np.isfinite(y)):
                raise SolverError(f"iterate diverged at iteration {t} (step {alpha!r})")
            try:
                a_new = project_columns(y, sz, sy)
            except ValueError:
                raise SolverError(
                    f"projection overflowed at iteration {t} (step {alpha!r})"
                ) from None
            ag_new, resid_new, obj_new, pen = _evaluate(a_new, gram, sy, sz, lam)
        if not np.isfinite(obj_new):
            raise SolverError(f"objective diverged at iteration {t} (step {alpha!r})")
        if beta > 0.0 and obj_new < obj:
            # Momentum overshot: drop the step and take a plain one from A.
            theta = 1.0
            continue
        unchanged = unchanged + 1 if _unchanged(a_new, a) else 0
        a, obj = a_new, obj_new
        p_prev, p = p, _plain_step(a, ag_new, resid_new, sy, lam, alpha)
        theta = theta_next
        trace.record(obj, pen, _violation(a, sy, sz))
        settled = len(trace) > _OBJ_WINDOW and (
            abs(obj - trace.objectives[-1 - _OBJ_WINDOW]) / max(1.0, abs(obj))
            < OBJ_TOL
        )
        # Two unchanged steps in a row: the second was a plain one, so A is
        # a fixed point, on which the window would close at most 8 steps
        # later.
        if unchanged == 2 or settled:
            trace.status = "Converged"
            break

    kernel = CouplingKernel(p_z.labels, dtm.row_pmf.labels, sz[:, None] * a / sy)
    return kernel, trace
