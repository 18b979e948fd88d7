import warnings

import numpy as np
import pytest

from coupclust.core import build_dtm
from coupclust.data_io import (
    gen_counterexample,
    gen_planted_blocks,
)
from coupclust.errors import ConfigError, CoupclustError, SolverError
from coupclust.evaluation import (
    elbow_curve,
    harden,
    kernel_norm_value,
    matched_accuracy,
)
from coupclust import nuclear
from coupclust.nuclear import (
    _argmax_step,
    _chain_svd,
    _one_hot,
    _rescue_dead,
    solve_nuclear,
)

from conftest import normalized_joint, random_joint


def _two_by_two():
    w = np.array([[0.4, 0.1], [0.2, 0.3]])
    return ("a", "b"), ("u", "v"), w


def two_block_joint():
    w = np.zeros((4, 4))
    w[:2, :2] = 1.0
    w[2:, 2:] = 1.0
    return normalized_joint(("a", "b", "c", "d"), ("u", "v", "w", "x"), w)


class TestConfig:
    def test_k_one_allowed(self):
        solve_nuclear(build_dtm(*_two_by_two()), 1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"k": -3},
            {"k": 2, "seed": -1},
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        message = "seed must be >= 0, got -1" if "seed" in kwargs else "k must be >= 1"
        with pytest.raises(ConfigError, match=message):
            solve_nuclear(build_dtm(*_two_by_two()), **kwargs)


def _chain_reference(joint, kernel):
    """(U, s, Vt, C) from the DTM of the chain joint, as the solver once
    formed it: C = (P_{Y,X} G) F^T with F = [P_Z]^{-1/2} U and
    G = [P_X]^{-1/2} V, the whitened factors of the chain's own SVD."""
    _, cols, w = joint
    labels = tuple(f"z{i}" for i in range(kernel.shape[0]))
    chain = build_dtm(*normalized_joint(labels, cols, kernel @ w))
    u, s, vt = np.linalg.svd(chain.matrix, full_matrices=False)
    f = u / chain.row_pmf.sqrt_probs[:, None]
    g = vt.T / chain.col_pmf.sqrt_probs[:, None]
    return u, s, vt, (w @ g) @ f.T


def _random_kernel(rng, k, ny):
    kern = rng.random((k, ny))
    return kern / kern.sum(axis=0)


def _coefficients(joint, kernel):
    # The solver's per-item weights, from _chain_svd and B alone.
    dtm = build_dtm(*joint)
    b, p_y = dtm.matrix, dtm.row_pmf
    u, _, vt, sz = _chain_svd(b, p_y.probs, kernel)
    return p_y.sqrt_probs[:, None] * ((b @ vt.T) @ u.T) / sz


class TestKyFan:
    def test_whitening_and_attainment(self, rng):
        for k in (1, 2, 3, 5):
            joint = random_joint(rng, 5, 6)
            dtm = build_dtm(*joint)
            p_y, p_x = dtm.row_pmf, dtm.col_pmf
            kernel = np.eye(5) if k == 5 else _random_kernel(rng, k, 5)
            u, s, vt, sz = _chain_svd(dtm.matrix, p_y.probs, kernel)
            s_ref = _chain_reference(joint, kernel)[1]
            np.testing.assert_allclose(s, s_ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(sz**2, kernel @ p_y.probs, rtol=1e-15)
            # F^T [P_Z] F = G^T [P_X] G = I, and tr(F^T P_{Z,X} G) = ||B||_*
            f = u / sz[:, None]
            g = vt.T / p_x.sqrt_probs[:, None]
            eye = np.eye(u.shape[1])
            assert np.max(np.abs(f.T @ ((sz**2)[:, None] * f) - eye)) <= 1e-8
            gwg = g.T @ (p_x.probs[:, None] * g)
            assert np.max(np.abs(gwg - eye)) <= 1e-8
            attained = float(np.trace(f.T @ kernel @ joint[2] @ g))
            assert abs(attained - float(np.sum(s))) <= 1e-8

    def test_rank_is_min_dimension(self, rng):
        for ny, nx, k in ((3, 7, 3), (5, 3, 2), (6, 3, 4)):
            dtm = build_dtm(*random_joint(rng, ny, nx))
            kernel = _random_kernel(rng, k, ny)
            u, s, vt, _ = _chain_svd(dtm.matrix, dtm.row_pmf.probs, kernel)
            r = min(k, nx)
            assert u.shape == (k, r) and s.shape == (r,) and vt.shape == (r, nx)

    def test_non_stochastic_kernel_rejected(self, rng):
        # Columns summing to 2 lift the chain's top singular value to
        # sqrt(2): the result is not the DTM of any joint.
        dtm = build_dtm(*random_joint(rng, 4, 5))
        kernel = 2.0 * _random_kernel(rng, 2, 4)
        with pytest.raises(CoupclustError, match="DTM invariant violated"):
            _chain_svd(dtm.matrix, dtm.row_pmf.probs, kernel)


def _linear_step(c):
    # The kernel update solve_nuclear runs before its dead-cluster rescue.
    return _one_hot(np.argmax(c, axis=1), c.shape[1])


class TestLinearStep:
    def test_matches_chain_reference(self, rng):
        for k in (1, 2, 4):
            joint = random_joint(rng, 6, 5)
            kernel = _random_kernel(rng, k, 6)
            c_ref = _chain_reference(joint, kernel)[3]
            np.testing.assert_allclose(
                _coefficients(joint, kernel), c_ref, rtol=0, atol=1e-12
            )

    def test_one_hot_at_argmax(self, rng):
        joint = random_joint(rng, 6, 5)
        c = _coefficients(joint, _random_kernel(rng, 3, 6))
        k = _linear_step(c)
        assert np.all((k == 0.0) | (k == 1.0))
        np.testing.assert_allclose(k.sum(axis=0), 1.0)
        # vertex optimality, column by column
        for y in range(6):
            assert np.argmax(k[:, y]) == np.argmax(c[y])

    def test_beats_random_kernels(self, rng):
        # The linear objective tr(F^T P_{Z|Y} P_{Y,X} G), formed directly
        # from the reference factors of the same chain.
        joint = random_joint(rng, 6, 5)
        kernel0 = _random_kernel(rng, 3, 6)
        u, _, vt, _ = _chain_reference(joint, kernel0)
        dtm = build_dtm(*joint)
        pz = kernel0 @ dtm.row_pmf.probs
        f = u / np.sqrt(pz)[:, None]
        g = vt.T / dtm.col_pmf.sqrt_probs[:, None]

        def linear(k):
            return float(np.trace(f.T @ k @ joint[2] @ g))

        val = linear(_linear_step(_coefficients(joint, kernel0)))
        for _ in range(200):
            k = _random_kernel(rng, 3, 6)
            assert linear(k) <= val + 1e-12

    def test_lp_oracle_per_column(self, rng):
        # independent route: each column solves a tiny simplex LP on the
        # reference coefficients
        from scipy.optimize import linprog

        joint = random_joint(rng, 5, 4)
        kernel0 = _random_kernel(rng, 3, 5)
        c = _chain_reference(joint, kernel0)[3]
        kernel = _linear_step(_coefficients(joint, kernel0))
        nz = kernel.shape[0]
        for y in range(5):
            res = linprog(
                -c[y], A_eq=np.ones((1, nz)), b_eq=[1.0], bounds=(0, None),
                method="highs",
            )
            assert res.success
            got = float(c[y] @ kernel[:, y])
            assert abs(got - (-res.fun)) <= 1e-9


class TestArgmaxStep:
    def test_tie_keeps_current_cluster(self):
        # Items 0 and 1 tie between clusters 0 and 1 up to rounding; item 2
        # is better off in cluster 1 by far more than rounding.
        c = np.array(
            [
                [1 / 3, 1 / 3 + 2e-16, 0.0],
                [1 / 3 + 2e-16, 1 / 3, 0.0],
                [0.25, 0.5, 0.0],
            ]
        )
        new = _argmax_step(c, np.array([0, 0, 0]))
        np.testing.assert_array_equal(new, [0, 0, 1])
        np.testing.assert_array_equal(_argmax_step(c, np.array([1, 1, 2])), [1, 1, 1])

    def test_same_as_argmax_without_ties(self, rng):
        c = rng.normal(size=(50, 4))
        assign = rng.integers(0, 4, size=50)
        np.testing.assert_array_equal(_argmax_step(c, assign), np.argmax(c, axis=1))


class TestRescue:
    def test_steals_cheapest_item(self):
        assign = np.array([0, 0, 1])
        c = np.array(
            [
                [5.0, 0.0, 1.0],
                [4.0, 0.0, 3.0],
                [9.0, 8.0, 0.0],
            ]
        )
        py = np.array([0.4, 0.3, 0.3])
        new, left = _rescue_dead(assign, c, py, 3, rescues_left=3)
        # y=1 loses least (3 - 0 = 3 vs y0: 1-5=-4); y2 is a singleton
        np.testing.assert_array_equal(new, [0, 2, 1])
        assert left == 2

    def test_budget_exhaustion(self):
        assign = np.array([0, 0, 1])
        c = np.zeros((3, 3))
        py = np.full(3, 1 / 3)
        with pytest.raises(
            SolverError, match="cluster 2 emptied and the rescue budget is spent"
        ):
            _rescue_dead(assign, c, py, 3, rescues_left=0)

    def test_all_singletons(self):
        assign = np.array([0, 1])
        c = np.zeros((2, 3))
        py = np.array([0.5, 0.5])
        with pytest.raises(
            SolverError, match="cluster 2 emptied and every other cluster is a singleton"
        ):
            _rescue_dead(assign, c, py, 3, rescues_left=5)


class TestSolve:
    def test_disconnected_blocks_attain_two(self):
        dtm = build_dtm(*two_block_joint())
        kernel, trace = solve_nuclear(dtm, 2, seed=0)
        assert trace.status == "Converged"
        assert trace.objectives[-1] == pytest.approx(2.0, abs=1e-9)
        pred = harden(kernel)
        truth = {"a": "L", "b": "L", "c": "R", "d": "R"}
        assert matched_accuracy(pred, truth) == 1.0

    def test_k_one_trivial(self, rng):
        dtm = build_dtm(*random_joint(rng, 5, 4))
        kernel, trace = solve_nuclear(dtm, 1, seed=0)
        np.testing.assert_array_equal(kernel.kernel, np.ones((1, 5)))
        assert trace.objectives[-1] == pytest.approx(1.0, abs=1e-10)

    def test_norm_never_decreases_on_clean_instance(self):
        joint, _ = gen_planted_blocks(3, 10, 1.0, 0.05, noise_seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, trace = solve_nuclear(build_dtm(*joint), 3, seed=0)
        diffs = np.diff(trace.objectives)
        assert np.all(diffs >= -1e-12)

    @pytest.mark.parametrize("caller", ["solve_nuclear", "elbow_curve"])
    def test_warning_attributed_to_caller(self, caller):
        # The 3-block input on which k = 4, seed 5 lowers the norm once. The
        # warning names the first frame outside the package, not the solver
        # or evaluation._restarts.
        joint, _ = gen_planted_blocks(3, 6, 1.0, 0.2, noise_seed=0)
        dtm = build_dtm(*joint)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if caller == "solve_nuclear":
                solve_nuclear(dtm, 4, seed=5)
            else:
                elbow_curve(dtm, [4], restarts=6)
        decreases = [
            w for w in caught if "nuclear norm decreased" in str(w.message)
        ]
        assert decreases
        assert {w.filename for w in decreases} == {__file__}

    def test_kernel_step_monotone_and_attainment(self):
        joint, _ = gen_planted_blocks(2, 12, 1.0, 0.1, noise_seed=5)
        _, trace = solve_nuclear(build_dtm(*joint), 2, seed=1)
        for before, after in zip(
            trace.extras["linear_before"], trace.extras["linear_after"]
        ):
            assert after >= before - 1e-12
        assert max(trace.extras["kyfan_gap"]) <= 1e-8

    def test_deterministic(self, rng):
        dtm = build_dtm(*random_joint(rng, 8, 6))
        k1, t1 = solve_nuclear(dtm, 3, seed=7)
        k2, t2 = solve_nuclear(dtm, 3, seed=7)
        assert np.array_equal(k1.kernel, k2.kernel)
        assert t1.objectives == t2.objectives

    def test_planted_blocks_recovered(self):
        joint, truth = gen_planted_blocks(3, 20, 1.0, 0.05, noise_seed=2)
        truth_map = dict(zip(joint[0], truth))
        dtm = build_dtm(*joint)
        best = None
        for seed in range(5):
            kernel, trace = solve_nuclear(dtm, 3, seed=seed)
            if best is None or trace.objectives[-1] > best[0]:
                best = (trace.objectives[-1], kernel)
        assert matched_accuracy(harden(best[1]), truth_map) >= 0.95

    def test_k_exceeds_items_rejected(self, rng):
        dtm = build_dtm(*random_joint(rng, 3, 4))
        with pytest.raises(ConfigError, match=r"k = 4 exceeds \|Y\| = 3"):
            solve_nuclear(dtm, 4)

    def test_every_cluster_alive(self, rng):
        # k = |Y| forces heavy churn; rescue must keep all clusters nonempty
        dtm = build_dtm(*random_joint(rng, 6, 5))
        try:
            kernel, _ = solve_nuclear(dtm, 6, seed=0)
        except SolverError:
            return  # budget exhaustion is a legal outcome
        mass = kernel.induced_marginal(dtm.row_pmf)
        assert np.all(mass > 0)

    def test_returned_kernel_is_the_last_traced(self, monkeypatch):
        # The returned kernel's norm is the last traced objective, bit for
        # bit, whether the run converged or stopped at MAX_ITERS.
        joint, _ = gen_planted_blocks(4, 12, 1.0, 0.2, noise_seed=0)
        dtm = build_dtm(*joint)
        statuses = set()
        for cap in (1, 2, 3):
            monkeypatch.setattr(nuclear, "MAX_ITERS", cap)
            for seed in range(10):
                kernel, trace = solve_nuclear(dtm, 4, seed=seed)
                statuses.add(trace.status)
                value = kernel_norm_value(dtm, kernel, "nuclear")
                assert value == trace.objectives[-1], (cap, seed)
        assert statuses == {"Converged", "MaxIters"}


def _chain_route(joint, k, seed):
    """solve_nuclear as it ran on the chain joint's own DTM at every step.

    Returns (assignment, objectives, tied): tied is True when some step's
    argmax had a runner-up within 1e-12 relative, so that rounding alone
    could pick either. Raises SolverError as the solver does.
    """
    py = build_dtm(*joint).row_pmf.probs
    ny = py.size
    rng = np.random.default_rng(seed)
    perm = rng.permutation(ny)
    assign = np.empty(ny, dtype=np.intp)
    assign[perm[:k]] = np.arange(k)
    if ny > k:
        assign[perm[k:]] = rng.integers(0, k, size=ny - k)
    objectives, tied, rescues_left = [], False, k
    for _ in range(nuclear.MAX_ITERS):
        traced = assign
        _, s, _, c = _chain_reference(joint, _one_hot(assign, k))
        objectives.append(float(np.sum(s)))
        top = np.sort(c, axis=1)
        scale = np.max(np.abs(c), axis=1)
        if k > 1:
            tied |= bool(np.any(top[:, -1] - top[:, -2] <= 1e-12 * scale))
        new_assign, rescues_left = _rescue_dead(
            np.argmax(c, axis=1), c, py, k, rescues_left
        )
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return traced, objectives, tied


def _scenario_joints():
    for blocks, size, cross in ((8, 25, 0.05), (3, 20, 0.05), (4, 12, 0.2)):
        joint, _ = gen_planted_blocks(blocks, size, 1.0, cross, noise_seed=3)
        yield f"planted {blocks}x{size}", joint, (blocks,)
    weights = gen_counterexample(20, 20, 2.0)
    yield "counterexample", normalized_joint(
        [f"y{i}" for i in range(40)], [f"x{j}" for j in range(40)], weights
    ), (2,)
    rng = np.random.default_rng(11)
    yield "random 6x5", random_joint(rng, 6, 5), (2, 3, 6)
    yield "random 9x4", random_joint(rng, 9, 4), (2, 4, 9)
    # Three disconnected blocks: with k = 4 two clusters share one block and
    # tie on every item in it.
    weights = np.zeros((6, 6))
    weights[0, 0] = 1.0
    weights[1:3, 1:3] = 1.0
    weights[3:, 3:] = 1.0
    yield "three blocks", normalized_joint(
        [f"y{i}" for i in range(6)], [f"x{j}" for j in range(6)], weights
    ), (2, 3, 4)


def test_matches_the_chain_route():
    # One SVD of A B per step gives the chain route's objectives to 1e-12
    # relative, and its assignments wherever no step had a near-tie.
    counts = {"tied": 0, "untied": 0}
    warnings.simplefilter("ignore", RuntimeWarning)  # pytest restores filters
    for name, joint, ks in _scenario_joints():
        dtm = build_dtm(*joint)
        for k in ks:
            for seed in range(5):
                where = (name, k, seed)
                try:
                    ref_assign, ref_objs, tied = _chain_route(joint, k, seed)
                except SolverError:
                    ref_assign, tied = None, True
                counts["tied" if tied else "untied"] += 1
                try:
                    kernel, trace = solve_nuclear(
                        dtm, k, seed=seed
                    )
                except SolverError:
                    assert tied, where
                    continue
                if ref_assign is None:
                    continue
                assert trace.objectives[-1] == pytest.approx(
                    ref_objs[-1], rel=1e-12
                ), where
                if tied:
                    continue
                np.testing.assert_array_equal(
                    np.argmax(kernel.kernel, axis=0), ref_assign, err_msg=str(where)
                )
                np.testing.assert_allclose(
                    trace.objectives, ref_objs, rtol=1e-12, err_msg=str(where)
                )
    assert counts["tied"] >= 1 and counts["untied"] >= 55
