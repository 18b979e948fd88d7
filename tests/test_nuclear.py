import warnings

import numpy as np
import pytest

from coupclust.core import JointPmf, build_dtm, nuclear
from coupclust.data_io import gen_planted_blocks
from coupclust.errors import DegenerateCluster, InvalidParams
from coupclust.evaluation import (
    elbow_curve,
    harden,
    kernel_norm_value,
    matched_accuracy,
)
from coupclust.nuclear import (
    KyFanFeatures,
    NuclearConfig,
    _coefficients,
    _one_hot,
    _rescue_dead,
    kyfan_features,
    solve_nuclear,
)

from conftest import random_joint


def two_block_joint():
    w = np.zeros((4, 4))
    w[:2, :2] = 1.0
    w[2:, 2:] = 1.0
    return JointPmf.from_weights(
        ("a", "b", "c", "d"), ("u", "v", "w", "x"), w
    )


class TestConfig:
    def test_k_one_allowed(self):
        NuclearConfig(k=1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"k": 2, "max_iters": 0},
            {"k": 2, "seed": -1},
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(InvalidParams):
            NuclearConfig(**kwargs)


class TestKyFan:
    def test_whitening_and_attainment(self, rng):
        for _ in range(10):
            joint = random_joint(rng, 5, 6)
            b = build_dtm(joint)
            feats = kyfan_features(b, joint.marginal_y, joint.marginal_x)
            eye = np.eye(feats.r)
            fwf = feats.f.T @ (feats.p_z[:, None] * feats.f)
            gwg = feats.g.T @ (feats.p_x[:, None] * feats.g)
            assert np.max(np.abs(fwf - eye)) <= 1e-8
            assert np.max(np.abs(gwg - eye)) <= 1e-8
            attained = float(np.trace(feats.f.T @ joint.weights @ feats.g))
            assert abs(attained - nuclear(b)) <= 1e-8

    def test_rank_is_min_dimension(self, rng):
        joint = random_joint(rng, 3, 7)
        feats = kyfan_features(
            build_dtm(joint), joint.marginal_y, joint.marginal_x
        )
        assert feats.r == 3

    def test_bad_whitening_rejected(self):
        with pytest.raises(InvalidParams):
            KyFanFeatures(
                f=np.ones((2, 2)),
                g=np.eye(2),
                r=2,
                p_z=np.array([0.5, 0.5]),
                p_x=np.array([0.5, 0.5]),
            )


def _linear_step(feats, joint):
    # The kernel update solve_nuclear runs before its dead-cluster rescue.
    c = _coefficients(feats.f, feats.g, joint)
    return _one_hot(np.argmax(c, axis=1), feats.f.shape[0])


class TestLinearStep:
    def test_one_hot_at_argmax(self, rng):
        joint = random_joint(rng, 6, 5)
        b = build_dtm(joint)
        feats = kyfan_features(b, joint.marginal_y, joint.marginal_x)
        k = _linear_step(feats, joint)
        assert np.all((k == 0.0) | (k == 1.0))
        np.testing.assert_allclose(k.sum(axis=0), 1.0)
        # vertex optimality, column by column
        c = (joint.weights @ feats.g) @ feats.f.T
        for y in range(6):
            assert np.argmax(k[:, y]) == np.argmax(c[y])

    def test_beats_random_kernels(self, rng):
        # The linear objective tr(F^T P_{Z|Y} P_{Y,X} G), formed directly.
        joint = random_joint(rng, 6, 5)
        feats = kyfan_features(
            build_dtm(joint), joint.marginal_y, joint.marginal_x
        )

        def linear(k):
            return float(np.trace(feats.f.T @ k @ joint.weights @ feats.g))

        val = linear(_linear_step(feats, joint))
        for _ in range(200):
            k = rng.random((feats.f.shape[0], 6))
            k /= k.sum(axis=0)
            assert linear(k) <= val + 1e-12

    def test_lp_oracle_per_column(self, rng):
        # independent route: each column solves a tiny simplex LP
        from scipy.optimize import linprog

        joint = random_joint(rng, 5, 4)
        feats = kyfan_features(
            build_dtm(joint), joint.marginal_y, joint.marginal_x
        )
        c = (joint.weights @ feats.g) @ feats.f.T
        kernel = _linear_step(feats, joint)
        nz = kernel.shape[0]
        for y in range(5):
            res = linprog(
                -c[y], A_eq=np.ones((1, nz)), b_eq=[1.0], bounds=(0, None),
                method="highs",
            )
            assert res.success
            got = float(c[y] @ kernel[:, y])
            assert abs(got - (-res.fun)) <= 1e-9


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
        with pytest.raises(DegenerateCluster):
            _rescue_dead(assign, c, py, 3, rescues_left=0)

    def test_all_singletons(self):
        assign = np.array([0, 1])
        c = np.zeros((2, 3))
        py = np.array([0.5, 0.5])
        with pytest.raises(DegenerateCluster):
            _rescue_dead(assign, c, py, 3, rescues_left=5)


class TestSolve:
    def test_disconnected_blocks_attain_two(self):
        joint = two_block_joint()
        kernel, trace = solve_nuclear(joint, NuclearConfig(k=2, seed=0))
        assert trace.status == "Converged"
        assert trace.objectives[-1] == pytest.approx(2.0, abs=1e-9)
        pred = harden(kernel)
        truth = {"a": "L", "b": "L", "c": "R", "d": "R"}
        assert matched_accuracy(pred, truth) == 1.0

    def test_k_one_trivial(self, rng):
        joint = random_joint(rng, 5, 4)
        kernel, trace = solve_nuclear(joint, NuclearConfig(k=1, seed=0))
        np.testing.assert_array_equal(kernel.kernel, np.ones((1, 5)))
        assert trace.objectives[-1] == pytest.approx(1.0, abs=1e-10)

    def test_norm_never_decreases_on_clean_instance(self):
        joint, _ = gen_planted_blocks(3, 10, 1.0, 0.05, noise_seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, trace = solve_nuclear(joint, NuclearConfig(k=3, seed=0))
        diffs = np.diff(trace.objectives)
        assert np.all(diffs >= -1e-12)

    @pytest.mark.parametrize("caller", ["solve_nuclear", "elbow_curve"])
    def test_warning_attributed_to_caller(self, caller):
        # The 3-block input on which k = 4, seed 5 lowers the norm once. The
        # warning names the first frame outside the package, not the solver
        # or evaluation._solve.
        joint, _ = gen_planted_blocks(3, 6, 1.0, 0.2, noise_seed=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if caller == "solve_nuclear":
                solve_nuclear(joint, NuclearConfig(k=4, seed=5))
            else:
                elbow_curve(joint, [4], restarts=6)
        decreases = [
            w for w in caught if "nuclear norm decreased" in str(w.message)
        ]
        assert decreases
        assert {w.filename for w in decreases} == {__file__}

    def test_kernel_step_monotone_and_attainment(self):
        joint, _ = gen_planted_blocks(2, 12, 1.0, 0.1, noise_seed=5)
        _, trace = solve_nuclear(joint, NuclearConfig(k=2, seed=1))
        for before, after in zip(
            trace.extras["linear_before"], trace.extras["linear_after"]
        ):
            assert after >= before - 1e-12
        assert max(trace.extras["kyfan_gap"]) <= 1e-8

    def test_deterministic(self, rng):
        joint = random_joint(rng, 8, 6)
        k1, t1 = solve_nuclear(joint, NuclearConfig(k=3, seed=7))
        k2, t2 = solve_nuclear(joint, NuclearConfig(k=3, seed=7))
        assert np.array_equal(k1.kernel, k2.kernel)
        assert t1.objectives == t2.objectives

    def test_planted_blocks_recovered(self):
        joint, truth = gen_planted_blocks(3, 20, 1.0, 0.05, noise_seed=2)
        truth_map = dict(zip(joint.row_labels, truth))
        best = None
        for seed in range(5):
            kernel, trace = solve_nuclear(joint, NuclearConfig(k=3, seed=seed))
            if best is None or trace.objectives[-1] > best[0]:
                best = (trace.objectives[-1], kernel)
        assert matched_accuracy(harden(best[1]), truth_map) >= 0.95

    def test_k_exceeds_items_rejected(self, rng):
        joint = random_joint(rng, 3, 4)
        with pytest.raises(InvalidParams):
            solve_nuclear(joint, NuclearConfig(k=4))

    def test_every_cluster_alive(self, rng):
        # k = |Y| forces heavy churn; rescue must keep all clusters nonempty
        joint = random_joint(rng, 6, 5)
        try:
            kernel, _ = solve_nuclear(joint, NuclearConfig(k=6, seed=0))
        except DegenerateCluster:
            return  # budget exhaustion is a legal outcome
        mass = kernel.induced_marginal(joint.marginal_y)
        assert np.all(mass > 0)

    def test_returned_kernel_is_the_last_traced(self):
        # The returned kernel's norm is the last traced objective, bit for
        # bit, whether the run converged or stopped at max_iters.
        joint, _ = gen_planted_blocks(4, 12, 1.0, 0.2, noise_seed=0)
        statuses = set()
        for max_iters in (1, 2, 3):
            for seed in range(10):
                kernel, trace = solve_nuclear(
                    joint, NuclearConfig(k=4, max_iters=max_iters, seed=seed)
                )
                statuses.add(trace.status)
                value = kernel_norm_value(joint, kernel, "nuclear")
                assert value == trace.objectives[-1], (max_iters, seed)
        assert statuses == {"Converged", "MaxIters"}
