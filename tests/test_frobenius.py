import tracemalloc
import warnings

import numpy as np
import pytest

from coupclust import frobenius
from coupclust.core import CouplingKernel, Dtm, Pmf, build_dtm
from coupclust.data_io import gen_planted_blocks
from coupclust.errors import ConfigError, DataError, SolverError
from coupclust.evaluation import harden, matched_accuracy
from coupclust.frobenius import (
    _curvature,
    _half_gradient,
    solve_frobenius,
)
from coupclust.simplex import project_columns

from conftest import normalized_joint, random_joint, random_pmf, zipf_joint
from paper_identities import (
    compose_dtm,
    dtm_from_kernel,
    frobenius_objective,
    gen_counterexample,
)


def _two_by_two():
    dtm = build_dtm(("a", "b"), ("u", "v"), np.array([[0.4, 0.1], [0.2, 0.3]]))
    return dtm, Pmf.uniform(("z0", "z1"))


class TestConfig:
    def test_defaults(self):
        assert frobenius.LAMBDA == 10.0
        assert frobenius.OBJ_TOL == 1e-9
        assert frobenius.MAX_ITERS == 5000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": 0.0},
            {"lam": -1.0},
            {"lam": -float("inf")},
            # Explicit ids keep each case's name from when the list also
            # held obj_tol cases (ids kwargs3-5, 8 and 9).
            pytest.param({"lam": float("inf")}, id="kwargs6"),
            pytest.param({"lam": float("nan")}, id="kwargs7"),
            pytest.param({"seed": -1}, id="kwargs10"),
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        message = {
            "lam": "lam must be finite and positive",
            "seed": "seed must be >= 0, got -1",
        }[next(iter(kwargs))]
        with pytest.raises(ConfigError, match=message):
            solve_frobenius(*_two_by_two(), **kwargs)


# (|Y|, |X|) of the joints the objective and gradient are checked on.
JOINT_SHAPES = {"square": (8, 8), "tall": (8, 6), "wide": (8, 12)}


class TestObjectiveAndGradient:
    @pytest.mark.parametrize("shape", JOINT_SHAPES.values(), ids=JOINT_SHAPES)
    def test_gradient_matches_central_differences(self, rng, shape):
        dtm = build_dtm(*random_joint(rng, *shape))
        p_z = random_pmf(rng, 3)
        b = dtm.matrix
        sy, sz = dtm.row_pmf.sqrt_probs, p_z.sqrt_probs
        args = (b, sy, sz, 10.0)
        h = 1e-6
        worst = 0.0
        for _ in range(20):
            a = rng.normal(size=(3, 8))
            g = 2.0 * _half_gradient(a @ b @ b.T, a @ sy - sz, sy, 10.0)
            i = int(rng.integers(0, 3))
            j = int(rng.integers(0, 8))
            ap = a.copy()
            ap[i, j] += h
            am = a.copy()
            am[i, j] -= h
            fd = (frobenius_objective(ap, *args)[0] - frobenius_objective(am, *args)[0])
            fd /= 2 * h
            worst = max(worst, abs(fd - g[i, j]) / max(1.0, abs(fd)))
        assert worst <= 1e-5

    @pytest.mark.parametrize("shape", JOINT_SHAPES.values(), ids=JOINT_SHAPES)
    def test_objective_is_composed_dtm_norm(self, rng, shape):
        # For a kernel whose induced marginal is P_Z, ||A B||_F^2 is the
        # squared Frobenius norm of the composed DTM B_{Z,X} = B_{Z,Y} B_{Y,X}.
        b_yx = build_dtm(*random_joint(rng, *shape))
        p_y = b_yx.row_pmf
        kmat = rng.random((3, shape[0])) + 0.05
        kmat /= kmat.sum(axis=0)
        p_z = Pmf(("z0", "z1", "z2"), kmat @ p_y.probs)
        kernel = CouplingKernel(p_z.labels, p_y.labels, kmat)
        b_zy = dtm_from_kernel(kernel, p_y, p_z)
        obj, pen = frobenius_objective(
            b_zy.matrix, b_yx.matrix, p_y.sqrt_probs, p_z.sqrt_probs, 10.0
        )
        assert pen == pytest.approx(0.0, abs=1e-12)
        expected = float(np.sum(compose_dtm(b_zy, b_yx).matrix ** 2)) - pen
        assert obj == pytest.approx(expected, rel=1e-12)

    def test_objective_at_perfect_match(self, rng):
        # A whose kernel is a hard partition with exact marginal match:
        # penalty term is 0
        dtm = build_dtm(*random_joint(rng, 4, 4))
        p_y = dtm.row_pmf
        kmat = np.array(
            [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]]
        )
        pz_vec = kmat @ p_y.probs
        p_z = Pmf(("z0", "z1"), pz_vec / pz_vec.sum())
        sy, sz = p_y.sqrt_probs, p_z.sqrt_probs
        a = sz[:, None] ** -1 * kmat * sy[None, :]
        obj, pen = frobenius_objective(a, dtm.matrix, sy, sz, 10.0)
        assert pen == pytest.approx(0.0, abs=1e-12)


class TestProjection:
    """The solver's projection: each column v of A onto {a >= 0, w^T a = c}."""

    def test_hand_columns(self):
        # Column 0: a = -tau w with 5 (-tau) = 2, so tau = -0.4. Column 1:
        # only the first breakpoint (3 against 0) stays above tau = 1. Column
        # 2 is feasible already. Column 3 (total 4): both kept, tau = -0.2.
        mat = np.array([[0.0, 3.0, 0.4, 3.0], [0.0, 0.0, 0.8, 0.0]])
        got = project_columns(mat, [1.0, 2.0], [2.0, 2.0, 2.0, 4.0])
        want = [[0.4, 2.0, 0.4, 3.2], [0.8, 0.0, 0.8, 0.4]]
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_output_feasible(self, rng):
        # Random columns and random positive weights w = sqrt(P_Z), totals
        # sqrt(P_Y): the output is feasible and meets the KKT conditions,
        # a = max(0, v - tau w) with one tau per column.
        for _ in range(50):
            nz, ny = int(rng.integers(1, 9)), int(rng.integers(1, 12))
            sz = random_pmf(rng, nz).sqrt_probs
            sy = random_pmf(rng, ny, prefix="y").sqrt_probs
            v = rng.normal(size=(nz, ny)) * float(rng.choice([0.1, 1.0, 10.0]))
            a = project_columns(v, sz, sy)
            assert np.max(np.abs(sz @ a - sy)) <= 1e-12
            assert np.min(a) >= 0.0
            kept = a > 0.0
            tau = ((sz[:, None] * v * kept).sum(axis=0) - sy) / (
                (sz[:, None] ** 2 * kept).sum(axis=0)
            )
            want = np.maximum(0.0, v - tau * sz[:, None])
            assert np.max(np.abs(a - want)) <= 1e-12 * max(1.0, np.max(np.abs(v)))

    def test_overflowing_breakpoints_rejected(self):
        # v / w overflows although the column sum is finite.
        with pytest.raises(ValueError, match="largest breakpoint"):
            project_columns(np.array([[1e300], [0.0]]), [1e-10, 1.0], 1.0)

    @pytest.mark.parametrize(
        "weights, totals",
        [([1.0], 1.0), ([1.0, 0.0], 1.0), ([1.0, np.nan], 1.0),
         ([1.0, 1.0], 0.0), ([1.0, 1.0], [1.0, 1.0]), ([1.0, 1.0], np.inf)],
        ids=["short", "zero", "nan", "zero-total", "totals-shape", "inf-total"],
    )
    def test_bad_weights_or_totals_rejected(self, weights, totals):
        with pytest.raises(ValueError):
            project_columns(np.zeros((2, 3)), weights, totals)


class TestSolve:
    def test_improves_from_init_many_seeds(self, rng, monkeypatch):
        dtm = build_dtm(*random_joint(rng, 8, 6))
        p_z = Pmf.uniform(("z0", "z1", "z2"))
        monkeypatch.setattr(frobenius, "MAX_ITERS", 400)
        for seed in range(20):
            kernel, trace = solve_frobenius(dtm, p_z, seed=seed)
            assert trace.objectives[-1] >= trace.objectives[0] - 1e-9

    def test_deterministic(self, rng):
        dtm = build_dtm(*random_joint(rng, 7, 5))
        p_z = Pmf.uniform(("z0", "z1"))
        k1, t1 = solve_frobenius(dtm, p_z, seed=3)
        k2, t2 = solve_frobenius(dtm, p_z, seed=3)
        assert np.array_equal(k1.kernel, k2.kernel)
        assert t1.objectives == t2.objectives

    def test_final_kernel_is_stochastic(self, rng):
        dtm = build_dtm(*random_joint(rng, 9, 7))
        p_z = random_pmf(rng, 4)
        kernel, trace = solve_frobenius(dtm, p_z)
        col_err = np.max(np.abs(kernel.kernel.sum(axis=0) - 1.0))
        assert col_err <= 1e-9
        assert kernel.kernel.min() >= 0.0
        assert trace.violations[-1] <= 1e-9

    def test_large_lambda_enforces_marginal(self, rng):
        dtm = build_dtm(*random_joint(rng, 8, 6))
        p_z = random_pmf(rng, 3)
        kernel, _ = solve_frobenius(dtm, p_z, lam=1e4)
        induced = kernel.induced_marginal(dtm.row_pmf)
        assert np.abs(induced - p_z.probs).sum() <= 1e-2

    def test_planted_blocks_recovered(self):
        joint, truth = gen_planted_blocks(2, 15, 1.0, 0.05, noise_seed=3)
        dtm = build_dtm(*joint)
        p_z = Pmf.uniform(("z0", "z1"))
        best = None
        for seed in range(5):
            kernel, trace = solve_frobenius(dtm, p_z, seed=seed)
            if best is None or trace.objectives[-1] > best[0]:
                best = (trace.objectives[-1], kernel)
        acc = matched_accuracy(harden(best[1]), dict(zip(joint[0], truth)))
        assert acc >= 0.95

    @staticmethod
    def _scale_gradient(monkeypatch, factor):
        half_gradient = frobenius._half_gradient
        monkeypatch.setattr(
            frobenius, "_half_gradient", lambda *a: half_gradient(*a) * factor
        )

    def test_nonfinite_on_huge_step(self, rng, monkeypatch):
        # A gradient 1e308 times too large: the first update stays finite and
        # projects onto a vertex kernel, the second overflows before any
        # projection can pull the iterate back.
        dtm = build_dtm(*random_joint(rng, 6, 5))
        p_z = Pmf.uniform(("z0", "z1"))
        self._scale_gradient(monkeypatch, 1e308)
        monkeypatch.setattr(frobenius, "MAX_ITERS", 5)
        with pytest.raises(SolverError, match=r"iterate diverged at iteration 2 \(step "):
            solve_frobenius(dtm, p_z)

    def test_nonfinite_on_projection_overflow(self, rng, monkeypatch):
        # A cluster of mass 1e-6 has weight sqrt(P_Z) = 1e-3. With a gradient
        # 1e304 times too large the second update stays finite, but a
        # column's breakpoints v / sqrt(P_Z) overflow, so the projection
        # cannot map it.
        dtm = build_dtm(*random_joint(rng, 6, 5))
        p_z = Pmf(("z0", "z1"), np.array([1.0 - 1e-6, 1e-6]))
        self._scale_gradient(monkeypatch, 1e304)
        monkeypatch.setattr(frobenius, "MAX_ITERS", 5)
        with pytest.raises(
            SolverError, match=r"projection overflowed at iteration 2 \(step "
        ):
            solve_frobenius(dtm, p_z)

    def test_huge_lambda_takes_the_closed_form_step(self, rng):
        # sigma_1 = lam - 1 is finite for every finite lam, so lam = 1e300 is
        # no error: the step 1/(lam - 1) matches the target marginal, and the
        # run ends on a finite objective and a column-stochastic kernel. The
        # step leaves A G below the rounding of A, which the solver warns of.
        dtm = build_dtm(*random_joint(rng, 6, 5))
        p_z = Pmf.uniform(("z0", "z1"))
        assert _curvature(dtm, 1e300) == 1e300
        with pytest.warns(RuntimeWarning, match="above 1/eps") as caught:
            kernel, trace = solve_frobenius(dtm, p_z, lam=1e300)
        assert len(caught) == 1
        assert trace.status == "Converged"
        assert np.isfinite(trace.objectives[-1])
        np.testing.assert_allclose(kernel.kernel.sum(axis=0), 1.0, atol=1e-12)

    def test_large_finite_lambda_draws_no_warning(self, rng):
        dtm = build_dtm(*random_joint(rng, 6, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve_frobenius(dtm, Pmf.uniform(("z0", "z1")), lam=1e3)

    def test_boundary_pz_rejected(self, rng):
        dtm = build_dtm(*random_joint(rng, 4, 4))
        p_z = Pmf(("z0", "z1"), np.array([1.0, 0.0]))
        with pytest.raises(DataError, match="target P_Z must be strictly interior"):
            solve_frobenius(dtm, p_z)

    def test_more_clusters_than_items_rejected(self, rng):
        dtm = build_dtm(*random_joint(rng, 3, 4))
        p_z = Pmf.uniform(("z0", "z1", "z2", "z3"))
        with pytest.raises(ConfigError, match=r"\|Z\| = 4 exceeds \|Y\| = 3"):
            solve_frobenius(dtm, p_z)

    def test_small_step_iterates_all_projected(self, monkeypatch):
        # A step far below 1/L moves the kernel only a little per iteration;
        # every recorded row must still describe a column-stochastic kernel.
        # A thousand times the curvature gives the step 1e-3 / L.
        dtm, p_z, lam = _planted(3, 20)
        curvature = frobenius._curvature
        monkeypatch.setattr(frobenius, "_curvature", lambda *a: 1e3 * curvature(*a))
        monkeypatch.setattr(frobenius, "MAX_ITERS", 200)
        _, trace = solve_frobenius(dtm, p_z, lam=lam)
        assert len(trace) == 200
        assert max(trace.violations) <= 1e-12

    def test_trace_shape(self, rng, monkeypatch):
        dtm = build_dtm(*random_joint(rng, 5, 5))
        p_z = Pmf.uniform(("z0", "z1"))
        monkeypatch.setattr(frobenius, "MAX_ITERS", 50)
        _, trace = solve_frobenius(dtm, p_z)
        n = len(trace)
        assert n <= 50
        assert len(trace.penalties) == n
        assert len(trace.violations) == n
        assert trace.status in ("Converged", "MaxIters")

    @staticmethod
    def _solve_peak(ny, nx, monkeypatch):
        dtm = build_dtm(*random_joint(np.random.default_rng(1), ny, nx))
        p_z = Pmf.uniform(("z0", "z1", "z2"))
        monkeypatch.setattr(frobenius, "MAX_ITERS", 5)
        tracemalloc.start()
        try:
            solve_frobenius(dtm, p_z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_memory_has_no_items_by_items_matrix(self, monkeypatch):
        # One 3000 x 3000 float64 matrix is 72 MB; a tall B applies B B^T as
        # two products with the 3000 x 20 B, on k x 3000 iterates only.
        assert self._solve_peak(3000, 20, monkeypatch) < 72e6 / 8

    def test_memory_wide_has_no_contexts_by_contexts_matrix(self, monkeypatch):
        # A wide B forms the 20 x 20 B B^T, never the 3000 x 3000 B^T B.
        assert self._solve_peak(20, 3000, monkeypatch) < 72e6 / 8


def _uniform_pz(k):
    return Pmf.uniform(tuple(f"z{i}" for i in range(k)))


def _planted(blocks, size):
    joint, _ = gen_planted_blocks(blocks, size, 1.0, 0.05, noise_seed=3)
    return build_dtm(*joint), _uniform_pz(blocks), 10.0


def _counterexample(s):
    w = gen_counterexample(50, 50, s)
    labels = [f"y{i}" for i in range(100)], [f"x{j}" for j in range(100)]
    return build_dtm(*normalized_joint(*labels, w)), _uniform_pz(2), 10.0


def _random_skewed(seed, lam):
    joint = random_joint(np.random.default_rng(seed), 9, 7)
    p_z = Pmf(("z0", "z1", "z2", "z3"), np.array([0.55, 0.25, 0.15, 0.05]))
    return build_dtm(*joint), p_z, lam


# Fixed scenario set on which the default step is checked against the old
# 0.05 / sigma_1 rule.
STEP_RULE_SCENARIOS = {
    "planted-2x15": lambda: _planted(2, 15),
    "planted-3x20": lambda: _planted(3, 20),
    "counterexample-s1.5": lambda: _counterexample(1.5),
    "counterexample-s5": lambda: _counterexample(5.0),
    "random-lam0.5": lambda: _random_skewed(0, 0.5),
    "random-lam10": lambda: _random_skewed(1, 10.0),
}


class TestCurvature:
    # sqrt(P_Y) is an eigenvector of B B^T with eigenvalue 1, so sigma_1 of
    # B B^T - lam sqrt(P_Y) sqrt(P_Y)^T is max(|1 - lam|, sigma_2(B)^2).
    @pytest.mark.parametrize("shape", [(7, 5), (5, 9), (1, 4), (6, 1)])
    @pytest.mark.parametrize("lam", [0.01, 0.9, 1.0, 1.5, 1.99, 2.0, 10.0, 1e6])
    def test_closed_form_matches_eigvalsh(self, shape, lam, monkeypatch):
        dtm = build_dtm(*random_joint(np.random.default_rng(sum(shape)), *shape))
        sy, b = dtm.row_pmf.sqrt_probs, dtm.matrix
        ref = np.max(np.abs(np.linalg.eigvalsh(b @ b.T - lam * np.outer(sy, sy))))
        if lam >= 2.0:
            # lam - 1 bounds every other eigenvalue: no spectrum is taken.
            def no_spectrum(*args):
                raise AssertionError("spectrum taken")

            monkeypatch.setattr(Dtm, "top", no_spectrum)
        assert _curvature(dtm, lam) == pytest.approx(ref, rel=1e-13, abs=1e-15)

    def test_zipf_sigma_2_needs_no_full_eigensolve(self, monkeypatch):
        # On a Zipf-shaped joint, lam = 1.5 reads sigma_2 from Dtm.top(2) by
        # block Krylov: no 400 x 400 eigh, and LAPACK's value within 1e-12.
        dtm = build_dtm(*zipf_joint(0, 400, draws=100_000))
        sigma = np.linalg.svd(dtm.matrix, compute_uv=False)
        sizes = []
        eigh = np.linalg.eigh

        def recording(a, *args, **kwargs):
            sizes.append(a.shape[0])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        got = _curvature(dtm, 1.5)
        assert sizes and max(sizes) < 400
        assert abs(got - max(0.5, float(sigma[1]) ** 2)) <= 1e-12


class TestStepRule:
    @staticmethod
    def _best_of_3(dtm, p_z, lam):
        best, iters = -np.inf, 0
        for seed in range(3):
            _, trace = solve_frobenius(dtm, p_z, lam=lam, seed=seed)
            best = max(best, trace.objectives[-1])
            iters += len(trace)
        return best, iters

    @pytest.mark.parametrize(
        "make", STEP_RULE_SCENARIOS.values(), ids=STEP_RULE_SCENARIOS
    )
    def test_default_step_no_worse_and_faster_than_small_step(
        self, make, monkeypatch
    ):
        # The 1/L step must reach at least the objective of the twenty times
        # smaller step, 0.05 / L, in fewer iterations. The solver takes the
        # smaller step when the curvature it estimates is twenty times larger.
        dtm, p_z, lam = make()
        obj, iters = self._best_of_3(dtm, p_z, lam)
        curvature = frobenius._curvature
        monkeypatch.setattr(frobenius, "_curvature", lambda *a: 20.0 * curvature(*a))
        obj_small, iters_small = self._best_of_3(dtm, p_z, lam)
        assert obj >= obj_small - 1e-9 * abs(obj_small)
        assert iters < iters_small


# Best-of-3 objective and total iterations of each STEP_RULE_SCENARIOS entry
# (seeds 0-2, default step) under the plain projected-gradient loop, before
# the momentum step.
PLAIN_STEP_RESULTS = {
    "planted-2x15": (1.8072627934074947, 147),
    "planted-3x20": (2.4938554344401003, 209),
    "counterexample-s1.5": (1.0399999999999991, 3330),
    "counterexample-s5": (1.4444444444444438, 333),
    "random-lam0.5": (1.4090909090909083, 43),
    "random-lam10": (0.9769865498616409, 6362),
}


class TestMomentum:
    @pytest.mark.parametrize("name", STEP_RULE_SCENARIOS)
    def test_no_worse_and_fewer_iterations_than_plain_step(self, name):
        dtm, p_z, lam = STEP_RULE_SCENARIOS[name]()
        obj, iters = TestStepRule._best_of_3(dtm, p_z, lam)
        plain_obj, plain_iters = PLAIN_STEP_RESULTS[name]
        assert obj >= plain_obj - 1e-9 * abs(plain_obj)
        assert iters < plain_iters

    def test_converges_on_skewed_joint(self):
        # The plain step ended every one of these restarts at MAX_ITERS
        # (5000 iterations), with a best objective of 3.3347174430083455.
        dtm = build_dtm(*zipf_joint(0))
        p_z = _uniform_pz(8)
        best = -np.inf
        for seed in range(3):
            _, trace = solve_frobenius(dtm, p_z, seed=seed)
            assert trace.status == "Converged", seed
            best = max(best, trace.objectives[-1])
        assert best >= 3.3347174430083455

    def test_skewed_target_reaches_the_vertex(self):
        # With lam = 0.5 the optimum puts all mass in the P_Z = 0.05 cluster:
        # ||A B||^2 = 1/0.05 = 20 and the penalty is 0.5 (20 - 1), so
        # J = 10.5. A projection in another metric than the step's stops at
        # 1.409091 beside it.
        dtm, p_z, lam = STEP_RULE_SCENARIOS["random-lam0.5"]()
        for seed in range(3):
            _, trace = solve_frobenius(dtm, p_z, lam=lam, seed=seed)
            assert trace.objectives[-1] == pytest.approx(10.5, rel=0.0, abs=1e-9), seed

    @pytest.mark.parametrize("name", ["random-lam0.5", "random-lam10"])
    def test_traced_objective_never_decreases(self, name):
        # Discarded momentum steps are not traced, so a drop would come from
        # an accepted plain step; projected gradient ascent with the 1/L step
        # and a projection in the same metric never takes one. These targets
        # are not uniform, where the metric matters.
        dtm, p_z, lam = STEP_RULE_SCENARIOS[name]()
        for seed in range(5):
            _, trace = solve_frobenius(dtm, p_z, lam=lam, seed=seed)
            assert np.all(np.diff(trace.objectives) >= -1e-12), seed

    @pytest.mark.parametrize(
        "name, discards", [("planted-3x20", False), ("random-lam10", True)]
    )
    def test_returned_kernel_is_the_last_traced(self, name, discards, monkeypatch):
        # MAX_ITERS counts gradient steps, discarded ones included, and the
        # trace records accepted steps only. Whatever step a run stops on,
        # the returned kernel's objective is the last traced one. The kernel
        # is formed from the solver's A, so A rebuilt from it may differ in
        # the last bit; a discarded step differs far more than 1e-12. On the
        # random joint some runs stop right after a discarded step; planted
        # runs discard none in their first 20 steps.
        dtm, p_z, lam = STEP_RULE_SCENARIOS[name]()
        sy, sz = dtm.row_pmf.sqrt_probs, p_z.sqrt_probs
        ended_on_discard = 0
        for seed in range(5):
            prev_len = 0
            for cap in range(1, 21):
                monkeypatch.setattr(frobenius, "MAX_ITERS", cap)
                kernel, trace = solve_frobenius(dtm, p_z, lam=lam, seed=seed)
                a = kernel.kernel * sy[None, :] / sz[:, None]
                obj = frobenius_objective(a, dtm.matrix, sy, sz, lam)[0]
                assert obj == pytest.approx(trace.objectives[-1], rel=1e-12, abs=0.0), (
                    cap, seed,
                )
                if trace.status == "MaxIters" and len(trace) == prev_len:
                    ended_on_discard += 1
                prev_len = len(trace)
        assert (ended_on_discard > 0) == discards


class TestFixedPointStop:
    # The loop ends once two accepted steps in a row leave A unchanged.
    # With frobenius._unchanged always False only the objective window can
    # end it.
    @staticmethod
    def _stopped_and_window_only(dtm, p_z, lam, seed, monkeypatch):
        stopped = solve_frobenius(dtm, p_z, lam=lam, seed=seed)
        with monkeypatch.context() as m:
            m.setattr(frobenius, "_unchanged", lambda a_new, a: False)
            window = solve_frobenius(dtm, p_z, lam=lam, seed=seed)
        return stopped, window

    @pytest.mark.parametrize(
        "make",
        [STEP_RULE_SCENARIOS["planted-2x15"], STEP_RULE_SCENARIOS["planted-3x20"],
         lambda: _planted(8, 10)],
        ids=["planted-2x15", "planted-3x20", "planted-8x10"],
    )
    def test_planted_stop_skips_only_the_window_tail(self, make, monkeypatch):
        # A planted optimum is a vertex: the iterate lands on it exactly, and
        # the window needs 8 more unchanged rows to close on the same A.
        dtm, p_z, lam = make()
        for seed in range(3):
            (kernel, trace), (kernel_w, trace_w) = self._stopped_and_window_only(
                dtm, p_z, lam, seed, monkeypatch
            )
            assert trace.status == trace_w.status == "Converged", seed
            assert kernel.kernel.tobytes() == kernel_w.kernel.tobytes(), seed
            assert trace.objectives[-1] == trace_w.objectives[-1], seed
            assert len(trace) == len(trace_w) - 8, seed
            n = len(trace)
            for got, want in [
                (trace.objectives, trace_w.objectives),
                (trace.penalties, trace_w.penalties),
                (trace.violations, trace_w.violations),
            ]:
                np.testing.assert_allclose(got, want[:n], rtol=1e-12, atol=0.0)
            assert trace.objectives[-3] == trace.objectives[-2] == trace.objectives[-1]

    def test_soft_optimum_gives_the_window_result(self, monkeypatch):
        # Zipf rows leave soft items at the optimum, where A keeps moving in
        # its last bits; whichever rule ends the run, the result is the same.
        dtm = build_dtm(*zipf_joint(0))
        (kernel, trace), (kernel_w, trace_w) = self._stopped_and_window_only(
            dtm, _uniform_pz(8), frobenius.LAMBDA, 0, monkeypatch
        )
        assert kernel.kernel.tobytes() == kernel_w.kernel.tobytes()
        assert trace.objectives[-1] == trace_w.objectives[-1]
