import itertools
import warnings

import numpy as np
import pytest

from coupclust.core import CouplingKernel, Pmf, SolveTrace, build_dtm
from coupclust.data_io import gen_planted_blocks, ingest
from coupclust.errors import ConfigError, DataError
from coupclust.evaluation import (
    _matched_correct,
    _max_weight_matching,
    build_report,
    coverage,
    elbow_curve,
    format_report_table,
    harden,
    kernel_norm_value,
    matched_accuracy,
    top_true_clusters,
)
from coupclust.frobenius import solve_frobenius
from coupclust.nuclear import solve_nuclear
from coupclust.svd import SPECTRAL_TOL

from conftest import normalized_joint, random_joint, singular_values
from paper_identities import weighted_kmeans_cost


def _trace(objective, status="Converged"):
    """A one-row SolveTrace ending at objective."""
    trace = SolveTrace(status=status)
    trace.record(objective, 0.0, 0.0)
    return trace


def _items(labels):
    """Labels in item order as the item -> label mapping the metrics take."""
    return {f"i{n}": label for n, label in enumerate(labels)}


def brute_force_accuracy(pred, truth):
    """Try every one-to-one matching of predicted to true labels."""
    pred_labs = list(dict.fromkeys(pred))
    true_labs = list(dict.fromkeys(truth))
    best = 0
    small, large, pred_side = (
        (pred_labs, true_labs, True)
        if len(pred_labs) <= len(true_labs)
        else (true_labs, pred_labs, False)
    )
    for combo in itertools.permutations(large, len(small)):
        mapping = dict(zip(small, combo))
        if pred_side:
            correct = sum(1 for a, b in zip(pred, truth) if mapping[a] == b)
        else:
            correct = sum(1 for a, b in zip(pred, truth) if mapping[b] == a)
        best = max(best, correct)
    return best / len(pred)


class TestHarden:
    def test_argmax_with_ties_to_lowest(self):
        k = np.array([[0.5, 0.2], [0.5, 0.8]])
        kernel = CouplingKernel(("z0", "z1"), ("a", "b"), k)
        assert harden(kernel) == {"a": "z0", "b": "z1"}


class TestMatchedAccuracy:
    def test_permutation_invariant(self):
        truth = ["A", "A", "B", "B", "C", "C"]
        pred1 = ["x", "x", "y", "y", "z", "z"]
        pred2 = ["z", "z", "x", "x", "y", "y"]
        assert matched_accuracy(_items(pred1), _items(truth)) == 1.0
        assert matched_accuracy(_items(pred2), _items(truth)) == 1.0

    def test_partial(self):
        truth = ["A", "A", "B", "B"]
        pred = ["x", "x", "x", "y"]
        assert matched_accuracy(_items(pred), _items(truth)) == 0.75

    def test_against_brute_force(self, rng):
        for _ in range(50):
            n = int(rng.integers(4, 15))
            kp = int(rng.integers(1, 5))
            kt = int(rng.integers(1, 5))
            pred = [f"p{int(i)}" for i in rng.integers(0, kp, size=n)]
            truth = [f"t{int(i)}" for i in rng.integers(0, kt, size=n)]
            assert matched_accuracy(_items(pred), _items(truth)) == pytest.approx(
                brute_force_accuracy(pred, truth), abs=1e-12
            )

    def test_matching_equals_linear_sum_assignment(self, rng):
        # Square, wide, tall and zero-heavy confusion matrices up to 40 x 40;
        # scipy is the reference here only.
        from scipy.optimize import linear_sum_assignment

        shapes = set()
        for _ in range(300):
            m, n = (int(x) for x in rng.integers(1, 41, size=2))
            conf = rng.integers(0, 6, size=(m, n))
            conf[rng.random((m, n)) < rng.random()] = 0
            conf[0, 0] += 1
            pairs = [
                (f"p{i}", f"t{j}")
                for i in range(m)
                for j in range(n)
                for _ in range(conf[i, j])
            ]
            pred, truth = (list(x) for x in zip(*pairs))
            rows, cols = linear_sum_assignment(conf, maximize=True)
            assert _matched_correct(pred, truth) == conf[rows, cols].sum()
            shapes.add((m > n) - (m < n))
        assert shapes == {-1, 0, 1}

    @pytest.mark.parametrize(
        "conf",
        [
            [[3]],
            [[2, 2, 2], [2, 2, 2], [2, 2, 2]],
            [[0, 4, 0], [0, 1, 0], [0, 7, 0]],
            [[0, 0], [5, 0], [0, 0], [1, 0]],
        ],
        ids=["1x1", "all-equal", "one-column-square", "one-column-tall"],
    )
    def test_matching_edge_cases(self, conf):
        from scipy.optimize import linear_sum_assignment

        conf = np.array(conf)
        rows, cols = linear_sum_assignment(conf, maximize=True)
        best = conf[rows, cols].sum()
        r, c = _max_weight_matching(conf)
        assert conf[r, c].sum() == best
        # Through labels, empty rows and columns drop out of the confusion
        # matrix; they add nothing to a matching.
        pairs = [
            (f"p{i}", f"t{j}")
            for (i, j), count in np.ndenumerate(conf)
            for _ in range(count)
        ]
        pred, truth = (list(x) for x in zip(*pairs))
        assert _matched_correct(pred, truth) == best

    def test_matching_is_full_and_one_to_one(self, rng):
        for _ in range(100):
            m, n = (int(x) for x in rng.integers(1, 15, size=2))
            w = rng.integers(0, 4, size=(m, n))
            rows, cols = _max_weight_matching(w)
            assert len(rows) == len(cols) == min(m, n)
            assert len(set(rows.tolist())) == len(set(cols.tolist())) == min(m, n)
            assert rows.min() >= 0 and rows.max() < m
            assert cols.min() >= 0 and cols.max() < n

    def test_mapping_form(self):
        pred = {"a": "x", "b": "x", "c": "y"}
        truth = {"c": "B", "a": "A", "b": "A"}
        assert matched_accuracy(pred, truth) == 1.0

    def test_mismatched_items(self):
        with pytest.raises(DataError, match="item sets: 'a' has no truth label"):
            matched_accuracy({"a": "x"}, {"b": "y"})
        with pytest.raises(DataError, match="'b' has no truth label"):
            matched_accuracy({"a": "x", "b": "x", "c": "y"}, {"a": "A"})
        with pytest.raises(DataError, match="truth labels 'd', which is not"):
            matched_accuracy({"a": "x"}, {"a": "A", "d": "B", "e": "B"})

    def test_top_k_mode(self):
        # two big true clusters, one singleton; k=2 drops the singleton
        truth = ["A", "A", "A", "B", "B", "B", "C"]
        pred = ["x", "x", "x", "y", "y", "y", "x"]
        pred, truth = _items(pred), _items(truth)
        assert matched_accuracy(pred, truth, mode="top_k", k=2) == 1.0
        assert matched_accuracy(pred, truth) == pytest.approx(6 / 7)

    def test_mode_validation(self):
        with pytest.raises(ConfigError, match="unknown mode 'bogus'"):
            matched_accuracy({"a": "x"}, {"a": "y"}, mode="bogus")


class TestCoverage:
    def test_basic(self):
        truth = _items(["A"] * 5 + ["B"] * 3 + ["C"] * 2)
        assert coverage(truth, 1) == 0.5
        assert coverage(truth, 2) == 0.8
        assert coverage(truth, 3) == 1.0

    def test_tie_by_first_occurrence(self):
        truth = ["A", "B", "A", "B", "C"]
        assert top_true_clusters(truth, 1) == ["A"]
        assert top_true_clusters(truth, 2) == ["A", "B"]

    def test_ranking_matches_first_occurrence_definition(self, rng):
        def reference(truth, k):
            order = list(dict.fromkeys(truth))
            counts = {lab: truth.count(lab) for lab in order}
            ranked = sorted(order, key=lambda lab: (-counts[lab], order.index(lab)))
            return ranked[:k]

        for _ in range(200):
            n = int(rng.integers(1, 60))
            labels = int(rng.integers(1, 12))
            truth = [f"t{int(i)}" for i in rng.integers(0, labels, size=n)]
            for k in (1, 3, labels + 1):
                assert top_true_clusters(truth, k) == reference(truth, k)

    def test_many_labels(self):
        # 20k distinct labels, all tied at one item: first-occurrence order.
        truth = [f"t{i}" for i in range(20_000)]
        assert top_true_clusters(truth, 20_000) == truth
        assert coverage(_items(truth), 10_000) == 0.5


class TestKernelNormValue:
    def test_disconnected_blocks(self):
        w = np.zeros((4, 4))
        w[:2, :2] = 0.25 / 2
        w[2:, 2:] = 0.25 / 2
        dtm = build_dtm(("a", "b", "c", "d"), ("u", "v", "w", "x"), w)
        kmat = np.array([[1.0, 1, 0, 0], [0, 0, 1, 1]])
        kernel = CouplingKernel(("z0", "z1"), dtm.row_pmf.labels, kmat)
        assert kernel_norm_value(dtm, kernel, "nuclear") == pytest.approx(
            2.0, abs=1e-10
        )
        assert kernel_norm_value(dtm, kernel, "frobenius") == pytest.approx(
            2.0, abs=1e-10
        )

    def test_dead_cluster_rejected(self, rng):
        dtm = build_dtm(*random_joint(rng, 3, 3))
        kmat = np.array([[1.0, 1, 1], [0, 0, 0]])
        kernel = CouplingKernel(("z0", "z1"), dtm.row_pmf.labels, kmat)
        with pytest.raises(DataError, match="kernel leaves a cluster with zero mass"):
            kernel_norm_value(dtm, kernel, "nuclear")

    def test_empty_frobenius_cluster_adds_nothing(self, rng):
        # The squared Frobenius norm is taken over the clusters with mass,
        # the limit as the empty cluster's mass goes to 0.
        dtm = build_dtm(*random_joint(rng, 3, 3))
        items = dtm.row_pmf.labels
        kmat = np.array([[1.0, 1, 0], [0, 0, 1], [0, 0, 0]])
        value = kernel_norm_value(
            dtm, CouplingKernel(("z0", "z1", "z2"), items, kmat), "frobenius"
        )
        live = kernel_norm_value(
            dtm, CouplingKernel(("z0", "z1"), items, kmat[:2]), "frobenius"
        )
        assert value == live
        eps = 1e-9
        soft = kmat + eps * np.array([[-1.0, 0, 0], [0, 0, 0], [1, 0, 0]])
        near = kernel_norm_value(
            dtm, CouplingKernel(("z0", "z1", "z2"), items, soft), "frobenius"
        )
        assert near == pytest.approx(value, abs=1e-6)

    @pytest.mark.parametrize("algorithm", ["nuclear", "frobenius"])
    def test_column_sums_within_kernel_tolerance(self, rng, algorithm):
        # CouplingKernel admits columns that miss 1 by up to 1e-9; the norm
        # is that of the renormalized kernel, not a broken DTM invariant.
        dtm = build_dtm(*random_joint(rng, 5, 4))
        kmat = rng.random((2, 5))
        kmat /= kmat.sum(axis=0)
        labels = ("z0", "z1")
        exact = kernel_norm_value(
            dtm, CouplingKernel(labels, dtm.row_pmf.labels, kmat), algorithm
        )
        loose = kernel_norm_value(
            dtm,
            CouplingKernel(labels, dtm.row_pmf.labels, kmat * (1 + 5e-10)),
            algorithm,
        )
        assert loose == pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize("algorithm", ["nuclear", "frobenius"])
    def test_kernel_must_name_the_joints_items(self, algorithm):
        # Columns are read by position, so a kernel naming other items, or
        # the same items in another order, would be scored as a different
        # clustering. Here {c, a}, {b} scores 1.7211 (nuclear), but its
        # columns read in the joint's order a, b, c mean {a, b}, {c}: 2.0.
        dtm = ingest(
            ["a", "b", "c"], ["x", "y", "z"], [[4, 1, 0], [1, 4, 0], [0, 0, 5]]
        )[0]
        ordered = CouplingKernel(
            ("z0", "z1"), ("a", "b", "c"), np.array([[1.0, 0, 1], [0, 1, 0]])
        )
        if algorithm == "nuclear":
            assert kernel_norm_value(dtm, ordered, algorithm) == pytest.approx(
                1.7211102550927978, rel=1e-12
            )
        truth = {"a": "t0", "b": "t1", "c": "t0"}
        for items in (("c", "a", "b"), ("a", "b", "d")):
            kernel = CouplingKernel(
                ("z0", "z1"), items, np.array([[1.0, 1, 0], [0, 0, 1]])
            )
            with pytest.raises(DataError, match="kernel items must be the joint's"):
                kernel_norm_value(dtm, kernel, algorithm)
            with pytest.raises(DataError):
                build_report(dtm, kernel, _trace(1.0), algorithm, truth)

    def test_algorithm_validation(self, rng):
        dtm = build_dtm(*random_joint(rng, 3, 3))
        kernel = CouplingKernel(("z0",), dtm.row_pmf.labels, np.ones((1, 3)))
        with pytest.raises(ConfigError, match="unknown algorithm 'spectral'"):
            kernel_norm_value(dtm, kernel, "spectral")


def _random_assignments(seed=0, joints=200):
    """(dtm, hard kernel, assignment) on random joints, 3-29 items a side.

    Up to six assignments per joint, one for each k = 1..6 that fits; each
    pins one distinct item per cluster, so no cluster is empty.
    """
    rng = np.random.default_rng(seed)
    for _ in range(joints):
        ny, nx = (int(n) for n in rng.integers(3, 30, size=2))
        dtm = build_dtm(*random_joint(rng, ny, nx))
        for k in range(1, min(6, ny) + 1):
            assign = rng.integers(0, k, size=ny)
            assign[rng.permutation(ny)[:k]] = np.arange(k)
            kmat = np.zeros((k, ny))
            kmat[assign, np.arange(ny)] = 1.0
            labels = tuple(f"z{i}" for i in range(k))
            yield dtm, CouplingKernel(labels, dtm.row_pmf.labels, kmat), assign


def _solver_kernels():
    """(dtm, kernel) of both solvers on planted joints, k = number of blocks."""
    for blocks, size, seed in ((2, 12, 0), (3, 8, 1), (4, 6, 2)):
        joint, _ = gen_planted_blocks(blocks, size, 1.0, 0.1, noise_seed=seed)
        dtm = build_dtm(*joint)
        p_z = Pmf.uniform(tuple(f"z{i}" for i in range(blocks)))
        for restart in range(3):
            yield dtm, solve_nuclear(dtm, blocks, seed=restart)[0]
            yield dtm, solve_frobenius(dtm, p_z, seed=restart)[0]


class TestNormBounds:
    def _check_ky_fan(self, dtm, kernel):
        # A = [P_Z]^{-1/2} K [P_Y]^{1/2} is a DTM of rank <= k, so Horn's
        # inequality gives sigma_i(A B) <= sigma_i(B) for i <= k, and 0 after.
        top = singular_values(dtm)[: len(kernel.cluster_labels)]
        nuclear = kernel_norm_value(dtm, kernel, "nuclear")
        frobenius = kernel_norm_value(dtm, kernel, "frobenius")
        assert nuclear <= float(np.sum(top)) + SPECTRAL_TOL
        assert frobenius <= float(np.sum(top * top)) + SPECTRAL_TOL

    def test_ky_fan_bound_on_random_assignments(self):
        count = 0
        for dtm, kernel, _ in _random_assignments():
            self._check_ky_fan(dtm, kernel)
            count += 1
        assert count > 1000

    def test_ky_fan_bound_on_solver_kernels(self):
        for dtm, kernel in _solver_kernels():
            self._check_ky_fan(dtm, kernel)

    def test_frobenius_value_is_weighted_kmeans_identity(self):
        # ||A B||_F^2 = ||B||_F^2 - sum_y P_Y(y) ||phi_y - mu_{z(y)}||^2.
        for dtm, kernel, assign in _random_assignments(seed=1):
            value = kernel_norm_value(dtm, kernel, "frobenius")
            ref = float(np.sum(dtm.matrix**2)) - weighted_kmeans_cost(dtm, assign)
            assert value == pytest.approx(ref, rel=1e-12, abs=0.0)


class TestElbow:
    def _three_component_dtm(self):
        # components with 1, 2, 3 items a side
        w = np.zeros((6, 6))
        w[0, 0] = 1.0
        w[1:3, 1:3] = 1.0
        w[3:, 3:] = 1.0
        labels = [f"y{i}" for i in range(6)], [f"x{j}" for j in range(6)]
        return build_dtm(*normalized_joint(*labels, w))

    def test_disconnected_value_is_component_count(self):
        # with c components the top c singular values are all 1, so the best
        # k-cluster nuclear value is k up to k = c
        dtm = self._three_component_dtm()
        curve = elbow_curve(dtm, [1, 2, 3, 4], algorithm="nuclear", restarts=5)
        ks = [k for k, _ in curve]
        vals = [v for _, v in curve]
        assert ks == [1, 2, 3, 4]
        assert vals[0] == pytest.approx(1.0, abs=1e-9)
        assert vals[1] == pytest.approx(2.0, abs=1e-9)
        assert vals[2] == pytest.approx(3.0, abs=1e-9)
        assert vals[3] < 3.0 + 0.5
        # increments collapse after k = number of components
        assert (vals[1] - vals[0]) > 10 * (vals[3] - vals[2])

    def test_planted_knee(self):
        dtm = build_dtm(*gen_planted_blocks(3, 8, 1.0, 0.02, noise_seed=0)[0])
        curve = elbow_curve(dtm, [2, 3, 4], algorithm="nuclear", restarts=3)
        vals = [v for _, v in curve]
        assert vals[1] - vals[0] > vals[2] - vals[1]

    def test_nondecreasing(self):
        dtm = build_dtm(*gen_planted_blocks(2, 6, 1.0, 0.1, noise_seed=1)[0])
        curve = elbow_curve(dtm, [1, 2, 3], algorithm="nuclear", restarts=3)
        vals = [v for _, v in curve]
        assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))

    def test_frobenius_route(self):
        joint, _ = gen_planted_blocks(2, 5, 1.0, 0.1, noise_seed=2)
        curve = elbow_curve(
            build_dtm(*joint), [1, 2], algorithm="frobenius", restarts=2,
            frobenius_lam=10.0,
        )
        assert len(curve) == 2
        assert curve[1][1] >= curve[0][1] - 1e-6

    def test_frobenius_drop_is_not_a_stall(self):
        # With uniform P_Z the penalty spreads mass over a fifth cluster on
        # four blocks, so the Frobenius optimum itself falls from k = 4 to 5.
        joint, _ = gen_planted_blocks(4, 12, 1.0, 0.2, noise_seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            curve = elbow_curve(
                build_dtm(*joint), [4, 5], algorithm="frobenius", restarts=3
            )
        assert curve[1][1] < curve[0][1] - 0.05

    def test_nuclear_drop_warns(self, monkeypatch):
        import coupclust.evaluation as ev

        joint, _ = gen_planted_blocks(2, 4, 1.0, 0.1, noise_seed=0)
        monkeypatch.setattr(
            ev, "kernel_norm_value",
            lambda dtm, kernel, algorithm: 3.0 - len(kernel.cluster_labels),
        )
        with pytest.warns(RuntimeWarning, match="optimization likely stalled"):
            curve = elbow_curve(
                build_dtm(*joint), [1, 2], algorithm="nuclear", restarts=1
            )
        assert curve == [(1, 2.0), (2, 1.0)]

    def test_round_off_tie_keeps_lower_seed(self, monkeypatch):
        # Restarts that land on the same optimum may differ in the last bit
        # of their final objective; the lower seed is kept, a real gain
        # wins, as in cluster. Each seed returns its own split, so the row
        # names the kernel kept.
        import coupclust.evaluation as ev

        dtm = build_dtm(*gen_planted_blocks(2, 4, 1.0, 0.1, noise_seed=0)[0])
        kernels = [
            CouplingKernel(
                ("z0", "z1"), dtm.row_pmf.labels,
                np.eye(2)[:, [0] * cut + [1] * (8 - cut)],
            )
            for cut in (4, 3, 2)
        ]
        bump = (0.0, 1e-15, 1e-9)
        monkeypatch.setattr(
            ev, "solve_nuclear",
            lambda dtm, k, seed: (kernels[seed], _trace(5.0 + bump[seed])),
        )
        for restarts, best in ((2, 0), (3, 2)):
            want = kernel_norm_value(dtm, kernels[best], "nuclear")
            assert elbow_curve(dtm, [2], restarts=restarts) == [(2, want)]

    def test_ks_validation(self, rng):
        dtm = build_dtm(*random_joint(rng, 4, 4))
        ks_error = "ks must be a nonempty ascending list"
        with pytest.raises(ConfigError, match=ks_error):
            elbow_curve(dtm, [])
        with pytest.raises(ConfigError, match=ks_error):
            elbow_curve(dtm, [2, 2])
        with pytest.raises(ConfigError, match=ks_error):
            elbow_curve(dtm, [3, 2])
        with pytest.raises(ConfigError, match=ks_error):
            elbow_curve(dtm, [0, 1])
        with pytest.raises(ConfigError, match="restarts must be >= 1"):
            elbow_curve(dtm, [1, 2], restarts=0)


class TestReport:
    def test_build_and_format(self):
        joint, truth = gen_planted_blocks(2, 4, 1.0, 0.05, noise_seed=0)
        kmat = np.zeros((2, 8))
        kmat[0, :4] = 1.0
        kmat[1, 4:] = 1.0
        kernel = CouplingKernel(("z0", "z1"), joint[0], kmat)
        truth = dict(zip(joint[0], truth))
        dtm = build_dtm(*joint)
        report = build_report(dtm, kernel, _trace(1.5, "MaxIters"), "nuclear", truth)
        # The keys of report.json, in its order; a run without truth writes
        # the first six.
        assert list(report) == [
            "k",
            "algorithm",
            "objective",
            "norm_value",
            "iters",
            "status",
            "coverage",
            "overall_accuracy",
            "k_accuracy",
        ]
        bare = build_report(dtm, kernel, _trace(1.5, "MaxIters"), "nuclear")
        assert bare == dict(list(report.items())[:6])
        assert bare == {
            "k": 2,
            "algorithm": "nuclear",
            "objective": 1.5,
            "norm_value": kernel_norm_value(dtm, kernel, "nuclear"),
            "iters": 1,
            "status": "MaxIters",
        }
        assert report["coverage"] == 1.0
        assert report["overall_accuracy"] == 1.0
        assert report["k_accuracy"] == 1.0
        assert report["norm_value"] > 1.0
        table = format_report_table(report)
        lines = table.split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("k ")
        assert "1.0000" in lines[1]

    def test_truth_length_mismatch(self):
        joint, truth = gen_planted_blocks(2, 3, 1.0, 0.05)
        kernel = CouplingKernel(
            ("z0",), joint[0], np.ones((1, 6))
        )
        # One item fewer in the truth than in the kernel.
        truth = dict(zip(joint[0][:-1], truth))
        with pytest.raises(DataError, match=f"{joint[0][-1]!r} has no truth label"):
            build_report(build_dtm(*joint), kernel, _trace(1.0), "nuclear", truth)
