import tracemalloc

import numpy as np
import pytest

from coupclust.core import (
    CouplingKernel,
    Dtm,
    Pmf,
    build_dtm,
)
from coupclust.errors import ConfigError, DataError

from conftest import random_joint, random_pmf, singular_values
from paper_identities import (
    PerturbationFamily,
    bipartite_components,
    compose_dtm,
    dtm_from_kernel,
    local_mi_gap,
    mutual_information,
    perturbed_kernel,
    singular_one_multiplicity,
)


class TestPmf:
    def test_valid(self):
        p = Pmf(("a", "b"), np.array([0.25, 0.75]))
        assert p.strictly_interior
        assert len(p) == 2
        np.testing.assert_allclose(p.sqrt_probs, [0.5, np.sqrt(0.75)])

    def test_sum_tolerance(self):
        Pmf(("a", "b"), np.array([0.5, 0.5 + 9e-13]))
        with pytest.raises(DataError, match=r"probs sum to 1\.000000000002, not 1"):
            Pmf(("a", "b"), np.array([0.5, 0.5 + 2e-12]))

    def test_negative(self):
        with pytest.raises(DataError, match="negative probability entry"):
            Pmf(("a", "b"), np.array([1.5, -0.5]))

    def test_boundary_not_interior(self):
        p = Pmf(("a", "b"), np.array([1.0, 0.0]))
        assert not p.strictly_interior

    def test_duplicate_labels(self):
        with pytest.raises(DataError, match="Pmf: duplicate labels"):
            Pmf(("a", "a"), np.array([0.5, 0.5]))

    def test_uniform_needs_a_label(self):
        with pytest.raises(DataError, match="empty alphabet"):
            Pmf.uniform([])

    def test_immutable(self):
        p = Pmf.uniform(("a", "b", "c"))
        with pytest.raises(ValueError):
            p.probs[0] = 0.9


class TestCouplingKernel:
    def test_column_sums(self):
        k = np.array([[0.7, 0.2], [0.3, 0.8]])
        CouplingKernel(("z0", "z1"), ("y0", "y1"), k)

    def test_column_tolerance(self):
        k = np.array([[0.7, 0.2], [0.3, 0.8 + 2e-9]])
        with pytest.raises(
            DataError, match=r"kernel columns must sum to 1 \(max deviation 2\.000e-09\)"
        ):
            CouplingKernel(("z0", "z1"), ("y0", "y1"), k)

    def test_induced_marginal(self):
        k = CouplingKernel(
            ("z0", "z1"), ("y0", "y1"), np.array([[1.0, 0.0], [0.0, 1.0]])
        )
        p_y = Pmf(("y0", "y1"), np.array([0.3, 0.7]))
        np.testing.assert_allclose(k.induced_marginal(p_y), [0.3, 0.7])
        with pytest.raises(DataError, match="kernel/item marginal size mismatch"):
            k.induced_marginal(Pmf.uniform(("y0", "y1", "y2")))


def test_pmf_and_kernel_compare_and_hash_by_identity():
    # Field-wise == would compare arrays, whose truth value is ambiguous.
    p = Pmf(("a", "b"), np.array([0.5, 0.5]))
    k = CouplingKernel(("z0",), ("a", "b"), np.ones((1, 2)))
    assert p == p and k == k
    assert p != Pmf(("a", "b"), np.array([0.5, 0.5]))
    assert len({p, k, p, k}) == 2


class TestDtm:
    def test_zero_row_mass_rejected(self):
        # B of [[.25, .25], [.25, .25], [0, 0]], the empty row zeroed: it
        # meets both DTM identities, but every consumer divides by sqrt(P_Y).
        b = np.array([[0.5, 0.5], [0.5, 0.5], [0.0, 0.0]])
        row = Pmf(("y0", "y1", "y2"), np.array([0.5, 0.5, 0.0]))
        col = Pmf(("x0", "x1"), np.array([0.5, 0.5]))
        with pytest.raises(DataError, match="row marginal must be strictly interior"):
            Dtm(b, row, col)
        # A column marginal with a zero entry is still accepted.
        assert Dtm(b.T, col, row).shape == (2, 3)

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (np.full((2, 3), 0.5), r"matrix \(2, 3\) vs marginals \(2, 2\)"),
            (np.array([[0.5, 0.5], [0.5, np.nan]]), "DTM entries must be finite"),
            # B sqrt(col) = sqrt(row) holds, its transpose identity does not.
            (np.array([[1.0, 0.0], [0.5, 0.5]]), r"B\^T sqrt\(row\) != sqrt\(col\)"),
        ],
        ids=["shape", "nonfinite", "column-identity"],
    )
    def test_constructor_checks(self, matrix, message):
        half = Pmf(("a", "b"), np.array([0.5, 0.5]))
        with pytest.raises(DataError, match=message):
            Dtm(matrix, half, half)


class TestBuildDtm:
    def test_marginals(self, rng):
        rows, cols, w = random_joint(rng, 4, 3)
        b = build_dtm(rows, cols, w)
        assert b.row_pmf.labels == rows and b.col_pmf.labels == cols
        np.testing.assert_allclose(b.row_pmf.probs, w.sum(axis=1))
        np.testing.assert_allclose(b.col_pmf.probs, w.sum(axis=0))
        assert b.row_pmf.strictly_interior
        assert b.col_pmf.strictly_interior

    def test_keeps_b_without_a_second_copy(self, rng):
        # B is the one |Y| x |X| array that build_dtm allocates and keeps:
        # the Dtm holds it read-only rather than a frozen copy.
        rows, cols, w = random_joint(rng, 300, 300)
        tracemalloc.start()
        try:
            b = build_dtm(rows, cols, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * w.nbytes
        assert not b.matrix.flags.writeable

    @pytest.mark.parametrize("shape", [(4, 3), (7, 9), (1, 5)])
    @pytest.mark.parametrize("mass", [1.0, 1.0 + 4e-13])
    def test_whitening_bits(self, rng, shape, mass):
        # B is the joint divided by the root marginals, each normalized off
        # its dust, in that order; a joint within MASS_TOL of 1 is not
        # renormalized first.
        rows, cols, w = random_joint(rng, *shape)
        w = w * mass
        py, px = w.sum(axis=1), w.sum(axis=0)
        sy, sx = np.sqrt(py / py.sum()), np.sqrt(px / px.sum())
        expected = w / sy[:, None] / sx[None, :]
        assert build_dtm(rows, cols, w).matrix.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "w",
        [[[0.5, 0.5], [0.0, 0.0]], [[0.5, 0.0], [0.5, 0.0]]],
        ids=["empty-row", "empty-column"],
    )
    def test_empty_row_or_column_rejected(self, w):
        with pytest.raises(DataError, match="joint has an empty row or column"):
            build_dtm(("a", "b"), ("u", "v"), np.array(w))

    def test_mass_check(self):
        with pytest.raises(DataError, match=r"total mass 1\.2, not 1"):
            build_dtm(("a", "b"), ("u", "v"), np.full((2, 2), 0.3))

    def test_negative_entry(self):
        w = np.array([[0.75, -0.25], [0.25, 0.25]])
        with pytest.raises(DataError, match="negative joint weight"):
            build_dtm(("a", "b"), ("u", "v"), w)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite(self, bad):
        w = np.full((2, 2), 0.25)
        w[1, 0] = bad
        with pytest.raises(DataError, match="weights must be finite"):
            build_dtm(("a", "b"), ("u", "v"), w)

    def test_not_a_matrix(self):
        with pytest.raises(DataError, match="weights must be a matrix"):
            build_dtm(("a",), ("u",), np.full((1, 2, 2), 0.25))

    @pytest.mark.parametrize(
        "rows, cols", [(("a",), ("u", "v")), (("a", "b"), ("u", "v", "w"))]
    )
    def test_label_count(self, rows, cols):
        with pytest.raises(DataError, match=r"joint (rows|cols): \d labels for 2 entries"):
            build_dtm(rows, cols, np.full((2, 2), 0.25))

    @pytest.mark.parametrize(
        "rows, cols", [(("a", "a"), ("u", "v")), (("a", "b"), ("u", "u"))]
    )
    def test_duplicate_label(self, rows, cols):
        with pytest.raises(DataError, match="duplicate labels"):
            build_dtm(rows, cols, np.full((2, 2), 0.25))

    def test_uniform_independent(self):
        # P = uniform product -> B is the constant matrix 1/sqrt(ny*nx)
        b = build_dtm(("a", "b"), ("u", "v"), np.full((2, 2), 0.25))
        np.testing.assert_allclose(b.matrix, np.full((2, 2), 0.5))
        s = singular_values(b)
        np.testing.assert_allclose(s, [1.0, 0.0], atol=1e-12)

    def test_identity_coupling(self):
        b = build_dtm(("a", "b"), ("u", "v"), np.diag([0.5, 0.5]))
        np.testing.assert_allclose(b.matrix, np.eye(2))
        np.testing.assert_allclose(singular_values(b), [1.0, 1.0])

    def test_spectral_invariants_random(self, rng):
        for _ in range(25):
            ny = int(rng.integers(2, 13))
            nx = int(rng.integers(2, 11))
            b = build_dtm(*random_joint(rng, ny, nx))
            sy, sx = b.row_pmf.sqrt_probs, b.col_pmf.sqrt_probs
            assert np.max(np.abs(b.matrix @ sx - sy)) <= 1e-10
            assert np.max(np.abs(b.matrix.T @ sy - sx)) <= 1e-10
            s = singular_values(b)
            assert abs(s[0] - 1.0) <= 1e-10
            assert s[-1] >= -1e-12
            assert s[0] <= 1.0 + 1e-10


class TestDtmFromKernel:
    def test_consistent_kernel(self):
        kernel = CouplingKernel(
            ("z0", "z1"), ("y0", "y1", "y2"),
            np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        )
        p_y = Pmf(("y0", "y1", "y2"), np.array([0.2, 0.3, 0.5]))
        p_z = Pmf(("z0", "z1"), np.array([0.5, 0.5]))
        b = dtm_from_kernel(kernel, p_y, p_z)
        # hard coupling with matching P_Z: sigma_1 = 1 twice is possible but
        # here the chain is deterministic so all nonzero s.v. are 1
        s = singular_values(b)
        assert abs(s[0] - 1.0) <= 1e-10

    def test_mismatched_pz_rejected(self):
        # Every Dtm must meet both identities: with a P_Z other than the
        # induced marginal, B sqrt(P_Y) != sqrt(P_Z).
        kernel = CouplingKernel(
            ("z0", "z1"), ("y0", "y1"),
            np.array([[0.9, 0.1], [0.1, 0.9]]),
        )
        p_y = Pmf(("y0", "y1"), np.array([0.5, 0.5]))
        p_z = Pmf(("z0", "z1"), np.array([0.3, 0.7]))  # induced is (0.5, 0.5)
        with pytest.raises(DataError, match=r"B sqrt\(col\) != sqrt\(row\)"):
            dtm_from_kernel(kernel, p_y, p_z)

    def test_label_mismatch(self):
        kernel = CouplingKernel(
            ("z0",), ("y0", "y1"), np.array([[1.0, 1.0]])
        )
        p_y = Pmf(("wrong", "y1"), np.array([0.5, 0.5]))
        p_z = Pmf(("z0",), np.array([1.0]))
        with pytest.raises(DataError, match="kernel item labels disagree with p_y labels"):
            dtm_from_kernel(kernel, p_y, p_z)

    def test_boundary_pz_rejected(self):
        kernel = CouplingKernel(
            ("z0", "z1"), ("y0",), np.array([[1.0], [0.0]])
        )
        p_y = Pmf(("y0",), np.array([1.0]))
        p_z = Pmf(("z0", "z1"), np.array([1.0, 0.0]))
        with pytest.raises(DataError, match="marginals must be strictly interior"):
            dtm_from_kernel(kernel, p_y, p_z)


class TestComposeDtm:
    def test_matches_marginalized_chain(self, rng):
        for _ in range(50):
            nz = int(rng.integers(2, 5))
            ny = int(rng.integers(2, 9))
            nx = int(rng.integers(2, 7))
            rows, cols, w = random_joint(rng, ny, nx)
            kmat = rng.random((nz, ny)) + 0.05
            kmat /= kmat.sum(axis=0)
            kernel = CouplingKernel(tuple(f"z{i}" for i in range(nz)), rows, kmat)
            b_yx = build_dtm(rows, cols, w)
            p_z = Pmf(
                kernel.cluster_labels, kernel.induced_marginal(b_yx.row_pmf)
            )
            b_zy = dtm_from_kernel(kernel, b_yx.row_pmf, p_z)
            composed = compose_dtm(b_zy, b_yx)
            direct = build_dtm(kernel.cluster_labels, cols, kmat @ w)
            assert np.max(np.abs(composed.matrix - direct.matrix)) <= 1e-12

    def test_marginal_mismatch(self, rng):
        b1 = build_dtm(*random_joint(rng, 3, 4))
        b2 = build_dtm(*random_joint(rng, 4, 3))
        # labels y0..y3 vs x0..x2 on the inner side
        with pytest.raises(DataError, match="inner marginal labels disagree"):
            compose_dtm(b1, b2)


class TestInformation:
    def test_product_is_zero(self):
        mi = mutual_information(np.full((2, 2), 0.25))
        assert mi == pytest.approx(0.0, abs=1e-15)

    def test_identity_is_log2(self):
        mi = mutual_information(np.diag([0.5, 0.5]))
        assert mi == pytest.approx(np.log(2.0), abs=1e-12)

    def test_data_processing(self, rng):
        for _ in range(20):
            _, _, w = random_joint(rng, 6, 5)
            kmat = rng.random((3, 6)) + 0.05
            kmat /= kmat.sum(axis=0)
            assert mutual_information(kmat @ w) <= mutual_information(w) + 1e-12


class TestNorms:
    def test_frobenius_dual_route(self, rng):
        for _ in range(10):
            b = build_dtm(*random_joint(rng, 6, 5))
            entrywise = float(np.sum(b.matrix**2))
            spectral = float(np.sum(singular_values(b) ** 2))
            assert abs(entrywise - spectral) <= 1e-10

    def test_schatten_orders(self, rng):
        # The Schatten-inf norm of a DTM is sigma_1 = 1.
        b = build_dtm(*random_joint(rng, 5, 4))
        s = singular_values(b)
        assert float(s[0]) == pytest.approx(1.0, abs=1e-10)


class TestPerturbationFamily:
    def _phi(self):
        return np.array([[1.0], [-1.0]]) / np.sqrt(2.0)

    def test_zero_epsilon_gives_base(self):
        base = Pmf.uniform(("z0", "z1"))
        fam = PerturbationFamily(base, ("y0",), self._phi(), 0.0)
        k = perturbed_kernel(fam)
        np.testing.assert_allclose(k.kernel[:, 0], base.probs)

    def test_worked_column(self):
        base = Pmf.uniform(("z0", "z1"))
        fam = PerturbationFamily(base, ("y0",), self._phi(), 0.1)
        k = perturbed_kernel(fam)
        np.testing.assert_allclose(k.kernel[:, 0], [0.55, 0.45], atol=1e-15)

    def test_epsilon_too_large(self):
        base = Pmf.uniform(("z0", "z1"))
        with pytest.raises(ValueError, match="outside"):
            PerturbationFamily(base, ("y0",), self._phi(), 2.0)

    def test_bad_phi_rejected(self):
        base = Pmf.uniform(("z0", "z1"))
        with pytest.raises(
            ConfigError, match=r"each phi_y must be orthogonal to sqrt\(P_Z\)"
        ):
            PerturbationFamily(base, ("y0",), np.array([[1.0], [0.0]]), 0.1)

    def test_gap_decay(self, rng):
        base = random_pmf(rng, 3)
        sz = base.sqrt_probs
        ny = 5
        phis = np.zeros((3, ny))
        for y in range(ny):
            v = rng.normal(size=3)
            v -= (v @ sz) * sz
            phis[:, y] = v / np.linalg.norm(v)
        labels = tuple(f"y{i}" for i in range(ny))
        jw = rng.random((ny, 4)) + 0.1
        joint = (labels, ("x0", "x1", "x2", "x3"), jw / jw.sum())
        for eps in (1e-1, 1e-2):
            _, _, g_hi = local_mi_gap(
                joint, PerturbationFamily(base, labels, phis, eps)
            )
            _, _, g_lo = local_mi_gap(
                joint, PerturbationFamily(base, labels, phis, eps / 10)
            )
            assert g_lo <= g_hi / 50


class TestSpectralStructure:
    def _block_joint(self, rng, blocks):
        mats, rl, cl = [], [], []
        for bi, (ny, nx) in enumerate(blocks):
            mats.append(rng.random((ny, nx)) + 0.1)
            rl += [f"y{bi}_{i}" for i in range(ny)]
            cl += [f"x{bi}_{j}" for j in range(nx)]
        total_r = sum(m.shape[0] for m in mats)
        total_c = sum(m.shape[1] for m in mats)
        w = np.zeros((total_r, total_c))
        r = c = 0
        for m in mats:
            w[r : r + m.shape[0], c : c + m.shape[1]] = m
            r += m.shape[0]
            c += m.shape[1]
        return rl, cl, w / w.sum()

    def test_multiplicity_equals_components(self, rng):
        for _ in range(25):
            nblocks = int(rng.integers(1, 6))
            blocks = [
                (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
                for _ in range(nblocks)
            ]
            rows, cols, w = self._block_joint(rng, blocks)
            assert singular_one_multiplicity(build_dtm(rows, cols, w)) == nblocks
            assert bipartite_components(w) == nblocks

    def test_multiplicity_tol_validation(self, rng):
        b = build_dtm(*random_joint(rng, 3, 3))
        with pytest.raises(ConfigError, match=r"tol must be in \(0, 0\.5\), got 0\.7"):
            singular_one_multiplicity(b, tol=0.7)
        with pytest.raises(ConfigError, match=r"tol must be in \(0, 0\.5\), got 0\.0"):
            singular_one_multiplicity(b, tol=0.0)
