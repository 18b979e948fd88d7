import numpy as np
import pytest

from coupclust.simplex import project_columns

from conftest import oracle_project


def project_vector(v):
    """The probability-simplex projection of one vector, as a column."""
    return project_columns(np.asarray(v)[:, None])[:, 0]


class TestAgainstOracle:
    def test_random_vectors(self, rng):
        for _ in range(200):
            v = rng.normal(size=5) * rng.choice([0.1, 1.0, 10.0])
            got = project_vector(v)
            want = oracle_project(v)
            assert np.max(np.abs(got - want)) <= 1e-8
            assert abs(got.sum() - 1.0) <= 1e-12
            assert np.all(got >= 0)

    def test_hand_cases(self):
        np.testing.assert_allclose(
            project_vector(np.array([1.2, -0.2])), [1.0, 0.0], atol=1e-15
        )
        np.testing.assert_allclose(
            project_vector(np.array([0.4, 0.4])), [0.5, 0.5], atol=1e-15
        )
        np.testing.assert_allclose(
            project_vector(np.array([0.3, 0.3, 0.4])), [0.3, 0.3, 0.4], atol=1e-15
        )
        np.testing.assert_allclose(
            project_vector(np.array([-5.0, -6.0, -7.0])), [1.0, 0.0, 0.0], atol=1e-15
        )
        np.testing.assert_allclose(project_vector(np.array([42.0])), [1.0])


class TestProperties:
    def test_idempotent(self, rng):
        for _ in range(50):
            v = rng.normal(size=int(rng.integers(1, 9)))
            once = project_vector(v)
            twice = project_vector(once)
            assert np.max(np.abs(once - twice)) <= 1e-15

    def test_nonexpansive(self, rng):
        # projection onto a convex set is 1-Lipschitz
        for _ in range(100):
            n = int(rng.integers(2, 8))
            a = rng.normal(size=n) * 3
            b = a + rng.normal(size=n) * 0.5
            pa, pb = project_vector(a), project_vector(b)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12

    def test_feasible_points_fixed(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 7))
            p = rng.random(n) + 1e-3
            p /= p.sum()
            assert np.max(np.abs(project_vector(p) - p)) <= 1e-12

    def test_shift_invariance(self, rng):
        # projection commutes with adding a constant to every coordinate
        for _ in range(30):
            v = rng.normal(size=6)
            c = float(rng.normal()) * 10
            assert np.max(np.abs(project_vector(v) - project_vector(v + c))) <= 1e-9


class TestColumns:
    def test_matches_vector_route(self, rng):
        # Each column is projected on its own: the matrix result equals the
        # projections of its columns one at a time.
        mat = rng.normal(size=(4, 7))
        cols = project_columns(mat)
        for j in range(7):
            np.testing.assert_array_equal(cols[:, j], project_vector(mat[:, j]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            project_vector(np.array([]))
        with pytest.raises(ValueError):
            project_columns(np.zeros((0, 3)))

    def test_wrong_ndim(self):
        with pytest.raises(ValueError):
            project_columns(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            project_columns(np.zeros(4))

    def test_large_entries_keep_the_simplex(self):
        # Unshifted, `css - 1.0` rounds the 1 away at this size and the
        # column clips to all zeros.
        np.testing.assert_array_equal(
            project_columns(np.array([[1e16], [1e16]])), [[0.5], [0.5]]
        )
        np.testing.assert_array_equal(
            project_vector(np.array([1e16 + 2.0, 1e16])), [1.0, 0.0]
        )

    @pytest.mark.parametrize(
        "first",
        [[1e308, 1e308], [np.inf, 0.0], [np.inf, -np.inf], [np.nan, 0.0]],
        ids=["overflow", "inf", "inf-inf", "nan"],
    )
    def test_nonfinite_column_sum_rejected(self, first):
        # The sum of the first column is past the float range (or undefined);
        # the threshold would be inf or nan and the column would clip to zero.
        mat = np.array([first, [1.0, 2.0]]).T
        with pytest.raises(ValueError, match="not finite"):
            project_columns(mat)
        with pytest.raises(ValueError, match="not finite"):
            project_vector(mat[:, 0])


class TestBackendParity:
    """Sign of clipped zeros, which byte-identical artifacts depend on."""

    def test_negative_zero_normalized(self):
        out = project_vector(np.array([1.5, -0.5, -0.25]))
        zeros = out[out == 0.0]
        assert not np.any(np.signbit(zeros))
