import numpy as np
import pytest

from coupclust import simplex
from coupclust.simplex import project_columns

from conftest import oracle_project
from paper_identities import sorted_project_columns


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


def _reference_cases(k, scale, rng):
    """(columns, weights, totals) that exercise the active-set loop.

    The weights are sqrt(P_Z) of a random P_Z: down to 1e-10 at scales up
    to 1, and to 1e-7 beyond. Both methods shift each column by its top
    breakpoint v_z / w_z; when that row's weight squared is below eps
    against the others' and the breakpoints exceed c / eps, the shift
    rounds the kept rows' breakpoints away and tau rounds either way in
    both methods, so neither is the other's reference. The columns are
    noise at `scale` around random offsets, a feasible point, one column
    whose breakpoints fall by a factor k + 1 from row to row (each pass
    drops only its lowest row), and, for k >= 2, one whose second
    breakpoint overflows to -inf once shifted by the first, the heaviest.
    """
    floor = 1e-20 if scale <= 1.0 else 1e-14
    p = 10.0 ** rng.uniform(np.log10(floor), 0.0, size=k)
    w = np.sqrt(p / p.sum())
    noise = rng.normal(size=(k, 40)) + rng.normal(size=(1, 40)) * 3.0
    cols = [noise * scale, rng.random((k, 1)) * scale]
    steep = -float(k + 1) ** np.arange(k) * (scale / float(k + 1) ** (k - 1))
    cols.append((w * steep)[:, None])
    if k >= 2:
        huge = np.zeros(k)
        top = int(np.argmax(w))
        huge[top], huge[top - 1] = 1.5e308, -1.5e308
        cols.append((w * huge)[:, None])
    mat = np.hstack(cols)
    totals = rng.uniform(0.1, 2.0, size=mat.shape[1])
    return mat, w, totals


class TestAgainstSortedReference:
    """The active-set projection against the sort-then-threshold one."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e8, 1e16])
    @pytest.mark.parametrize("k", [1, 2, 8, 32, 128])
    def test_matches_within_k_passes(self, k, scale, monkeypatch):
        mat, w, totals = _reference_cases(k, scale, np.random.default_rng(k))
        passes = []
        tau = simplex._tau
        monkeypatch.setattr(
            simplex, "_tau", lambda *a: passes.append(1) or tau(*a)
        )
        got = project_columns(mat, w, totals)
        want = sorted_project_columns(mat, w, totals)
        # A column's scale: its largest output, or the largest weight times
        # the widest gap from its top breakpoint to a row it keeps, the size
        # of w (v / w - tau) before the subtraction cancels.
        with np.errstate(over="ignore", invalid="ignore"):
            br = mat / w[:, None]
            gap = np.where(want > 0.0, br.max(axis=0) - br, 0.0).max(axis=0)
        col_scale = np.maximum(w.max() * gap, want.max(axis=0))
        assert np.all(np.abs(got - want) <= 1e-14 * col_scale)
        assert 1 <= len(passes) <= k

    def test_rounding_cannot_lower_tau(self):
        # The first two rows weigh next to nothing against the last two,
        # whose shifted breakpoints (-3.7e16) hold only to within 8. The
        # second pass's tau rounds onto the third row's breakpoint and drops
        # it, though exactly that row keeps 1.34. The first two rows alone
        # give a tau 1.7e16 lower; let fall, it lifts the dropped rows again
        # and the loop ends with the third row at 4.7e7. Held at the second
        # pass's tau, the column matches the reference.
        v = np.array(
            [[5099999.415500167], [40049126.752206266],
             [-84412970.71136358], [-157531387.30985984]]
        )
        w = np.array([1.3840029890732398e-10, 7.080788208011705e-09,
                      0.6487887954006114, 0.428690949432473])
        c = 1.1525076279851998
        np.testing.assert_allclose(
            project_columns(v, w, c), sorted_project_columns(v, w, c), rtol=1e-12
        )
