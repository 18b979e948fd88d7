import numpy as np
import pytest

from coupclust.core import JointPmf, build_dtm
from coupclust.errors import NonFinite
from coupclust.svd import (
    exact_svd,
    randomized_svd,
    top_singular_value_sym,
)


def test_exact_matches_numpy(rng):
    a = rng.normal(size=(7, 5))
    u, s, vt = exact_svd(a)
    np.testing.assert_allclose(u @ np.diag(s) @ vt, a, atol=1e-12)
    assert np.all(np.diff(s) <= 0)


def test_randomized_recovers_low_rank(rng):
    # rank-3 matrix with a clean spectral gap
    u = np.linalg.qr(rng.normal(size=(40, 3)))[0]
    v = np.linalg.qr(rng.normal(size=(30, 3)))[0]
    a = u @ np.diag([5.0, 2.0, 1.0]) @ v.T
    ur, sr, vtr = randomized_svd(a, rank=3, seed=0)
    np.testing.assert_allclose(sr, [5.0, 2.0, 1.0], atol=1e-9)
    np.testing.assert_allclose(ur @ np.diag(sr) @ vtr, a, atol=1e-9)


def test_randomized_full_block_is_exact(rng):
    a = rng.normal(size=(10, 6))
    _, s_exact, _ = exact_svd(a)
    _, s_rand, _ = randomized_svd(a, rank=6, seed=0)
    np.testing.assert_allclose(s_rand, s_exact, atol=1e-10)


def test_randomized_deterministic(rng):
    a = rng.normal(size=(20, 15))
    r1 = randomized_svd(a, rank=4, seed=3)
    r2 = randomized_svd(a, rank=4, seed=3)
    for x, y in zip(r1, r2):
        assert np.array_equal(x, y)


def test_randomized_rank_validation(rng):
    a = rng.normal(size=(4, 4))
    with pytest.raises(ValueError):
        randomized_svd(a, rank=0)


@pytest.mark.parametrize("shape", [(12, 9), (520, 600)])
def test_dtm_svd_is_lapack_at_every_size(rng, shape):
    # One route for every DTM, small or large: the cached SVD is LAPACK's.
    weights = rng.uniform(0.1, 1.0, size=shape)
    rows = tuple(f"y{i}" for i in range(shape[0]))
    cols = tuple(f"x{j}" for j in range(shape[1]))
    b = build_dtm(JointPmf.from_weights(rows, cols, weights))
    expected = np.linalg.svd(b.matrix, full_matrices=False)
    for got, want in zip(b.svd(), expected):
        assert np.array_equal(got, want)


def test_top_singular_value_sym(rng):
    q = np.linalg.qr(rng.normal(size=(8, 8)))[0]
    mat = q @ np.diag([3.0, 1.0, 0.5, 0.1, 0.05, 0.01, 0.001, 0.0]) @ q.T
    est = top_singular_value_sym(lambda v: mat @ v, 8)
    assert est == pytest.approx(3.0, rel=1e-6)


def test_top_singular_value_zero_matrix():
    assert top_singular_value_sym(lambda v: np.zeros(4), 4) == 0.0


def test_top_singular_value_overflow_raises():
    with pytest.raises(NonFinite, match="overflowed"):
        top_singular_value_sym(lambda v: np.full(4, 1e300), 4)
