import numpy as np
import pytest

from coupclust.core import JointPmf, build_dtm
from coupclust.errors import NonFinite
from coupclust.svd import exact_svd, top_singular_value_sym


def test_exact_matches_numpy(rng):
    a = rng.normal(size=(7, 5))
    u, s, vt = exact_svd(a)
    np.testing.assert_allclose(u @ np.diag(s) @ vt, a, atol=1e-12)
    assert np.all(np.diff(s) <= 0)


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
