import numpy as np
import pytest

from coupclust.core import Dtm, build_dtm
from coupclust.errors import CoupclustError, InvalidParams, NonFinite
from coupclust.svd import top_singular_value_sym

from conftest import normalized_joint


def test_exact_matches_numpy(rng):
    # The full-rank Gram route spans B's column space and gives LAPACK's
    # singular values, descending.
    weights = rng.uniform(0.1, 1.0, size=(7, 5))
    rows = tuple(f"y{i}" for i in range(7))
    cols = tuple(f"x{j}" for j in range(5))
    b = build_dtm(*normalized_joint(rows, cols, weights))
    u, s = b.top(5)
    np.testing.assert_allclose(u @ (u.T @ b.matrix), b.matrix, atol=1e-12)
    np.testing.assert_allclose(
        s, np.linalg.svd(b.matrix, compute_uv=False), rtol=0, atol=1e-12
    )
    assert np.all(np.diff(s) <= 0)


@pytest.mark.parametrize("shape", [(12, 9), (520, 600)])
def test_dtm_svd_is_lapack_at_every_size(rng, shape):
    # One route for every DTM, small or large: its singular values are
    # LAPACK's, descending, recomputed on every call.
    weights = rng.uniform(0.1, 1.0, size=shape)
    rows = tuple(f"y{i}" for i in range(shape[0]))
    cols = tuple(f"x{j}" for j in range(shape[1]))
    b = build_dtm(*normalized_joint(rows, cols, weights))
    s = b.singular_values()
    assert np.array_equal(s, np.linalg.svd(b.matrix, compute_uv=False))
    assert np.all(np.diff(s) <= 0)
    assert b.singular_values() is not s


def _sparse_joint(rng, shape, density=0.05):
    weights = rng.random(shape) * (rng.random(shape) < density)
    assert np.all(weights.sum(axis=0) > 0) and np.all(weights.sum(axis=1) > 0)
    rows = tuple(f"y{i}" for i in range(shape[0]))
    cols = tuple(f"x{j}" for j in range(shape[1]))
    return normalized_joint(rows, cols, weights)


@pytest.mark.parametrize("shape", [(300, 900), (900, 300), (400, 400)])
def test_top_matches_full_svd(rng, shape):
    # Wide joints take eigh(B B^T), tall ones eigh(B^T B) and U = qr(B V).
    b = build_dtm(*_sparse_joint(rng, shape))
    r = 16
    u, s = b.top(r)
    u_ref, s_ref, _ = np.linalg.svd(b.matrix, full_matrices=False)
    u_ref = u_ref[:, :r]
    assert u.shape == (shape[0], r)
    np.testing.assert_allclose(s, s_ref[:r], rtol=0, atol=1e-12)
    np.testing.assert_allclose(u.T @ u, np.eye(r), rtol=0, atol=1e-12)
    assert np.linalg.norm(u - u_ref @ (u_ref.T @ u), 2) <= 1e-10


def test_top_rejects_r_out_of_range(rng):
    weights = rng.uniform(0.1, 1.0, size=(5, 4))
    b = build_dtm(*normalized_joint(tuple("abcde"), tuple("uvwx"), weights))
    for r in (0, 5):
        with pytest.raises(InvalidParams, match=r"outside 1\.\.4"):
            b.top(r)
    assert b.top(4)[0].shape == (5, 4)


def test_top_checks_the_dtm_invariant(rng):
    # B + 3 u v^T with u _|_ sqrt(P_Y), v _|_ sqrt(P_X) keeps both marginal
    # identities, so Dtm accepts it, but its top singular value is >= 2.
    weights = rng.uniform(0.1, 1.0, size=(5, 4))
    good = build_dtm(*normalized_joint(tuple("abcde"), tuple("uvwx"), weights))
    sy, sx = good.row_pmf.sqrt_probs, good.col_pmf.sqrt_probs
    u = rng.normal(size=5)
    u -= (u @ sy) * sy
    v = rng.normal(size=4)
    v -= (v @ sx) * sx
    matrix = good.matrix + 3.0 * np.outer(u, v) / (
        np.linalg.norm(u) * np.linalg.norm(v)
    )
    bad = Dtm(matrix, good.row_pmf, good.col_pmf)
    with pytest.raises(CoupclustError, match="DTM invariant violated"):
        bad.singular_values()
    with pytest.raises(CoupclustError, match="DTM invariant violated"):
        bad.top(2)


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
