import hashlib

import numpy as np
import pytest

from coupclust import svd
from coupclust.core import Dtm, build_dtm
from coupclust.embedding import dtm_embed
from coupclust.errors import ConfigError, CoupclustError

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
        with pytest.raises(ConfigError, match=rf"r = {r} outside 1\.\.4"):
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


def _recording_eigh(monkeypatch):
    # The order of every matrix np.linalg.eigh decomposes from here on.
    sizes = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return sizes


def _planted_dtm(ny, nx, blocks=8, cross=0.05, seed=3):
    # Items and features in `blocks` groups: sigma_8 is far above sigma_9.
    rng = np.random.default_rng(seed)
    same = (np.arange(ny) % blocks)[:, None] == (np.arange(nx) % blocks)[None, :]
    weights = np.where(same, 1.0, cross) * rng.uniform(0.5, 1.5, size=(ny, nx))
    rows = tuple(f"y{i}" for i in range(ny))
    cols = tuple(f"x{j}" for j in range(nx))
    return build_dtm(*normalized_joint(rows, cols, weights))


@pytest.mark.parametrize("shape", [(400, 600), (600, 400)], ids=["wide", "tall"])
def test_top_iterates_on_a_gapped_joint(monkeypatch, shape):
    # With a wide gap after sigma_8, subspace iteration converges within its
    # budget: no n x n matrix is decomposed, the result is LAPACK's at the
    # tolerances of test_top_matches_full_svd, and reruns give the same bits.
    b = _planted_dtm(*shape)
    r = 8
    u_ref, s_ref, _ = np.linalg.svd(b.matrix, full_matrices=False)
    u_ref = u_ref[:, :r]
    sizes = _recording_eigh(monkeypatch)
    u, s = b.top(r)
    assert sizes and max(sizes) < min(shape)
    np.testing.assert_allclose(s, s_ref[:r], rtol=0, atol=1e-12)
    np.testing.assert_allclose(u.T @ u, np.eye(r), rtol=0, atol=1e-12)
    assert np.linalg.norm(u - u_ref @ (u_ref.T @ u), 2) <= 1e-10
    u2, s2 = b.top(r)
    assert np.array_equal(u, u2) and np.array_equal(s, s2)


def _eigh_route(matrix, r):
    # gram_top's result when it decomposes the whole Gram matrix.
    wide = matrix.shape[0] <= matrix.shape[1]
    lam, vecs = np.linalg.eigh(matrix @ matrix.T if wide else matrix.T @ matrix)
    lam, vecs = lam[::-1][:r], vecs[:, ::-1][:, :r]
    return (np.ascontiguousarray(vecs) if wide else np.linalg.qr(matrix @ vecs)[0]), lam


@pytest.mark.parametrize("shape", [(300, 900), (900, 300), (400, 400)])
def test_top_falls_back_to_eigh_on_a_weak_gap(rng, monkeypatch, shape):
    # sigma_16 and sigma_17 of a sparse random joint are close, so the
    # residuals decay too slowly: after at most 3 steps the Gram matrix takes
    # one eigh, and the result has the bits of that eigh alone.
    b = build_dtm(*_sparse_joint(rng, shape))
    r, n = 16, min(shape)
    u_ref, lam = _eigh_route(b.matrix, r)
    sizes = _recording_eigh(monkeypatch)
    u, s = b.top(r)
    assert sizes[-1] == n and 1 <= len(sizes) - 1 <= 3
    assert max(sizes[:-1]) < n
    assert np.array_equal(u, u_ref)
    assert np.array_equal(s, np.sqrt(np.maximum(lam, 0.0)))


def test_top_takes_eigh_when_the_residual_stops_falling(monkeypatch):
    # B B^T = 100 v v^T + E E^T, with E orthonormal, p columns wide, and v
    # nearly orthogonal to the span of _ritz_top's fixed +-1 start. From
    # step 2 the block lies in span(v, E); its top Ritz vector mixes v into E
    # in a ratio that grows 100-fold a step, so its residual grows too while
    # v is still small. At step 3 iterating gives up for one eigh.
    n, r = 200, 1
    p = r + max(r // 2, 8)
    start = np.linalg.qr(svd._signs(n, p))[0]
    rng = np.random.default_rng(1)
    v = rng.standard_normal(n)
    v -= start @ (start.T @ v)
    v = v / np.linalg.norm(v) + 1e-8 * start[:, 0]
    v /= np.linalg.norm(v)
    e = rng.standard_normal((n, p))
    e -= np.outer(v, v @ e)
    e = np.linalg.qr(e)[0]
    b = 10.0 * np.outer(v, v) + e @ e.T
    want = _eigh_route(b, r)
    residuals = []
    norm = np.linalg.norm

    def recording(x, *args, **kwargs):
        out = norm(x, *args, **kwargs)
        if kwargs.get("axis") == 0:
            residuals.append(float(out[0]))
        return out

    monkeypatch.setattr(np.linalg, "norm", recording)
    sizes = _recording_eigh(monkeypatch)
    got = svd.gram_top(b, r)
    assert sizes == [p, p, p, n]
    assert len(residuals) == 3 and residuals[2] > residuals[1]
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_sign_start_is_well_conditioned_and_pinned():
    # Every start _ritz_top can take (n >= 4p rows) is as well conditioned
    # as a random +-1 matrix: sigma_min >= 0.4 sqrt(n), where a random one
    # has about (1 - sqrt(p / n)) sqrt(n). The hash fixes every bit, so the
    # start cannot change without this digest changing.
    for r in range(1, 65):
        p = r + max(r // 2, 8)
        for n in sorted({4 * p, 4 * p + 1, 4 * p + 7, 8 * p, 700, 1500, 3001}):
            signs = svd._signs(n, p)
            assert set(np.unique(signs)) == {-1.0, 1.0}
            sigma_min = np.linalg.svd(signs, compute_uv=False)[-1]
            assert sigma_min >= 0.4 * np.sqrt(n), (r, n)
    signs = svd._signs(768, 24)
    assert signs.dtype == np.float64 and signs.shape == (768, 24)
    assert np.array_equal(svd._signs(100, 24), signs[:100])
    digest = hashlib.sha256(signs.tobytes()).hexdigest()
    assert digest == "0e8608e9ae218d787d65e7d01cd9d371ce78be8fe8848fba9b36a7a86a363ea6"


def test_top_takes_eigh_when_the_step_budget_is_spent(rng, monkeypatch):
    # 40 rows allow n // 25 = 1 step, too few for a random Gram matrix; the
    # loop ends unconverged, and one eigh of the 40 x 40 matrix follows.
    b = rng.random((40, 60))
    want = _eigh_route(b, 1)
    sizes = _recording_eigh(monkeypatch)
    got = svd.gram_top(b, 1)
    assert sizes == [9, 40]
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_rank_check_holds_on_the_iterated_route(monkeypatch):
    # A sum of 5 positive outer products has rank 5. Its null space
    # converges at once, so the iteration returns rounding-level Ritz values
    # beyond sigma_5, and dtm_embed still refuses d = 8 by its threshold.
    rng = np.random.default_rng(5)
    weights = rng.random((400, 5)) @ rng.random((5, 500))
    rows = tuple(f"y{i}" for i in range(400))
    cols = tuple(f"x{j}" for j in range(500))
    dtm = build_dtm(*normalized_joint(rows, cols, weights))
    sizes = _recording_eigh(monkeypatch)
    with pytest.raises(
        ConfigError,
        match=r"d = 8 exceeds the numerical rank 5 of the DTM: sigma_8 = \S+ is "
        r"at or below the threshold \S+ = sqrt\(max\(\|Y\|, \|X\|\) \* eps\) \* sigma_1",
    ):
        dtm_embed(dtm, 8)
    assert sizes and max(sizes) < 400
