import hashlib

import numpy as np
import pytest

from coupclust import svd
from coupclust.core import Dtm, build_dtm
from coupclust.embedding import dtm_embed
from coupclust.errors import ConfigError, CoupclustError

from conftest import normalized_joint, singular_values, zipf_joint


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
    # One route for every DTM, small or large: its whole spectrum from
    # Dtm.top is LAPACK's, descending, recomputed with the same bits on
    # every call.
    weights = rng.uniform(0.1, 1.0, size=shape)
    rows = tuple(f"y{i}" for i in range(shape[0]))
    cols = tuple(f"x{j}" for j in range(shape[1]))
    b = build_dtm(*normalized_joint(rows, cols, weights))
    s = b.top(min(shape))[1]
    np.testing.assert_allclose(s, singular_values(b), rtol=0, atol=1e-12)
    assert np.all(np.diff(s) <= 0)
    again = b.top(min(shape))[1]
    assert again is not s and np.array_equal(again, s)


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


def _iterated_top_is_lapacks(b, r, monkeypatch):
    # The top r of b as LAPACK has them, at the tolerances of
    # test_top_matches_full_svd, taken with no n x n eigh; reruns give the
    # same bits. Returns the orders of the matrices eigh decomposed.
    u_ref, s_ref, _ = np.linalg.svd(b.matrix, full_matrices=False)
    u_ref = u_ref[:, :r]
    sizes = _recording_eigh(monkeypatch)
    u, s = b.top(r)
    assert sizes and max(sizes) < min(b.shape)
    np.testing.assert_allclose(s, s_ref[:r], rtol=0, atol=1e-12)
    np.testing.assert_allclose(u.T @ u, np.eye(r), rtol=0, atol=1e-12)
    assert np.linalg.norm(u - u_ref @ (u_ref.T @ u), 2) <= 1e-10
    u2, s2 = b.top(r)
    assert np.array_equal(u, u2) and np.array_equal(s, s2)
    return sizes


@pytest.mark.parametrize("shape", [(400, 600), (600, 400)], ids=["wide", "tall"])
def test_top_iterates_on_a_gapped_joint(monkeypatch, shape):
    # With a wide gap after sigma_8, the block Krylov iteration converges
    # within its budget.
    _iterated_top_is_lapacks(_planted_dtm(*shape), 8, monkeypatch)


@pytest.mark.parametrize("r", [2, 8])
@pytest.mark.parametrize("wide", [True, False], ids=["wide", "tall"])
def test_top_iterates_on_sparse_zipf_at_in_group_half(monkeypatch, wide, r):
    # Sparse Zipf at in-group 0.5 has a weak gap after sigma_2 and sigma_8:
    # subspace iteration on the Gram matrix gave up there for a full eigh.
    # Block Krylov converges in 13-16 of its 24 blocks.
    rows, cols, weights = zipf_joint(0, 768, 1024, draws=70_000, in_group=0.5)
    b = build_dtm(rows, cols, weights) if wide else build_dtm(cols, rows, weights.T)
    assert len(_iterated_top_is_lapacks(b, r, monkeypatch)) >= 13


@pytest.mark.parametrize("r", [2, 8, 16])
@pytest.mark.parametrize("shape", [(400, 500), (500, 400)], ids=["wide", "tall"])
def test_top_stops_at_an_invariant_subspace_below_rank_8(monkeypatch, shape, r):
    # B has rank 5. The second block holds the rest of B's column space, so
    # the two-block basis is an invariant subspace of G: every residual is
    # at rounding level after two steps, including those of the zero
    # eigenvalues when r > 5 (their singular values come back below
    # sqrt(eps), as the route's unresolved tail). At r = 16 the zero
    # eigenvalue is held 11 times; being zero, any copy the start misses
    # would change nothing, so no eigh is taken.
    rng = np.random.default_rng(5)
    weights = rng.random((shape[0], 5)) @ rng.random((5, shape[1]))
    rows = tuple(f"y{i}" for i in range(shape[0]))
    cols = tuple(f"x{j}" for j in range(shape[1]))
    b = build_dtm(*normalized_joint(rows, cols, weights))
    u_ref, s_ref, _ = np.linalg.svd(b.matrix, full_matrices=False)
    sizes = _recording_eigh(monkeypatch)
    u, s = b.top(r)
    assert sizes == [8, 16]
    k = min(r, 5)
    np.testing.assert_allclose(s[:k], s_ref[:k], rtol=0, atol=1e-12)
    assert np.all(s[k:] < 1e-7)
    np.testing.assert_allclose(u.T @ u, np.eye(r), rtol=0, atol=1e-12)
    assert np.linalg.norm(u[:, :k] - u_ref[:, :k] @ (u_ref[:, :k].T @ u[:, :k]), 2) <= 1e-10
    u2, s2 = b.top(r)
    assert np.array_equal(u, u2) and np.array_equal(s, s2)


def test_top_takes_eigh_when_an_invariant_subspace_is_too_narrow(monkeypatch):
    # A diagonal joint has B = I, so every subspace is invariant: the rest of
    # the first block's product outside the basis is rounding-level while
    # the basis holds 8 < r = 12 columns, and the Gram matrix takes one eigh.
    # With r = 4 the first block's Ritz pairs are exact and are returned.
    p = np.random.default_rng(2).uniform(0.5, 1.5, size=100)
    labels = tuple(f"y{i}" for i in range(100))
    b = build_dtm(*normalized_joint(labels, labels, np.diag(p)))
    want = _eigh_route(b.matrix, 12)
    sizes = _recording_eigh(monkeypatch)
    u, s = b.top(12)
    assert sizes == [8, 100]
    assert np.array_equal(u, want[0]) and np.array_equal(s, np.sqrt(want[1]))
    sizes.clear()
    u, s = b.top(4)
    assert sizes == [8]
    np.testing.assert_allclose(s, 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(u.T @ u, np.eye(4), rtol=0, atol=1e-12)


def _exact_blocks_dtm(blocks, size=40, cross=0.05):
    # No jitter: sigma_2 = ... = sigma_blocks, one value held blocks - 1
    # times, and sigma_(blocks + 1) = 0.
    same = (np.arange(blocks * size) % blocks)[:, None] == (
        np.arange(blocks * size) % blocks
    )[None, :]
    labels = tuple(f"y{i}" for i in range(blocks * size))
    return build_dtm(*normalized_joint(labels, labels, np.where(same, 1.0, cross)))


def test_top_takes_eigh_where_a_value_may_have_more_copies_than_a_block(monkeypatch):
    # 10 exact blocks hold one singular value 9 times. From an 8-column
    # start the basis reaches only 8 copies, so r = 10 would return 0 for
    # sigma_10; the iteration sees 8 equal Ritz values where a further copy
    # would rank in the top 10 and takes the eigh. With r = 9 the 8 copies
    # it holds are enough, and the top 9 values come from the iteration.
    b = _exact_blocks_dtm(10)
    n = b.shape[0]
    s_ref = np.linalg.svd(b.matrix, compute_uv=False)
    want = _eigh_route(b.matrix, 10)
    sizes = _recording_eigh(monkeypatch)
    u, s = b.top(10)
    assert sizes[-1] == n and max(sizes[:-1]) < n
    assert np.array_equal(u, want[0])
    np.testing.assert_allclose(s, s_ref[:10], rtol=0, atol=1e-12)
    sizes.clear()
    u, s = b.top(9)
    assert max(sizes) < n
    np.testing.assert_allclose(s, s_ref[:9], rtol=0, atol=1e-12)
    np.testing.assert_allclose(u.T @ u, np.eye(9), rtol=0, atol=1e-12)
    # Any basis of the repeated value's space will do: U lies in the top 10.
    top = np.linalg.svd(b.matrix)[0][:, :10]
    assert np.linalg.norm(u - top @ (top.T @ u), 2) <= 1e-10


def _eigh_route(matrix, r):
    # gram_top's result when it decomposes the whole Gram matrix.
    wide = matrix.shape[0] <= matrix.shape[1]
    lam, vecs = np.linalg.eigh(matrix @ matrix.T if wide else matrix.T @ matrix)
    lam, vecs = lam[::-1][:r], vecs[:, ::-1][:, :r]
    return (np.ascontiguousarray(vecs) if wide else np.linalg.qr(matrix @ vecs)[0]), lam


@pytest.mark.parametrize("shape", [(300, 900), (900, 300), (400, 400)])
def test_top_falls_back_to_eigh_on_a_weak_gap(rng, monkeypatch, shape):
    # A sparse random joint has no gap after sigma_2 or sigma_16, so the
    # residuals decay too slowly: by the first step the predictor reads
    # (after the warm-up) the Gram matrix takes one eigh, and the result
    # has the bits of that eigh alone, on every rerun.
    b = build_dtm(*_sparse_joint(rng, shape))
    n = min(shape)
    for r in (2, 16):
        u_ref, lam = _eigh_route(b.matrix, r)
        sizes = _recording_eigh(monkeypatch)
        u, s = b.top(r)
        steps = len(sizes) - 1
        assert sizes[-1] == n and 1 <= steps <= svd._WARMUP + 1
        assert sizes[:-1] == [svd._BLOCK * (j + 1) for j in range(steps)]
        assert np.array_equal(u, u_ref)
        assert np.array_equal(s, np.sqrt(np.maximum(lam, 0.0)))
        u2, s2 = b.top(r)
        assert np.array_equal(u, u2) and np.array_equal(s, s2)
        monkeypatch.undo()


def test_top_takes_eigh_when_the_residual_stops_falling(monkeypatch):
    # B is symmetric, so G = B B^T = B^2: eigenvalue 1 on v, 0.5 on one more
    # vector and a bulk spread over [0, 0.05]. v is nearly orthogonal to the
    # span of _ritz_top's fixed +-1 start (a 1e-10 component), so the basis
    # finds the 0.5 pair first, whose residual falls to about 1e-7 by step 6.
    # At step 7 the basis reaches v: the top Ritz value jumps towards 1 and
    # its residual rises. That is past the warm-up, so iterating gives up
    # for one eigh.
    n, r = 400, 1
    start = np.linalg.qr(svd._signs(n, svd._BLOCK))[0]
    rng = np.random.default_rng(1)
    v = rng.standard_normal(n)
    v -= start @ (start.T @ v)
    v = v / np.linalg.norm(v) + 1e-10 * start[:, 0]
    v /= np.linalg.norm(v)
    rest = rng.standard_normal((n, n - 1))
    rest -= np.outer(v, v @ rest)
    vecs = np.column_stack([v, np.linalg.qr(rest)[0]])
    lam = np.concatenate([[1.0, 0.5], np.linspace(0.05, 0.0, n - 2)])
    b = (vecs * np.sqrt(lam)) @ vecs.T
    want = _eigh_route(b, r)
    residuals = []
    norm = np.linalg.norm

    def recording(x, *args, **kwargs):
        out = norm(x, *args, **kwargs)
        if kwargs.get("axis") == 0:
            residuals.append(float(np.max(out)))
        return out

    monkeypatch.setattr(np.linalg, "norm", recording)
    sizes = _recording_eigh(monkeypatch)
    got = svd.gram_top(b, r)
    steps = svd._WARMUP + 2
    assert sizes == [svd._BLOCK * (j + 1) for j in range(steps)] + [n]
    assert len(residuals) == steps and residuals[-2] < 1e-6 < 1e-2 < residuals[-1]
    assert np.all(np.diff(residuals[2:-1]) < 0)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_sign_start_is_well_conditioned_and_pinned():
    # Every start _ritz_top can take (n >= 64 rows, a budget of two blocks)
    # is as well conditioned as a random +-1 matrix: sigma_min >= 0.4
    # sqrt(n), where a random one has about (1 - sqrt(p / n)) sqrt(n). The
    # hash fixes every bit, so the start cannot change without this digest
    # changing.
    p = svd._BLOCK
    for n in [*range(64, 1100), 1500, 3001]:
        signs = svd._signs(n, p)
        assert set(np.unique(signs)) == {-1.0, 1.0}
        sigma_min = np.linalg.svd(signs, compute_uv=False)[-1]
        assert sigma_min >= 0.4 * np.sqrt(n), n
    signs = svd._signs(768, 24)
    assert signs.dtype == np.float64 and signs.shape == (768, 24)
    assert np.array_equal(svd._signs(100, 24), signs[:100])
    assert np.array_equal(svd._signs(768, p), signs[:, :p])
    digest = hashlib.sha256(signs.tobytes()).hexdigest()
    assert digest == "0e8608e9ae218d787d65e7d01cd9d371ce78be8fe8848fba9b36a7a86a363ea6"


def test_top_takes_eigh_when_the_step_budget_is_spent(rng, monkeypatch):
    # 80 rows allow n // 32 = 2 blocks, too few for a random Gram matrix and
    # too early for the predictor; the loop ends unconverged, and one eigh
    # of the 80 x 80 matrix follows. Two blocks cannot hold r = 9 columns and
    # one more block, so r = 9 takes the eigh at once. Wide and tall alike.
    for shape in ((80, 100), (100, 80)):
        b = rng.standard_normal(shape)
        want = {r: _eigh_route(b, r) for r in (1, 9)}
        sizes = _recording_eigh(monkeypatch)
        for r, steps in ((1, [8, 16]), (9, [])):
            sizes.clear()
            got = svd.gram_top(b, r)
            assert sizes == steps + [80]
            assert np.array_equal(got[0], want[r][0])
            assert np.array_equal(got[1], want[r][1])
        monkeypatch.undo()


def test_rank_check_holds_on_the_iterated_route(monkeypatch):
    # A sum of 5 positive outer products has rank 5. After two blocks the
    # basis holds B's column space, an invariant subspace, so the iteration
    # returns rounding-level Ritz values beyond sigma_5, and dtm_embed still
    # refuses d = 8 by its threshold.
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
    assert sizes == [8, 16]
