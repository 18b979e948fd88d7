import numpy as np
import pytest

from coupclust.core import build_dtm
from coupclust.embedding import EmbeddingMatrix, dtm_embed, write_embedding_tsv
from coupclust.errors import ConfigError

from conftest import normalized_joint, random_joint


class TestDtmEmbed:
    def test_first_coordinate_constant(self, rng):
        for _ in range(10):
            dtm = build_dtm(
                *random_joint(rng, int(rng.integers(3, 9)), int(rng.integers(3, 8)))
            )
            d = min(3, min(dtm.shape))
            emb = dtm_embed(dtm, d)
            assert np.ptp(emb.vectors[:, 0]) <= 1e-8

    def test_subspace_identity(self, rng):
        # rows are [P_Y]^{-1/2} U; re-whitening must recover an orthonormal U
        dtm = build_dtm(*random_joint(rng, 6, 5))
        emb = dtm_embed(dtm, 3)
        u = emb.vectors * dtm.row_pmf.sqrt_probs[:, None]
        np.testing.assert_allclose(u.T @ u, np.eye(3), atol=1e-10)

    def test_sign_convention(self, rng):
        dtm = build_dtm(*random_joint(rng, 7, 6))
        emb = dtm_embed(dtm, 4)
        u = emb.vectors * dtm.row_pmf.sqrt_probs[:, None]
        for j in range(4):
            i = int(np.argmax(np.abs(u[:, j])))
            assert u[i, j] > 0

    def test_d_too_large(self, rng):
        dtm = build_dtm(*random_joint(rng, 4, 6))
        with pytest.raises(ConfigError, match=r"d = 5 exceeds min\(\|Y\|, \|X\|\) = 4"):
            dtm_embed(dtm, 5)

    def test_rank_deficient_detected(self):
        # rank-2 joint: two distinct row profiles
        w = np.array(
            [
                [4.0, 1.0, 1.0],
                [4.0, 1.0, 1.0],
                [1.0, 3.0, 2.0],
                [1.0, 3.0, 2.0],
            ]
        )
        dtm = build_dtm(
            *normalized_joint(("a", "b", "c", "d"), ("u", "v", "w"), w)
        )
        dtm_embed(dtm, 2)
        with pytest.raises(ConfigError, match="d = 3 exceeds the numerical rank 2"):
            dtm_embed(dtm, 3)

    def test_d_validation(self, rng):
        dtm = build_dtm(*random_joint(rng, 4, 4))
        with pytest.raises(ConfigError, match="d must be >= 1"):
            dtm_embed(dtm, 0)

    def test_deterministic(self, rng):
        dtm = build_dtm(*random_joint(rng, 8, 7))
        e1 = dtm_embed(dtm, 3)
        e2 = dtm_embed(dtm, 3)
        assert np.array_equal(e1.vectors, e2.vectors)


    def test_no_full_svd(self, rng, monkeypatch):
        # The embedding reads only U[:, :d], from the Gram matrix's top
        # eigenpairs.
        dtm = build_dtm(*random_joint(rng, 9, 7))
        ref = np.linalg.svd(dtm.matrix)[0][:, :4]

        def full_svd(*args, **kwargs):
            raise AssertionError("full SVD taken")

        monkeypatch.setattr(np.linalg, "svd", full_svd)
        emb = dtm_embed(dtm, 4)
        u = emb.vectors * dtm.row_pmf.sqrt_probs[:, None]
        np.testing.assert_allclose(np.abs(u.T @ ref), np.eye(4), atol=1e-10)


RANK2 = np.array(
    [
        [4.0, 1.0, 1.0],
        [4.0, 1.0, 1.0],
        [1.0, 3.0, 2.0],
        [1.0, 3.0, 2.0],
    ]
)


class TestRankThreshold:
    # RANK2 + eps * E00: sigma_3 grows with eps. The cutoff is
    # sqrt(max(|Y|, |X|) * eps_machine) = 3e-8 here: a sigma_3 of 1e-5
    # counts toward the rank, one of 1e-9 is below what the Gram
    # eigenvalues resolve.
    @pytest.mark.parametrize(
        "eps, sigma_3, accepted", [(1.2e-3, 1e-5, True), (1.2e-7, 1e-9, False)]
    )
    def test_third_dimension(self, eps, sigma_3, accepted):
        w = RANK2.copy()
        w[0, 0] += eps
        dtm = build_dtm(
            *normalized_joint(("a", "b", "c", "d"), ("u", "v", "w"), w)
        )
        s = np.linalg.svd(dtm.matrix, compute_uv=False)
        assert sigma_3 / 2 < s[2] < sigma_3 * 2
        if accepted:
            emb = dtm_embed(dtm, 3)
            u = emb.vectors * dtm.row_pmf.sqrt_probs[:, None]
            np.testing.assert_allclose(u.T @ u, np.eye(3), atol=1e-10)
        else:
            match = r"numerical rank 2 .*threshold 2\.98e-08"
            with pytest.raises(ConfigError, match=match):
                dtm_embed(dtm, 3)


class TestTsv:
    def test_seventeen_digit_roundtrip(self, rng, tmp_path):
        emb = dtm_embed(build_dtm(*random_joint(rng, 5, 4)), 3)
        path = tmp_path / "emb.tsv"
        write_embedding_tsv(emb, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 5
        parsed = []
        for line, label in zip(lines, emb.labels):
            parts = line.split("\t")
            assert parts[0] == label
            parsed.append([float(x) for x in parts[1:]])
        # %.17g is lossless for doubles
        assert np.array_equal(np.array(parsed), emb.vectors)

    def test_bytes_match_a_per_value_format(self, tmp_path):
        # One format string per row writes exactly what formatting each
        # value with f"{v:.17g}" and joining with tabs wrote.
        values = [-0.0, 5e-324, 1e308, 1 / 3, 2.0, -7.0, 1e16, -1.5e-300]
        vectors = np.array([values, values[::-1], [1.0] * len(values)])
        emb = EmbeddingMatrix(("a", "b b", "é"), vectors)
        path = tmp_path / "emb.tsv"
        write_embedding_tsv(emb, path)
        want = "".join(
            label + "\t" + "\t".join(f"{v:.17g}" for v in row) + "\n"
            for label, row in zip(emb.labels, vectors)
        )
        assert path.read_bytes() == want.encode("utf-8")
        assert "\t-0\t4.9406564584124654e-324\t1e+308\t0.33333333333333331\t2\t" in want
