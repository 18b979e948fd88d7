"""Metamorphic relations: changes of the joint that the objectives cannot see.

Each relation transforms the joint in a way whose effect on the solve or
on the norm is known exactly, so it needs no reference run and holds at
any size. Tolerances are stated per relation; they cover rounding only.
Relations are numbered as in ROADMAP item 20.

1. Same B B^T. Splitting a feature into two half-mass copies scales its
   DTM column by 1/sqrt(2) twice over, so B B^T, every chain A B's left
   singular vectors and singular values, and so every solve are unchanged.
2. t-mixture. P_t = (1 - t) P_Y P_X^T + t P_{Y,X} keeps both marginals and
   scales the DTM's nontrivial part: B_t = sqrt(P_Y) sqrt(P_X)^T + t B~.
   Every chain A B_t then has singular values 1 and t times those of A B~,
   with the same singular vectors, so the nuclear solve makes the same
   assignments and its value v becomes 1 + t (v - 1). On column-stochastic
   kernels the Frobenius objective at (t, lambda) is 1 + t^2 (J' - 1), J'
   the objective on P at lambda' = 1 + (lambda - 1) / t^2; the step at
   (t, lambda) differs from the one at (1, lambda') by a multiple of
   sqrt(P_Z) sqrt(P_Y)^T, which the projection removes, so both take the
   same steps.
3. Duplicated items. Splitting an item into two half-mass copies that
   share its kernel column leaves the chain joint K P, and so the norm of
   every kernel, unchanged.
4. Item permutation. Permuting the joint's rows and the kernel's columns
   together leaves the chain joint K P, and so the norm of every kernel,
   unchanged.
"""

import numpy as np
import pytest

from coupclust import frobenius
from coupclust.core import CouplingKernel, build_dtm
from coupclust.evaluation import kernel_norm_value
from coupclust.frobenius import LAMBDA, _uniform_target, solve_frobenius
from coupclust.nuclear import solve_nuclear

from conftest import random_joint, zipf_joint


def split_features(joint, split):
    """The joint with each feature in `split` replaced by two half-mass copies."""
    rows, cols, w = joint
    halves = w[:, split] / 2.0
    w2 = np.hstack([np.delete(w, split, axis=1), halves, halves])
    kept = [c for j, c in enumerate(cols) if j not in split]
    cols2 = kept + [f"{cols[j]}a" for j in split] + [f"{cols[j]}b" for j in split]
    return rows, tuple(cols2), w2


def t_mixture(joint, t):
    """(1 - t) P_Y P_X^T + t P_{Y,X}, the joint moved toward independence."""
    rows, cols, w = joint
    return rows, cols, (1.0 - t) * np.outer(w.sum(axis=1), w.sum(axis=0)) + t * w


def split_item(joint, kernel, y):
    """The joint and kernel with item y split into two half-mass copies,
    the copy appended last and given y's kernel column."""
    rows, cols, w = joint
    w2 = np.vstack([w, w[y] / 2.0])
    w2[y] /= 2.0
    rows2 = (*rows, f"{rows[y]}'")
    kern = np.hstack([kernel.kernel, kernel.kernel[:, [y]]])
    return (rows2, cols, w2), CouplingKernel(kernel.cluster_labels, rows2, kern)


def _kernels(rng, nz, ny):
    """A hard kernel with every cluster used, and a soft one."""
    assign = np.concatenate([np.arange(nz), rng.integers(0, nz, ny - nz)])
    rng.shuffle(assign)
    hard = np.zeros((nz, ny))
    hard[assign, np.arange(ny)] = 1.0
    soft = rng.random((nz, ny)) + 0.05
    soft /= soft.sum(axis=0)
    labels = tuple(f"z{i}" for i in range(nz))
    items = tuple(f"y{i}" for i in range(ny))
    return [CouplingKernel(labels, items, hard), CouplingKernel(labels, items, soft)]


_JOINTS = {
    "random": lambda seed: random_joint(np.random.default_rng(seed), 12, 9),
    "zipf": lambda seed: zipf_joint(seed, ny=48, nx=40, draws=3_000, groups=4),
}


class TestDuplicatedItems:
    @pytest.mark.parametrize("algorithm", ["frobenius", "nuclear"])
    @pytest.mark.parametrize("source", _JOINTS, ids=_JOINTS)
    def test_kernel_norm_value_unchanged(self, source, algorithm):
        worst = 0.0
        for seed in range(3):
            joint = _JOINTS[source](seed)
            rng = np.random.default_rng(seed)
            ny = len(joint[0])
            for kernel in _kernels(rng, 4, ny):
                y = int(rng.integers(ny))
                joint2, kernel2 = split_item(joint, kernel, y)
                before = kernel_norm_value(build_dtm(*joint), kernel, algorithm)
                after = kernel_norm_value(build_dtm(*joint2), kernel2, algorithm)
                worst = max(worst, abs(after - before) / before)
        assert worst <= 1e-14


class TestSameGram:
    # Splitting 15 of 20 features turns a tall 30 x 20 B into a wide
    # 30 x 35 one, so frobenius._gram takes its other branch.
    SPLIT = list(range(15))

    def _pair(self, seed):
        joint = random_joint(np.random.default_rng(seed), 30, 20)
        wide = split_features(joint, self.SPLIT)
        assert wide[2].shape == (30, 35)
        return build_dtm(*joint), build_dtm(*wide)

    @pytest.mark.parametrize("seed", range(3))
    def test_frobenius_solve_unchanged(self, seed):
        tall, wide = self._pair(seed)
        p_z = _uniform_target(4, 30)
        k1, t1 = solve_frobenius(tall, p_z, seed=seed)
        k2, t2 = solve_frobenius(wide, p_z, seed=seed)
        assert (len(t1), t1.status) == (len(t2), t2.status)
        np.testing.assert_allclose(k2.kernel, k1.kernel, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_nuclear_assignments_unchanged(self, seed):
        tall, wide = self._pair(seed)
        k1, _ = solve_nuclear(tall, 4, seed=seed)
        k2, _ = solve_nuclear(wide, 4, seed=seed)
        np.testing.assert_array_equal(k2.kernel, k1.kernel)


class TestTMixture:
    @pytest.mark.parametrize("source", _JOINTS, ids=_JOINTS)
    def test_nuclear_assignments_and_value(self, source):
        # The value is within 1e-14 of 1 + t (v - 1) (at most 8.9e-16 seen).
        for seed in range(3):
            joint = _JOINTS[source](seed)
            k1, t1 = solve_nuclear(build_dtm(*joint), 4, seed=seed)
            v = t1.objectives[-1]
            for t in (0.5, 0.1, 0.02):
                kt, tt = solve_nuclear(build_dtm(*t_mixture(joint, t)), 4, seed=seed)
                np.testing.assert_array_equal(kt.kernel, k1.kernel)
                assert abs(tt.objectives[-1] - (1.0 + t * (v - 1.0))) <= 1e-14

    # The window rule tests J's change relative to |J|, which differs
    # between the two sides, so each solve is cut at the same step count.
    # At t = 0.02 the projection's cancellation of the larger sqrt(P_Z)
    # multiple loses the relation to rounding (ROADMAP item 19).
    @pytest.mark.parametrize("t", [0.5, 0.1])
    @pytest.mark.parametrize("source", _JOINTS, ids=_JOINTS)
    def test_frobenius_solve_at_rescaled_lambda(self, monkeypatch, source, t):
        monkeypatch.setattr(frobenius, "MAX_ITERS", 200)
        lam = 1.0 + (LAMBDA - 1.0) / t**2
        for seed in range(3):
            joint = _JOINTS[source](seed)
            p_z = _uniform_target(4, len(joint[0]))
            kt, tt = solve_frobenius(build_dtm(*t_mixture(joint, t)), p_z, seed=seed)
            k1, t1 = solve_frobenius(build_dtm(*joint), p_z, lam=lam, seed=seed)
            assert (len(tt), tt.status) == (len(t1), t1.status)
            # Every traced J: within 1e-10 relative (9.6e-12 seen); kernels
            # within 1e-12 (6.3e-14 seen).
            jt, j1 = np.array(tt.objectives), np.array(t1.objectives)
            np.testing.assert_allclose(jt - 1.0, t**2 * (j1 - 1.0), rtol=1e-10, atol=0)
            np.testing.assert_allclose(kt.kernel, k1.kernel, rtol=0, atol=1e-12)


class TestItemPermutation:
    @pytest.mark.parametrize("algorithm", ["frobenius", "nuclear"])
    @pytest.mark.parametrize("source", _JOINTS, ids=_JOINTS)
    def test_kernel_norm_value_unchanged(self, source, algorithm):
        worst = 0.0
        for seed in range(3):
            rows, cols, w = _JOINTS[source](seed)
            rng = np.random.default_rng(seed)
            perm = rng.permutation(len(rows))
            rows2 = tuple(rows[i] for i in perm)
            dtm, dtm2 = build_dtm(rows, cols, w), build_dtm(rows2, cols, w[perm])
            for kernel in _kernels(rng, 4, len(rows)):
                kernel2 = CouplingKernel(
                    kernel.cluster_labels, rows2, kernel.kernel[:, perm]
                )
                before = kernel_norm_value(dtm, kernel, algorithm)
                after = kernel_norm_value(dtm2, kernel2, algorithm)
                worst = max(worst, abs(after - before) / before)
        # Within 1e-14 relative (8.9e-16 seen): the sums only change order.
        assert worst <= 1e-14
