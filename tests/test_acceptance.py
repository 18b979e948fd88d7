"""Acceptance gate: one test per shipping criterion, tolerances pinned.

Each test prints a single PASS line tagged with its criterion number once
its assertions (including the runtime budget) hold, so `pytest -v` yields
one pass/fail line per criterion.
"""

import json
import time

import numpy as np
import pytest

from coupclust.cli import main as cli_main
from coupclust.core import CouplingKernel, Pmf, build_dtm
from coupclust.data_io import (
    _counterexample_labels,
    community_objective,
    gen_planted_blocks,
    ingest,
    write_triplets,
)
from coupclust.evaluation import elbow_curve, harden, kernel_norm_value, matched_accuracy
from coupclust.frobenius import _half_gradient, solve_frobenius
from coupclust.nuclear import solve_nuclear
from coupclust.simplex import project_columns

from conftest import (
    counterexample_splits,
    oracle_project,
    random_joint,
    singular_values,
)
from paper_identities import (
    PerturbationFamily,
    bipartite_components,
    compose_dtm,
    dtm_from_kernel,
    frobenius_objective,
    local_mi_gap,
    singular_one_multiplicity,
)


def _report(num: int, detail: str) -> None:
    print(f"ACCEPTANCE {num}: PASS - {detail}")


def test_criterion_01_dtm_spectral_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst_sigma = 0.0
    worst_identity = 0.0
    for _ in range(100):
        ny = int(rng.integers(2, 13))
        nx = int(rng.integers(2, 11))
        b = build_dtm(*random_joint(rng, ny, nx))
        s = singular_values(b)
        worst_sigma = max(worst_sigma, abs(float(s[0]) - 1.0))
        ident = float(
            np.max(np.abs(b.matrix @ b.col_pmf.sqrt_probs - b.row_pmf.sqrt_probs))
        )
        worst_identity = max(worst_identity, ident)
    elapsed = time.perf_counter() - start
    assert worst_sigma <= 1e-10
    assert worst_identity <= 1e-10
    assert elapsed < 5.0
    _report(
        1,
        f"100 joints, max |sigma1-1| = {worst_sigma:.2e}, "
        f"max identity error = {worst_identity:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_composition():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        nz = int(rng.integers(2, 5))
        ny = int(rng.integers(2, 9))
        nx = int(rng.integers(2, 7))
        rows, cols, w = random_joint(rng, ny, nx)
        kmat = rng.random((nz, ny)) + 0.05
        kmat /= kmat.sum(axis=0)
        kernel = CouplingKernel(tuple(f"z{i}" for i in range(nz)), rows, kmat)
        b_yx = build_dtm(rows, cols, w)
        p_z = Pmf(kernel.cluster_labels, kernel.induced_marginal(b_yx.row_pmf))
        composed = compose_dtm(dtm_from_kernel(kernel, b_yx.row_pmf, p_z), b_yx)
        direct = build_dtm(kernel.cluster_labels, cols, kmat @ w)
        worst = max(
            worst, float(np.linalg.norm(composed.matrix - direct.matrix, "fro"))
        )
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 2.0
    _report(2, f"50 chains, max Frobenius gap = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_local_mi_approximation():
    # near-symmetric bases cancel the third-order error term and push the
    # eps = 1e-2 gap to round-off (~1e-17), where a decay ratio cannot be
    # measured in doubles; such degenerate draws are rejected and redrawn
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    worst_ratio = 0.0
    worst_abs = 0.0
    accepted = 0
    attempts = 0
    while accepted < 20:
        attempts += 1
        assert attempts <= 200, "family rejection loop stuck"
        nz = int(rng.integers(2, 5))
        ny = int(rng.integers(2, 7))
        nx = int(rng.integers(2, 7))
        w = rng.random(nz) + 0.3
        base = Pmf(tuple(f"z{i}" for i in range(nz)), w / w.sum())
        sz = base.sqrt_probs
        phis = np.zeros((nz, ny))
        for y in range(ny):
            v = rng.normal(size=nz)
            v -= (v @ sz) * sz
            phis[:, y] = v / np.linalg.norm(v)
        joint = random_joint(rng, ny, nx)
        fam_hi = PerturbationFamily(base, joint[0], phis, 1e-2)
        fam_lo = PerturbationFamily(base, joint[0], phis, 1e-3)
        exact_hi, approx_hi, gap_hi = local_mi_gap(joint, fam_hi)
        exact_lo, approx_lo, gap_lo = local_mi_gap(joint, fam_lo)
        if gap_hi < 1e-13:
            continue
        accepted += 1
        assert gap_lo <= gap_hi / 50.0
        worst_ratio = max(worst_ratio, gap_lo / gap_hi)
        worst_abs = max(
            worst_abs, abs(approx_hi - exact_hi), abs(approx_lo - exact_lo)
        )
    elapsed = time.perf_counter() - start
    assert worst_abs <= 1e-4
    assert elapsed < 5.0
    _report(
        3,
        f"20 families ({attempts - accepted} degenerate redraws), worst gap "
        f"ratio = {worst_ratio:.2e} (<= 0.02), worst |approx - exact| = "
        f"{worst_abs:.2e}, {elapsed:.2f}s",
    )


def test_criterion_04_components_match_spectrum():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    for _ in range(50):
        ncomp = int(rng.integers(1, 6))
        blocks = []
        for _ in range(ncomp):
            by = int(rng.integers(1, 4))
            bx = int(rng.integers(1, 4))
            blocks.append(rng.random((by, bx)) + 0.1)
        total_y = sum(b.shape[0] for b in blocks)
        total_x = sum(b.shape[1] for b in blocks)
        w = np.zeros((total_y, total_x))
        r = c = 0
        for blk in blocks:
            w[r : r + blk.shape[0], c : c + blk.shape[1]] = blk
            r += blk.shape[0]
            c += blk.shape[1]
        w /= w.sum()
        dtm = build_dtm(
            [f"y{i}" for i in range(total_y)], [f"x{j}" for j in range(total_x)], w
        )
        mult = singular_one_multiplicity(dtm, tol=1e-6)
        comps = bipartite_components(w)
        assert mult == ncomp == comps
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(4, f"50 block joints, multiplicity == components on all, {elapsed:.2f}s")


def test_criterion_05_counterexample_objectives_and_flip():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    worst_rel = 0.0
    for _ in range(40):
        m = int(rng.integers(2, 51))
        n = int(rng.integers(2, 51))
        s = float(rng.integers(2, 51))
        lam = float(rng.integers(2, 51))
        base, [(_, q1), (_, q2)] = counterexample_splits(m, n, s)
        got1 = community_objective(q1, base, lam, 2)
        got2 = community_objective(q2, base, lam, 2)
        want1 = 2.0 * m * n - 2.0 * lam
        want2 = m + n + s * s * (m + n - 2.0) - 2.0 * lam
        worst_rel = max(
            worst_rel,
            abs(got1 - want1) / max(1.0, abs(want1)),
            abs(got2 - want2) / max(1.0, abs(want2)),
        )
    assert worst_rel <= 1e-9

    # flip point at m = n = 50: bracket the objective crossing on a 1e-3 grid
    m = n = 50
    lam = 3000.0
    s_star = np.sqrt((2.0 * m * n - m - n) / (m + n - 2.0))
    assert s_star == pytest.approx(np.sqrt(50.0), rel=1e-15)

    def diff(s):
        base, [(_, q1), (_, q2)] = counterexample_splits(m, n, s)
        return community_objective(q1, base, lam, 2) - community_objective(
            q2, base, lam, 2
        )

    # coarse pass locates the sign change, fine pass pins it to 1e-3
    coarse = np.arange(1.0, 10.0 + 1e-12, 0.1)
    signs = [diff(float(s)) for s in coarse]
    idx = next(
        i for i in range(len(coarse) - 1) if signs[i] * signs[i + 1] <= 0.0
    )
    lo, hi = float(coarse[idx]), float(coarse[idx + 1])
    fine = np.arange(lo, hi + 1e-12, 1e-3)
    fvals = [diff(float(s)) for s in fine]
    fidx = next(
        i for i in range(len(fine) - 1) if fvals[i] * fvals[i + 1] <= 0.0
    )
    bracket_lo, bracket_hi = float(fine[fidx]), float(fine[fidx + 1])
    assert bracket_lo - 1e-3 <= s_star <= bracket_hi + 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(
        5,
        f"40 tuples max rel err = {worst_rel:.2e}; flip bracketed in "
        f"[{bracket_lo:.3f}, {bracket_hi:.3f}] around sqrt(50) = {s_star:.5f}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_06_norm_curves():
    start = time.perf_counter()
    m = n = 50
    worst = 0.0
    grid = np.arange(1.0, 10.0 + 1e-12, 0.5)
    dominated = True

    labels = _counterexample_labels(m, n)

    def frob(s):
        base, splits = counterexample_splits(m, n, s)
        dtm = ingest(*labels, base)[0]
        return [kernel_norm_value(dtm, kernel, "frobenius") for kernel, _ in splits]

    for s in grid:
        s = float(s)
        fi, fo = frob(s)
        closed = 2.0 * (s * s + 1.0) / (s + 1.0) ** 2
        worst = max(worst, abs(fi - closed) / max(1.0, abs(closed)))
        if s > 1.0 and fi <= fo:
            dominated = False
    at_one = frob(1.0)[0]
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert dominated
    assert abs(at_one - 1.0) <= 1e-12
    assert elapsed < 10.0
    _report(
        6,
        f"closed form max rel err = {worst:.2e}; intuitive > one-item on "
        f"s in (1, 10]; frob_intuitive(1) = {at_one!r}, {elapsed:.2f}s",
    )


def _planted_suite():
    instances = []
    for gen_seed in range(10):
        for blocks, size in ((2, 30), (3, 20)):
            joint, truth = gen_planted_blocks(
                blocks, size, 1.0, 0.05, noise_seed=gen_seed
            )
            instances.append((blocks, build_dtm(*joint), dict(zip(joint[0], truth))))
    return instances


def test_criterion_07_nuclear_solver():
    start = time.perf_counter()
    acc_floor = 1.0
    gap_worst = 0.0
    for blocks, dtm, truth in _planted_suite():
        best = None
        for seed in range(5):
            kernel, trace = solve_nuclear(dtm, blocks, seed=seed)
            gap_worst = max(gap_worst, max(trace.extras["kyfan_gap"]))
            for before, after in zip(
                trace.extras["linear_before"], trace.extras["linear_after"]
            ):
                assert after >= before - 1e-12
            if best is None or trace.objectives[-1] > best[0]:
                best = (trace.objectives[-1], kernel)
        acc = matched_accuracy(harden(best[1]), truth)
        acc_floor = min(acc_floor, acc)
    elapsed = time.perf_counter() - start
    assert acc_floor >= 0.95
    assert gap_worst <= 1e-8
    assert elapsed < 60.0
    _report(
        7,
        f"20 planted instances, min accuracy = {acc_floor:.3f}, "
        f"max Ky Fan attainment gap = {gap_worst:.2e}, monotone kernel steps, "
        f"{elapsed:.2f}s",
    )


def test_criterion_08_frobenius_solver():
    start = time.perf_counter()
    acc_floor = 1.0
    col_worst = 0.0
    for blocks, dtm, truth in _planted_suite():
        labels = tuple(f"z{i}" for i in range(blocks))
        mass = np.zeros(blocks)
        truth_keys = sorted(set(truth.values()))
        for item, lab in truth.items():
            y = dtm.row_pmf.labels.index(item)
            mass[truth_keys.index(lab)] += dtm.row_pmf.probs[y]
        p_z = Pmf(labels, mass / mass.sum())
        best = None
        for seed in range(5):
            kernel, trace = solve_frobenius(dtm, p_z, lam=10.0, seed=seed)
            col_worst = max(
                col_worst,
                float(np.max(np.abs(kernel.kernel.sum(axis=0) - 1.0))),
            )
            if best is None or trace.objectives[-1] > best[0]:
                best = (trace.objectives[-1], kernel)
        acc = matched_accuracy(harden(best[1]), truth)
        acc_floor = min(acc_floor, acc)

    # the solver's step direction (half the gradient) vs central differences
    # at 20 random points, on a square, a tall and a wide joint
    fd_worst = 0.0
    h = 1e-6
    sqrt_pz = Pmf.uniform(("z0", "z1", "z2")).sqrt_probs
    for nx in (8, 6, 12):
        rng = np.random.default_rng(8)
        dtm = build_dtm(*random_joint(rng, 8, nx))
        b, sy = dtm.matrix, dtm.row_pmf.sqrt_probs
        args = (b, sy, sqrt_pz, 10.0)
        for _ in range(20):
            a = rng.normal(size=(3, 8))
            g = 2.0 * _half_gradient(a @ b @ b.T, a @ sy - sqrt_pz, sy, 10.0)
            i = int(rng.integers(0, 3))
            j = int(rng.integers(0, 8))
            ap, am = a.copy(), a.copy()
            ap[i, j] += h
            am[i, j] -= h
            fd = (
                frobenius_objective(ap, *args)[0] - frobenius_objective(am, *args)[0]
            ) / (2 * h)
            fd_worst = max(fd_worst, abs(fd - g[i, j]) / max(1.0, abs(fd)))
    elapsed = time.perf_counter() - start
    assert acc_floor >= 0.95
    assert col_worst <= 1e-9
    assert fd_worst <= 1e-5
    assert elapsed < 120.0
    _report(
        8,
        f"20 planted instances, min best-of-5 accuracy = {acc_floor:.3f}, "
        f"max column-sum error = {col_worst:.2e}, max gradient FD rel err = "
        f"{fd_worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_09_simplex_projection():
    start = time.perf_counter()
    rng = np.random.default_rng(9)
    worst_oracle = 0.0
    worst_idem = 0.0
    lipschitz_ok = True
    for _ in range(200):
        v = rng.normal(size=5) * float(rng.choice([0.1, 1.0, 10.0]))
        # Each vector is projected as the one column of a matrix.
        v, u = v[:, None], (v + rng.normal(size=5))[:, None]
        got = project_columns(v)
        worst_oracle = max(
            worst_oracle, float(np.max(np.abs(got[:, 0] - oracle_project(v[:, 0]))))
        )
        worst_idem = max(
            worst_idem, float(np.max(np.abs(project_columns(got) - got)))
        )
        if np.linalg.norm(project_columns(u) - got) > np.linalg.norm(u - v) + 1e-12:
            lipschitz_ok = False
    elapsed = time.perf_counter() - start
    assert worst_oracle <= 1e-8
    assert worst_idem <= 1e-15
    assert lipschitz_ok
    assert elapsed < 5.0
    _report(
        9,
        f"200 vectors, max oracle gap = {worst_oracle:.2e}, idempotent, "
        f"1-Lipschitz, {elapsed:.2f}s",
    )


def test_criterion_10_external_tables_replaced_by_elbow():
    """Published benchmark figures are NOT reproducible from this repository.

    The reference accuracy tables were measured on external corpora that are
    not bundled here: the MSR weekend/weekday word-pair split (53.94%
    reported), MovieLens genre clusterings, and Reuters topic accuracies
    (65.15% overall at k = 2). Reproducing them needs those datasets; this
    suite replaces them with the synthetic structural checks in criteria 1-9
    plus the elbow-shape check below on a known 8-cluster corpus.
    """
    print(
        "ACCEPTANCE 10 NOTE: external-corpus results (MSR 53.94%, MovieLens "
        "genres, Reuters 65.15% at k=2) are not reproducible at desk scale; "
        "standing in: synthetic 8-cluster elbow shape."
    )
    start = time.perf_counter()
    joint, _ = gen_planted_blocks(8, 12, 1.0, 0.02, noise_seed=0)
    ks = list(range(2, 11))
    curve = elbow_curve(build_dtm(*joint), ks, algorithm="nuclear", restarts=5)
    vals = {k: v for k, v in curve}
    increments = {k: vals[k + 1] - vals[k] for k in range(2, 10)}
    # largest drop between consecutive increments happens entering k = 8
    drops = {
        k: increments[k - 1] - increments[k] for k in range(3, 10)
    }
    knee = max(drops, key=drops.get)
    elapsed = time.perf_counter() - start
    assert knee == 8, (drops, vals)
    assert elapsed < 60.0
    _report(
        10,
        f"elbow increments collapse at k = 8 (drop {drops[8]:.3f}); external "
        f"tables explicitly not reproduced, {elapsed:.2f}s",
    )


def test_criterion_11_cli_determinism(tmp_path):
    start = time.perf_counter()
    joint, truth = gen_planted_blocks(2, 8, 1.0, 0.05, noise_seed=11)
    data = tmp_path / "data.tsv"
    write_triplets(data, *joint)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli_main(
            [
                "cluster", str(data), "--algo", "nuclear", "--k", "2",
                "--seed", "0", "--restarts", "3", "--out", str(out),
            ]
        )
        assert rc == 0
        outs.append(out)
    kernel_a = (outs[0] / "kernel.json").read_bytes()
    kernel_b = (outs[1] / "kernel.json").read_bytes()
    trace_a = (outs[0] / "trace.csv").read_bytes()
    trace_b = (outs[1] / "trace.csv").read_bytes()
    assert kernel_a == kernel_b
    assert trace_a == trace_b

    # frobenius route too
    outs = []
    for name in ("c", "d"):
        out = tmp_path / name
        rc = cli_main(
            [
                "cluster", str(data), "--algo", "frobenius", "--k", "2",
                "--pz", "uniform", "--seed", "1", "--restarts", "2",
                "--out", str(out),
            ]
        )
        assert rc == 0
        outs.append(out)
    assert (outs[0] / "kernel.json").read_bytes() == (
        outs[1] / "kernel.json"
    ).read_bytes()
    assert (outs[0] / "trace.csv").read_bytes() == (
        outs[1] / "trace.csv"
    ).read_bytes()
    elapsed = time.perf_counter() - start
    _report(
        11,
        f"nuclear and frobenius reruns byte-identical (kernel JSON + trace "
        f"CSV), {elapsed:.2f}s",
    )
