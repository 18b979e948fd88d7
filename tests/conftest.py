import numpy as np
import pytest

from coupclust.core import CouplingKernel, Pmf
from coupclust.data_io import (
    _counterexample_labels,
    _counterexample_splits,
    gen_counterexample,
)


def random_joint(rng, ny, nx, interior=True):
    """(row labels, col labels, weights) of a random mass-1 joint.

    Strictly interior, with generic singular values, unless interior=False.
    """
    w = rng.random((ny, nx))
    if interior:
        w += 0.05
    w /= w.sum()
    rows = tuple(f"y{i}" for i in range(ny))
    cols = tuple(f"x{j}" for j in range(nx))
    return rows, cols, w


def singular_values(dtm):
    """All singular values of a DTM, descending, from LAPACK: the reference
    for the package's one spectral route, Dtm.top."""
    return np.linalg.svd(dtm.matrix, compute_uv=False)


def counterexample_splits(m, n, s):
    """The counterexample's base P and, for the intuitive then the one-item
    split, (kernel, community matrix Q), derived from the split's cluster
    ids as the counterexample command derives them."""
    base = gen_counterexample(m, n, s)
    items = _counterexample_labels(m, n)[0]
    return base, [
        (CouplingKernel(("z0", "z1"), items, np.eye(2)[:, rows]),
         base * (rows[:, None] == cols))
        for rows, cols in _counterexample_splits(m, n)
    ]


def normalized_joint(rows, cols, weights):
    """(rows, cols, weights / total): the mass-1 joint of a raw matrix."""
    w = np.asarray(weights, dtype=np.float64)
    return tuple(rows), tuple(cols), w / w.sum()


def zipf_joint(seed, ny=128, nx=None, draws=40_000, in_group=0.7, groups=16):
    """Sparse co-occurrence joint with Zipf-skewed row and column use.

    Rows and columns each belong to one of `groups` latent groups. A draw
    picks a row by Zipf popularity (exponent 1.1), then with probability
    `in_group` a column of the row's group, else any column, both
    Zipf-weighted. One count per row and per column on a random matching
    (wrapped around the shorter side) keeps every label alive. nx defaults
    to ny.
    """
    nx = ny if nx is None else nx
    rng = np.random.default_rng(seed)
    row_pop = (1.0 / np.arange(1, ny + 1) ** 1.1)[rng.permutation(ny)]
    col_pop = (1.0 / np.arange(1, nx + 1) ** 1.1)[rng.permutation(nx)]
    row_group = rng.integers(0, groups, size=ny)
    col_group = rng.integers(0, groups, size=nx)
    rows = rng.choice(ny, size=draws, p=row_pop / row_pop.sum())
    cols = rng.choice(nx, size=draws, p=col_pop / col_pop.sum())
    picked = rng.random(draws) < in_group
    for g in range(groups):
        members = np.flatnonzero(col_group == g)
        pick = picked & (row_group[rows] == g)
        if members.size and pick.any():
            p = col_pop[members] / col_pop[members].sum()
            cols[pick] = rng.choice(members, size=int(pick.sum()), p=p)
    counts = np.zeros((ny, nx))
    np.add.at(counts, (rows, cols), 1.0)
    m = max(ny, nx)
    counts[np.arange(m) % ny, rng.permutation(m) % nx] += 1.0
    return normalized_joint(
        tuple(f"y{i}" for i in range(ny)), tuple(f"x{j}" for j in range(nx)), counts
    )


def oracle_project(v, sweeps=4000, tol=1e-13):
    """Projected coordinate descent onto the probability simplex.

    Independent of the sort-based route: start at the uniform point and
    relax pairs (i, j) by transferring mass delta = (g_i - g_j)/2 where
    g = u - v is the gradient, clipped so both coordinates stay >= 0.
    Exchange moves preserve the sum-to-one constraint exactly.
    """
    v = np.asarray(v, dtype=np.float64)
    n = v.size
    u = np.full(n, 1.0 / n)
    for _ in range(sweeps):
        moved = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                delta = ((u[i] - v[i]) - (u[j] - v[j])) / 2.0
                delta = min(delta, u[i])
                delta = max(delta, -u[j])
                u[i] -= delta
                u[j] += delta
                moved = max(moved, abs(delta))
        if moved <= tol:
            break
    return u


def random_pmf(rng, n, prefix="z"):
    p = rng.random(n) + 0.05
    p /= p.sum()
    return Pmf(tuple(f"{prefix}{i}" for i in range(n)), p)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
