"""Workload definitions and their seeded input generators.

Every input is generated here, from the seed alone, with this module's own
generators and TSV writer. The package's `gen_planted_blocks` and
`write_triplets` are deliberately not used: a change to the program must not
be able to shrink the workload it is measured on.

Why each workload exists, and which layer metric should move which
end-to-end metric on it (metric names as in BENCHMARK.json):

nuclear-planted -- parser-bound. An 8-block planted joint, 8 x 100 = 800 x 800
    with every cell written (~19 MB, 640k lines), clustered by the nuclear
    solver with 5 restarts. parse_triplets is most of the run; the solver
    (a few dozen small k x |X| SVDs) is a few percent.
      data_io.parse_triplets.{s,mb_per_s,lines}, data_io.ingest.s -> wall_s,
        peak_rss_mb
      nuclear.* and cli.restarts.useful_ratio -> accuracy, objective
      svd.* must not move wall_s here
frobenius-planted -- solver-bound. A planted 8 x 50 = 400 x 400 joint (~4.7 MB),
    Frobenius solver with uniform P_Z and 3 restarts (~9k iterations).
      frobenius.solve_frobenius.{s,self_s,iters,s_per_iter,converged_ratio},
      frobenius.frobenius_objective.*, simplex.project_columns.*,
      svd.top_singular_value_sym.s, core.build_dtm.* -> wall_s, with
        accuracy and objective held
embed-zipf -- SVD-bound, sparse input. A Zipf-skewed (exponent 1.1) 768 x 768
    joint with 16 latent groups; only nonzeros are written (~57k lines,
    ~0.8 MB). The DTM is above svd.DENSE_CUTOFF = 512, so `embed` goes through
    randomized_svd.
    It reads a short sparse file with heavy-tailed label frequencies, the
    opposite input shape to the planted files, and runs no solver.
      svd.{svd_for_dtm,randomized_svd,exact_svd}.*, embedding.* -> wall_s,
        accuracy (cosine of the largest principal angle to a LAPACK
        reference), objective (DTM energy captured, as a share of the optimum)
      data_io.parse_triplets.* checks the sparse shape

On every workload, cli.main.s and cli.self_s -> wall_s; data_io.write_* and
evaluation.build_report.s -> wall_s (expected small). process.cpu_s (user +
sys time of the untraced CLI) is a diagnostic that tells a parallelism change
from a reduced-work change; trace.overhead_ratio is traced cli.main.s over
untraced wall_s - setup_s. A layer a workload never calls reads 0 on it.

Left out on purpose: planted 8 x 200 and Zipf 1000 (over a minute per sample;
every check runs each workload 22 times) and the m = n = 50 counterexample
(closed form, milliseconds: it would time only the import, which setup_s
already covers).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PLANTED_BLOCKS = 8
PLANTED_WITHIN = 1.0
PLANTED_CROSS = 0.05

ZIPF_SIZE = 768
ZIPF_EXPONENT = 1.1
ZIPF_GROUPS = 16
ZIPF_DRAWS = 500_000
ZIPF_IN_GROUP = 0.7
EMBED_D = 16


@dataclass(frozen=True)
class Workload:
    name: str
    # Arguments after `python -m coupclust.cli`; {input}, {truth}, {out} are
    # filled in per sample.
    argv: tuple[str, ...]
    # Rows per planted block; None for the Zipf input.
    block_size: int | None
    # Matched-accuracy floor every sample must reach (planted workloads).
    accuracy_floor: float = 1.0

    @property
    def planted(self) -> bool:
        return self.block_size is not None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="nuclear-planted",
            argv=(
                "cluster", "{input}", "--algo", "nuclear", "--k", "8",
                "--restarts", "5", "--truth", "{truth}", "--out", "{out}",
            ),
            block_size=100,
            # With random one-hot starts and 5 restarts the nuclear solver
            # reaches the planted split on about 9 of 10 seeds and otherwise
            # stops in a local optimum near 0.81 (its known initialization
            # defect); the floor catches anything worse.
            accuracy_floor=0.75,
        ),
        Workload(
            name="frobenius-planted",
            argv=(
                "cluster", "{input}", "--algo", "frobenius", "--pz", "uniform",
                "--k", "8", "--restarts", "3", "--truth", "{truth}",
                "--out", "{out}",
            ),
            block_size=50,
        ),
        Workload(
            name="embed-zipf",
            argv=("embed", "{input}", "--d", str(EMBED_D), "--out", "{out}"),
            block_size=None,
        ),
    )
}


def planted_weights(block_size: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Block-diagonal weights with Uniform[0.5, 1.5) jitter, and row blocks."""
    membership = np.repeat(np.arange(PLANTED_BLOCKS), block_size)
    same = membership[:, None] == membership[None, :]
    base = np.where(same, PLANTED_WITHIN, PLANTED_CROSS)
    rng = np.random.default_rng(seed)
    return base * rng.uniform(0.5, 1.5, size=base.shape), membership


def zipf_counts(seed: int) -> np.ndarray:
    """Sparse co-occurrence counts with Zipf-skewed row and column use.

    Rows and columns each belong to one of ZIPF_GROUPS latent groups. A draw
    picks a row by Zipf popularity, then with probability ZIPF_IN_GROUP a
    column of the row's group, else any column, both Zipf-weighted. One
    count per row and per column on a random matching keeps every label in
    the file, so the shape never changes with the seed.
    """
    n = ZIPF_SIZE
    rng = np.random.default_rng(seed)
    pop = 1.0 / np.arange(1, n + 1) ** ZIPF_EXPONENT
    row_pop = pop[rng.permutation(n)]
    col_pop = pop[rng.permutation(n)]
    row_group = rng.integers(0, ZIPF_GROUPS, size=n)
    col_group = rng.integers(0, ZIPF_GROUPS, size=n)

    rows = rng.choice(n, size=ZIPF_DRAWS, p=row_pop / row_pop.sum())
    cols = rng.choice(n, size=ZIPF_DRAWS, p=col_pop / col_pop.sum())
    in_group = rng.random(ZIPF_DRAWS) < ZIPF_IN_GROUP
    for g in range(ZIPF_GROUPS):
        members = np.flatnonzero(col_group == g)
        pick = in_group & (row_group[rows] == g)
        if members.size and pick.any():
            p = col_pop[members] / col_pop[members].sum()
            cols[pick] = rng.choice(members, size=int(pick.sum()), p=p)

    counts = np.zeros((n, n))
    np.add.at(counts, (rows, cols), 1.0)
    counts[np.arange(n), rng.permutation(n)] += 1.0
    return counts


def write_tsv(path: Path, weights: np.ndarray, dense: bool) -> None:
    """Triplet TSV in row-major order: every cell if dense, else nonzeros."""
    if dense:
        ii, jj = np.indices(weights.shape)
        ii, jj, vals = ii.ravel(), jj.ravel(), weights.ravel()
    else:
        ii, jj = np.nonzero(weights)
        vals = weights[ii, jj]
    triples = zip(ii.tolist(), jj.tolist(), vals.tolist())
    lines = [f"y{i}\tx{j}\t{v!r}" for i, j, v in triples]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate(name: str, seed: int, out_dir: Path) -> dict:
    """Write the workload's input files into out_dir; return their paths.

    Returns {"input": Path, "truth": Path | None, "weights": ndarray}.
    """
    wl = WORKLOADS[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    inp = out_dir / "input.tsv"
    truth = None
    if wl.planted:
        weights, membership = planted_weights(wl.block_size, seed)
        write_tsv(inp, weights, dense=True)
        truth = out_dir / "truth.tsv"
        truth.write_text(
            "".join(f"y{i}\tb{b}\n" for i, b in enumerate(membership.tolist())),
            encoding="utf-8",
        )
    else:
        weights = zipf_counts(seed)
        write_tsv(inp, weights, dense=False)
    return {"input": inp, "truth": truth, "weights": weights}


def describe_file(path: Path) -> dict:
    """sha256, byte count and line count of a generated file."""
    data = path.read_bytes()
    return {
        "file": path.name,
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
        "lines": data.count(b"\n"),
    }
