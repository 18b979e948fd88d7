import argparse
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coupclust
from coupclust.cli import build_parser

# The top-level public API, pinned: a name added to or dropped from a
# submodule's __all__ shows up here.
PUBLIC = {
    "__version__",
    "ClusteringReport",
    "ConfigError",
    "CoupclustError",
    "CouplingKernel",
    "DataError",
    "Dtm",
    "EmbeddingMatrix",
    "FrobeniusConfig",
    "NuclearConfig",
    "ParseError",
    "Pmf",
    "SolveTrace",
    "SolverError",
    "apply_rating_transform",
    "build_dtm",
    "build_report",
    "community_objective",
    "counterexample_frobenius",
    "coverage",
    "dtm_embed",
    "elbow_curve",
    "format_report_table",
    "frobenius_sq",
    "gen_counterexample",
    "gen_planted_blocks",
    "harden",
    "ingest",
    "intuitive_kernel",
    "kernel_norm_value",
    "load_dense_csv",
    "load_pmf",
    "matched_accuracy",
    "one_item_kernel",
    "parse_triplets",
    "project_columns",
    "solve_frobenius",
    "solve_nuclear",
    "write_embedding_tsv",
    "write_kernel_json",
    "write_trace_csv",
    "write_triplets",
}


def test_public_names_pinned():
    assert len(PUBLIC) == 42
    assert len(coupclust.__all__) == len(set(coupclust.__all__))
    assert set(coupclust.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(coupclust, name), name


def test_config_fields_pinned():
    # Every solver knob is a config field; a new one has to edit this test.
    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert names(coupclust.NuclearConfig) == ["k", "seed"]
    assert names(coupclust.FrobeniusConfig) == ["lam", "obj_tol", "seed"]


def test_cli_flags_pinned():
    # Every CLI knob is a flag of one subcommand; a new one has to edit this
    # test. Positionals appear under their dest.
    io = ["input", "--normalize", "--rating-transform", "--out"]
    subs = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    flags = {
        name: [a.option_strings[-1] if a.option_strings else a.dest
               for a in sub._actions if a.dest != "help"]
        for name, sub in subs.choices.items()
    }
    assert flags == {
        "cluster": [*io, "--algo", "--k", "--pz", "--lambda", "--seed",
                    "--restarts", "--tol", "--truth"],
        "counterexample": ["--out", "--m", "--n", "--lambda", "--s-grid"],
        "elbow": [*io, "--ks", "--algo", "--restarts", "--lambda"],
        "embed": [*io, "--d"],
        "synth": ["--out", "--gen", "--variant", "--m", "--n", "--s",
                  "--blocks", "--sizes", "--within", "--cross", "--seed"],
    }


def test_cli_import_loads_no_scipy_optimize():
    # scipy.optimize alone costs most of a cold import; every scipy module
    # is imported inside the function that needs it.
    src = str(Path(coupclust.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, coupclust.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "[]"


SCIPY_FREE_RUN = """
import contextlib, io, sys
from pathlib import Path

tmp, mode = Path(sys.argv[1]), sys.argv[2]
if mode == "import":
    import coupclust
else:
    from coupclust import cli
    from coupclust.data_io import gen_planted_blocks, write_triplets

    (rows, cols, weights), truth = gen_planted_blocks(3, 8, 1.0, 0.05, noise_seed=0)
    data = str(tmp / "data.tsv")
    write_triplets(data, rows, cols, weights)
    (tmp / "truth.tsv").write_text(
        "".join(f"{y}\\t{t}\\n" for y, t in zip(rows, truth))
    )
    argv = {
        "nuclear": ["cluster", data, "--algo", "nuclear", "--k", "3",
                    "--restarts", "2", "--truth", str(tmp / "truth.tsv")],
        "frobenius": ["cluster", data, "--algo", "frobenius", "--k", "3",
                      "--pz", "uniform", "--restarts", "2",
                      "--truth", str(tmp / "truth.tsv")],
        "elbow": ["elbow", data, "--ks", "1,2,3", "--restarts", "2"],
        "embed": ["embed", data, "--d", "4"],
    }[mode]
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv + ["--out", str(tmp / "run")]) == 0
    assert (tmp / "run" / "manifest.json").exists()
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


@pytest.mark.parametrize(
    "algo", ["nuclear", "frobenius", "elbow", "embed", "import"]
)
def test_cluster_with_truth_loads_no_scipy(algo, tmp_path):
    # The package imports no scipy: not on import, and not in a cluster run
    # scored against --truth (the package's own numpy matching), an elbow
    # curve or an embedding.
    src = str(Path(coupclust.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_RUN, str(tmp_path), algo],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "[]"
