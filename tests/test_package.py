import argparse
import inspect
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import coupclust
from coupclust.cli import build_parser, main
from coupclust.data_io import gen_planted_blocks, write_triplets

# The top-level public API, pinned: a name added to or dropped from a
# submodule's __all__ shows up here.
PUBLIC = {
    "__version__",
    "ConfigError",
    "CoupclustError",
    "CouplingKernel",
    "DataError",
    "Dtm",
    "ParseError",
    "Pmf",
    "SolveTrace",
    "SolverError",
    "apply_rating_transform",
    "build_dtm",
    "build_report",
    "community_objective",
    "coverage",
    "dtm_embed",
    "elbow_curve",
    "format_report_table",
    "gen_counterexample",
    "gen_planted_blocks",
    "harden",
    "ingest",
    "kernel_norm_value",
    "load_dense_csv",
    "load_pmf",
    "matched_accuracy",
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
    assert len(PUBLIC) == 34
    assert len(coupclust.__all__) == len(set(coupclust.__all__))
    assert set(coupclust.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(coupclust, name), name


def test_config_fields_pinned():
    # Every solver knob is a solver parameter; a new one has to edit this test.
    def params(fn):
        return [(p.name, p.kind.name)
                for p in inspect.signature(fn).parameters.values()]

    assert params(coupclust.solve_nuclear) == [
        ("dtm", "POSITIONAL_OR_KEYWORD"),
        ("k", "POSITIONAL_OR_KEYWORD"),
        ("seed", "KEYWORD_ONLY"),
    ]
    assert params(coupclust.solve_frobenius) == [
        ("dtm", "POSITIONAL_OR_KEYWORD"),
        ("p_z", "POSITIONAL_OR_KEYWORD"),
        ("lam", "KEYWORD_ONLY"),
        ("seed", "KEYWORD_ONLY"),
    ]


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
                    "--restarts", "--truth"],
        "counterexample": ["--out", "--m", "--n", "--lambda", "--s-grid"],
        "elbow": [*io, "--ks", "--algo", "--restarts", "--lambda"],
        "embed": [*io, "--d"],
        "synth": ["--out", "--gen", "--m", "--n", "--s",
                  "--sizes", "--within", "--cross", "--seed"],
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


EMBED_RUN = """
import contextlib, io, sys

import numpy
if "numpy.random" in sys.modules:
    print("preloaded")
    sys.exit(0)
from coupclust import cli

with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["embed", sys.argv[1], "--d", "4", "--out", sys.argv[2]]) == 0
print("numpy.random" in sys.modules)
"""


def test_embed_loads_no_numpy_random(tmp_path):
    # The block Krylov iteration starts from hashed signs, not a random
    # draw, so an embedding never imports numpy.random (about 6 ms cold).
    # 96 items at d = 4 are past the 64 rows (a budget of two blocks) where
    # the iteration starts. Where importing numpy already loads
    # numpy.random, there is nothing to test.
    (rows, cols, weights), _ = gen_planted_blocks(4, 24, 1.0, 0.05, noise_seed=0)
    data = tmp_path / "data.tsv"
    write_triplets(data, rows, cols, weights)
    src = str(Path(coupclust.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", EMBED_RUN, str(data), str(tmp_path / "run")],
        capture_output=True, text=True, env=env, check=True,
    )
    if out.stdout.strip() == "preloaded":
        pytest.skip("importing numpy loads numpy.random")
    assert out.stdout.strip() == "False"
    assert (tmp_path / "run" / "embedding.tsv").exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(heading: str, lang: str) -> str:
    """The first ```lang fenced block after the line `heading` in README."""
    text = README.read_text(encoding="utf-8")
    after = text[text.index(f"\n{heading}\n"):]
    start = after.index(f"```{lang}\n") + len(f"```{lang}\n")
    return after[start:after.index("```", start)]


def test_readme_python_api_block_runs(tmp_path, monkeypatch):
    # The Python API block reads the quick start's synth output; run that
    # command (continuation lines joined) and then the block, in a fresh
    # directory. Stalled nuclear restarts may warn; any other warning fails.
    quick = _readme_block("## Quick start", "sh").replace("\\\n", " ")
    synth = next(
        line for line in quick.splitlines() if line.startswith("coupclust synth")
    )
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(synth)[1:]) == 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        exec(_readme_block("## Python API", "python"), {})
    others = [str(w.message) for w in caught
              if "nuclear norm decreased" not in str(w.message)]
    assert others == []
