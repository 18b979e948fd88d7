import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coupclust
from coupclust import core

# The top-level public API, pinned: a name added to or dropped from a
# submodule's __all__ shows up here.
PUBLIC = {
    "__version__",
    "ClusteringReport",
    "ConfigError",
    "CounterexampleParams",
    "CoupclustError",
    "CouplingKernel",
    "DataError",
    "DegenerateCluster",
    "DimensionMismatch",
    "Dtm",
    "EmbeddingMatrix",
    "EmptyAfterPruning",
    "EpsilonTooLarge",
    "FrobeniusConfig",
    "InvalidDistribution",
    "InvalidOrder",
    "InvalidParams",
    "InvalidRating",
    "JointPmf",
    "KyFanFeatures",
    "LabelMismatch",
    "MarginalMismatch",
    "NonFinite",
    "NuclearConfig",
    "ParseError",
    "PerturbationFamily",
    "Pmf",
    "PruneReport",
    "RankDeficient",
    "ShapeMismatch",
    "SolveTrace",
    "SolverError",
    "UnknownLabel",
    "ZeroMarginal",
    "apply_rating_transform",
    "bipartite_components",
    "build_dtm",
    "build_report",
    "community_objective",
    "compose_dtm",
    "cosine_score",
    "counterexample_frobenius",
    "coverage",
    "dtm_embed",
    "dtm_from_kernel",
    "elbow_curve",
    "format_report_table",
    "frobenius_objective",
    "frobenius_sq",
    "gen_counterexample",
    "gen_planted_blocks",
    "harden",
    "ingest",
    "intuitive_kernel",
    "kernel_norm_value",
    "kl_divergence",
    "kyfan_features",
    "load_dense_csv",
    "load_pmf",
    "load_triplets",
    "local_mi_gap",
    "matched_accuracy",
    "mutual_information",
    "nuclear",
    "one_item_kernel",
    "parse_triplets",
    "perturbed_kernel",
    "project_columns",
    "rating_transform",
    "schatten_p",
    "simplex_project",
    "singular_one_multiplicity",
    "solve_frobenius",
    "solve_nuclear",
    "write_embedding_tsv",
    "write_kernel_json",
    "write_trace_csv",
    "write_triplets",
}


def test_public_names_pinned():
    assert len(coupclust.__all__) == len(set(coupclust.__all__))
    assert set(coupclust.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(coupclust, name), name


def test_config_fields_pinned():
    # Every solver knob is a config field; a new one has to edit this test.
    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert names(coupclust.NuclearConfig) == ["k", "max_iters", "seed"]
    assert names(coupclust.FrobeniusConfig) == [
        "lam", "alpha", "max_iters", "obj_tol", "seed"
    ]


def test_nuclear_is_the_norm():
    # The nuclear solver module shares the name of core's nuclear norm; the
    # exported name is the norm.
    assert coupclust.nuclear is core.nuclear


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


CLUSTER_WITH_TRUTH = """
import contextlib, io, sys
from pathlib import Path
from coupclust import cli
from coupclust.data_io import gen_planted_blocks, write_triplets

tmp, algo = Path(sys.argv[1]), sys.argv[2]
joint, truth = gen_planted_blocks(3, 8, 1.0, 0.05, noise_seed=0)
write_triplets(tmp / "data.tsv", joint.row_labels, joint.col_labels, joint.weights)
(tmp / "truth.tsv").write_text(
    "".join(f"{y}\\t{t}\\n" for y, t in zip(joint.row_labels, truth))
)
argv = ["cluster", str(tmp / "data.tsv"), "--algo", algo, "--k", "3",
        "--restarts", "2", "--truth", str(tmp / "truth.tsv"),
        "--out", str(tmp / "run")]
if algo == "frobenius":
    argv += ["--pz", "uniform"]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    rc = cli.main(argv)
assert (tmp / "run" / "report.json").exists()
print(rc, sorted(m for m in sys.modules if m.startswith("scipy")))
"""


@pytest.mark.parametrize("algo", ["nuclear", "frobenius"])
def test_cluster_with_truth_loads_no_scipy(algo, tmp_path):
    # Scoring a --truth run matches clusters with the package's own numpy
    # solver, so a whole cluster run stays clear of scipy.
    src = str(Path(coupclust.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", CLUSTER_WITH_TRUTH, str(tmp_path), algo],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "0 []"
