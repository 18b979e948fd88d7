import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import coupclust
from coupclust.cli import _parse_int_grid, build_parser, main
from coupclust import data_io
from coupclust.core import Pmf
from coupclust.data_io import gen_planted_blocks, write_triplets
from coupclust.errors import SolverError

from conftest import zipf_joint


@pytest.fixture
def planted(tmp_path):
    (rows, cols, weights), truth = gen_planted_blocks(2, 10, 1.0, 0.05, noise_seed=6)
    data = tmp_path / "data.tsv"
    write_triplets(data, rows, cols, weights)
    truth_path = tmp_path / "truth.tsv"
    truth_path.write_text("".join(f"{y}\t{t}\n" for y, t in zip(rows, truth)))
    return data, truth_path


class TestSynth:
    def test_planted_writes_truth(self, tmp_path):
        out = tmp_path / "synth"
        rc = main(
            [
                "synth", "--sizes", "3,3", "--within", "1", "--cross", "0.1",
                "--seed", "1", "--out", str(out),
            ]
        )
        assert rc == 0
        truth = dict(
            line.split("\t")
            for line in (out / "truth.tsv").read_text().strip().split("\n")
        )
        assert len(truth) == 6
        assert set(truth.values()) == {"b0", "b1"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["--sizes", "3,3"],
            ["--within", "9"],
            ["--cross", "0.5"],
            ["--seed", "4"],
        ],
        ids=["counterexample-sizes", "counterexample-within",
             "counterexample-cross", "counterexample-seed"],
    )
    def test_other_generators_flag_rejected(self, tmp_path, capsys, argv):
        # synth has one generator; a call that asks for the deleted
        # counterexample generator is refused, not answered with planted
        # data, whatever planted flag rides along.
        out = tmp_path / "synth"
        argv = ["synth", "--gen", "counterexample", *argv, "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error: unrecognized arguments: --gen counterexample\n" in err
        assert "Traceback" not in err
        assert not out.exists() or list(out.iterdir()) == []


class TestCluster:
    @pytest.mark.filterwarnings("ignore:nuclear norm decreased:RuntimeWarning")
    def test_nuclear_k32_on_zipf_keeps_every_restart(self, tmp_path, capsys):
        # On this 128-item Zipf joint some restarts at k = 32 empty a cluster
        # at step after step; each is rescued every time, so no restart fails
        # the run, for cluster or for an elbow that reaches k = 32.
        data = tmp_path / "zipf0.tsv"
        write_triplets(data, *zipf_joint(0))
        out = tmp_path / "run"
        argv = ["cluster", str(data), "--algo", "nuclear", "--k", "32",
                "--restarts", "5", "--out", str(out)]
        assert main(argv) == 0, capsys.readouterr().err
        assert len(json.loads((out / "kernel.json").read_text())["clusters"]) == 32
        argv = ["elbow", str(data), "--ks", "8,16,32", "--restarts", "5",
                "--out", str(tmp_path / "elbow")]
        assert main(argv) == 0, capsys.readouterr().err
        assert "solver error" not in capsys.readouterr().err

    def test_nuclear_with_report(self, planted, tmp_path, capsys):
        data, truth = planted
        out = tmp_path / "run"
        rc = main(
            [
                "cluster", str(data), "--algo", "nuclear", "--k", "2",
                "--seed", "0", "--restarts", "3", "--truth", str(truth),
                "--out", str(out),
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "Coverage" in captured.out
        assert "restart seed=" not in captured.out
        # One line per restart, saying why it stopped and after how many
        # iterations; the best restart's count is the one kernel.json keeps.
        restarts = re.findall(
            r"^restart seed=(\d+): objective \S+, "
            r"(Converged|MaxIters) after (\d+) iterations$",
            captured.err,
            re.MULTILINE,
        )
        assert [int(seed) for seed, _, _ in restarts] == [0, 1, 2]
        report = json.loads((out / "report.json").read_text())
        assert report["overall_accuracy"] >= 0.95
        kernel = json.loads((out / "kernel.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        assert int(restarts[manifest["config"]["best_seed"]][2]) == kernel["iters"]
        assert list(kernel.keys()) == [
            "clusters", "items", "kernel", "p_z", "objective",
            "algorithm", "iters",
        ]
        assert kernel["algorithm"] == "nuclear"
        trace = (out / "trace.csv").read_text().split("\n")
        assert trace[0] == "iter,objective,penalty,violation"

    def test_frobenius_uniform_pz(self, planted, tmp_path):
        data, truth = planted
        out = tmp_path / "run"
        rc = main(
            [
                "cluster", str(data), "--algo", "frobenius", "--k", "2",
                "--pz", "uniform", "--lambda", "10", "--seed", "0",
                "--restarts", "2", "--truth", str(truth), "--out", str(out),
            ]
        )
        assert rc == 0
        kernel = json.loads((out / "kernel.json").read_text())
        cols = np.array(kernel["kernel"]).sum(axis=0)
        assert np.max(np.abs(cols - 1.0)) <= 1e-9
        assert kernel["p_z"] == [0.5, 0.5]

    def test_frobenius_pz_file(self, planted, tmp_path):
        data, _ = planted
        pz = tmp_path / "pz.tsv"
        pz.write_text("c0\t0.5\nc1\t0.5\n")
        out = tmp_path / "run"
        rc = main(
            [
                "cluster", str(data), "--algo", "frobenius", "--k", "2",
                "--pz", str(pz), "--restarts", "1", "--out", str(out),
            ]
        )
        assert rc == 0
        kernel = json.loads((out / "kernel.json").read_text())
        assert kernel["clusters"] == ["c0", "c1"]

    def test_byte_identical_rerun(self, planted, tmp_path):
        data, truth = planted
        args_tail = [
            "--algo", "nuclear", "--k", "2", "--seed", "3", "--restarts", "2",
            "--truth", str(truth),
        ]
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        assert main(["cluster", str(data), *args_tail, "--out", str(out1)]) == 0
        assert main(["cluster", str(data), *args_tail, "--out", str(out2)]) == 0
        for name in ("kernel.json", "trace.csv", "report.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        m1["config"].pop("input"), m2["config"].pop("input")
        assert m1 == m2

    def test_each_restart_logged_as_it_ends(self, planted, tmp_path, monkeypatch):
        # A restart's line is written before the next restart starts.
        import coupclust.evaluation as evaluation

        events = []
        solve = evaluation.solve_nuclear

        def solve_noted(dtm, k, seed):
            events.append(f"solve {seed}")
            return solve(dtm, k, seed=seed)

        monkeypatch.setattr(evaluation, "solve_nuclear", solve_noted)
        monkeypatch.setattr(coupclust.cli, "_log", lambda msg: events.append(msg[:14]))
        data, _ = planted
        argv = ["cluster", str(data), "--algo", "nuclear", "--k", "2",
                "--seed", "4", "--restarts", "2", "--out", str(tmp_path / "x")]
        assert main(argv) == 0
        assert events == [
            "solve 4", "restart seed=4", "solve 5", "restart seed=5",
        ]

    def test_round_off_tie_keeps_earliest_restart(self, planted, tmp_path, monkeypatch):
        # Restarts that land on the same optimum may differ in the last bit of
        # the objective; the earlier seed is kept, a real gain still wins.
        import coupclust.evaluation as evaluation

        solve = evaluation.solve_nuclear
        bump = {0: 0.0, 1: 1e-15, 2: 1e-9}

        def solve_bumped(dtm, k, seed):
            kernel, trace = solve(dtm, k, seed=seed)
            trace.objectives[-1] = 5.0 + bump[seed - 3]
            return kernel, trace

        monkeypatch.setattr(evaluation, "solve_nuclear", solve_bumped)
        data, _ = planted
        for restarts, best in (("2", 3), ("3", 5)):
            out = tmp_path / restarts
            argv = ["cluster", str(data), "--algo", "nuclear", "--k", "2",
                    "--seed", "3", "--restarts", restarts, "--out", str(out)]
            assert main(argv) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config"]["best_seed"] == best


class TestTruth:
    @pytest.fixture
    def pruned(self, tmp_path):
        # Item c has only zero weights, so ingest prunes it.
        data = tmp_path / "d.tsv"
        data.write_text(
            "a\tu\t1\na\tv\t0.2\nb\tv\t1\nb\tu\t0.1\nc\tu\t0\nc\tv\t0\n"
        )
        return data

    def _cluster(self, data, truth, out):
        return main(
            [
                "cluster", str(data), "--algo", "nuclear", "--k", "2",
                "--restarts", "1", "--truth", str(truth), "--out", str(out),
            ]
        )

    def test_pruned_item_labels_dropped(self, pruned, tmp_path, capsys):
        truth = tmp_path / "t.tsv"
        truth.write_text("a\tL\nb\tR\nc\tR\n")
        assert self._cluster(pruned, truth, tmp_path / "run") == 0
        err = capsys.readouterr().err
        assert "note: ignoring the truth labels of 1 pruned item(s), first 'c'" in err
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["overall_accuracy"] == 1.0

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a\tL\nb\tR\na\tR\n", "line 3, byte 8: duplicate item 'a'"),
            ("a\tL\nc\tR\n", "'b' has no truth label"),
            ("a\tL\nb\tR\nd\tR\n", "truth labels 'd', which is not an item"),
        ],
        ids=["duplicate", "missing", "extra"],
    )
    def test_bad_truth_fails_before_solving(
        self, pruned, tmp_path, capsys, monkeypatch, text, message
    ):
        truth = tmp_path / "t.tsv"
        truth.write_text(text)
        monkeypatch.setattr(
            "coupclust.cli._restarts", lambda *a, **k: pytest.fail("solver ran")
        )
        out = tmp_path / "run"
        assert self._cluster(pruned, truth, out) == 3
        err = capsys.readouterr().err
        assert "data error: " in err and message in err
        assert not (out / "kernel.json").exists()
        assert not (out / "trace.csv").exists()


class TestRatings:
    # Movie m3 is rated 1 by everyone who rated it, which the transform maps
    # to 0, so ingest prunes it.
    RATINGS = (
        "m0\tu0\t5\nm0\tu1\t4\nm1\tu0\t4\nm1\tu2\t2\n"
        "m2\tu1\t2\nm2\tu2\t5\nm3\tu0\t1\nm3\tu2\t1\n"
    )

    def _cluster(self, data, out):
        return main(
            [
                "cluster", str(data), "--algo", "nuclear", "--k", "2",
                "--restarts", "1", "--rating-transform", "--normalize", "rows",
                "--out", str(out),
            ]
        )

    def test_transform_and_row_normalization(self, tmp_path, capsys):
        data = tmp_path / "ratings.tsv"
        data.write_text(self.RATINGS)
        out = tmp_path / "run"
        assert self._cluster(data, out) == 0
        err = capsys.readouterr().err
        assert "pruned 1 rows, 0 columns with zero weight\n" in err
        prune = json.loads((out / "prune_report.json").read_text())
        assert prune == {"pruned_rows": ["m3"], "pruned_cols": []}
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["rating_transform"] is True
        assert config["normalize"] == "rows"
        # Rows normalization gives each of the three items P_Y = 1/3, so the
        # induced cluster marginal is 1/3 and 2/3; under joint normalization
        # the transformed row masses (106, 28, 82)/216 give neither.
        kernel = json.loads((out / "kernel.json").read_text())
        assert kernel["items"] == ["m0", "m1", "m2"]
        assert sorted(kernel["p_z"]) == pytest.approx([1 / 3, 2 / 3], rel=1e-12)

    def test_out_of_scale_rating(self, tmp_path, capsys):
        data = tmp_path / "ratings.tsv"
        data.write_text(self.RATINGS + "m0\tu2\t6\n")
        assert self._cluster(data, tmp_path / "run") == 3
        err = capsys.readouterr().err
        assert err == "data error: nonblank ratings must be integers in 1..5\n"


class TestExitCodes:
    def test_nuclear_rejects_pz(self, planted, tmp_path):
        data, _ = planted
        rc = main(
            [
                "cluster", str(data), "--algo", "nuclear", "--k", "2",
                "--pz", "uniform", "--out", str(tmp_path / "x"),
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["cluster", "--algo", "nuclear", "--k", "2", "--pz", "PZ"],
            ["cluster", "--algo", "nuclear", "--k", "2", "--lambda", "3"],
            ["elbow", "--algo", "nuclear", "--ks", "1,2", "--lambda", "inf"],
            ["elbow", "--algo", "nuclear", "--ks", "1,2", "--lambda", "3"],
        ],
    )
    def test_nuclear_rejects_frobenius_flags(self, planted, tmp_path, capsys, argv):
        data, _ = planted
        pz = tmp_path / "pz.tsv"
        pz.write_text("c0\t0.5\nc1\t0.5\n")
        argv = [str(pz) if a == "PZ" else a for a in argv]
        rc = main(
            [argv[0], str(data), *argv[1:], "--restarts", "1",
             "--out", str(tmp_path / "x")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"does not take {argv[-2]}" in err
        assert "Traceback" not in err

    def test_default_lambda_in_manifest(self, planted, tmp_path):
        data, _ = planted
        out = tmp_path / "x"
        rc = main(
            [
                "elbow", str(data), "--algo", "frobenius", "--ks", "2",
                "--restarts", "1", "--out", str(out),
            ]
        )
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["lambda"] == 10.0

    def test_frobenius_requires_pz(self, planted, tmp_path):
        data, _ = planted
        rc = main(
            [
                "cluster", str(data), "--algo", "frobenius", "--k", "2",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert rc == 2

    def test_pz_size_mismatch(self, planted, tmp_path):
        data, _ = planted
        pz = tmp_path / "pz.tsv"
        pz.write_text("c0\t0.5\nc1\t0.25\nc2\t0.25\n")
        rc = main(
            [
                "cluster", str(data), "--algo", "frobenius", "--k", "2",
                "--pz", str(pz), "--out", str(tmp_path / "x"),
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("c0\t0.5\nc0\t0.5\n", "line 2, byte 7: duplicate label 'c0'"),
            ("c0\tnan\nc1\t0.5\n",
             "line 1, byte 0: probability must be finite and >= 0, got nan"),
            ("c0\t1.5\nc1\t-0.5\n",
             "line 2, byte 7: probability must be finite and >= 0, got -0.5"),
        ],
        ids=["duplicate", "nan", "negative"],
    )
    def test_pz_errors_name_the_line(self, planted, tmp_path, capsys, text, message):
        data, _ = planted
        pz = tmp_path / "pz.tsv"
        pz.write_text(text)
        rc = main(
            [
                "cluster", str(data), "--algo", "frobenius", "--k", "2",
                "--pz", str(pz), "--out", str(tmp_path / "x"),
            ]
        )
        assert rc == 3
        assert capsys.readouterr().err == f"data error: {message}\n"

    def test_malformed_data(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("a\tb\tnot_a_number\n")
        rc = main(
            [
                "cluster", str(bad), "--algo", "nuclear", "--k", "2",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert rc == 3

    def test_wide_sparse_data_is_a_data_error(self, tmp_path, capsys, monkeypatch):
        # 3.4 MB of distinct (row, col) pairs asks for a 200,000 x 200,000
        # float64 matrix (298 GiB): refused from the shape, before allocating.
        wide = tmp_path / "wide.tsv"
        wide.write_text("".join(f"r{i}\tc{i}\t1\n" for i in range(200_000)))

        def no_alloc(*args, **kwargs):
            raise AssertionError("weight matrix allocated")

        monkeypatch.setattr(np, "bincount", no_alloc)
        # Hosts with more memory than the matrix needs are capped at 64 GiB.
        memory = min(data_io._physical_memory(), 64 * 2**30)
        monkeypatch.setattr(data_io, "_physical_memory", lambda: memory)
        rc = main(
            [
                "cluster", str(wide), "--algo", "nuclear", "--k", "2",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "data error: 200000 x 200000 weight matrix" in err
        assert "Traceback" not in err

    def test_out_of_memory_is_a_data_error(
        self, planted, tmp_path, capsys, monkeypatch
    ):
        # A matrix that passes the shape check can still exhaust memory once
        # ingest copies it; that too is a data error, not a traceback.
        data, _ = planted

        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 11.9 GiB for an array")

        monkeypatch.setattr("coupclust.cli.ingest", out_of_memory)
        rc = main(
            [
                "cluster", str(data), "--algo", "nuclear", "--k", "2",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "data error: out of memory (Unable to allocate 11.9 GiB" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["elbow", "DATA", "--algo", "frobenius", "--ks", "2", "--lambda",
             "nan", "--restarts", "1"],
            ["synth", "--cross", "inf"],
            ["cluster", "DATA", "--algo", "frobenius", "--k", "2", "--pz",
             "uniform", "--lambda", "inf", "--restarts", "1"],
            ["cluster", "DATA", "--algo", "frobenius", "--k", "2", "--pz",
             "uniform", "--lambda", "nan", "--restarts", "1"],
            ["elbow", "DATA", "--algo", "frobenius", "--ks", "2", "--lambda",
             "inf", "--restarts", "1"],
            ["synth", "--within", "nan"],
            ["synth", "--cross", "nan"],
            ["cluster", "DATA", "--algo", "frobenius", "--k", "2", "--pz",
             "uniform", "--lambda=-inf", "--restarts", "1"],
            ["elbow", "DATA", "--algo", "frobenius", "--ks", "2",
             "--lambda=-inf", "--restarts", "1"],
            ["synth", "--within", "inf"],
        ],
    )
    def test_nonfinite_hyperparameter(self, planted, tmp_path, capsys, argv):
        data, _ = planted
        out = tmp_path / "x"
        argv = [str(data) if a == "DATA" else a for a in argv]
        rc = main([*argv, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "must be finite" in err
        assert "Traceback" not in err
        # refused before any data or result file is written
        assert not any(out.glob("*.csv")) and not any(out.glob("*.tsv"))

    def test_huge_lambda_exits_0(self, planted, tmp_path, capsys):
        # The step for lam = 1e300 is 1/(lam - 1): finite, so the run
        # completes; the norm term barely moves the kernel from its start,
        # and the solver warns that the run only matches the target.
        data, _ = planted
        out = tmp_path / "x"
        with pytest.warns(RuntimeWarning, match="only matches the target") as caught:
            rc = main(
                [
                    "cluster", str(data), "--algo", "frobenius", "--k", "2",
                    "--pz", "uniform", "--lambda", "1e300", "--restarts", "1",
                    "--out", str(out),
                ]
            )
        assert rc == 0
        assert len(caught) == 1
        err = capsys.readouterr().err
        assert "restart seed=0: objective " in err
        assert "Traceback" not in err
        assert (out / "kernel.json").exists()

    def test_solver_error_exit_code(self, planted, tmp_path, capsys, monkeypatch):
        # A solver that gives up (test_frobenius triggers each divergence
        # check) ends the run with exit 4 and its message, and writes no
        # kernel.
        def diverge(*args, **kwargs):
            raise SolverError("iterate diverged at iteration 2 (step 0.5)")

        monkeypatch.setattr("coupclust.evaluation.solve_frobenius", diverge)
        data, _ = planted
        out = tmp_path / "x"
        rc = main(
            [
                "cluster", str(data), "--algo", "frobenius", "--k", "2",
                "--pz", "uniform", "--restarts", "1", "--out", str(out),
            ]
        )
        assert rc == 4
        err = capsys.readouterr().err
        assert "solver error: iterate diverged at iteration 2 (step 0.5)\n" in err
        assert "Traceback" not in err
        assert not (out / "kernel.json").exists()

    def test_spectrum_check_failure_exit_code(
        self, planted, tmp_path, capsys, monkeypatch
    ):
        # A DTM whose spectrum breaks its invariants is a SolverError: exit 4,
        # with the check's message. A negative tolerance fails every check.
        monkeypatch.setattr("coupclust.svd.SPECTRAL_TOL", -1.0)
        data, _ = planted
        out = tmp_path / "x"
        rc = main(
            [
                "cluster", str(data), "--algo", "nuclear", "--k", "2",
                "--restarts", "1", "--out", str(out),
            ]
        )
        assert rc == 4
        err = capsys.readouterr().err
        assert re.search(
            r"^solver error: top of the spectrum \S+ != 1; DTM invariant violated$",
            err,
            re.MULTILINE,
        )
        assert "Traceback" not in err
        assert not (out / "kernel.json").exists()

    def test_bad_grid(self, tmp_path):
        data = tmp_path / "data.tsv"
        data.write_text("a\tu\t1\n")
        for argv in (
            ["elbow", str(data), "--ks", "5:1:1"],
            ["elbow", str(data), "--ks", "a,b"],
            ["elbow", str(data), "--ks", ","],
            ["elbow", str(data), "--ks", "1:2"],
            ["elbow", str(data), "--ks", "1,x"],
            ["elbow", str(data), "--ks", "1:2:0.5"],
            ["synth", "--sizes", "3,x"],
            ["synth", "--sizes", "1:2:1e-300"],
            # sizes that would allocate without bound
            ["elbow", str(data), "--ks", "1:10002:1"],
            ["elbow", str(data), "--ks", "1:1000000000000:1"],
            ["synth", "--sizes", "1:1000000000000:1"],
            ["synth", "--sizes", "1000000000,1000000000"],
        ):
            start = time.perf_counter()
            assert main(argv + ["--out", str(tmp_path / "x")]) == 2, argv
            assert time.perf_counter() - start < 1.0, argv

    @pytest.mark.parametrize("restarts", ["0", "-1", "two"])
    def test_bad_restarts(self, planted, tmp_path, restarts):
        data, _ = planted
        for argv in (
            ["cluster", str(data), "--algo", "nuclear", "--k", "2"],
            ["elbow", str(data), "--ks", "1,2"],
        ):
            rc = main(argv + ["--restarts", restarts, "--out", str(tmp_path / "x")])
            assert rc == 2, argv

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_bad_k(self, planted, tmp_path, k):
        data, _ = planted
        for argv in (
            ["cluster", str(data), "--algo", "frobenius", "--k", k,
             "--pz", "uniform"],
            ["elbow", str(data), "--algo", "frobenius", "--ks", k],
            ["elbow", str(data), "--algo", "nuclear", "--ks", k],
        ):
            rc = main(argv + ["--restarts", "1", "--out", str(tmp_path / "x")])
            assert rc == 2, argv

    @pytest.mark.parametrize(
        "argv",
        [
            ["cluster", "DATA", "--algo", "nuclear", "--k", "2"],
            ["cluster", "DATA", "--algo", "frobenius", "--k", "2", "--pz",
             "uniform"],
            ["synth"],
        ],
        ids=["nuclear", "frobenius", "synth"],
    )
    def test_negative_seed(self, planted, tmp_path, capsys, argv):
        data, _ = planted
        argv = [str(data) if a == "DATA" else a for a in argv]
        rc = main([*argv, "--seed", "-1", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["cluster", "DATA", "--algo", "frobenius", "--k", "1000000",
             "--pz", "uniform"],
            ["elbow", "DATA", "--algo", "frobenius", "--ks", "1000000"],
        ],
        ids=["cluster", "elbow"],
    )
    def test_huge_k_builds_no_uniform_target(
        self, planted, tmp_path, capsys, monkeypatch, argv
    ):
        # k <= |Y| is checked before the k-label uniform target is built.
        def refuse(labels):
            raise AssertionError(f"uniform target over {len(labels)} labels")

        monkeypatch.setattr(Pmf, "uniform", refuse)
        data, _ = planted
        argv = [str(data) if a == "DATA" else a for a in argv]
        rc = main([*argv, "--restarts", "1", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "|Z| = 1000000 exceeds |Y| = 20" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--pz", "--truth"])
    def test_bad_utf8_side_file(self, planted, tmp_path, capsys, flag):
        data, truth = planted
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"z0\t0.5\n\xff\xfe\t0.5\n")
        side = {"--pz": "uniform", "--truth": str(truth)}
        side[flag] = str(bad)
        rc = main(
            [
                "cluster", str(data), "--algo", "frobenius", "--k", "2",
                "--restarts", "1", "--pz", side["--pz"],
                "--truth", side["--truth"], "--out", str(tmp_path / "x"),
            ]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "line 2, byte 7" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cluster", "--algo", "nuclear", "--k", "8", "--pz", "uniform"],
             "--algo nuclear does not take --pz"),
            (["cluster", "--algo", "nuclear", "--k", "8", "--lambda", "3"],
             "--algo nuclear does not take --lambda"),
            (["cluster", "--algo", "frobenius", "--k", "8"],
             "--algo frobenius requires --pz (a file or 'uniform')"),
            (["cluster", "--algo", "frobenius", "--k", "8", "--pz", "PZ"],
             "--pz has 2 entries but --k is 8"),
            (["elbow", "--algo", "nuclear", "--ks", "1,2", "--lambda", "3"],
             "--algo nuclear does not take --lambda"),
            (["cluster", "--algo", "frobenius", "--pz", "uniform", "--k", "2",
              "--lambda", "nan"],
             "lam must be finite and positive"),
            (["elbow", "--algo", "frobenius", "--ks", "2", "--lambda", "-1"],
             "lam must be finite and positive"),
            (["elbow", "--ks", "3,2"],
             "ks must be a nonempty ascending list of counts >= 1"),
            (["elbow", "--ks", "0,1"],
             "ks must be a nonempty ascending list of counts >= 1"),
            (["embed", "--d", "0"], "d must be >= 1"),
        ],
        ids=["cluster-pz", "cluster-lambda", "cluster-no-pz", "cluster-pz-size",
             "elbow-lambda", "cluster-lambda-range", "elbow-lambda-range",
             "elbow-ks-order", "elbow-ks-range", "embed-d"],
    )
    def test_flags_checked_before_input(self, tmp_path, capsys, argv, message):
        # A flag check that needs no joint comes before the input is read:
        # the input here does not exist, and the run still exits 2 naming
        # the flag, with nothing written.
        pz = tmp_path / "pz.tsv"
        pz.write_text("z0\t0.5\nz1\t0.5\n")
        argv = [str(pz) if a == "PZ" else a for a in argv]
        out = tmp_path / "x"
        rc = main([argv[0], str(tmp_path / "missing.tsv"), *argv[1:],
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert list(out.iterdir()) == []

    def test_pz_interiority_checked_before_input(self, tmp_path, capsys):
        # A --pz with a zero entry is refused before the input is read, with
        # the message and exit code the solver gives it.
        pz = tmp_path / "pz.tsv"
        pz.write_text("z0\t1\nz1\t0\n")
        out = tmp_path / "x"
        rc = main(["cluster", str(tmp_path / "missing.tsv"), "--algo", "frobenius",
                   "--pz", str(pz), "--k", "2", "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == (
            "data error: target P_Z must be strictly interior\n"
        )
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--algo", "nuclear", "--k", "30"], "k = 30 exceeds |Y| = 25"),
            (["--algo", "frobenius", "--pz", "uniform", "--k", "30"],
             "|Z| = 30 exceeds |Y| = 25"),
        ],
        ids=["nuclear", "frobenius"],
    )
    def test_failed_cluster_writes_nothing(self, tmp_path, capsys, argv, message):
        # Bounds set by the input are checked after it is read; a run that
        # fails them leaves --out as empty as a flag check does.
        joint, _ = gen_planted_blocks(5, 5, 1.0, 0.05, noise_seed=1)
        data = tmp_path / "data.tsv"
        write_triplets(data, *joint)
        out = tmp_path / "x"
        assert main(["cluster", str(data), *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["cluster", "DATA", "--algo", "frobenius", "--k", "2", "--pz",
             "uniform", "--tol", "1e-6"],
            ["synth", "--variant", "base_P"],
            ["synth", "--sizes", "3,3", "--blocks", "2"],
            ["synth", "--m", "5"],
            ["synth", "--n", "5"],
            ["synth", "--s", "9"],
        ],
        ids=["cluster-tol", "synth-variant", "synth-blocks", "synth-m",
             "synth-n", "synth-s"],
    )
    def test_deleted_flags_are_usage_errors(self, planted, tmp_path, capsys, argv):
        # A flag that no parser takes any more is refused, not ignored; --s
        # is refused as an abbreviation of both --sizes and --seed.
        data, _ = planted
        argv = [str(data) if a == "DATA" else a for a in argv]
        out = tmp_path / "x"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        if argv[-2] == "--s":
            assert "error: ambiguous option: --s could match --sizes, --seed\n" in err
        else:
            assert f"error: unrecognized arguments: {' '.join(argv[-2:])}\n" in err
        assert "Traceback" not in err
        assert not out.exists() or list(out.iterdir()) == []

    def test_deleted_subcommand_is_a_usage_error(self, tmp_path, capsys):
        # The two-community counterexample is a paper identity, checked by
        # the tests; no subcommand computes it.
        assert main(["counterexample", "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'counterexample'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flag, name, rc",
        [
            ("input", "missing.tsv", 3),
            ("input", "missing.csv", 3),
            ("input", ".", 3),
            ("--pz", "missing.tsv", 3),
            ("--pz", ".", 3),
            ("--truth", "missing.tsv", 3),
            ("--out", "data.tsv", 2),
            ("--out", "data.tsv/x", 2),
        ],
    )
    def test_unusable_path(self, planted, tmp_path, capsys, flag, name, rc):
        # An unreadable file, or an --out that cannot be made a directory, is
        # reported by name with its exit code, not as a traceback.
        data, truth = planted
        bad = tmp_path / name
        paths = {"input": data, "--pz": "uniform", "--truth": truth, "--out": "x"}
        paths[flag] = bad
        code = main(
            [
                "cluster", str(paths["input"]), "--algo", "frobenius", "--k", "2",
                "--restarts", "1", "--pz", str(paths["--pz"]),
                "--truth", str(paths["--truth"]),
                "--out", str(tmp_path / paths["--out"]),
            ]
        )
        err = capsys.readouterr().err
        assert code == rc, err
        what = "data error: cannot read" if rc == 3 else (
            "configuration error: cannot create --out"
        )
        assert f"{what} {bad}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, artifact",
        [
            (["cluster", "DATA", "--algo", "nuclear", "--k", "2",
              "--restarts", "1"], "kernel.json"),
            (["elbow", "DATA", "--ks", "1,2", "--restarts", "1"], "elbow.csv"),
            (["embed", "DATA", "--d", "2"], "embedding.tsv"),
            (["synth", "--sizes", "3,3"], "truth.tsv"),
        ],
        ids=["cluster", "elbow", "embed", "synth"],
    )
    def test_unwritable_artifact(self, planted, tmp_path, capsys, argv, artifact):
        # A directory already holds an artifact's name: the run names the
        # file it cannot write and exits 2, as for an unusable --out.
        data, _ = planted
        out = tmp_path / "x"
        (out / artifact).mkdir(parents=True)
        argv = [str(data) if a == "DATA" else a for a in argv]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: cannot write {out / artifact}: Is a directory\n" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, artifact, work",
        [
            (["cluster", "DATA", "--algo", "nuclear", "--k", "2",
              "--restarts", "3"], "report.json", "_restarts"),
            (["elbow", "DATA", "--ks", "1,2", "--restarts", "1"],
             "manifest.json", "elbow_curve"),
            (["embed", "DATA", "--d", "2"], "manifest.json", "dtm_embed"),
            (["synth", "--sizes", "3,3"], "truth.tsv", "gen_planted_blocks"),
        ],
        ids=["cluster", "elbow", "embed", "synth"],
    )
    def test_artifact_checked_before_work(
        self, planted, tmp_path, capsys, monkeypatch, argv, artifact, work
    ):
        # Even the last artifact a run writes is checked before it solves or
        # takes a spectrum, and the check writes nothing.
        calls = []
        real = getattr(coupclust.cli, work)

        def counted(*args, **kwargs):
            calls.append(work)
            return real(*args, **kwargs)

        monkeypatch.setattr(coupclust.cli, work, counted)
        data, _ = planted
        out = tmp_path / "x"
        (out / artifact).mkdir(parents=True)
        argv = [str(data) if a == "DATA" else a for a in argv]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: cannot write {out / artifact}: Is a directory\n" in err
        assert calls == []
        assert [p.name for p in out.iterdir()] == [artifact]


def test_warning_names_no_source_line(tmp_path):
    # On this 3-block file the nuclear alternation lowers the norm once
    # (k = 4, seed 5). The CLI prints the warning without the package file
    # and line, so stderr does not change between checkouts or edits.
    joint, _ = gen_planted_blocks(3, 6, 1.0, 0.2, noise_seed=0)
    data = tmp_path / "data.tsv"
    write_triplets(data, *joint)
    src = str(Path(coupclust.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-m", "coupclust.cli", "cluster", str(data),
         "--algo", "nuclear", "--k", "4", "--seed", "5", "--restarts", "1",
         "--out", str(tmp_path / "run")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert out.returncode == 0, out.stderr
    assert "warning: nuclear norm decreased between iterations (" in out.stderr
    assert ".py:" not in out.stderr


def _subcommands():
    """build_parser()'s subcommand parsers by name."""
    return next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ).choices


def test_manifest_records_every_flag(planted, tmp_path):
    # The manifest's config has one key per flag of its subcommand, --out
    # aside, in the parser's order; cluster adds the seed it kept, last. So a
    # deleted flag cannot linger in it and a flag that changes the outputs
    # cannot be left out of it, a default included.
    data, truth = planted
    subs = _subcommands()
    runs = {
        "cluster": ["cluster", str(data), "--algo", "nuclear", "--k", "2",
                    "--restarts", "1", "--truth", str(truth)],
        "elbow": ["elbow", str(data), "--ks", "1,2", "--restarts", "1"],
        "embed": ["embed", str(data), "--d", "2"],
        "synth": ["synth", "--sizes", "3,3"],
    }
    for name, argv in runs.items():
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0, name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == argv[0]
        config = manifest["config"]
        want = [
            "lambda" if a.dest == "lam" else a.dest
            for a in subs[argv[0]]._actions
            if a.dest not in ("help", "out")
        ]
        if argv[0] == "cluster":
            want.append("best_seed")
            assert config["truth"] == str(truth)
        if argv[0] == "synth":
            assert config == {"sizes": "3,3", "within": 1.0, "cross": 0.05, "seed": 0}
        assert list(config) == want, name


def _replay_argv(manifest) -> list[str]:
    """The argv that a manifest's config records, through the parser's option
    strings: best_seed is not a flag, and a null or false value is left out."""
    actions = {
        "lambda" if a.dest == "lam" else a.dest: a
        for a in _subcommands()[manifest["command"]]._actions
    }
    argv = [manifest["command"]]
    for key, value in manifest["config"].items():
        if key == "best_seed" or value is None or value is False:
            continue
        flags = actions[key].option_strings[:1]
        argv += flags if value is True else [*flags, str(value)]
    return argv


@pytest.mark.parametrize(
    "argv",
    [
        ["cluster", "DATA", "--algo", "nuclear", "--k", "2", "--restarts", "2"],
        ["cluster", "DATA", "--algo", "frobenius", "--pz", "uniform", "--k", "2",
         "--restarts", "2", "--truth", "TRUTH"],
        ["elbow", "DATA", "--ks", "1:3:1", "--restarts", "2"],
        ["elbow", "DATA", "--algo", "frobenius", "--ks", "2,3", "--restarts", "1"],
        ["embed", "DATA", "--d", "2", "--normalize", "rows"],
        ["synth", "--sizes", "3,4", "--seed", "5"],
    ],
    ids=["cluster-nuclear", "cluster-frobenius-truth", "elbow-nuclear",
         "elbow-frobenius", "embed", "synth-planted"],
)
def test_every_manifest_replays(planted, tmp_path, capsys, argv):
    # The manifest is the exact config for a rerun: its flags, passed back,
    # rewrite every artifact byte for byte, the manifest included.
    data, truth = planted
    paths = {"DATA": str(data), "TRUTH": str(truth)}
    first, again = tmp_path / "first", tmp_path / "again"
    assert main([*(paths.get(a, a) for a in argv), "--out", str(first)]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    capsys.readouterr()
    assert main([*_replay_argv(manifest), "--out", str(again)]) == 0, (
        capsys.readouterr().err
    )
    names = sorted(p.name for p in first.iterdir())
    assert sorted(p.name for p in again.iterdir()) == names
    for name in names:
        assert (again / name).read_bytes() == (first / name).read_bytes(), name


def test_each_run_builds_one_dtm(planted, tmp_path, monkeypatch):
    # build_dtm is replaced in every coupclust module that holds the name, as
    # a span tracer does, so a build in any layer is counted. The solvers,
    # norms, report and embedding all read the one DTM the CLI builds.
    data, truth = planted
    runs = {
        "nuclear": ["cluster", "--algo", "nuclear", "--k", "2", "--restarts", "3"],
        "frobenius-truth": ["cluster", "--algo", "frobenius", "--pz", "uniform",
                            "--k", "2", "--restarts", "2", "--truth", str(truth)],
        "elbow": ["elbow", "--ks", "1:3:1", "--restarts", "2"],
        "embed": ["embed", "--d", "2"],
    }
    build_dtm = coupclust.core.build_dtm
    calls = []

    def counting_build_dtm(*args):
        calls.append(args)
        return build_dtm(*args)

    for name, mod in list(sys.modules.items()):
        if name == "coupclust" or name.startswith("coupclust."):
            for key, val in list(vars(mod).items()):
                if val is build_dtm:
                    monkeypatch.setattr(mod, key, counting_build_dtm)
    counts = {}
    for name, (command, *flags) in runs.items():
        calls.clear()
        out = str(tmp_path / name)
        assert main([command, str(data), *flags, "--out", out]) == 0, name
        counts[name] = len(calls)
    assert counts == dict.fromkeys(runs, 1)


@pytest.mark.parametrize(
    "text, parse, want",
    [
        ("1:4:2", _parse_int_grid, [1, 3]),
        ("1:10:3", _parse_int_grid, [1, 4, 7, 10]),
        ("0:5:2", _parse_int_grid, [0, 2, 4]),
        ("3,1,2", _parse_int_grid, [3, 1, 2]),
        ("2:2:1", _parse_int_grid, [2]),
    ],
)
def test_grid_stops_at_stop(text, parse, want):
    # start:stop:step holds the points that do not pass stop.
    assert parse(text).values == want


class TestElbowCmd:
    def test_curve(self, planted, tmp_path, capsys):
        data, _ = planted
        out = tmp_path / "elb"
        rc = main(
            [
                "elbow", str(data), "--ks", "1,2,3", "--algo", "nuclear",
                "--restarts", "2", "--out", str(out),
            ]
        )
        assert rc == 0
        lines = (out / "elbow.csv").read_text().strip().split("\n")
        assert lines[0] == "k,norm_value"
        vals = [float(r.split(",")[1]) for r in lines[1:]]
        assert vals[1] - vals[0] > vals[2] - vals[1]

    def test_nuclear_matches_cluster(self, tmp_path, capsys):
        # Both commands run the same restarts; each keeps its own best, and
        # the best norm values agree.
        joint, _ = gen_planted_blocks(4, 12, 1.0, 0.2, noise_seed=0)
        data = tmp_path / "data.tsv"
        write_triplets(data, *joint)
        rc = main(
            [
                "elbow", str(data), "--ks", "2:5:1", "--algo", "nuclear",
                "--restarts", "4", "--out", str(tmp_path / "elb"),
            ]
        )
        assert rc == 0
        rows = (tmp_path / "elb" / "elbow.csv").read_text().strip().split("\n")
        for row in rows[1:]:
            k, elbow_val = row.split(",")
            out = tmp_path / f"k{k}"
            rc = main(
                [
                    "cluster", str(data), "--algo", "nuclear", "--k", k,
                    "--restarts", "4", "--out", str(out),
                ]
            )
            assert rc == 0
            norm_val = json.loads((out / "report.json").read_text())["norm_value"]
            assert norm_val == pytest.approx(float(elbow_val), rel=1e-12, abs=0)

    @pytest.mark.parametrize("algo", ["nuclear", "frobenius"])
    def test_elbow_row_is_clusters_norm(self, tmp_path, capsys, algo):
        # Each row is the norm of the restart that `cluster --seed 0` keeps,
        # the one with the highest final objective. A Frobenius objective
        # subtracts the marginal penalty, so on this input at k = 5 the
        # restart with the largest norm is not the one kept.
        joint, _ = gen_planted_blocks(3, 8, 1.0, 0.05, noise_seed=7)
        data = tmp_path / "data.tsv"
        write_triplets(data, *joint)
        flags = ["--algo", algo, "--restarts", "5"]
        pz = ["--pz", "uniform"] if algo == "frobenius" else []
        with warnings.catch_warnings():
            # Some nuclear restarts on this input lower the norm once.
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["elbow", str(data), "--ks", "1:5:1", *flags,
                         "--out", str(tmp_path / "elb")]) == 0
            rows = (tmp_path / "elb" / "elbow.csv").read_text().split()[1:]
            for row in rows:
                k, elbow_val = row.split(",")
                out = tmp_path / f"k{k}"
                assert main(["cluster", str(data), "--k", k, *flags, *pz,
                             "--out", str(out)]) == 0
                report = json.loads((out / "report.json").read_text())
                assert report["norm_value"] == float(elbow_val), k
        assert len(rows) == 5


class TestEmbedCmd:
    def test_d1_note_on_stderr(self, planted, tmp_path, capsys):
        data, _ = planted
        out = tmp_path / "emb"
        rc = main(["embed", str(data), "--d", "1", "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "constant" in captured.err
        rows = (out / "embedding.tsv").read_text().strip().split("\n")
        coords = [float(r.split("\t")[1]) for r in rows]
        assert np.ptp(coords) <= 1e-8

    def test_rank_deficient_is_a_config_error(self, tmp_path, capsys):
        # Two distinct row profiles: the DTM has rank 2.
        data = tmp_path / "rank2.tsv"
        weights = np.array([[4.0, 1, 1], [4, 1, 1], [1, 3, 2], [1, 3, 2]])
        write_triplets(data, ("a", "b", "c", "d"), ("u", "v", "w"), weights)
        rc = main(["embed", str(data), "--d", "3", "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error: d = 3 exceeds the numerical rank 2" in err
        assert "threshold 2.98e-08" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x" / "embedding.tsv").exists()

    def test_csv_label_with_a_tab_exits_3(self, tmp_path, capsys):
        # embedding.tsv could not hold this label: its row would gain a
        # field. The CSV is refused on the label's line.
        data = tmp_path / "m.csv"
        data.write_text(',x1,x2,x3\n"a\tb",1,2,0\nc,0,1,3\nd,2,0,1\ne,1,1,1\n')
        rc = main(["embed", str(data), "--d", "2", "--out", str(tmp_path / "x")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "data error: line 2, byte 10: label 'a\\tb' holds a tab" in err
        assert not (tmp_path / "x" / "embedding.tsv").exists()

    def test_csv_lines_starting_with_hash_are_data(self, tmp_path, capsys):
        # A `#` corner cell starts the header and `#c` is an item: CSV has
        # no comment syntax, so neither line may vanish.
        data = tmp_path / "h.csv"
        data.write_text("#,x1,x2\na,1,0\n#c,1,1\nb,0,1\n")
        out = tmp_path / "x"
        rc = main(["embed", str(data), "--d", "1", "--out", str(out)])
        assert rc == 0
        assert "pruned" not in capsys.readouterr().err
        rows = (out / "embedding.tsv").read_text().split("\n")[:-1]
        assert [r.split("\t")[0] for r in rows] == ["a", "#c", "b"]

    def test_csv_duplicate_label_exits_3(self, tmp_path, capsys):
        # The message names the label and its line, not just the joint.
        data = tmp_path / "m.csv"
        data.write_text(",x1,x2,x3\na,1,2,0\nc,0,1,3\na,2,0,1\ne,1,1,1\n")
        rc = main(["embed", str(data), "--d", "2", "--out", str(tmp_path / "x")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "data error: line 4, byte 26: duplicate label 'a'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x" / "embedding.tsv").exists()

    def test_triplet_label_with_a_cr_exits_3(self, tmp_path, capsys):
        # A universal-newline reader would split this label's row of
        # embedding.tsv in two. The file is refused on the label's line.
        data = tmp_path / "cr.tsv"
        data.write_bytes(b"y0\tx0\t1\na\rb\tx1\t2\ny0\tx1\t1\na\rb\tx0\t3\n")
        rc = main(["embed", str(data), "--d", "1", "--out", str(tmp_path / "x")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "data error: line 2, byte 8: label 'a\\rb' holds a CR" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x" / "embedding.tsv").exists()

    def test_byte_identical_rerun(self, planted, tmp_path):
        data, _ = planted
        copy = tmp_path / "copy" / "data.tsv"
        copy.parent.mkdir()
        copy.write_bytes(data.read_bytes())
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["embed", str(data), "--d", "3", "--out", str(out1)]) == 0
        assert main(["embed", str(copy), "--d", "3", "--out", str(out2)]) == 0
        tsv = (out1 / "embedding.tsv").read_bytes()
        assert tsv == (out2 / "embedding.tsv").read_bytes()
        assert len(tsv.splitlines()) == 20
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["config"].pop("input") != m2["config"].pop("input")
        assert m1 == m2


# Raw bytes, or well-formed triplet, dense CSV or pmf/label lines with at
# most one line of noise, so that generated inputs also reach the solvers and
# writers, not only the parsers.
_name = st.sampled_from(["a", "b", "c", "d"])
_weight = st.sampled_from(["1", "2", "0.5", "0"])
_noise = st.one_of(
    st.sampled_from(
        ["#c", "a\tb", "a\tb\t-1", "a\tb\tnan", "a\tb\t1e308", '"q,1', "a\rb,1"]
    ),
    st.text(max_size=8),
)


def _text_file(lines):
    return st.tuples(lines, st.lists(_noise, max_size=1)).map(
        lambda t: "\n".join(t[0] + t[1]).encode()
    )


_triplets = st.lists(st.tuples(_name, _name, _weight).map("\t".join), max_size=8)
_dense = st.lists(st.lists(_weight, min_size=2, max_size=2), max_size=4).map(
    lambda rows: [",x,y"] + [f"{n},{a},{b}" for n, (a, b) in zip("abcd", rows)]
)
_pmf = st.lists(st.tuples(_name, _weight).map("\t".join), max_size=4)
_input = st.one_of(
    st.tuples(st.binary(max_size=200), st.sampled_from([".tsv", ".csv"])),
    st.tuples(_text_file(_triplets), st.just(".tsv")),
    st.tuples(_text_file(_dense), st.just(".csv")),
)
_side = st.one_of(st.binary(max_size=100), _text_file(_pmf))

_CONTRACT_ARGV = [
    ["cluster", "IN", "--algo", "nuclear", "--k", "2", "--restarts", "1",
     "--truth", "SIDE"],
    ["cluster", "IN", "--algo", "frobenius", "--k", "2", "--restarts", "1",
     "--pz", "SIDE", "--truth", "SIDE"],
    ["cluster", "IN", "--algo", "frobenius", "--k", "1", "--restarts", "1",
     "--pz", "uniform"],
    ["embed", "IN", "--d", "2"],
    ["elbow", "IN", "--ks", "1,2", "--restarts", "1"],
]


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
# A carriage return inside a CSV line is a ParseError, not a csv.Error.
@example(data=(b",x,y\na\rb,1,2\n", ".csv"), side=b"", argv=_CONTRACT_ARGV[3])
@given(data=_input, side=_side, argv=st.sampled_from(_CONTRACT_ARGV))
def test_exit_code_contract(data, side, argv):
    """Any input bytes: main returns 0, 2, 3 or 4 and prints no traceback."""
    content, suffix = data
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = {"IN": tmp / f"in{suffix}", "SIDE": tmp / "side.tsv"}
        paths["IN"].write_bytes(content)
        paths["SIDE"].write_bytes(side)
        full = [str(paths.get(a, a)) for a in argv] + ["--out", str(tmp / "out")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = main(full)
    assert rc in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()


# Every subcommand's own arguments, as the parser declares them.
_SUBCOMMANDS = {
    name: [a for a in sub._actions if a.dest != "help"]
    for name, sub in next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ).choices.items()
}
# Flag values: edge cases; else one of the flag's choices, or a small valid
# number, or for a text flag "uniform" or a file that each example makes.
# Paths are relative to the example's own directory.
_EDGE = ["0", "-1", "nan", "inf", "1e300", "", "0x2", "1_0", "1:2:0", "0:1e9:1",
         "missing.tsv", "dir"]
_SMALL = ["1", "2", "3", "10", "0.5", "1,2", "1:3:1"]
_TEXT = ["uniform", "data.tsv", "truth.tsv", "pz.tsv"]


@st.composite
def _argv(draw):
    """A subcommand with its required arguments and about half of the rest,
    each drawn from _EDGE for one value of st.integers(0, 3); the input is
    otherwise the data file, and --out, always set, a new directory or the
    data file."""
    name = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    argv, out = [name], "out"
    for action in _SUBCOMMANDS[name]:
        if not (action.required or draw(st.booleans())):
            continue
        if action.nargs == 0:
            argv.append(action.option_strings[-1])
            continue
        good = {"input": ["data.tsv"], "out": ["out", "data.tsv"]}.get(
            action.dest
        ) or list(action.choices or (_TEXT if action.type is None else _SMALL))
        value = draw(st.sampled_from(_EDGE if draw(st.integers(0, 3)) == 3 else good))
        if action.dest == "out":
            out = value
        elif action.option_strings:
            argv += [action.option_strings[-1], value]
        else:
            argv.append(value)
    return argv + ["--out", out]


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    # Each example makes, enters and removes its own directory under tmp_path.
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
# Runs that reach the solvers with edge values.
@example(argv=["cluster", "data.tsv", "--algo", "frobenius", "--k", "3", "--pz",
               "uniform", "--lambda", "1e300", "--truth", "truth.tsv", "--out",
               "out"])
@example(argv=["cluster", "data.tsv", "--algo", "nuclear", "--k", "10", "--restarts",
               "10", "--truth", "truth.tsv", "--out", "dir"])
@given(argv=_argv())
def test_exit_code_contract_over_argv(tmp_path, monkeypatch, argv):
    """Any argv the parser's own flags make: 0, 2, 3 or 4, no traceback."""
    monkeypatch.chdir(tmp_path)
    with tempfile.TemporaryDirectory(dir=tmp_path) as root:
        os.chdir(root)
        (rows, cols, weights), truth = gen_planted_blocks(3, 5, 1.0, 0.05)
        write_triplets("data.tsv", rows, cols, weights)
        Path("truth.tsv").write_text("".join(f"{y}\t{t}\n" for y, t in zip(rows, truth)))
        Path("pz.tsv").write_text("z0\t0.5\nz1\t0.5\n")
        Path("dir").mkdir()
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rc = main(argv)
        finally:
            os.chdir(tmp_path)
    assert rc in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
