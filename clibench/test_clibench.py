"""Tests of the benchmark itself.

Run from the repository root: python3 -m pytest -q clibench
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import run
import tracing
import workloads as W

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_generators_are_byte_identical_per_seed(tmp_path, name):
    first = W.generate(name, 7, tmp_path / "a")
    again = W.generate(name, 7, tmp_path / "b")
    other = W.generate(name, 8, tmp_path / "c")
    for key in ("input", "truth"):
        if first[key] is None:
            continue
        assert first[key].read_bytes() == again[key].read_bytes()
    assert first["input"].read_bytes() != other["input"].read_bytes()


def test_zipf_input_keeps_every_label_and_stays_sparse(tmp_path):
    desc = W.describe_file(W.generate("embed-zipf", 3, tmp_path)["input"])
    rows, cols = set(), set()
    for line in (tmp_path / "input.tsv").read_text().splitlines():
        r, c, _ = line.split("\t")
        rows.add(r)
        cols.add(c)
    assert len(rows) == len(cols) == W.ZIPF_SIZE
    assert desc["lines"] < W.ZIPF_SIZE**2 // 5


def test_self_time_on_hand_built_span_tree():
    # main [0, 10] has children a [1, 4] and b [3, 6] (overlapping) and
    # c [8, 12] (runs past main's end); a has child d [2, 3].
    spans = [
        [0, "main", 0.0, 10.0, None],
        [1, "a", 1.0, 4.0, 0],
        [2, "d", 2.0, 3.0, 1],
        [3, "b", 3.0, 6.0, 0],
        [4, "c", 8.0, 12.0, 0],
    ]
    selfs = tracing.self_times(spans)
    # main: children cover [1, 6] and [8, 10] -> 7 of 10.
    assert selfs == {0: 3.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 4.0}


def test_layer_totals_count_recursion_once():
    spans = [
        [0, "outer", 0.0, 10.0, None],
        [1, "outer", 2.0, 5.0, 0],
        [2, "leaf", 6.0, 7.0, 0],
    ]
    tot = tracing.layer_totals(spans)
    assert tot["outer"] == {"calls": 2, "s": 10.0, "self_s": 9.0}
    assert tot["leaf"] == {"calls": 1, "s": 1.0, "self_s": 1.0}


def test_layer_metrics_cover_every_per_layer_name():
    trace = {
        "spans": [
            [0, "cli.main", 0.0, 4.0, None],
            [1, "data_io.parse_triplets", 0.5, 1.5, 0],
            [2, "frobenius.solve_frobenius", 2.0, 3.5, 0],
            [3, "simplex.project_columns", 2.5, 3.0, 2],
        ],
        "notes": {
            "data_io.parse_triplets": [{"bytes": 2_000_000}],
            "simplex.project_columns": [{"columns": 40}],
            "frobenius.solve_frobenius": [
                {"iters": 30, "status": "Converged", "objective": 2.0}
            ],
        },
        "nonmonotone_warnings": 0,
        "missing": [],
    }
    m = run.layer_metrics(trace, {"lines": 12})
    assert set(m) | {"process.cpu_s", "trace.overhead_ratio"} == set(run.PER_LAYER)
    assert m["cli.self_s"] == pytest.approx(1.5)
    assert m["data_io.parse_triplets.mb_per_s"] == pytest.approx(2.0)
    assert m["frobenius.solve_frobenius.self_s"] == pytest.approx(1.0)
    assert m["frobenius.solve_frobenius.s_per_iter"] == pytest.approx(0.05)
    assert m["simplex.project_columns.columns"] == 40
    assert m["cli.restarts.useful_ratio"] == 1.0
    assert m["nuclear.solve_nuclear.s"] == 0.0


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)
    assert SPEC["command"][1:] == ["clibench/run.py"]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    res = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", "frobenius-planted",
         "--seed", "5", "--seconds", "0", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0
    printed = {k: v["unit"] for k, v in out["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}
