"""The repository's benchmark: seeded workloads through the real coupclust CLI.

Usage (from the repository root):
    python3 clibench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 clibench/run.py --workload all --seed N --seconds S --trace 0

--trace 0 measures the end-to-end metrics. One closed-loop client runs one
fresh `python -m coupclust.cli ...` process at a time, the next after the
previous exits, for S seconds, with COUPLING_THREADS=1. Wall time is taken
from spawn to exit; peak RSS and CPU time come from the child's rusage.

--trace 1 measures the per-layer metrics. It alternates untraced CLI
processes with processes that call coupclust.cli.main in-process under
traced_cli.py, which wraps each layer's public functions in span recorders.

Every sample's outputs are checked; a sample fails on a nonzero exit, a
traceback on stderr, or a failed output check. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The line before it holds the details: environment, input digests, samples.
Workload choices and the layer -> metric -> workload map are in workloads.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import workloads as W
from tracing import SOLVERS, TARGETS, layer_totals

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = BENCH_DIR / ".work"

SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0
COLUMN_SUM_TOL = 1e-9
EMBED_ERR_TOL = 1e-8
RESTART_USEFUL_RTOL = 1e-9

# wall_s, peak_rss_mb: medians over the run's CLI processes (few samples per
# run, so no higher percentile is reported). setup_s: median wall time of
# SETUP_REPEATS fresh processes that only import coupclust.cli. accuracy,
# objective: matched accuracy against the planted truth and the best final
# objective in kernel.json; on embed-zipf see check_embed. The fail ratio is
# the result's failed / attempted: a metric must never read 0, so it is
# printed in the table but is not a metric.
END_TO_END = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "accuracy": "ratio",
    "objective": "value",
}

PER_LAYER = {
    "cli.main.s": "s",
    "cli.self_s": "s",
    "cli.restarts.run": "count",
    "cli.restarts.useful_ratio": "ratio",
    "data_io.parse_triplets.s": "s",
    "data_io.parse_triplets.mb_per_s": "MB/s",
    "data_io.parse_triplets.lines": "count",
    "data_io.ingest.s": "s",
    "data_io.write_kernel_json.s": "s",
    "data_io.write_trace_csv.s": "s",
    "core.build_dtm.calls": "count",
    "core.build_dtm.s": "s",
    "svd.svd_for_dtm.calls": "count",
    "svd.svd_for_dtm.s": "s",
    "svd.randomized_svd.calls": "count",
    "svd.randomized_svd.s": "s",
    "svd.exact_svd.calls": "count",
    "svd.exact_svd.s": "s",
    "svd.top_singular_value_sym.s": "s",
    "frobenius.solve_frobenius.s": "s",
    "frobenius.solve_frobenius.self_s": "s",
    "frobenius.solve_frobenius.iters": "count",
    "frobenius.solve_frobenius.s_per_iter": "s",
    "frobenius.solve_frobenius.converged_ratio": "ratio",
    "frobenius.frobenius_objective.calls": "count",
    "frobenius.frobenius_objective.s": "s",
    "simplex.project_columns.calls": "count",
    "simplex.project_columns.columns": "count",
    "simplex.project_columns.s": "s",
    "nuclear.solve_nuclear.s": "s",
    "nuclear.solve_nuclear.self_s": "s",
    "nuclear.solve_nuclear.iters": "count",
    "nuclear.solve_nuclear.converged_ratio": "ratio",
    "nuclear.kyfan_features.calls": "count",
    "nuclear.nonmonotone_warnings": "count",
    "evaluation.build_report.s": "s",
    "embedding.dtm_embed.s": "s",
    "embedding.dtm_embed.self_s": "s",
    "embedding.write_embedding_tsv.s": "s",
    "process.cpu_s": "s",
    "trace.overhead_ratio": "ratio",
}
COUNT_KEYS = [k for k, unit in PER_LAYER.items() if unit == "count"]

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def child_env() -> dict[str, str]:
    """The CLI's environment: the checkout's src first, one thread via
    COUPLING_THREADS alone (inherited BLAS thread variables are dropped)."""
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["COUPLING_THREADS"] = "1"
    return env


_PROBE = r"""
import json, platform, coupclust, numpy, scipy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = " ".join(str(blas.get(k, "")) for k in ("name", "version", "openblas configuration"))
except Exception as exc:
    blas = "unknown (%s)" % exc
print(json.dumps({
    "coupclust_file": coupclust.__file__,
    "backend": getattr(coupclust, "BACKEND", "n/a"),
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": blas.strip(),
}))
"""


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _commit() -> str:
    if not (ROOT / ".git").exists():  # do not let git find an enclosing repository
        return "unknown (not a git checkout; see source_sha256)"
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(env: dict[str, str]) -> dict:
    res = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=60,
    )
    if res.returncode != 0:
        raise RuntimeError(f"cannot import coupclust from {ROOT / 'src'}:\n{res.stderr}")
    info = json.loads(res.stdout.strip().splitlines()[-1])
    src = (ROOT / "src").resolve()
    if src not in Path(info["coupclust_file"]).resolve().parents:
        raise RuntimeError(f"coupclust imported from {info['coupclust_file']}, not {src}")
    info.update(
        commit=_commit(),
        source_sha256=_source_digest(),
        coupling_threads=env["COUPLING_THREADS"],
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        cpu_model=_cpu_model(),
    )
    return info


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return self.end - time.monotonic()


def spawn(cmd: list[str], env, out_dir: Path, timeout: float) -> dict:
    """Run one process to exit; wall from spawn to exit, rusage of the child."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "stdout.txt", "wb") as so, open(out_dir / "stderr.txt", "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=env, cwd=ROOT)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no process behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "wall_s": wall,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "peak_rss_mb": ru.ru_maxrss / 1024.0,
        "stderr": (out_dir / "stderr.txt").read_text(encoding="utf-8", errors="replace"),
    }


def measure_setup(env, run_dir: Path, deadline: Deadline) -> list[float]:
    times = []
    for i in range(SETUP_REPEATS):
        res = spawn(
            [sys.executable, "-c", "import coupclust.cli"], env, run_dir / f"setup{i}",
            deadline.left(),
        )
        if res["rc"] != 0:
            raise RuntimeError(f"import coupclust.cli failed:\n{res['stderr']}")
        times.append(res["wall_s"])
    return times


def embed_reference(weights: np.ndarray) -> dict:
    """LAPACK reference for embed-zipf: top-d left singular vectors of the DTM."""
    py = weights.sum(axis=1) / weights.sum()
    px = weights.sum(axis=0) / weights.sum()
    b = weights / weights.sum() / np.sqrt(py)[:, None] / np.sqrt(px)[None, :]
    u, s, _ = np.linalg.svd(b)
    return {"b": b, "sqrt_py": np.sqrt(py), "u": u[:, : W.EMBED_D], "s": s}


def check_planted(wl: W.Workload, out: Path) -> tuple[dict, list[str]]:
    kern = json.loads((out / "kernel.json").read_text(encoding="utf-8"))
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    col_err = float(np.max(np.abs(np.asarray(kern["kernel"]).sum(axis=0) - 1.0)))
    acc = float(report["overall_accuracy"])
    obj = float(kern["objective"])
    errors = []
    if not col_err <= COLUMN_SUM_TOL:
        errors.append(f"kernel.json columns off by {col_err:.3e}")
    if not acc >= wl.accuracy_floor:
        errors.append(f"accuracy {acc} below floor {wl.accuracy_floor}")
    if not np.isfinite(obj):
        errors.append(f"objective {obj!r} not finite")
    return {"accuracy": acc, "objective": obj, "column_sum_err": col_err}, errors


def check_embed(out: Path, ref: dict) -> tuple[dict, list[str]]:
    """Compare the CLI's embedding subspace with the LAPACK reference.

    The CLI writes rows of [P_Y]^{-1/2} U; they are rescaled by [P_Y]^{1/2}
    and orthonormalized. embed_err is the sine of the largest principal angle
    to the reference, accuracy its cosine, and objective the DTM energy the
    subspace captures as a share of the optimum (the top-d squared singular
    values).
    """
    rows = {}
    for line in (out / "embedding.tsv").read_text(encoding="utf-8").splitlines():
        label, *coords = line.split("\t")
        rows[label] = [float(c) for c in coords]
    n = ref["u"].shape[0]
    if sorted(rows) != sorted(f"y{i}" for i in range(n)):
        return {}, ["embedding.tsv rows do not match the input's items"]
    emb = np.array([rows[f"y{i}"] for i in range(n)])
    if emb.shape[1] != W.EMBED_D or not np.all(np.isfinite(emb)):
        return {}, [f"embedding.tsv has shape {emb.shape} or non-finite entries"]
    q, _ = np.linalg.qr(emb * ref["sqrt_py"][:, None])
    u = ref["u"]
    embed_err = float(np.linalg.norm(q - u @ (u.T @ q), 2))
    cos_min = float(np.linalg.svd(u.T @ q, compute_uv=False).min())
    captured = float(np.sum((q.T @ ref["b"]) ** 2)) / float(np.sum(ref["s"][: W.EMBED_D] ** 2))
    errors = [] if embed_err < EMBED_ERR_TOL else [
        f"embed_err {embed_err:.3e} not below {EMBED_ERR_TOL:g}"
    ]
    return {"accuracy": cos_min, "objective": captured, "embed_err": embed_err}, errors


def cli_argv(wl: W.Workload, inputs: dict, out: Path) -> list[str]:
    return [a.format(input=inputs["input"], truth=inputs["truth"], out=out) for a in wl.argv]


def run_sample(wl, inputs, ref, env, out: Path, deadline: Deadline, traced: bool) -> dict:
    argv = cli_argv(wl, inputs, out / "cli")
    if traced:
        cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(out / "spans.json"), "--", *argv]
    else:
        cmd = [sys.executable, "-m", "coupclust.cli", *argv]
    res = spawn(cmd, env, out, deadline.left())
    errors = []
    if res["rc"] != 0:
        errors.append(f"exit code {res['rc']}")
    if "Traceback" in res.pop("stderr"):
        errors.append("traceback on stderr")
    if not errors:
        try:
            if wl.planted:
                quality, errors = check_planted(wl, out / "cli")
            else:
                quality, errors = check_embed(out / "cli", ref)
            res.update(quality)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            errors.append(f"output check raised {exc!r}")
    if traced and not errors:
        res["trace"] = json.loads((out / "spans.json").read_text(encoding="utf-8"))
    res["errors"] = errors
    res["traced"] = traced
    shutil.rmtree(out / "cli", ignore_errors=True)
    return res


def layer_metrics(trace: dict, input_desc: dict) -> dict[str, float]:
    """Per-layer metrics of one traced sample (all but process.* and trace.*)."""
    tot = layer_totals(trace["spans"])
    notes = trace["notes"]
    m = {}
    for key in PER_LAYER:
        span, _, stat = key.rpartition(".")
        if stat in ("s", "self_s", "calls") and (span in TARGETS or span == "cli.main"):
            m[key] = float(tot.get(span, {}).get(stat, 0.0))
    m["cli.self_s"] = float(tot.get("cli.main", {}).get("self_s", 0.0))

    objs = [n["objective"] for s in SOLVERS for n in notes.get(s, [])]
    best = max(objs, default=0.0)
    useful = sum(abs(o - best) <= RESTART_USEFUL_RTOL * abs(best) for o in objs)
    m["cli.restarts.run"] = float(len(objs))
    m["cli.restarts.useful_ratio"] = useful / len(objs) if objs else 0.0

    parse_s = m["data_io.parse_triplets.s"]
    parsed_bytes = sum(n["bytes"] for n in notes.get("data_io.parse_triplets", []))
    m["data_io.parse_triplets.mb_per_s"] = parsed_bytes / 1e6 / parse_s if parse_s else 0.0
    m["data_io.parse_triplets.lines"] = float(input_desc["lines"]) if parsed_bytes else 0.0
    m["simplex.project_columns.columns"] = float(
        sum(n["columns"] for n in notes.get("simplex.project_columns", []))
    )
    for name in SOLVERS:
        runs = notes.get(name, [])
        m[f"{name}.iters"] = float(sum(n["iters"] for n in runs))
        m[f"{name}.converged_ratio"] = (
            sum(n["status"] == "Converged" for n in runs) / len(runs) if runs else 0.0
        )
    iters = m["frobenius.solve_frobenius.iters"]
    m["frobenius.solve_frobenius.s_per_iter"] = (
        m["frobenius.solve_frobenius.s"] / iters if iters else 0.0
    )
    m["nuclear.nonmonotone_warnings"] = float(trace["nonmonotone_warnings"])
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = W.WORKLOADS[name]
    deadline = Deadline(RUN_LIMIT_S)
    env = child_env()
    run_dir = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    env_info = environment(env)

    inputs = W.generate(name, seed, run_dir / "input")
    input_desc = W.describe_file(inputs["input"])
    files = [input_desc] + ([W.describe_file(inputs["truth"])] if inputs["truth"] else [])
    ref = None if wl.planted else embed_reference(inputs["weights"])

    setup = measure_setup(env, run_dir, deadline)
    samples = []
    measure = Deadline(seconds)
    # A traced run needs at least one sample of each kind. No sample starts
    # unless twice the slowest one so far still fits in the run's time limit.
    least = 2 if trace else 1
    while True:
        traced = trace and len(samples) % 2 == 1
        samples.append(
            run_sample(wl, inputs, ref, env, run_dir / f"sample{len(samples)}", deadline, traced)
        )
        slowest = max(s["wall_s"] for s in samples)
        if deadline.left() < 2 * slowest or (len(samples) >= least and measure.left() <= 0):
            break
    shutil.rmtree(run_dir / "input")  # up to 19 MB a run; the digests are kept
    failed = [s for s in samples if s["errors"]]
    ok = [s for s in samples if not s["errors"]]
    plain = [s for s in ok if not s["traced"]]

    def med(key, rows):
        vals = [r[key] for r in rows if key in r]
        return statistics.median(vals) if vals else float("nan")

    setup_s = statistics.median(setup)
    notes = {}
    if trace:
        layers = [layer_metrics(s["trace"], input_desc) for s in ok if s["traced"]]
        metrics = {k: med(k, layers) for k in layers[0]} if layers else {}
        metrics["process.cpu_s"] = med("cpu_s", plain)
        metrics["trace.overhead_ratio"] = metrics.get("cli.main.s", np.nan) / (
            med("wall_s", plain) - setup_s
        )
        for k in COUNT_KEYS:
            seen = {lm[k] for lm in layers}
            if len(seen) > 1:
                notes.setdefault("counts_not_repeating", {})[k] = sorted(seen)
        missing = {m for s in ok if s["traced"] for m in s["trace"]["missing"]}
        if missing:
            notes["spans_missing_from_package"] = sorted(missing)
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": med("wall_s", ok),
            "peak_rss_mb": med("peak_rss_mb", ok),
            "setup_s": setup_s,
            "accuracy": med("accuracy", ok),
            "objective": med("objective", ok),
        }
        units = END_TO_END
    extras = {
        "fail_ratio": len(failed) / len(samples),
        "cpu_s": med("cpu_s", plain),
    }
    if not wl.planted:
        extras["embed_err"] = med("embed_err", ok)
    details = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "environment": env_info,
        "inputs": files,
        "setup_samples_s": setup,
        "samples": [
            {k: v for k, v in s.items() if k != "trace"} for s in samples
        ],
        "extras": extras,
        "notes": notes,
    }
    result = {
        "correct": not failed and len(ok) > 0,
        "attempted": len(samples),
        "failed": len(failed),
        # A value that could not be measured (every sample failed) reads 0.
        "metrics": {
            k: {"value": float(np.nan_to_num(metrics.get(k, 0.0))), "unit": unit}
            for k, unit in units.items()
        },
    }
    return {"details": details, "result": result}


def print_table(out: dict) -> None:
    d, r = out["details"], out["result"]
    n = len([s for s in d["samples"] if not s["traced"]])
    print(f"# {d['workload']} seed={d['seed']} trace={d['trace']}: "
          f"{r['attempted']} samples, {r['failed']} failed")
    for k, v in r["metrics"].items():
        print(f"  {k:44s} {v['value']:.6g} {v['unit']}")
    print(f"  {'fail_ratio':44s} {d['extras']['fail_ratio']:.6g} ratio "
          f"({r['failed']}/{r['attempted']})")
    print(f"  {'samples (untraced CLI processes)':44s} {n} count")
    if "embed_err" in d["extras"]:
        print(f"  {'embed_err':44s} {d['extras']['embed_err']:.3e} sin "
              f"(tolerance {EMBED_ERR_TOL:g})")
    for s in d["samples"]:
        for e in s["errors"]:
            print(f"  failure: {e}")
    for k, v in d["notes"].items():
        print(f"  note: {k}: {v}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*W.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "coupclust" / "cli.py").is_file():
        print(f"no coupclust package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = list(W.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            out = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
            print(f"benchmark could not run {name}: {exc}", file=sys.stderr)
            return 2
        print_table(out)
        WORK.mkdir(parents=True, exist_ok=True)
        (WORK / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(out, indent=1) + "\n", encoding="utf-8"
        )
        results[name] = out["result"]
        if args.workload != "all":
            print(json.dumps({"details": out["details"]}))
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
