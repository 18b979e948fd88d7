"""Span and count recording around the package's public functions.

The package source is not touched: each traced function is replaced, in every
`coupclust` module that holds a reference to it, by a wrapper that records a
span (name, start, end, parent id) in memory. Spans are written out once, by
the caller, when the run ends.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

# Span name -> (defining module, function name). A span is recorded wherever
# any coupclust module looks the function up, e.g. build_dtm in core,
# data_io, frobenius, nuclear, evaluation and embedding.
TARGETS = {
    "data_io.parse_triplets": ("coupclust.data_io", "parse_triplets"),
    "data_io.ingest": ("coupclust.data_io", "ingest"),
    "data_io.write_kernel_json": ("coupclust.data_io", "write_kernel_json"),
    "data_io.write_trace_csv": ("coupclust.data_io", "write_trace_csv"),
    "core.build_dtm": ("coupclust.core", "build_dtm"),
    "svd.svd_for_dtm": ("coupclust.svd", "svd_for_dtm"),
    "svd.randomized_svd": ("coupclust.svd", "randomized_svd"),
    "svd.exact_svd": ("coupclust.svd", "exact_svd"),
    "svd.top_singular_value_sym": ("coupclust.svd", "top_singular_value_sym"),
    "frobenius.solve_frobenius": ("coupclust.frobenius", "solve_frobenius"),
    "frobenius.frobenius_objective": ("coupclust.frobenius", "frobenius_objective"),
    "simplex.project_columns": ("coupclust.simplex", "project_columns"),
    "nuclear.solve_nuclear": ("coupclust.nuclear", "solve_nuclear"),
    "nuclear.kyfan_features": ("coupclust.nuclear", "kyfan_features"),
    "evaluation.build_report": ("coupclust.evaluation", "build_report"),
    "embedding.dtm_embed": ("coupclust.embedding", "dtm_embed"),
    "embedding.write_embedding_tsv": ("coupclust.embedding", "write_embedding_tsv"),
}

SOLVERS = ("frobenius.solve_frobenius", "nuclear.solve_nuclear")


class Recorder:
    """In-memory spans plus per-call facts gathered at the same boundaries.

    spans: list of [id, name, start, end, parent id or None].
    notes: per-span-name list of dicts (bytes read, columns projected, solver
    iterations, status and final objective).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.notes: dict[str, list[dict]] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [sid, name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            note = _note(name, args, result)
            if note is not None:
                self.notes.setdefault(name, []).append(note)
            return result

        traced.__wrapped__ = fn
        return traced


def _note(name: str, args, result) -> dict | None:
    if name == "data_io.parse_triplets":
        return {"bytes": os.path.getsize(args[0])}
    if name == "simplex.project_columns":
        return {"columns": int(getattr(args[0], "shape", (0, 0))[1])}
    if name in SOLVERS:
        trace = result[1]
        return {
            "iters": len(trace),
            "status": trace.status,
            "objective": float(trace.objectives[-1]),
        }
    return None


def install(rec: Recorder) -> list[str]:
    """Patch every traced name in every loaded coupclust module.

    Returns the span names whose function no longer exists in the package,
    so the caller can report them instead of failing.
    """
    missing = []
    modules = [
        m for k, m in list(sys.modules.items())
        if m is not None and (k == "coupclust" or k.startswith("coupclust."))
    ]
    for name, (mod_name, attr) in TARGETS.items():
        try:
            orig = getattr(importlib.import_module(mod_name), attr)
        except (ImportError, AttributeError):
            missing.append(name)
            continue
        wrapper = rec.wrap(name, orig)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapper)
    return missing


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, start, end, _ in spans:
        # Children in start order; each adds only what lies past `reach`,
        # the end of the parent's interval covered so far.
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sid] = (end - start) - covered
    return out


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total time of outermost spans, total self time.

    A span nested inside a span of the same name adds to calls and self time
    but not to the total, so recursion is not counted twice.
    """
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for sid, name, start, end, parent in spans:
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += selfs[sid]
        anc = parent
        while anc is not None and by_id[anc][1] != name:
            anc = by_id[anc][4]
        if anc is None:
            agg["s"] += end - start
    return out
