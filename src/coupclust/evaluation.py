"""Clustering metrics, and model-selection curves on a joint's Dtm.

Accuracy is permutation-invariant: predicted cluster ids are matched to
true labels by an optimal one-to-one assignment on the confusion matrix
before counting. Coverage and k-accuracy follow the convention that only
the k largest true clusters count as reachable: overall accuracy divides by
every item, k-accuracy by the covered ones. build_report gathers a solve's
objective, norm value and, given truth, these scores into the plain dict
that report.json holds. cluster and elbow_curve keep restarts alike, here.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence

import numpy as np

from .core import CouplingKernel, Dtm, SolveTrace
from .errors import ConfigError, DataError, warn_caller
from .frobenius import LAMBDA, _uniform_target, solve_frobenius
from .nuclear import _chain_svd, solve_nuclear

__all__ = [
    "harden",
    "matched_accuracy",
    "coverage",
    "kernel_norm_value",
    "elbow_curve",
    "build_report",
    "format_report_table",
]


def harden(kernel: CouplingKernel) -> dict[str, str]:
    """Per-item argmax cluster label, ties to the lowest cluster index."""
    idx = np.argmax(kernel.kernel, axis=0)
    return {
        item: kernel.cluster_labels[int(z)]
        for item, z in zip(kernel.item_labels, idx)
    }


def _check_same_items(pred: Mapping, truth: Mapping) -> None:
    """DataError naming the first pred item without a truth label, else
    the first truth item that is not a pred item."""
    what = "pred and truth cover different item sets"
    for item in pred:
        if item not in truth:
            raise DataError(f"{what}: {item!r} has no truth label")
    for item in truth:
        if item not in pred:
            raise DataError(f"{what}: truth labels {item!r}, which is not an item")


def _max_weight_matching(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximum-weight full matching of a nonempty matrix: (rows, cols).

    Shortest-augmenting-path Hungarian method with dual potentials (Kuhn
    1955) on the costs w.max() - w. Rows enter one at a time, and each
    augmenting path is grown by a vectorized scan over the columns. A tall
    matrix is solved as its transpose, so the matching always has
    min(w.shape) pairs. For integer weights every potential and slack is an
    integer, so the float arithmetic is exact.
    """
    w = np.asarray(w, dtype=np.float64)
    tall = w.shape[0] > w.shape[1]
    cost = w.max() - (w.T if tall else w)
    n, m = cost.shape
    # Index 0 of the column arrays is a virtual column holding the row
    # being inserted; owner[j] is the 1-based row matched to column j.
    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    owner = np.zeros(m + 1, dtype=np.intp)
    via = np.zeros(m + 1, dtype=np.intp)
    for i in range(1, n + 1):
        owner[0] = i
        j0 = 0
        slack = np.full(m + 1, np.inf)
        used = np.zeros(m + 1, dtype=bool)
        while owner[j0]:
            used[j0] = True
            i0 = owner[j0]
            reduced = cost[i0 - 1] - u[i0] - v[1:]
            lower = ~used[1:] & (reduced < slack[1:])
            slack[1:][lower] = reduced[lower]
            via[1:][lower] = j0
            open_slack = np.where(used, np.inf, slack)
            j0 = int(np.argmin(open_slack))
            delta = open_slack[j0]
            u[owner[used]] += delta
            v[used] -= delta
            slack[~used] -= delta
        while j0:
            prev = via[j0]
            owner[j0] = owner[prev]
            j0 = prev
    cols = np.flatnonzero(owner[1:])
    rows = owner[1:][cols] - 1
    return (cols, rows) if tall else (rows, cols)


def _matched_correct(pred: list, truth: list) -> int:
    pred_ids = {lab: i for i, lab in enumerate(dict.fromkeys(pred))}
    true_ids = {lab: i for i, lab in enumerate(dict.fromkeys(truth))}
    confusion = np.zeros((len(pred_ids), len(true_ids)), dtype=np.int64)
    for a, b in zip(pred, truth):
        confusion[pred_ids[a], true_ids[b]] += 1
    rows, cols = _max_weight_matching(confusion)
    return int(confusion[rows, cols].sum())


def top_true_clusters(truth: Sequence, k: int) -> list:
    """The k largest true clusters by item count, ties by first occurrence."""
    counts = Counter(truth)
    # sorted is stable and a Counter keeps first-occurrence order, so ties
    # stay in the order their labels first appear.
    return sorted(counts, key=lambda lab: -counts[lab])[: int(k)]


def matched_accuracy(pred, truth, mode: str = "overall", k: int | None = None) -> float:
    """Fraction correct under the best one-to-one cluster-label matching.

    pred and truth are mappings of the same items to labels (else DataError).
    mode "overall" counts every item in the denominator. mode "top_k" first
    drops items whose true cluster is outside the k largest true clusters
    (k defaults to the number of distinct predicted clusters) and matches
    on the remaining items only.
    """
    if mode not in ("overall", "top_k"):
        raise ConfigError(f"unknown mode {mode!r}")
    _check_same_items(pred, truth)
    pred_l = list(pred.values())
    truth_l = [truth[item] for item in pred]
    if not pred_l:
        raise DataError("empty labeling")
    if mode == "overall":
        return _matched_correct(pred_l, truth_l) / len(pred_l)
    if k is None:
        k = len(set(pred_l))
    keep = set(top_true_clusters(truth_l, k))
    pairs = [(a, b) for a, b in zip(pred_l, truth_l) if b in keep]
    if not pairs:
        return 0.0
    kept_pred = [a for a, _ in pairs]
    kept_truth = [b for _, b in pairs]
    return _matched_correct(kept_pred, kept_truth) / len(pairs)


def coverage(truth: Mapping, k: int) -> float:
    """Fraction of items whose true cluster is among the k largest."""
    truth = list(truth.values())
    if not truth:
        raise DataError("empty labeling")
    keep = set(top_true_clusters(truth, k))
    return sum(1 for lab in truth if lab in keep) / len(truth)


def kernel_norm_value(dtm: Dtm, kernel: CouplingKernel, algorithm: str) -> float:
    """Norm of the chain DTM B_{Z,X} that a kernel induces from the joint's DTM.

    Frobenius reports the squared Frobenius norm, nuclear the nuclear norm,
    matching what each solver maximizes. A Frobenius kernel may leave a
    cluster empty (the solver only penalizes the cluster marginal); the norm
    is then taken over the clusters that receive mass, which is its limit as
    the empty cluster's mass goes to 0. The nuclear solver keeps every
    cluster alive, so an empty one is rejected there. Both norms come from
    the singular values of the solver's own chain SVD, so the nuclear value
    of a solve_nuclear kernel is its last traced objective, bit for bit.
    The kernel must name the joint's items in the joint's order; any other
    item labels are a DataError.
    """
    if algorithm not in ("frobenius", "nuclear"):
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    if kernel.item_labels != dtm.row_pmf.labels:
        raise DataError("kernel items must be the joint's items, in its order")
    py = dtm.row_pmf.probs
    live = kernel.kernel @ py > 0
    if algorithm == "nuclear" and not np.all(live):
        raise DataError("kernel leaves a cluster with zero mass")
    # A kernel's columns may miss 1 by KERNEL_COL_TOL, more than the chain's
    # sigma_1 = 1 check allows; one-hot columns divide by exactly 1.
    kern = kernel.kernel[live] / kernel.kernel.sum(axis=0)
    s = _chain_svd(dtm.matrix, py, kern)[1]
    return float(np.sum(s * s)) if algorithm == "frobenius" else float(np.sum(s))


def _restarts(dtm, algorithm, k, seeds, p_z=None, lam=LAMBDA):
    """Yield (seed, kernel, trace) of the named solver on the joint's DTM
    from each seed in order, as each restart ends. p_z (uniform when None)
    and lam are solve_frobenius's target and penalty weight."""
    if algorithm == "frobenius" and p_z is None:
        p_z = _uniform_target(k, len(dtm.row_pmf))
    for seed in seeds:
        if algorithm == "nuclear":
            yield (seed, *solve_nuclear(dtm, k, seed=seed))
        else:
            yield (seed, *solve_frobenius(dtm, p_z, lam=lam, seed=seed))


# Restarts that reach the same optimum differ only in the last bits of the
# objective, which depend on summation order. A later restart replaces the
# best one only when it is higher by more than this relative margin, so
# such ties keep the earliest seed.
_TIE_RTOL = 1e-12


def _best_restart(restarts):
    """The (seed, kernel, trace) of restarts with the highest final
    objective; a later restart must beat it by more than _TIE_RTOL."""
    best = top = None
    for restart in restarts:
        final = restart[2].objectives[-1]
        if best is None or final > top + _TIE_RTOL * abs(top):
            best, top = restart, final
    return best


def _check_ks(ks: Sequence[int]) -> list[int]:
    """ks as ints, or ConfigError unless nonempty, ascending and >= 1."""
    ks = [int(k) for k in ks]
    if not ks or ks[0] < 1 or any(b <= a for a, b in zip(ks, ks[1:])):
        raise ConfigError("ks must be a nonempty ascending list of counts >= 1")
    return ks


def elbow_curve(
    dtm: Dtm,
    ks: Sequence[int],
    algorithm: str = "nuclear",
    restarts: int = 5,
    frobenius_lam: float = LAMBDA,
) -> list[tuple[int, float]]:
    """Norm value of the kept restart per cluster count on the joint's DTM.

    Restart r uses seed r, and the restart kept is the one `cluster --seed 0`
    keeps (_best_restart): the highest final objective, ties within
    round-off to the lower seed. The row is its kernel_norm_value, which for
    the nuclear solver is that objective. The Frobenius route targets the
    uniform P_Z over k clusters, with penalty weight frobenius_lam.

    On the nuclear route the optimum cannot fall as k grows: merging two
    clusters multiplies B_{Z,X} by a DTM, whose operator norm is at most 1,
    so the best k-cluster value is at least the best (k-1)-cluster one. A
    decrease there means a restart stalled and is reported as a
    RuntimeWarning. The Frobenius route gets no such warning: its penalty
    pulls the cluster marginal toward uniform, so once k passes the number of
    natural groups the optimum itself can fall.
    """
    ks = _check_ks(ks)
    if algorithm not in ("frobenius", "nuclear"):
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    if int(restarts) < 1:
        raise ConfigError("restarts must be >= 1")
    curve: list[tuple[int, float]] = []
    for k in ks:
        _, kernel, _ = _best_restart(
            _restarts(dtm, algorithm, k, range(int(restarts)), lam=frobenius_lam)
        )
        curve.append((k, kernel_norm_value(dtm, kernel, algorithm)))
    if algorithm != "nuclear":
        return curve
    for (k_prev, v_prev), (k_next, v_next) in zip(curve, curve[1:]):
        if v_next < v_prev - 1e-10:
            warn_caller(
                f"elbow curve decreased from k={k_prev} ({v_prev!r}) "
                f"to k={k_next} ({v_next!r}); optimization likely stalled"
            )
    return curve


def build_report(
    dtm: Dtm, kernel: CouplingKernel, trace: SolveTrace, algorithm: str,
    truth: Mapping | None = None,
) -> dict:
    """report.json's dict for a solve's kernel and trace on dtm: k, algorithm,
    objective (the trace's last), norm_value, iters and status, then, given
    item -> true label, coverage, overall_accuracy and k_accuracy."""
    k = len(kernel.cluster_labels)
    report = {
        "k": k,
        "algorithm": algorithm,
        "objective": trace.objectives[-1],
        "norm_value": kernel_norm_value(dtm, kernel, algorithm),
        "iters": len(trace),
        "status": trace.status,
    }
    if truth is not None:
        pred_map = harden(kernel)
        report["coverage"] = coverage(truth, k)
        report["overall_accuracy"] = matched_accuracy(pred_map, truth, mode="overall")
        report["k_accuracy"] = matched_accuracy(pred_map, truth, mode="top_k", k=k)
    return report


def format_report_table(report: Mapping) -> str:
    """Aligned text table of a truth run's build_report dict, one header line."""
    headers = ["k", "Coverage", "Overall acc.", "k-acc.", "Norm"]
    values = [
        str(report["k"]),
        f"{report['coverage']:.4f}",
        f"{report['overall_accuracy']:.4f}",
        f"{report['k_accuracy']:.4f}",
        f"{report['norm_value']:.6f}",
    ]
    widths = [max(len(h), len(v)) for h, v in zip(headers, values)]
    head = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    body = "  ".join(v.ljust(w) for v, w in zip(values, widths))
    return f"{head}\n{body}"
