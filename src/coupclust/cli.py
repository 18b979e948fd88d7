"""Command-line front end.

Subcommands: cluster, counterexample, elbow, embed, synth. Every run writes
a manifest.json (resolved config + library version + seed) sufficient to
reproduce its outputs byte for byte. Reports go to standard output; all
diagnostics go to standard error. Exit codes: 0 success, 2 configuration
error, 3 data error, 4 solver error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .core import CouplingKernel, Dtm, Pmf
from .data_io import (
    _check_creatable,
    _counterexample_labels,
    _counterexample_splits,
    _create,
    _write_json,
    apply_rating_transform,
    community_objective,
    gen_counterexample,
    gen_planted_blocks,
    ingest,
    load_dense_csv,
    load_labels,
    load_pmf,
    parse_triplets,
    write_kernel_json,
    write_trace_csv,
    write_triplets,
)
from .embedding import _check_d, dtm_embed, write_embedding_tsv
from .errors import ConfigError, DataError, SolverError
from .evaluation import (
    _best_restart,
    _check_same_items,
    _check_ks,
    _restarts,
    build_report,
    elbow_curve,
    format_report_table,
    kernel_norm_value,
)
from .frobenius import LAMBDA, _check_lam, _check_target, _uniform_target


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _format_warning(message, category, filename, lineno, line=None) -> str:
    # The source location would name a package file and line, which differ
    # between checkouts and move with every edit; the message alone is stable.
    return f"warning: {message}\n"


def _write_manifest(out_dir: Path, args, **resolved) -> None:
    """manifest.json: one config key per flag but --out, in the parser's
    order (--lambda as lambda, a grid as its text), then what the run
    resolved: a default-filled lam takes the flag's place, new keys go last."""
    config = {
        "lambda" if dest == "lam" else dest: (
            value.text if isinstance(value, _Grid) else value
        )
        for dest, value in {**vars(args), **resolved}.items()
        if dest not in ("command", "func", "out")
    }
    payload = {
        "version": __version__,
        "command": args.command,
        "config": config,
        "coupling_threads": os.environ.get("COUPLING_THREADS"),
    }
    _write_json(out_dir / "manifest.json", payload)


def _load_joint(args) -> tuple[Dtm, dict[str, list[str]]]:
    """The input joint's DTM, the only form later steps read, and ingest's
    record of the pruned labels."""
    path = Path(args.input)
    if path.suffix.lower() == ".csv":
        rows, cols, weights = load_dense_csv(path)
    else:
        rows, cols, weights = parse_triplets(path)
    if args.rating_transform:
        weights = apply_rating_transform(weights)
    dtm, pruned = ingest(rows, cols, weights, normalize=args.normalize)
    if pruned["pruned_rows"] or pruned["pruned_cols"]:
        _log(
            f"pruned {len(pruned['pruned_rows'])} rows, "
            f"{len(pruned['pruned_cols'])} columns with zero weight"
        )
    return dtm, pruned


def _load_pz(args) -> Pmf | None:
    """The --pz file's pmf, checked against --k and for interiority, or None
    for 'uniform', whose size check needs the joint (_uniform_target)."""
    if args.pz is None:
        raise ConfigError("--algo frobenius requires --pz (a file or 'uniform')")
    if args.pz == "uniform":
        return None
    pz = load_pmf(args.pz)
    if len(pz) != args.k:
        raise ConfigError(f"--pz has {len(pz)} entries but --k is {args.k}")
    _check_target(pz)
    return pz


def _load_truth(path, dtm: Dtm, pruned_rows: list[str]) -> dict[str, str]:
    """Truth labels of the items left after pruning, checked before solving.

    Labels of pruned items are dropped with a note; any other item missing
    from or extra to the truth file is a DataError (exit 3).
    """
    truth = load_labels(path)
    pruned = [i for i in pruned_rows if truth.pop(i, None) is not None]
    if pruned:
        _log(
            f"note: ignoring the truth labels of {len(pruned)} pruned "
            f"item(s), first {pruned[0]!r}"
        )
    _check_same_items(dict.fromkeys(dtm.row_pmf.labels), truth)
    return truth


def _reject(owner: str, flags: dict) -> None:
    """ConfigError if a flag (flag -> parsed value) that owner, say
    --algo nuclear, does not take was given."""
    for flag, value in flags.items():
        if value is not None:
            raise ConfigError(f"{owner} does not take {flag}")


def _resolve_lambda(args) -> float | None:
    # --lambda defaults to None so that the nuclear solver can reject it when
    # it is set; the manifest records the Frobenius default in its place, and
    # null for a nuclear run, whose rerun would reject a value.
    if args.algo == "nuclear":
        _reject("--algo nuclear", {"--lambda": args.lam})
        return None
    lam = LAMBDA if args.lam is None else args.lam
    _check_lam(lam)
    return lam


def _log_restart(restart):
    """Log one restart's (seed, kernel, trace) as it ends; return it."""
    seed, _, trace = restart
    _log(
        f"restart seed={seed}: objective {trace.objectives[-1]!r}, "
        f"{trace.status} after {len(trace)} iterations"
    )
    return restart


def _cmd_cluster(args, out_dir: Path) -> int:
    _check_creatable(
        out_dir, "prune_report.json", "kernel.json", "trace.csv",
        "manifest.json", "report.json",
    )
    # Every flag check that needs no joint comes before the input is read.
    if args.algo == "nuclear":
        _reject("--algo nuclear", {"--pz": args.pz})
    lam = _resolve_lambda(args)
    p_z = _load_pz(args) if args.algo == "frobenius" else None
    dtm, prune = _load_joint(args)

    if args.pz == "uniform":
        p_z = _uniform_target(args.k, len(dtm.row_pmf))
    truth = None
    if args.truth is not None:
        truth = _load_truth(args.truth, dtm, prune["pruned_rows"])

    seeds = range(args.seed, args.seed + args.restarts)
    best_seed, kernel, trace = _best_restart(
        map(_log_restart, _restarts(dtm, args.algo, args.k, seeds, p_z, lam))
    )
    # Scored before anything is written, so a failed run leaves no artifact.
    report = build_report(dtm, kernel, trace, args.algo, truth)
    pz_out = p_z.probs if p_z is not None else kernel.induced_marginal(dtm.row_pmf)
    _write_json(out_dir / "prune_report.json", prune)
    write_kernel_json(
        out_dir / "kernel.json", kernel, pz_out, report["objective"], args.algo,
        len(trace),
    )
    write_trace_csv(out_dir / "trace.csv", trace)
    _write_manifest(out_dir, args, lam=lam, best_seed=best_seed)
    _write_json(out_dir / "report.json", report)
    print(json.dumps(report, indent=2) if truth is None else format_report_table(report))
    return 0


# Largest start:stop:step grid; the list is built only after this check.
_MAX_GRID_POINTS = 10_000


class _Grid(NamedTuple):
    """A parsed number list and the text it came from (for the manifest)."""

    text: str
    values: list


def _parse_grid(text: str, cast=float) -> _Grid:
    """argparse type for `start:stop:step` or comma-separated numbers."""
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise argparse.ArgumentTypeError(
                    "grid must be start:stop:step or comma-separated"
                )
            start, stop, step = (cast(p) for p in parts)
            if step <= 0 or stop < start:
                raise argparse.ArgumentTypeError(
                    "grid needs stop >= start and step > 0"
                )
            # The points that do not pass stop, up to round-off at it.
            count = int((stop - start) / step + 1e-9) + 1
            if count > _MAX_GRID_POINTS:
                raise argparse.ArgumentTypeError(
                    f"grid has {count} points, more than {_MAX_GRID_POINTS}"
                )
            return _Grid(text, [start + i * step for i in range(count)])
        return _Grid(text, [cast(p) for p in text.split(",") if p.strip()])
    except (ValueError, OverflowError):
        raise argparse.ArgumentTypeError(
            f"bad {cast.__name__} list {text!r}"
        ) from None


def _parse_int_grid(text: str) -> _Grid:
    return _parse_grid(text, int)


def _int_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _nonnegative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _cmd_counterexample(args, out_dir: Path) -> int:
    grid = args.s_grid.values
    if not grid:
        raise ConfigError("empty s grid")
    _check_creatable(out_dir, "counterexample.csv", "manifest.json")
    m, n, lam = args.m, args.n, args.lam
    lines = ["s,frob_intuitive,frob_oneitem,community_obj_Q1,community_obj_Q2"]
    for s in grid:
        base = gen_counterexample(m, n, s)  # checks m and n before any m, n-sized array
        items, features = _counterexample_labels(m, n)
        dtm = ingest(items, features, base)[0]
        frob, community = [], []
        for rows, cols in _counterexample_splits(m, n):
            kernel = CouplingKernel(("z0", "z1"), items, np.eye(2)[:, rows])
            frob.append(kernel_norm_value(dtm, kernel, "frobenius"))
            q = base * (rows[:, None] == cols)
            community.append(community_objective(q, base, lam, 2))
        lines.append(",".join(f"{v:.17g}" for v in (s, *frob, *community)))
    text = "\n".join(lines) + "\n"
    with _create(out_dir / "counterexample.csv") as fh:
        fh.write(text)
    _write_manifest(out_dir, args)
    print(text, end="")
    return 0


def _cmd_elbow(args, out_dir: Path) -> int:
    _check_creatable(out_dir, "elbow.csv", "manifest.json")
    lam = _resolve_lambda(args)
    ks = _check_ks(args.ks.values)
    dtm, _ = _load_joint(args)
    curve = elbow_curve(
        dtm,
        ks,
        algorithm=args.algo,
        restarts=args.restarts,
        frobenius_lam=lam,
    )
    lines = ["k,norm_value"] + [f"{k},{v:.17g}" for k, v in curve]
    text = "\n".join(lines) + "\n"
    with _create(out_dir / "elbow.csv") as fh:
        fh.write(text)
    _write_manifest(out_dir, args, lam=lam)
    print(text, end="")
    return 0


def _cmd_embed(args, out_dir: Path) -> int:
    _check_creatable(out_dir, "embedding.tsv", "manifest.json")
    _check_d(args.d)
    dtm, _ = _load_joint(args)
    if args.d == 1:
        _log(
            "note: dimension 1 is the constant top singular coordinate; "
            "informative dimensions start at 2"
        )
    vectors = dtm_embed(dtm, args.d)
    write_embedding_tsv(out_dir / "embedding.tsv", dtm.row_pmf.labels, vectors)
    _write_manifest(out_dir, args)
    print(f"wrote {len(vectors)} x {args.d} embedding to {out_dir / 'embedding.tsv'}")
    return 0


# Each generator's synth flags, with the defaults that the parser leaves
# unset so that the other generator can reject them.
_SYNTH_FLAGS = {
    "counterexample": {"m": 2, "n": 2, "s": 3.0},
    "planted": {
        "sizes": _parse_int_grid("30,30"), "within": 1.0, "cross": 0.05, "seed": 0,
    },
}


def _cmd_synth(args, out_dir: Path) -> int:
    given = vars(args)
    for gen, defaults in _SYNTH_FLAGS.items():
        if gen != args.gen:
            _reject(f"--gen {args.gen}", {f"--{d}": given[d] for d in defaults})
    # The manifest records these, and null for the other generator's flags.
    flags = {
        d: v if given[d] is None else given[d]
        for d, v in _SYNTH_FLAGS[args.gen].items()
    }
    if args.gen == "counterexample":
        _check_creatable(out_dir, "synth.tsv", "manifest.json")
        mat = gen_counterexample(**flags)
        labels = _counterexample_labels(flags["m"], flags["n"])
        write_triplets(out_dir / "synth.tsv", *labels, mat)
        print(f"wrote {mat.size} triplets to {out_dir / 'synth.tsv'}")
    else:
        _check_creatable(out_dir, "synth.tsv", "truth.tsv", "manifest.json")
        sizes = flags["sizes"].values
        (rows, cols, weights), truth = gen_planted_blocks(
            len(sizes), sizes, flags["within"], flags["cross"],
            noise_seed=flags["seed"],
        )
        write_triplets(out_dir / "synth.tsv", rows, cols, weights)
        with _create(out_dir / "truth.tsv") as fh:
            for item, label in zip(rows, truth):
                fh.write(f"{item}\t{label}\n")
        print(
            f"wrote {weights.size} triplets to {out_dir / 'synth.tsv'} "
            f"and truth labels to {out_dir / 'truth.tsv'}"
        )
    _write_manifest(out_dir, args, **flags)
    return 0


def _add_io_flags(sub, with_input: bool = True) -> None:
    if with_input:
        sub.add_argument("input", help="triplet TSV (or dense .csv) co-occurrence file")
        sub.add_argument(
            "--normalize",
            choices=("joint", "rows"),
            default="joint",
            help="divide by total mass, or row-normalize then average rows",
        )
        sub.add_argument(
            "--rating-transform",
            action="store_true",
            help="map 1..5 ratings through 3^(r-1) - 1 before normalizing",
        )
    sub.add_argument("--out", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coupclust",
        description="Probabilistic clustering by maximal matrix-norm couplings",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    cluster = subs.add_parser("cluster", help="learn a coupling kernel")
    _add_io_flags(cluster)
    cluster.add_argument("--algo", choices=("frobenius", "nuclear"), required=True)
    cluster.add_argument(
        "--k", type=_positive_int, required=True, help="number of clusters"
    )
    cluster.add_argument(
        "--pz",
        default=None,
        help="target cluster marginal: a pmf TSV path or 'uniform' "
        "(required by frobenius, forbidden for nuclear)",
    )
    cluster.add_argument("--lambda", dest="lam", type=float, default=None)
    cluster.add_argument("--seed", type=_nonnegative_int, default=0)
    cluster.add_argument("--restarts", type=_positive_int, default=5)
    cluster.add_argument(
        "--truth", default=None, help="item<TAB>label file for accuracy reporting"
    )
    cluster.set_defaults(func=_cmd_cluster)

    ce = subs.add_parser(
        "counterexample", help="two-community objective and norm curves"
    )
    _add_io_flags(ce, with_input=False)
    ce.add_argument("--m", type=int, default=50)
    ce.add_argument("--n", type=int, default=50)
    ce.add_argument("--lambda", dest="lam", type=float, default=3000.0)
    ce.add_argument(
        "--s-grid",
        type=_parse_grid,
        default="1:10:0.5",
        help="s values: start:stop:step or comma-separated",
    )
    ce.set_defaults(func=_cmd_counterexample)

    elbow = subs.add_parser("elbow", help="norm-versus-k model selection curve")
    _add_io_flags(elbow)
    elbow.add_argument(
        "--ks",
        type=_parse_int_grid,
        required=True,
        help="cluster counts: comma-separated or start:stop:step",
    )
    elbow.add_argument("--algo", choices=("frobenius", "nuclear"), default="nuclear")
    elbow.add_argument("--restarts", type=_positive_int, default=5)
    elbow.add_argument("--lambda", dest="lam", type=float, default=None)
    elbow.set_defaults(func=_cmd_elbow)

    embed = subs.add_parser("embed", help="DTM singular-vector embedding")
    _add_io_flags(embed)
    embed.add_argument("--d", type=int, required=True)
    embed.set_defaults(func=_cmd_embed)

    synth = subs.add_parser("synth", help="write synthetic benchmark data")
    _add_io_flags(synth, with_input=False)
    synth.add_argument("--gen", choices=("counterexample", "planted"), required=True)
    synth.add_argument("--m", type=int)  # defaults in _SYNTH_FLAGS
    synth.add_argument("--n", type=int)
    synth.add_argument("--s", type=float)
    synth.add_argument("--sizes", type=_parse_int_grid)
    synth.add_argument("--within", type=float)
    synth.add_argument("--cross", type=float)
    synth.add_argument("--seed", type=_nonnegative_int)
    synth.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: --help, --version or a usage error
        return exc.code
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a regular file, say, already holds the name
        _log(f"configuration error: cannot create --out {out_dir}: {exc.strerror}")
        return 2
    format_warning = warnings.formatwarning
    warnings.formatwarning = _format_warning
    try:
        return args.func(args, out_dir)
    except ConfigError as exc:
        _log(f"configuration error: {exc}")
        return 2
    except DataError as exc:
        _log(f"data error: {exc}")
        return 3
    except MemoryError as exc:  # the input is too large for this machine
        detail = f" ({exc})" if str(exc) else ""
        _log(f"data error: out of memory{detail}")
        return 3
    except SolverError as exc:
        _log(f"solver error: {exc}")
        return 4
    finally:
        warnings.formatwarning = format_warning


if __name__ == "__main__":
    sys.exit(main())
