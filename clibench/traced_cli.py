"""Run the coupclust CLI in-process with spans recorded at each layer.

Usage: python clibench/traced_cli.py SPANS_JSON -- CLI_ARGS...

Imports coupclust.cli, wraps the package's public functions (see
tracing.TARGETS), calls coupclust.cli.main(CLI_ARGS) once, then writes the
spans, per-call notes and the count of "nuclear norm decreased" warnings to
SPANS_JSON. Exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import sys
import warnings

from tracing import Recorder, install


def main() -> int:
    out_path = sys.argv[1]
    if sys.argv[2:3] != ["--"]:
        print("usage: traced_cli.py SPANS_JSON -- CLI_ARGS...", file=sys.stderr)
        return 2
    cli_args = sys.argv[3:]

    import coupclust.cli as cli

    rec = Recorder()
    missing = install(rec)
    traced_main = rec.wrap("cli.main", cli.main)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = traced_main(cli_args)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    nonmonotone = sum(
        1
        for w in caught
        if issubclass(w.category, RuntimeWarning)
        and "nuclear norm decreased" in str(w.message)
    )
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "missing": missing,
                "nonmonotone_warnings": nonmonotone,
                "spans": rec.spans,
                "notes": rec.notes,
            },
            fh,
        )
    return rc


if __name__ == "__main__":
    sys.exit(main())
