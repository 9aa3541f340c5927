"""Traced stand-in for ``python -m coincalc``.

Usage: ``python cli_child.py OUT_PATH ARGS...`` runs
``coincalc.cli.main(ARGS)`` under the tracer, writes the trace summary
and the raw spans as JSON to ``OUT_PATH`` at exit and exits with the command's code.
``PYTHONPATH`` must point at the package sources.
"""

import json
import sys

from tracer import Tracer


def _run(out_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    from coincalc.cli import main

    try:
        return main(argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({**tracer.summary(), "spans_raw": tracer.spans}, fh)


if __name__ == "__main__":
    raise SystemExit(_run(sys.argv[1], sys.argv[2:]))
