"""Regenerate ``pins.json`` and ``refusals.json``.

Usage: ``python3 bench/make_pins.py`` from the repository root.

``pins.json`` holds the answers of the default seed's queries.  Each pin
is ``ok:<digest of the normalized answer>``, ``unknown`` or ``failed``.
A benchmark run fails an operation whose pinned ok answer changed, and
counts a pinned unknown or failed query that now answers ok as newly
resolved.

``refusals.json`` holds every known refusal in the window: for each
:func:`answers.refusal_key` the program refuses, the shape of its
message.  It is made by asking every command of both interfaces about
every cell, with several coordinate pairs where the command takes them;
the script stops if a refusal depends on more than its key.

Commands are answered in process through ``coincalc.cli.main``, which
is what ``python -m coincalc`` runs.
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import redirect_stdout

import run
import workload

# covers the warm-up and the recorded part of a default-seed run
PREFIX = {"cli-single": 600, "pair-stream": 16000, "validate-sweep": 1}
# coordinate pairs tried per cell and command, when the group is free
# (where a coordinate may start with a dash) or finite
COORD_SAMPLES = {True: 24, False: 2}


def cli_in_process(query):
    from coincalc.cli import main

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["--format", "machine"] + workload.cli_argv(query))
    return code, buf.getvalue(), ""


def pins(ctx) -> dict:
    from answers import pin_of

    out = {}
    for name, prefix in PREFIX.items():
        op, finish = run.make_op(ctx, name)
        if name == "cli-single":
            op = cli_in_process
        queries = ctx.queries(name)
        for _ in range(prefix):
            q = next(queries)
            key = workload.query_key(q)
            if key not in out:
                outcome, answer, _msg = finish(q, op(q))
                out[key] = pin_of(outcome, answer)
    return out


def variants(rng: random.Random, cmd: str, cell) -> list[tuple]:
    """Queries of ``cmd`` on ``cell``: every filtration stage, several
    coordinate pairs, or the one query the command has."""
    if cmd == "filtration":
        return [(cmd, cell.family, cell.dim, cell.m, None, None, q)
                for q in workload.Q_STAGES]
    takes_coords = cmd in ("classify", "loose") and cell.family != "grassmann"
    n = COORD_SAMPLES[cell.shape[0] > 0] if takes_coords else 1
    return [workload._query(rng, cmd, cell) for _ in range(n)]


def refusals(ctx) -> dict:
    from answers import FAILED, message_shape, refusal_key

    lib_op, lib_finish = run.make_op(ctx, "pair-stream")
    interfaces = (("library", workload.STREAM_OPS, lib_op, lib_finish),
                  ("cli", workload.CLI_COMMANDS, cli_in_process, run.cli_outcome))
    rng = random.Random("refusals")
    seen, out = {}, {}
    for iface, commands, op, finish in interfaces:
        for cell in ctx.cells:
            for cmd in commands:
                if not workload._applies(cmd, cell):
                    continue
                for query in variants(rng, cmd, cell):
                    outcome, _answer, message = finish(query, op(query))
                    key = refusal_key(iface, query)
                    shape = message_shape(message) if outcome == FAILED else None
                    if seen.setdefault(key, shape) != shape:
                        raise SystemExit(f"{query}: refusal {shape!r} differs from "
                                         f"{seen[key]!r} under the same key {key}")
                    if shape is not None:
                        out[key] = shape
    return out


def main() -> int:
    run.import_package()
    ctx = run.Context(run.DEFAULT_SEED)
    doc = {"seed": run.DEFAULT_SEED, "answers": dict(sorted(pins(ctx).items()))}
    run.PINS.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n", "utf-8")
    known = {"refusals": dict(sorted(refusals(ctx).items()))}
    run.REFUSALS.write_text(json.dumps(known, indent=0, sort_keys=True) + "\n",
                            "utf-8")
    print(f"{len(doc['answers'])} pins written to {run.PINS}, "
          f"{len(known['refusals'])} refusals to {run.REFUSALS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
