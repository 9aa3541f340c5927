"""Command-line interface.

Commands: pi-sphere, pi-space, filtration, classify, loose, grassmann,
validate-db.  Elements are entered as comma-separated generator
coordinates in the group's canonical order (free generators first) and
printed back with generator labels when the database names them.

Machine output (``--format machine``) is a single JSON document on
stdout and is byte-deterministic for identical inputs.  Exit codes:
0 = ok, 1 = error (bad request or bad database), 2 = unknown (the
answer is not derivable from the shipped data).  Every outcome is one
document whose ``rule_trace`` holds the rules noted before it ended,
so an error or unknown exit keeps the trace gathered so far.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from math import inf

from . import coincidence, fibration, homotopy_db
from .abelian import FgAbGroup, GroupElement, Subgroup
from .coincidence import Grassmannian2, Sphere
from .errors import DataError, GapError, UsageError
from .fibration import ProjectiveSpace
from .homotopy_db import Database
from .trace import Trace

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNKNOWN = 2
_EXIT_CODES = {"ok": EXIT_OK, "error": EXIT_ERROR, "unknown": EXIT_UNKNOWN}

ENV_DB = "COINCALC_DB"


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; this tool reserves 2
    # for "unknown", so turn parse failures into regular usage errors.
    def error(self, message):
        raise UsageError(message)


@functools.cache
def _format_parser() -> _Parser:
    pre = _Parser(add_help=False)
    pre.add_argument("--format", choices=("human", "machine"), default="human")
    return pre


def _requested_format(argv) -> str:
    """The ``--format`` of ``argv``, read before the full parse so that a
    parse error is reported in the requested format too."""
    try:
        return _format_parser().parse_known_args(argv)[0].format
    except UsageError:
        return "human"


def _bind_coordinates(argv) -> list[str]:
    """Attach a value such as ``-1,0`` to its ``--f1``/``--f2`` flag;
    argparse would read a separate ``-1,0`` as an option."""
    out = []
    for arg in argv:
        negative = arg.startswith("-") and arg[1:2].isdigit()
        if negative and out and out[-1] in ("--f1", "--f2"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _resolve_db_path(arg: str | None) -> str:
    if arg is not None:  # an explicit empty path is unreadable, not the default
        return arg
    env = os.environ.get(ENV_DB)
    if env:
        return env
    return str(homotopy_db.DEFAULT_DB_PATH)


# the table this process built last, as (file bytes, Database), replaced
# as a whole; a call on a file with the same bytes reuses that Database
# and its memo
_loaded: tuple[bytes, Database] | None = None


def _database(path: str) -> Database:
    """The table in ``path``, read once per call and built only when its
    bytes differ from those of the kept table."""
    global _loaded
    data = homotopy_db.read_database(path)
    kept = _loaded
    if kept is not None and kept[0] == data:
        return kept[1]
    _loaded = None  # a load that raises keeps nothing
    db = homotopy_db.build_database(homotopy_db.decode_database(data, path))
    _loaded = (data, db)
    return db


# ---------------------------------------------------------------------------
# payload serialization


def group_payload(g: FgAbGroup) -> dict:
    return {
        "free_rank": g.free_rank,
        "torsion": list(g.torsion),
        "labels": list(g.labels) if g.labels else None,
        "pretty": g.describe(),
    }


def element_payload(e: GroupElement) -> dict:
    return {"coords": list(e.coords), "pretty": str(e)}


def subgroup_payload(s: Subgroup) -> dict:
    return {
        "ambient": group_payload(s.ambient),
        "invariants": group_payload(s.canonical_form),
        "generators": [list(g.coords) for g in s.canonical_generators],
        "pretty": f"{s.canonical_form.describe()} in {s.ambient.describe()}",
    }


def _mc_payload(mc):
    return "infinity" if mc == inf else mc


def verdict_payload(v: coincidence.CoincidenceVerdict) -> dict:
    return {
        "loose": v.loose,
        "nielsen": v.nielsen,
        "mcc": v.mcc,
        "mc": _mc_payload(v.mc),
        "rule": v.rule,
    }


def _integer(text: str) -> int:
    """``text`` read strictly as an integer: an optional sign and ASCII
    digits, with surrounding whitespace.  ``int`` alone also reads ``1_0``
    as 10 and non-ASCII digits such as ``\u0663`` as 3."""
    body = text.strip()
    digits = body[1:] if body[:1] in ("+", "-") else body
    if digits.isascii() and digits.isdigit():
        return int(body)
    # argparse reports this as "argument --<flag>: invalid int value: ..."
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _parse_coords(text: str, group: FgAbGroup, flag: str) -> GroupElement:
    text = text.strip()
    parts = [] if text in ("", "()") else text.split(",")
    try:
        coords = [_integer(p) for p in parts]
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"{flag}: coordinates must be integers") from exc
    if len(coords) != group.ngens:
        raise UsageError(
            f"{flag}: expected {group.ngens} coordinate(s) for "
            f"{group.describe()}, got {len(coords)}"
        )
    return group.element(coords)


def _parse_q(text: str):
    if text.strip().lower() in ("inf", "infinity"):
        return inf
    try:
        return _integer(text)
    except argparse.ArgumentTypeError as exc:
        raise UsageError("--q must be a positive integer or 'inf'") from exc


# each --space name: its dimension flag, the constructor of its space
# from that flag's value, and the payload fields that name the space
# besides the name, the flag's value and the dimension
_SPACES = {
    "sphere": ("n", Sphere, {}),
    "rp": ("nprime", functools.partial(ProjectiveSpace, "R"), {"K": "R"}),
    "cp": ("nprime", functools.partial(ProjectiveSpace, "C"), {"K": "C"}),
    "hp": ("nprime", functools.partial(ProjectiveSpace, "H"), {"K": "H"}),
    "grassmann": ("r", Grassmannian2, {}),
}


def _target(args):
    """The space a space command's rules read, their family and the
    payload head, which names the space as given."""
    flag, build, fields = _SPACES[args.space]
    value = getattr(args, flag)
    if value is None:
        raise UsageError(f"--space {args.space} requires --{flag}")
    given = build(value)
    family, space = coincidence.rules_for(given, args.m)
    named = {"family": args.space, **fields, flag: value, "dimension": given.dimension}
    return space, family, {"space": named, "m": args.m}


def _parse_pair(db, family, space, args, trace):
    group = family.pi(db, space, args.m, trace)
    return _parse_coords(args.f1, group, "--f1"), _parse_coords(args.f2, group, "--f2")


# ---------------------------------------------------------------------------
# command handlers (each returns the payload dict)


def _cmd_pi_sphere(db, args, trace):
    group = db.pi_sphere(args.m, args.n)
    Trace.note(trace, "sphere-table-lookup")
    return {"m": args.m, "n": args.n, "group": group_payload(group)}


def _cmd_pi_space(db, args, trace):
    space, family, payload = _target(args)
    for key, group in family.summands(db, space, args.m, trace).items():
        payload[key] = group_payload(group)
    return payload


def _cmd_filtration(db, args, trace):
    space, _, payload = _target(args)
    q = _parse_q(args.q)
    res = coincidence.filtration_subgroup(db, space, args.m, q, trace)
    return {**payload, "q": "infinity" if q == inf else q,
            "stabilized_at": res.stabilized_at,
            "subgroup": subgroup_payload(res.subgroup)}


def _cmd_classify(db, args, trace):
    space, family, payload = _target(args)
    f1, f2 = _parse_pair(db, family, space, args, trace)
    verdict = family.classify(db, space, args.m, f1, f2, trace)
    return {**payload, "f1": element_payload(f1), "f2": element_payload(f2),
            "verdict": verdict_payload(verdict)}


def _cmd_loose(db, args, trace):
    space, family, payload = _target(args)
    f1 = f2 = None
    if not family.ignores_classes:
        if args.f1 is None or args.f2 is None:
            raise UsageError("loose requires --f1 and --f2 for this space")
        f1, f2 = _parse_pair(db, family, space, args, trace)
        payload.update(f1=element_payload(f1), f2=element_payload(f2))
    answer = coincidence.loose_pair(db, space, args.m, f1, f2, trace)
    return {**payload, "loose": answer.loose, "rule": answer.rule}


def _cmd_grassmann(db, args, trace):
    result = coincidence.grassmann_all_loose(args.r)
    payload = {
        "r": args.r,
        "all_loose": "unknown" if result is None else result,
    }
    if result is None:
        raise _Outcome("unknown", payload,
                       "odd-rank Grassmannians are outside the implemented results")
    if args.m is not None:
        payload["m"] = args.m
        payload["group"] = group_payload(
            coincidence.grassmann_pi(db, args.m, args.r, trace)
        )
    return payload


class _Outcome(Exception):
    """Internal: a command that produced a payload but not an ok answer."""

    def __init__(self, status, payload, message):
        super().__init__(message)
        self.status = status
        self.payload = payload


def _run_db_checks(db: Database) -> list[dict]:
    """The validations beyond what loading already guarantees: frame-fibration
    exactness, the stable-range boundary kernels and case exclusivity."""
    return (fibration.exactness_report(db) + fibration.stable_kernel_report(db)
            + coincidence.exclusivity_report(db))


def _cmd_validate_db(db, args, trace):
    checks = _run_db_checks(db)
    failed = [c for c in checks if c["status"] == "fail"]
    payload = {
        "record_invariants": "ok",  # loading would have failed otherwise
        "checks": checks,
        "failed": len(failed),
        "passed": not failed,
    }
    if failed:
        raise _Outcome("error", payload, f"{len(failed)} validation check(s) failed")
    return payload


# ---------------------------------------------------------------------------
# plumbing


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "machine":
        sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        return
    _emit_human(doc)


def _human_value(value, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        if "pretty" in value:
            lines.append(value["pretty"])
        else:
            lines.append("")
            for k, v in value.items():
                sub = _human_value(v, indent + 1)
                lines.append(f"{pad}  {k}: {sub[0]}")
                lines.extend(sub[1:])
    elif isinstance(value, list):
        lines.append(json.dumps(value))
    else:
        lines.append(str(value))
    return lines


def _emit_human(doc: dict) -> None:
    out = [f"status: {doc['status']}"]
    payload = doc["payload"]
    for key, value in payload.items():
        if key == "checks":
            for c in value:
                out.append(
                    f"  {c['check']} {c['instance']}: {c['status']} ({c['detail']})"
                )
            continue
        rendered = _human_value(value)
        out.append(f"{key}: {rendered[0]}")
        out.extend(rendered[1:])
    if doc["rule_trace"]:
        out.append("rules: " + ", ".join(doc["rule_trace"]))
    if doc.get("message"):
        out.append(f"message: {doc['message']}")
    sys.stdout.write("\n".join(out) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coincalc",
        description="Exact coincidence invariants for maps of spheres into "
                    "spheres, projective spaces and rank-2 Grassmannians.",
    )
    parser.add_argument("--db", help=f"database file (default: shipped table, "
                                     f"override with ${ENV_DB})")
    parser.add_argument("--format", choices=("human", "machine"), default="human")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_space_flags(p):
        p.add_argument("--space", required=True, choices=tuple(_SPACES))
        p.add_argument("--n", type=_integer, help="sphere dimension")
        p.add_argument("--nprime", type=_integer, help="projective dimension n'")
        p.add_argument("--r", type=_integer, help="Grassmannian rank r")
        p.add_argument("--m", type=_integer, required=True, help="source sphere dimension")

    p = sub.add_parser("pi-sphere", help="look up pi_m(S^n)")
    p.add_argument("--m", type=_integer, required=True)
    p.add_argument("--n", type=_integer, required=True)

    p = sub.add_parser("pi-space", help="pi_m of a supported target space")
    add_space_flags(p)

    p = sub.add_parser("filtration", help="stage-q coincidence filtration subgroup")
    add_space_flags(p)
    p.add_argument("--q", required=True, help="stage (positive integer or 'inf')")

    p = sub.add_parser("classify", help="Nielsen and minimum numbers of a pair")
    add_space_flags(p)
    p.add_argument("--f1", required=True, help="comma-separated coordinates")
    p.add_argument("--f2", required=True, help="comma-separated coordinates")

    p = sub.add_parser("loose", help="decide whether a pair is loose")
    add_space_flags(p)
    p.add_argument("--f1", help="comma-separated coordinates")
    p.add_argument("--f2", help="comma-separated coordinates")

    p = sub.add_parser("grassmann", help="all-pairs-loose test for G_{r,2}")
    p.add_argument("--r", type=_integer, required=True)
    p.add_argument("--m", type=_integer, help="also report pi_m(G_{r,2})")

    sub.add_parser("validate-db", help="run every database validation check")
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process: parsing leaves no state behind in it."""
    return build_parser()


_HANDLERS = {
    "pi-sphere": _cmd_pi_sphere,
    "pi-space": _cmd_pi_space,
    "filtration": _cmd_filtration,
    "classify": _cmd_classify,
    "loose": _cmd_loose,
    "grassmann": _cmd_grassmann,
    "validate-db": _cmd_validate_db,
}


def main(argv=None) -> int:
    argv = _bind_coordinates(sys.argv[1:] if argv is None else argv)
    fmt = _requested_format(argv)
    trace = Trace()
    try:
        args = _shared_parser().parse_args(argv)
        db = _database(_resolve_db_path(args.db))
        doc = {"status": "ok", "payload": _HANDLERS[args.command](db, args, trace)}
    except (UsageError, DataError) as exc:
        doc = {"status": "error", "message": str(exc), "payload": {}}
    except GapError as exc:
        doc = {"status": "unknown", "message": str(exc), "payload": {}}
    except _Outcome as exc:
        doc = {"status": exc.status, "message": str(exc), "payload": exc.payload}
    _emit({**doc, "rule_trace": trace.entries}, fmt)
    return _EXIT_CODES[doc["status"]]


if __name__ == "__main__":
    raise SystemExit(main())
