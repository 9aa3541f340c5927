"""Command-line interface.

Commands: pi-sphere, pi-space, filtration, classify, loose, grassmann,
validate-db.  Elements are entered as comma-separated generator
coordinates in the group's canonical order (free generators first) and
printed back with generator labels when the database names them.

Machine output (``--format machine``) is a single JSON document on
stdout and is byte-deterministic for identical inputs.  Exit codes:
0 = ok, 1 = error (bad request or bad database), 2 = unknown (the
answer is not derivable from the shipped data).
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
from .homotopy_db import Database, load_database
from .trace import Trace

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNKNOWN = 2

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
    if arg:
        return arg
    env = os.environ.get(ENV_DB)
    if env:
        return env
    return str(homotopy_db.DEFAULT_DB_PATH)


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


def _parse_coords(text: str, group: FgAbGroup, flag: str) -> GroupElement:
    text = text.strip()
    parts = [] if text in ("", "()") else text.split(",")
    try:
        coords = [int(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"{flag}: coordinates must be integers") from exc
    if len(coords) != group.ngens:
        raise UsageError(
            f"{flag}: expected {group.ngens} coordinate(s) for "
            f"{group.describe()}, got {len(coords)}"
        )
    return group.element(coords)


def _parse_q(text: str):
    if text.lower() in ("inf", "infinity"):
        return inf
    try:
        return int(text)
    except ValueError as exc:
        raise UsageError("--q must be a positive integer or 'inf'") from exc


def _space_from_args(args) -> coincidence.Space:
    kind = args.space
    if kind == "sphere":
        if args.n is None:
            raise UsageError("--space sphere requires --n")
        return Sphere(args.n)
    if kind in ("rp", "cp", "hp"):
        if args.nprime is None:
            raise UsageError(f"--space {kind} requires --nprime")
        return ProjectiveSpace({"rp": "R", "cp": "C", "hp": "H"}[kind], args.nprime)
    if kind == "grassmann":
        if args.r is None:
            raise UsageError("--space grassmann requires --r")
        return Grassmannian2(args.r)
    raise UsageError(f"unknown space {kind!r}")


def _space_payload(space) -> dict:
    if isinstance(space, Sphere):
        return {"family": "sphere", "n": space.n, "dimension": space.dimension}
    if isinstance(space, ProjectiveSpace):
        return {
            "family": {"R": "rp", "C": "cp", "H": "hp"}[space.k],
            "K": space.k,
            "nprime": space.n_prime,
            "dimension": space.dimension,
        }
    return {"family": "grassmann", "r": space.r, "dimension": space.dimension}


def _space_group(db: Database, space, m: int, trace) -> FgAbGroup:
    if isinstance(space, Sphere):
        return db.pi_sphere(m, space.n)
    if isinstance(space, ProjectiveSpace):
        return fibration.pi_projective(db, space.k, m, space.n_prime, trace).total
    return coincidence.grassmann_pi(db, m, space.r, trace)


# ---------------------------------------------------------------------------
# command handlers (each returns the payload dict)


def _cmd_pi_sphere(db, args, trace):
    group = db.pi_sphere(args.m, args.n)
    Trace.note(trace, "sphere-table-lookup")
    return {"m": args.m, "n": args.n, "group": group_payload(group)}


def _cmd_pi_space(db, args, trace):
    space = _space_from_args(args)
    payload = {"space": _space_payload(space), "m": args.m}
    if isinstance(space, ProjectiveSpace):
        pg = fibration.pi_projective(db, space.k, args.m, space.n_prime, trace)
        payload["group"] = group_payload(pg.total)
        payload["lift_summand"] = group_payload(pg.sphere_group)
        payload["punctured_summand"] = group_payload(pg.c_group)
    else:
        payload["group"] = group_payload(_space_group(db, space, args.m, trace))
    return payload


def _cmd_filtration(db, args, trace):
    space = _space_from_args(args)
    q = _parse_q(args.q)
    res = coincidence.filtration_subgroup(db, space, args.m, q, trace)
    return {
        "space": _space_payload(space),
        "m": args.m,
        "q": "infinity" if q == inf else q,
        "stabilized_at": res.stabilized_at,
        "subgroup": subgroup_payload(res.subgroup),
    }


def _cmd_classify(db, args, trace):
    space = _space_from_args(args)
    group = _space_group(db, space, args.m, trace)
    f1 = _parse_coords(args.f1, group, "--f1")
    f2 = _parse_coords(args.f2, group, "--f2")
    if isinstance(space, Sphere):
        verdict = coincidence.classify_sphere_pair(db, args.m, space.n, f1, f2, trace)
    elif isinstance(space, ProjectiveSpace):
        verdict = coincidence.classify_projective_pair(
            db, space.k, args.m, space.n_prime, f1, f2, trace
        )
    else:
        raise UsageError(
            "classify supports spheres and projective spaces; use `loose` "
            "for Grassmannians"
        )
    return {
        "space": _space_payload(space),
        "m": args.m,
        "f1": element_payload(f1),
        "f2": element_payload(f2),
        "verdict": verdict_payload(verdict),
    }


def _cmd_loose(db, args, trace):
    space = _space_from_args(args)
    if isinstance(space, Grassmannian2):
        answer = coincidence.loose_pair(db, space, args.m, trace=trace)
        pair = {}
    else:
        if args.f1 is None or args.f2 is None:
            raise UsageError("loose requires --f1 and --f2 for this space")
        group = _space_group(db, space, args.m, trace)
        f1 = _parse_coords(args.f1, group, "--f1")
        f2 = _parse_coords(args.f2, group, "--f2")
        answer = coincidence.loose_pair(db, space, args.m, f1, f2, trace)
        pair = {"f1": element_payload(f1), "f2": element_payload(f2)}
    return {
        "space": _space_payload(space),
        "m": args.m,
        **pair,
        "loose": answer.loose,
        "rule": answer.rule,
    }


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

    def __init__(self, status, payload, reason):
        super().__init__(reason)
        self.status = status
        self.payload = payload
        self.reason = reason


def _run_db_checks(db: Database) -> list[dict]:
    """The validations beyond what loading already guarantees."""
    checks = []
    # frame-fibration exactness, wherever expressible
    for chk in fibration.exactness_report(db):
        checks.append(
            {
                "check": "exactness",
                "instance": chk.instance,
                "status": chk.status,
                "detail": chk.detail,
            }
        )
    # stable-range boundary kernels against direct enumeration
    rng = db.range
    for n in range(max(2, rng.n_min), rng.n_max + 1):
        for m in range(n + 1, n + rng.stem_max + 1):
            if not m < 2 * n - 2:
                continue
            group = db.pi_sphere(m, n)
            if group.free_rank or group.order() > 10**4:
                continue
            try:
                ker = fibration.boundary_kernel(db, "R", m, n)
            except GapError as exc:
                checks.append({"check": "stable-kernel", "instance": f"({m},{n})",
                               "status": "unverifiable", "detail": str(exc)})
                continue
            factor = 1 + (-1) ** n
            expected = {
                e.coords for e in group.enumerate_torsion_part()
                if (factor * e).is_zero
            }
            actual = {e.coords for e in ker.enumerate_elements()}
            ok = expected == actual
            checks.append(
                {
                    "check": "stable-kernel",
                    "instance": f"({m},{n})",
                    "status": "ok" if ok else "fail",
                    "detail": f"kernel has {len(actual)} elements, "
                              f"enumeration gives {len(expected)}",
                }
            )
    # the seven classifier cases must be mutually exclusive and complete;
    # the pair check is quadratic in the group order, so it runs only on
    # instances of order <= 40 (369 of the 374 the shipped data covers;
    # the 5 skipped have order 120 or 240)
    for k, m, n_prime, _cls in coincidence.covered_projective_instances(
        db, max_order=40
    ):
        bad = coincidence.exclusivity_violations(db, k, m, n_prime)
        checks.append(
            {
                "check": "case-exclusivity",
                "instance": f"(K={k}, m={m}, n'={n_prime})",
                "status": "ok" if not bad else "fail",
                "detail": f"{len(bad)} pair(s) matched by != 1 case",
            }
        )
    return checks


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
    payload = doc.get("payload", {})
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
    if doc.get("rule_trace"):
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

    def add_space_flags(p, with_m=True):
        p.add_argument("--space", required=True,
                       choices=("sphere", "rp", "cp", "hp", "grassmann"))
        p.add_argument("--n", type=int, help="sphere dimension")
        p.add_argument("--nprime", type=int, help="projective dimension n'")
        p.add_argument("--r", type=int, help="Grassmannian rank r")
        if with_m:
            p.add_argument("--m", type=int, required=True, help="source sphere dimension")

    p = sub.add_parser("pi-sphere", help="look up pi_m(S^n)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

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
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, help="also report pi_m(G_{r,2})")

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
    try:
        args = _shared_parser().parse_args(argv)
        db = load_database(_resolve_db_path(args.db))
        trace = Trace()
        payload = _HANDLERS[args.command](db, args, trace)
    except (UsageError, DataError) as exc:
        _emit({"status": "error", "message": str(exc), "payload": {},
               "rule_trace": []}, fmt)
        return EXIT_ERROR
    except GapError as exc:
        _emit({"status": "unknown", "message": str(exc), "payload": {},
               "rule_trace": []}, fmt)
        return EXIT_UNKNOWN
    except _Outcome as exc:
        _emit({"status": exc.status, "message": exc.reason,
               "payload": exc.payload, "rule_trace": trace.entries}, fmt)
        return EXIT_UNKNOWN if exc.status == "unknown" else EXIT_ERROR
    _emit({"status": "ok", "payload": payload, "rule_trace": trace.entries}, fmt)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
