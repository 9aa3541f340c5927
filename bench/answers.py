"""Running queries, normalizing answers and checking them.

Answers from the command line (``--format machine`` payloads) and from
library calls normalize to the same plain structure, so one pin table
serves both.  The checks are the contract every answer must meet:

* ``0 <= N# <= MCC <= MC`` and ``loose <=> MCC = 0``;
* a verdict and a looseness answer are unchanged when the pair is
  swapped, and ``loose`` agrees with ``classify`` on the same pair;
* filtration stages 1, 2, 3, inf of a cell form a descending chain;
* ``pi-*`` groups equal the shapes derived in :mod:`workload`;
* ``validate-db`` reports ``passed: true``;
* an answer pinned as ok for the default seed is unchanged;
* a refusal (exit 1 or ``UsageError``) is one of the known refusals
  pinned in ``refusals.json``, with the pinned message.

Known refusals are counted and reported by family, but are not failed
operations; any other refusal is.  A pinned refusal or gap that now
answers ok is counted as newly resolved.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from math import inf

from coincalc import (
    FgAbGroup,
    Grassmannian2,
    ProjectiveSpace,
    Sphere,
    classify_projective_pair,
    classify_sphere_pair,
    filtration_subgroup,
    loose_pair,
)
from coincalc.coincidence import CoincidenceVerdict, FiltrationResult, LooseAnswer
from coincalc.errors import GapError, UsageError

from workload import Q_STAGES, query_key

FIELD = {"rp": "R", "cp": "C", "hp": "H"}

OK, UNKNOWN, FAILED = "ok", "unknown", "failed"
CRASH = "crash"  # no well-formed answer at all; counted failed and incorrect


# ---------------------------------------------------------------------------
# library calls


def make_space(family: str, dim: int):
    if family == "sphere":
        return Sphere(dim)
    if family == "grassmann":
        return Grassmannian2(dim)
    return ProjectiveSpace(FIELD[family], dim)


def parse_q(q: str):
    return inf if q == "inf" else int(q)


def parse_coords(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",")) if text else ()


def library_call(db, query: tuple, groups: dict):
    """Answer one ``pair-stream`` query through the public library API.

    ``groups`` maps an instance ``(family, dim, m)`` to the
    :class:`FgAbGroup` the coordinates refer to.
    """
    cmd, fam, dim, m, f1, f2, q = query
    space = make_space(fam, dim)
    if cmd == "filtration":
        return filtration_subgroup(db, space, m, parse_q(q))
    if fam == "grassmann":
        return loose_pair(db, space, m)
    group = groups[(fam, dim, m)]
    x1 = group.element(parse_coords(f1))
    x2 = group.element(parse_coords(f2))
    if cmd == "loose":
        return loose_pair(db, space, m, x1, x2)
    if fam == "sphere":
        return classify_sphere_pair(db, m, dim, x1, x2)
    return classify_projective_pair(db, FIELD[fam], m, dim, x1, x2)


def shape_group(shape) -> FgAbGroup:
    return FgAbGroup(shape[0], shape[1])


# ---------------------------------------------------------------------------
# normalized answers


def _mc(value):
    return "infinity" if value in (inf, "infinity") else value


def _group(free_rank, torsion) -> list:
    return [free_rank, list(torsion)]


def library_answer(result) -> dict:
    if isinstance(result, CoincidenceVerdict):
        return {"loose": result.loose, "nielsen": result.nielsen,
                "mcc": result.mcc, "mc": _mc(result.mc)}
    if isinstance(result, LooseAnswer):
        return {"loose": result.loose}
    if isinstance(result, FiltrationResult):
        sub = result.subgroup
        return {"stabilized_at": result.stabilized_at,
                "subgroup": _group(sub.canonical_form.free_rank,
                                   sub.canonical_form.torsion),
                "generators": [list(g.coords) for g in sub.canonical_generators]}
    raise TypeError(f"unexpected library result {result!r}")


def cli_answer(cmd: str, payload: dict) -> dict:
    def grp(p):
        return _group(p["free_rank"], p["torsion"])

    if cmd == "classify":
        v = payload["verdict"]
        return {"loose": v["loose"], "nielsen": v["nielsen"],
                "mcc": v["mcc"], "mc": _mc(v["mc"])}
    if cmd == "loose":
        return {"loose": payload["loose"]}
    if cmd == "filtration":
        sub = payload["subgroup"]
        return {"stabilized_at": payload["stabilized_at"],
                "subgroup": grp(sub["invariants"]),
                "generators": sub["generators"]}
    if cmd in ("pi-sphere", "pi-space"):
        out = {"group": grp(payload["group"])}
        if "lift_summand" in payload:
            out["lift"] = grp(payload["lift_summand"])
            out["punctured"] = grp(payload["punctured_summand"])
        return out
    if cmd == "grassmann":
        return {"all_loose": payload["all_loose"], "group": grp(payload["group"])}
    if cmd == "validate-db":
        return {"passed": payload["passed"], "failed": payload["failed"],
                "checks": [[c["check"], c["instance"], c["status"]]
                           for c in payload["checks"]]}
    raise ValueError(f"unknown command {cmd!r}")


def digest(answer: dict) -> str:
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(text.encode()).hexdigest()[:16]


def pin_of(outcome: str, answer: dict | None) -> str:
    return f"ok:{digest(answer)}" if outcome == OK else outcome


def message_shape(message: str) -> str:
    """The first line of a message with every number replaced by ``#``."""
    return re.sub(r"\d+", "#", message.splitlines()[0] if message else "")


def failure_family(query: tuple, message: str) -> str:
    """Groups refusals by command, target family and message shape."""
    return f"{query[0]} {query[1]}: {message_shape(message)[:70]}"


def refusal_key(iface: str, query: tuple) -> str:
    """What a refusal depends on: the interface (``cli`` or ``library``),
    the command, the target, ``m`` and ``q``, and on the command line
    whether a coordinate argument is one argparse takes for an option
    (``-1,8``; a plain ``-1`` parses as a number)."""
    cmd, fam, dim, m, f1, f2, q = query
    dash = iface == "cli" and any(f and f.startswith("-") and "," in f
                                  for f in (f1, f2))
    return "|".join(map(str, (iface, cmd, fam, dim, m, q, int(dash))))


# ---------------------------------------------------------------------------
# outcomes of one run


class Outcomes:
    """Tallies every operation and keeps the first answer of up to
    ``cap`` distinct queries for the checks, so that the benchmark's own
    memory does not grow with the number of operations.

    ``refusals`` maps :func:`refusal_key` to the pinned message shape of
    the known refusals of interface ``iface``; a refusal that matches one
    counts as ``refused``, any other as ``failed``."""

    def __init__(self, refusals: dict | None = None, iface: str = "library",
                 cap: int = 4096):
        self.refusals = refusals or {}
        self.iface = iface
        self.cap = cap
        self.attempted = 0
        self.unknown = 0
        self.refused = 0
        self.failed = 0
        self.families: Counter = Counter()
        self.records: dict[str, list] = {}  # key -> [query, outcome, answer, count]

    def add(self, query, outcome, answer=None, message=""):
        self.attempted += 1
        if outcome == UNKNOWN:
            self.unknown += 1
        elif outcome == FAILED:
            family = failure_family(query, message)
            if self.is_known_refusal(query, message):
                self.refused += 1
            else:
                self.failed += 1
                family = f"unexpected {family}"
            self.families[family] += 1
        key = query_key(query)
        rec = self.records.get(key)
        if rec is not None:
            rec[3] += 1
        elif len(self.records) < self.cap:
            self.records[key] = [query, outcome, answer, 1]

    def is_known_refusal(self, query, message) -> bool:
        pinned = self.refusals.get(refusal_key(self.iface, query))
        return pinned is not None and pinned == message_shape(message)


class Verdict:
    """Result of checking one run's answers."""

    def __init__(self):
        self.violations = 0
        self.examples: list[str] = []
        self.pin_failures: list[str] = []  # pinned ok, now different or not ok
        self.pin_failed_ops = 0
        self.newly_resolved = 0
        self.checked = 0

    @property
    def correct(self) -> bool:
        return not self.violations

    def violate(self, key: str, why: str):
        self.violations += 1
        if len(self.examples) < 20:
            self.examples.append(f"{key}: {why}")


def _verdict_invariants(ans: dict) -> str | None:
    mc = inf if ans["mc"] == "infinity" else ans["mc"]
    if not 0 <= ans["nielsen"] <= ans["mcc"] <= mc:
        return f"N# <= MCC <= MC violated: {ans}"
    if ans["loose"] != (ans["mcc"] == 0):
        return f"loose does not match MCC = 0: {ans}"
    return None


def _lib(db, query, groups):
    """(outcome, normalized answer) of a library call, for cross-checks."""
    try:
        return OK, library_answer(library_call(db, query, groups))
    except GapError:
        return UNKNOWN, None
    except UsageError:
        return FAILED, None


def check(db, cells_by_key: dict, outcomes: Outcomes, pins: dict) -> Verdict:
    """Check every recorded answer; see the module docstring."""
    groups = {k: shape_group(c.shape) for k, c in cells_by_key.items()
              if c.shape is not None}
    stages: dict[tuple, list] = {}
    v = Verdict()
    for key, (query, outcome, answer, count) in outcomes.records.items():
        v.checked += 1
        pinned = pins.get(key)
        if pinned is not None and pinned.startswith("ok:"):
            if pinned != pin_of(outcome, answer):
                v.pin_failures.append(key)
                v.pin_failed_ops += count
                if outcome == OK:
                    v.violate(key, f"answer changed from pinned {pinned}")
        elif outcome == OK and (pinned is not None or refusal_key(
                outcomes.iface, query) in outcomes.refusals):
            v.newly_resolved += 1
        if outcome != OK:
            continue
        cmd, fam, dim, m, f1, f2, q = query
        if cmd == "classify":
            why = _verdict_invariants(answer)
            if why:
                v.violate(key, why)
            swapped = _lib(db, (cmd, fam, dim, m, f2, f1, q), groups)
            if swapped != (OK, answer):
                v.violate(key, f"swapped pair gives {swapped}")
        elif cmd == "loose" and fam != "grassmann":
            swapped = _lib(db, (cmd, fam, dim, m, f2, f1, q), groups)
            if swapped != (OK, answer):
                v.violate(key, f"swapped pair gives {swapped}")
            full = _lib(db, ("classify", fam, dim, m, f1, f2, q), groups)
            if full[0] == OK and full[1]["loose"] != answer["loose"]:
                v.violate(key, f"loose disagrees with classify {full[1]}")
        elif cmd == "filtration":
            chain = stages.get((fam, dim, m))
            if chain is None:
                chain = stages[(fam, dim, m)] = _filtration_chain(db, fam, dim, m)
                if chain is False:
                    v.violate(key, "filtration stages are not descending")
            if chain and chain[Q_STAGES.index(q)] != answer:
                v.violate(key, "filtration answer differs from the library")
        elif cmd in ("pi-sphere", "pi-space", "grassmann"):
            shape = cells_by_key[(fam, dim, m)].shape
            if shape is not None and answer["group"] != _group(*shape):
                v.violate(key, f"group {answer['group']} but the table "
                               f"gives {shape}")
            if cmd == "grassmann" and answer["all_loose"] is not True:
                v.violate(key, "even-rank Grassmannian not all loose")
        elif cmd == "validate-db":
            if answer["passed"] is not True or answer["failed"]:
                v.violate(key, "validate-db did not pass")
    return v


def _filtration_chain(db, fam, dim, m):
    """Normalized stages 1, 2, 3, inf (``None`` where a stage does not
    resolve); ``False`` if the resolved stages do not descend."""
    space = make_space(fam, dim)
    subs, answers = [], []
    for q in Q_STAGES:
        try:
            res = filtration_subgroup(db, space, m, parse_q(q))
        except (GapError, UsageError):
            subs.append(None)
            answers.append(None)
            continue
        subs.append(res.subgroup)
        answers.append(library_answer(res))
    resolved = [s for s in subs if s is not None]
    for big, small in zip(resolved, resolved[1:]):
        if not big.contains_subgroup(small):
            return False
    return answers
