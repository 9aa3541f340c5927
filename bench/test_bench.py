"""Self-tests of the benchmark: ``python3 -m pytest bench``."""

from __future__ import annotations

import sys
from itertools import islice
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import answers  # noqa: E402
import workload  # noqa: E402
from tracer import Tracer, self_times, summarize  # noqa: E402

DATA = BENCH.parent / "src" / "coincalc" / "data" / "sphere_groups.json"


@pytest.fixture(scope="module")
def cells():
    return workload.window(workload.Table(DATA))


@pytest.fixture(scope="module")
def db():
    from coincalc import load_default_database

    return load_default_database()


@pytest.mark.parametrize("make", [workload.cli_queries, workload.stream_queries])
def test_same_seed_same_queries(cells, make):
    first = list(islice(make(cells, 7), 3000))
    assert first == list(islice(make(cells, 7), 3000))
    assert first != list(islice(make(cells, 8), 3000))


def test_window_keeps_edge_and_gap_cells(cells):
    regions = {workload.region(c) for c in cells}
    assert regions == {"edge", "unknown", "trivial", "main"}
    assert workload.Cell("rp", 1, 3, (0, ())) in cells  # KP(1), refused today
    assert any(c.family == "sphere" and c.m == 1 and c.dim == 4 for c in cells)


def test_direct_sum_shape():
    assert workload.direct_sum_shape((0, (2,)), (0, (3,))) == (0, (6,))
    assert workload.direct_sum_shape((1, (2,)), (0, (2, 4))) == (1, (2, 2, 4))
    assert workload.direct_sum_shape((0, ()), None) is None


def _record(query, answer, outcome=answers.OK):
    out = answers.Outcomes()
    out.add(query, outcome, answer)
    return out


def _check(db, cells, outcomes, pins=None):
    by_key = {c.key: c for c in cells}
    return answers.check(db, by_key, outcomes, pins or {})


CLASSIFY = ("classify", "rp", 6, 9, "12", "12", None)  # loose, (0, 0, 0)


def test_checks_accept_a_right_verdict(db, cells):
    right = {"loose": True, "nielsen": 0, "mcc": 0, "mc": 0}
    assert _check(db, cells, _record(CLASSIFY, right)).correct


@pytest.mark.parametrize("wrong", [
    {"loose": True, "nielsen": 1, "mcc": 0, "mc": 0},   # N# > MCC
    {"loose": False, "nielsen": 0, "mcc": 0, "mc": 0},  # loose but MCC = 0
    {"loose": False, "nielsen": 1, "mcc": 1, "mc": 1},  # consistent, but wrong
])
def test_checks_reject_a_planted_wrong_verdict(db, cells, wrong):
    assert not _check(db, cells, _record(CLASSIFY, wrong)).correct


def test_checks_reject_loose_disagreeing_with_classify(db, cells):
    query = ("loose", "rp", 6, 9, "12", "12", None)
    assert _check(db, cells, _record(query, {"loose": True})).correct
    assert not _check(db, cells, _record(query, {"loose": False})).correct


def test_checks_reject_a_wrong_group(db, cells):
    query = ("pi-sphere", "sphere", 6, 9, None, None, None)  # C24
    assert _check(db, cells, _record(query, {"group": [0, [24]]})).correct
    assert not _check(db, cells, _record(query, {"group": [0, [12]]})).correct


def test_pins(db, cells):
    right = {"loose": True, "nielsen": 0, "mcc": 0, "mc": 0}
    key = workload.query_key(CLASSIFY)
    pinned = {key: answers.pin_of(answers.OK, right)}
    assert _check(db, cells, _record(CLASSIFY, right), pinned).correct

    changed = _check(db, cells, _record(CLASSIFY, right), {key: "ok:0" * 4})
    assert not changed.correct and changed.pin_failed_ops == 1

    regressed = _check(db, cells, _record(CLASSIFY, None, answers.UNKNOWN), pinned)
    assert regressed.correct and regressed.pin_failed_ops == 1

    resolved = _check(db, cells, _record(CLASSIFY, right), {key: "unknown"})
    assert resolved.correct and resolved.newly_resolved == 1


def test_known_refusals_are_counted_apart_from_failures(db, cells):
    query = ("pi-space", "rp", 1, 3, None, None, None)  # KP(1), refused today
    message = "pi_m(KP(n')) is computed for m, n' >= 2 only"
    refusals = {answers.refusal_key("cli", query): answers.message_shape(message)}

    known = answers.Outcomes(refusals, "cli")
    known.add(query, answers.FAILED, None, message)
    assert (known.refused, known.failed) == (1, 0)

    other = answers.Outcomes(refusals, "cli")
    other.add(query, answers.FAILED, None, "sphere dimensions must be >= 1")
    other.add(("pi-space", "rp", 2, 3, None, None, None), answers.FAILED, None, message)
    assert (other.refused, other.failed) == (0, 2)

    resolved = answers.Outcomes(refusals, "cli")
    resolved.add(query, answers.OK, {"group": [0, []]})
    assert _check(db, cells, resolved).newly_resolved == 1


def test_refusal_key_tells_a_dash_argument_from_a_negative_number():
    def key(f1):
        return answers.refusal_key("cli", ("classify", "sphere", 4, 7, f1, "0,1", None))

    assert key("-1") == key("1,0") != key("-1,8")
    assert answers.refusal_key("library", ("classify", "sphere", 4, 7, "-1,8", "0,1", None)) \
        == answers.refusal_key("library", ("classify", "sphere", 4, 7, "1,8", "0,1", None))


def test_self_time_sums_to_span_total():
    # root [0, 100] with children [10, 40] and [50, 90]; the second child
    # has a grandchild [60, 70]
    spans = [
        (0, -1, "root", 0, 100),
        (1, 0, "a", 10, 40),
        (2, 0, "b", 50, 90),
        (3, 2, "c", 60, 70),
    ]
    selfs = self_times(spans)
    assert selfs == {0: 30, 1: 30, 2: 30, 3: 10}
    assert sum(selfs.values()) == 100
    summary = summarize(spans)
    assert summary["b"] == {"calls": 1, "total_ms": 40e-6, "self_ms": 30e-6}


def test_tracer_patches_every_binding(db):
    from coincalc import coincidence, fibration

    original = fibration.pi_projective
    tracer = Tracer()
    tracer.install()
    try:
        assert coincidence.pi_projective is fibration.pi_projective
        assert coincidence.pi_projective is not original
        answers.library_call(db, CLASSIFY, {("rp", 6, 9): answers.shape_group((0, (24,)))})
    finally:
        tracer.uninstall()
    assert coincidence.pi_projective is original is fibration.pi_projective
    names = {s[2] for s in tracer.spans}
    assert {"coincidence.classify_projective_pair", "fibration.pi_projective",
            "fibration.boundary_kernel"} <= names
    assert tracer.counts["coincidence.classifier_builds"] == 1
    assert len(tracer.instances) == 1
    parents = {s[0]: s[1] for s in tracer.spans}
    top = [s for s in tracer.spans if s[1] == -1]
    assert [s[2] for s in top] == ["coincidence.classify_projective_pair"]
    assert all(parents[s[0]] >= 0 for s in tracer.spans if s not in top)
