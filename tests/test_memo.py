"""The per-database memo of instance data.

A warm ``Database`` must answer, and trace, exactly like a fresh one;
a gap is never stored; repeating a query stores nothing new.
"""

from __future__ import annotations

import random
import re
import sys
import threading
from collections import Counter
from math import inf

import pytest

from coincalc import (
    Grassmannian2,
    ProjectiveSpace,
    Sphere,
    classify_projective_pair,
    classify_sphere_pair,
    filtration_subgroup,
    loose_pair,
    pi_projective,
)
from coincalc.errors import GapError, UsageError
from coincalc.fibration import boundary_kernel
from coincalc.homotopy_db import Database
from coincalc.trace import Trace

STAGES = (1, 2, 3, inf)


def fresh(db) -> Database:
    """A database over the same records with an empty memo."""
    return Database(db.range, db.sphere_records(), db.hom_records())


def _spaces():
    for n in (1, 2, 3, 4, 6, 7, 8):
        yield Sphere(n), range(1, n + 6)
    for n_prime in (2, 3, 4, 5, 6, 7):
        yield ProjectiveSpace("R", n_prime), range(1, n_prime + 7)
    for n_prime in (2, 3, 4, 5):
        yield ProjectiveSpace("C", n_prime), range(2, 2 * n_prime + 7)
    yield ProjectiveSpace("H", 2), range(2, 14)
    yield Grassmannian2(6), range(3, 8)


def _group(db, space, m):
    if isinstance(space, Sphere):
        return db.pi_sphere(m, space.n)
    return pi_projective(db, space.k, m, space.n_prime).total


def _element(rng, group):
    free = [rng.randint(-2, 2) for _ in range(group.free_rank)]
    return group.element(free + [rng.randrange(t) for t in group.torsion])


def queries(db):
    """``classify``, ``loose`` and every filtration stage on each cell."""
    rng = random.Random(20061)
    out = []
    for space, ms in _spaces():
        for m in ms:
            out += [("filtration", space, m, q, None) for q in STAGES]
            if isinstance(space, Grassmannian2):
                out.append(("loose", space, m, None, None))
                continue
            try:
                group = _group(db, space, m)
            except (GapError, UsageError):
                continue
            pairs = [(_element(rng, group), _element(rng, group))]
            if not group.is_trivial:
                z = _element(rng, group)
                pairs.append((z, z))  # equal classes reach the kernel cases
            for x1, x2 in pairs:
                out += [("classify", space, m, x1, x2),
                        ("loose", space, m, x1, x2)]
    return out


def _answer(result):
    sub = getattr(result, "subgroup", None)
    if sub is None:
        return result
    return (result.q, result.stabilized_at, sub.canonical_form,
            tuple(g.coords for g in sub.canonical_generators))


def run(db, query):
    """``(outcome, answer or message, trace entries)`` of one query."""
    cmd, space, m, a, b = query
    trace = Trace()
    try:
        if cmd == "filtration":
            res = filtration_subgroup(db, space, m, a, trace)
        elif cmd == "loose":
            res = loose_pair(db, space, m, a, b, trace)
        elif isinstance(space, Sphere):
            res = classify_sphere_pair(db, m, space.n, a, b, trace)
        else:
            res = classify_projective_pair(db, space.k, m, space.n_prime, a, b,
                                           trace)
    except (GapError, UsageError) as exc:
        return type(exc).__name__, str(exc), trace.entries
    return "ok", _answer(res), trace.entries


def test_warm_database_answers_and_traces_like_a_fresh_one(db):
    qs = queries(db)
    outcomes = {run(fresh(db), q)[0] for q in qs}
    assert outcomes == {"ok", "GapError", "UsageError"}
    warm = fresh(db)
    rng = random.Random(7)
    for _ in range(2):
        rng.shuffle(qs)
        for q in qs:
            assert run(warm, q) == run(fresh(db), q), q


@pytest.mark.parametrize("k, m, n_prime", [("R", 9, 6), ("C", 4, 2), ("H", 9, 2)])
def test_partially_warm_database_traces_like_a_fresh_one(db, k, m, n_prime):
    """Nested memo entries: stage 2 goes through ``pi_projective`` and then
    the boundary kernel, with only the first (or only the second) warm."""
    space = ProjectiveSpace(k, n_prime)
    x = pi_projective(db, k, m, n_prime).total.zero()
    for warm_up in (
        lambda d: pi_projective(d, k, m, n_prime, Trace()),
        lambda d: boundary_kernel(d, k, m, n_prime, Trace()),
        lambda d: filtration_subgroup(d, space, m, 1, Trace()),
    ):
        for q in STAGES:
            for query in (("filtration", space, m, q, None),
                          ("classify", space, m, x, x),
                          ("loose", space, m, x, x)):
                warm = fresh(db)
                warm_up(warm)
                expected = run(fresh(db), query)
                assert expected[0] == "ok"
                assert run(warm, query) == expected


@pytest.mark.parametrize("space, m, q, rules", [
    (ProjectiveSpace("R", 6), 9, 2, ["projective-filtration-collapse",
                                     "projective-splitting", "suspension-stable-identity",
                                     "stable-boundary-transport"]),
    (Sphere(6), 9, 3, ["sphere-filtration-tangent-lift", "suspension-stable-identity",
                       "stable-boundary-transport"]),
    (ProjectiveSpace("H", 2), 9, inf, ["projective-filtration-collapse",
                                       "projective-splitting",
                                       "boundary-trivial-side"]),
])
def test_memoized_rules_are_replayed_on_every_call(db, space, m, q, rules):
    d = fresh(db)
    for _ in range(2):
        trace = Trace()
        filtration_subgroup(d, space, m, q, trace)
        assert trace.entries == rules


@pytest.mark.parametrize("call, key, rules", [
    (lambda d, t: boundary_kernel(d, "C", 6, 2, t),
     ("boundary_kernel", "C", 6, 2), []),
    (lambda d, t: filtration_subgroup(d, ProjectiveSpace("C", 2), 6, 2, t),
     ("filtration", ProjectiveSpace("C", 2), 6, 2),
     ["projective-filtration-collapse", "projective-splitting"]),
    (lambda d, t: filtration_subgroup(d, Sphere(4), 7, 3, t),
     ("filtration", Sphere(4), 7, 3), ["sphere-filtration-tangent-lift"]),
    (lambda d, t: pi_projective(d, "R", 30, 6, t),
     ("pi_projective", "R", 30, 6), []),
])
def test_gap_is_raised_every_time_and_never_stored(db, call, key, rules):
    """A failed build stores nothing and keeps the rules it noted."""
    d = fresh(db)
    messages = []
    for _ in range(2):
        trace = Trace()
        with pytest.raises(GapError) as exc:
            call(d, trace)
        messages.append(str(exc.value))
        assert key not in d._memo
        assert trace.entries == rules
    assert messages[0] == messages[1]


def test_repeating_queries_adds_no_memo_entries(db):
    d = fresh(db)
    qs = queries(db)
    for q in qs:
        run(d, q)
    filled = set(d._memo)
    assert len(filled) > 100
    for q in qs:
        run(d, q)
    assert set(d._memo) == filled


def test_filtration_stages_share_the_stabilized_entry(db):
    d = fresh(db)
    for space, m in ((Sphere(6), 9), (ProjectiveSpace("R", 6), 9)):
        for q in (3, 4, 7, inf):
            filtration_subgroup(d, space, m, q)
    stages = sorted(key[3] for key in d._memo if key[0] == "filtration")
    assert stages == [2, 3]


def test_threads_filling_one_database_agree_with_a_fresh_one(db):
    """Racing first fills may build twice; every thread must still see the
    answers and traces of a fresh database."""
    qs = queries(db)[::2]
    expected = [run(fresh(db), q) for q in qs]
    shared = fresh(db)
    results = {}

    def worker(seed):
        order = list(range(len(qs)))
        random.Random(seed).shuffle(order)
        got = {i: run(shared, qs[i]) for i in order}
        results[seed] = [got[i] for i in range(len(qs))]

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(results) == [0, 1, 2, 3]
    for got in results.values():
        assert got == expected


def test_the_documented_memo_keys_are_the_stored_ones(capsys, monkeypatch):
    """The ``Database`` docstring calls itself the one list of its memo
    keys; a fresh table asked every command that reaches a key, then
    ``validate-db``, stores exactly the key heads it names."""
    from coincalc import cli

    documented = set(re.findall(r'``\("(\w+)"', Database.__doc__))
    monkeypatch.setattr(cli, "_loaded", None)
    monkeypatch.delenv(cli.ENV_DB, raising=False)
    for argv in (
        ["classify", "--space", "sphere", "--n", "6", "--m", "9", "--f1", "1", "--f2", "0"],
        ["filtration", "--space", "rp", "--nprime", "6", "--m", "9", "--q", "inf"],
        ["validate-db"],
    ):
        assert cli.main(argv) == cli.EXIT_OK, argv
    capsys.readouterr()
    assert {key[0] for key in cli._loaded[1]._memo} == documented


def test_a_warm_validate_db_builds_nothing_and_decides_every_identity(db, monkeypatch):
    """Work done by a second ``validate-db`` on one table, counted (counts
    are deterministic, so a regression shows that timing noise would
    hide): no subgroup or homomorphism is built, lattice solves stay at or
    below what the cached comparisons reach, and each instance with a
    nonzero lift group still has identities (i)-(iii) compared, (iii) as
    the kept q o A against q, on the classifiers ``validate-db`` holds."""
    from collections import Counter

    from coincalc import cli
    from coincalc.abelian import GroupHom, Subgroup, _Snf

    d = fresh(db)
    cold = cli._run_db_checks(d)
    calls, compared = Counter(), set()

    def counted(owner, name, record=False):
        original = getattr(owner, name)

        def wrapper(self, *args):
            calls[owner.__name__, name] += 1
            if record:
                compared.add((name, id(self), id(args[0])))
            return original(self, *args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(Subgroup, "__init__")
    counted(_Snf, "coefficients")
    counted(GroupHom, "__init__")
    counted(Subgroup, "contains_subgroup", record=True)
    counted(Subgroup, "__eq__", record=True)
    counted(GroupHom, "__eq__", record=True)
    assert cli._run_db_checks(d) == cold
    assert calls["Subgroup", "__init__"] == 0
    assert calls["_Snf", "coefficients"] <= 146
    assert calls["GroupHom", "__init__"] == 0
    nonzero = Counter()
    for _, cls in d._memo[("exclusivity_checks",)][0]:
        if cls.pg.sphere_group.is_trivial:
            continue
        ker_susp = cls.suspended_kernel
        assert ("contains_subgroup", id(ker_susp), id(cls.kernel)) in compared
        if cls.k == "R":
            assert ("__eq__", id(cls.fixed), id(ker_susp)) in compared
            q = cls.suspension_quotient
            assert ("__eq__", id(cls.quotient_of_antipode), id(q)) in compared
        nonzero[cls.k] += 1
    assert sum(nonzero.values()) == 55


def test_a_warm_decision_builds_no_element_hom_or_subgroup(db, monkeypatch):
    """Once a table is warm, one classify or loose call decides its pair on
    reduced coordinates: it builds no ``GroupElement`` (counted where
    ``bench/tracer.py`` counts them, in ``__post_init__``), no
    ``GroupHom``, no ``Subgroup``, no ``CoincidenceVerdict`` and no
    ``LooseAnswer``."""
    from coincalc.abelian import GroupElement, GroupHom, Subgroup
    from coincalc.coincidence import CoincidenceVerdict, LooseAnswer

    d = fresh(db)
    rp = pi_projective(d, "R", 9, 6).total
    cp = pi_projective(d, "C", 12, 4).total
    s = d.pi_sphere(9, 6)
    r1, r5, c1, c3 = rp.element([1]), rp.element([5]), cp.element([1]), cp.element([3])
    s1, s5 = s.element([1]), s.element([5])
    asks = {
        "R, z1 = z2": (lambda: classify_projective_pair(d, "R", 9, 6, r1, r1),
                       "projective-case-3"),
        "R, z1 != z2": (lambda: classify_projective_pair(d, "R", 9, 6, r1, r5),
                        "projective-case-4"),
        "C, z1 = z2": (lambda: classify_projective_pair(d, "C", 12, 4, c1, c1),
                       "projective-case-1"),
        "C, z1 != z2": (lambda: classify_projective_pair(d, "C", 12, 4, c1, c3),
                        "projective-case-7"),
        "sphere": (lambda: classify_sphere_pair(d, 9, 6, s1, s5),
                   "sphere-suspended-difference"),
        "sphere loose": (lambda: loose_pair(d, Sphere(6), 9, s1, s5),
                         "sphere-antipodal-test"),
        "RP loose": (lambda: loose_pair(d, ProjectiveSpace("R", 6), 9, r1, r1),
                     "projective-frame-lift-test"),
        "G loose": (lambda: loose_pair(d, Grassmannian2(6), 9),
                    "grassmann-even-complement"),
    }
    for ask, _ in asks.values():
        ask()
    builds = Counter()
    for owner, name in ((GroupElement, "__post_init__"), (GroupHom, "__init__"),
                        (Subgroup, "__init__"), (CoincidenceVerdict, "__init__"),
                        (LooseAnswer, "__init__")):
        def counted(self, *args, _original=owner.__dict__[name], _owner=owner):
            builds[_owner.__name__] += 1
            return _original(self, *args)

        monkeypatch.setattr(owner, name, counted)
    for label, (ask, rule) in asks.items():
        assert ask().rule == rule, label
        assert not builds, (label, builds)


def test_the_decision_maps_act_on_the_lift_group(db):
    """The decision feeds lift coordinates to A, the two boundary kernels
    and the suspension quotient with no group check, so on every
    projective instance of the window each of them that resolves must act
    on the lift group pi_m(S^{n+d-1}), the codomain of the lift
    projection; on every sphere cell A and the quotient act on pi_m(S^n)."""
    from coincalc.coincidence import ProjectiveClassifier, SphereClassifier
    from coincalc.homotopy_db import FIELDS, field_dim

    rng = db.range
    groups = {"antipodal": "domain", "kernel": "ambient",
              "suspended_kernel": "ambient", "suspension_quotient": "domain"}
    checked = Counter()
    for k in FIELDS:
        d = field_dim(k)
        for n_prime in range(2, rng.n_max + 1):
            for m in range(2, d * n_prime + d + rng.stem_max):
                try:
                    cls = ProjectiveClassifier(db, k, m, n_prime)
                except GapError:
                    continue
                lift = cls.pg.sphere_group
                assert cls.pg.lift_projection.codomain == lift
                for attr, side in groups.items():
                    try:
                        value = getattr(cls, attr)
                    except GapError:
                        continue
                    assert getattr(value, side) == lift, (k, m, n_prime, attr)
                    checked[attr] += 1
    for n in range(rng.n_min, rng.n_max + 1):
        for m in range(1, n + rng.stem_max + 1):
            try:
                cls = SphereClassifier(db, m, n)
            except GapError:
                continue
            assert cls.antipodal.domain == cls.group, (m, n)
            checked["sphere antipodal"] += 1
            try:
                quotient = cls.suspension_quotient if min(m, n) >= 2 else None
            except GapError:
                continue
            if quotient is not None:
                assert quotient.domain == cls.group, (m, n)
                checked["sphere suspension_quotient"] += 1
    assert checked == {"antipodal": 459, "suspension_quotient": 455, "kernel": 410,
                       "suspended_kernel": 410, "sphere antipodal": 172,
                       "sphere suspension_quotient": 148}
