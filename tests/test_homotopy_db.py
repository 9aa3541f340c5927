"""Database loading, lookups, structure maps and seeded faults."""

from __future__ import annotations

import json
import re

import pytest

from coincalc.abelian import FgAbGroup
from coincalc import homotopy_db
from coincalc.errors import DataError, GapError
from coincalc.homotopy_db import (
    DEFAULT_DB_PATH,
    FIELDS,
    Database,
    DatabaseRange,
    HOM_KINDS,
    SCHEMA_PATH,
    SphereGroupRecord,
    StructureHomRecord,
    build_database,
    lift_dim,
    load_database,
    load_default_database,
)
from coincalc.trace import Trace

from conftest import add_suspension_record, rebuilt, write_db


# --- loading -------------------------------------------------------------------


def test_shipped_db_loads_with_pinned_values(db):
    assert db.pi_sphere(9, 6) == FgAbGroup(0, (24,))
    assert db.pi_sphere(17, 10) == FgAbGroup(0, (240,))
    assert db.pi_sphere(8, 5) == FgAbGroup(0, (24,))


def test_shipped_db_matches_schema(raw_db_doc):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text("utf-8"))
    jsonschema.validate(raw_db_doc, schema)


def test_shipped_db_is_in_its_canonical_serialization(raw_db_doc):
    # scripted record edits rewrite the file in this form, so that their
    # diffs hold only the records they touch
    text = DEFAULT_DB_PATH.read_text("utf-8")
    assert text == json.dumps(raw_db_doc, indent=1, ensure_ascii=False) + "\n"


def test_schema_kinds_are_the_loader_kinds():
    # the format declares its hom kinds twice: in the schema and in HOM_KINDS
    schema = json.loads(SCHEMA_PATH.read_text("utf-8"))
    kinds = schema["properties"]["homs"]["items"]["properties"]["kind"]["enum"]
    assert tuple(kinds) == HOM_KINDS


def test_bad_divisibility_chain_rejected(tmp_path, db_doc):
    db_doc["sphere_groups"][0].update({"free_rank": 0, "torsion": [4, 2]})
    key = (db_doc["sphere_groups"][0]["m"], db_doc["sphere_groups"][0]["n"])
    with pytest.raises(DataError, match="divisibility"):
        load_database(write_db(tmp_path, db_doc))


def test_empty_document_gives_empty_database(tmp_path):
    path = write_db(tmp_path, {})
    empty = load_database(path)
    with pytest.raises(GapError):
        empty.pi_sphere(9, 6)
    # analytic cases still answer without any records
    assert empty.pi_sphere(3, 5).is_trivial
    assert empty.pi_sphere(4, 4) == FgAbGroup(1, ())


def test_a_huge_window_is_checked_only_where_records_answer():
    # rows n = 1 and cells m = n answer by rule; any other cell needs a
    # record, so a huge window fails at its first hole instead of looping
    huge = 10**18
    assert build_database({"range": {"n_min": 1, "n_max": huge, "stem_max": 0}})
    assert build_database({"range": {"n_min": 1, "n_max": 1, "stem_max": huge}})
    with pytest.raises(DataError, match=r"range hole: pi_3\(S\^2\)"):
        build_database({"range": {"n_min": 1, "n_max": huge, "stem_max": huge}})


def test_unreadable_file_is_a_data_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", "utf-8")
    with pytest.raises(DataError):
        load_database(path)
    with pytest.raises(DataError):
        load_database(tmp_path / "missing.json")


def test_non_utf8_file_is_a_data_error(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
    # json.loads would read these bytes as UTF-16; the format is UTF-8
    with pytest.raises(DataError, match=f"cannot read database {re.escape(str(path))}: "
                                        ".*'utf-8' codec"):
        load_database(path)


def test_too_deep_nesting_is_a_data_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000, "utf-8")
    with pytest.raises(DataError, match=f"cannot read database {re.escape(str(path))}: "
                                        "maximum recursion depth"):
        load_database(path)


# --- sphere lookups ---------------------------------------------------------------


def test_pi_sphere_analytic_rules(db):
    assert db.pi_sphere(3, 5).is_trivial  # m < n
    assert db.pi_sphere(6, 6) == FgAbGroup(1, ())  # degree
    assert db.pi_sphere(9, 1).is_trivial  # circle above degree 1
    # the rules answer with one shared value each
    assert db.pi_sphere(3, 5) is db.pi_sphere(9, 1) is db.pi_sphere(11, 12)
    assert db.pi_sphere(6, 6) is db.pi_sphere(2, 2)
    assert db.pi_sphere(6, 6).labels == ("i",)
    with pytest.raises(GapError, match="not in the database"):
        db.pi_sphere(40, 12)


def test_forced_value_validation(tmp_path, db_doc):
    db_doc["sphere_groups"].append(
        {"m": 4, "n": 4, "free_rank": 0, "torsion": [2], "provenance": "x"}
    )
    with pytest.raises(DataError, match=r"^sphere_groups\[4,4\]: the lookup gives Z, "
                                        r"the record holds C2$"):
        load_database(write_db(tmp_path, db_doc))


# --- suspensions --------------------------------------------------------------------


def test_suspension_stable_identity(db):
    e = db.suspension(8, 5)
    assert e.domain == FgAbGroup(0, (24,))
    assert e.codomain == FgAbGroup(0, (24,))
    assert e.matrix == ((1,),)
    assert e.kernel().is_trivial and e.is_surjective()


def test_suspension_degree_and_trivial(db):
    e = db.suspension(6, 6)
    assert e.matrix == ((1,),)
    z = db.suspension(4, 6)  # trivial domain
    assert z.domain.is_trivial
    e2 = db.suspension(9, 5)  # trivial codomain
    assert e2.codomain.is_trivial and e2.is_zero


def test_suspension_missing_record_is_a_gap(db):
    with pytest.raises(GapError, match="suspension"):
        db.suspension(14, 6)


def _suspensions_to_n_max(db, m, n):
    """The suspensions pi_m(S^n) -> ... -> pi_{m+k}(S^12), composed."""
    composite = db.pi_sphere(m, n).identity_hom()
    for i in range(db.range.n_max - n):
        composite = db.suspension(m + i, n + i) @ composite
    return composite


def test_stable_suspension_composite(db):
    # nu' in pi_6(S^3) stabilizes to twice the stable generator
    e = _suspensions_to_n_max(db, 6, 3)
    assert e.codomain == FgAbGroup(0, (24,))
    assert e.matrix == ((2,),)
    # eta3 stabilizes to 12 * nu
    e2 = _suspensions_to_n_max(db, 5, 2)
    assert e2.matrix == ((12,),)


# --- antipodal actions ------------------------------------------------------------------


def test_antipodal_odd_identity(db):
    a = db.antipodal(10, 7)
    assert a == db.pi_sphere(10, 7).identity_hom()


def test_antipodal_stable_negation(db):
    a = db.antipodal(9, 6)
    g = db.pi_sphere(9, 6)
    assert a == g.multiplication_by(-1)


def test_antipodal_hopf_record(db):
    a = db.antipodal(3, 2)
    assert a == db.pi_sphere(3, 2).identity_hom()


def test_the_rules_give_the_records_they_replaced(db, db_doc):
    # the records the S^2 antipodal rule and the degree-cell boundary rule
    # replaced, with the matrices the table shipped
    replaced = [*((("antipodal", None, m, 2), ((1,),)) for m in range(3, 11)),
                (("boundary", "R", 2, 2), ((2,),))]
    stored = {(r.kind, r.field, r.m, r.n) for r in db.hom_records()}
    for (kind, k, m, n), matrix in replaced:
        trace = Trace()
        if kind == "antipodal":
            hom, rules = db.antipodal(m, n, trace), ["antipodal-s2-identity"]
        else:
            hom = db.boundary(k, m, n, trace)
            rules = ["suspension-degree", "stable-boundary-transport"]
        assert (hom.matrix, trace.entries) == (matrix, rules), (kind, k, m, n)
        assert (kind, k, m, n) not in stored
        # a record of another value there names itself; every group here
        # is cyclic, and zero is an endomorphism of each
        record = {"kind": kind, "m": m, "matrix": [[0]], "provenance": "x"}
        record.update({"K": k, "nprime": n} if k else {"n": n})
        db_doc["homs"].append(record)
        message = (f"{kind} ({k + ',' if k else ''}{m},{n}): the lookup gives "
                   f"[[{matrix[0][0]}]], the record holds [[0]]")
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            build_database(db_doc)
        db_doc["homs"].pop()


def test_antipodal_unknown_cell(db):
    with pytest.raises(GapError, match="antipodal"):
        db.antipodal(14, 6)


def test_antipodal_involution_everywhere(db):
    for rec in db.hom_records():
        if rec.kind == "antipodal":
            a = db.antipodal(rec.m, rec.n)
            assert (a @ a) == a.domain.identity_hom()


def test_antipodal_involution_wherever_defined(db):
    # includes the synthesized odd-n and stable-range routes
    rng = db.range
    defined = 0
    for n in range(rng.n_min, rng.n_max + 1):
        for m in range(1, n + rng.stem_max + 1):
            try:
                a = db.antipodal(m, n)
            except GapError:
                continue
            assert (a @ a) == a.domain.identity_hom(), (m, n)
            defined += 1
    assert defined > 80


# --- structure-hom geometry ----------------------------------------------------------------


def test_every_rule_answers_on_its_records_groups(db):
    # a rule maps between the groups a record of its cell would: suspension
    # and antipodal lookups one stem past the window, boundary lookups at
    # every instance the covered-instance walk reads, from n' = 1
    rng = db.range
    lookups = {"suspension": [], "antipodal": []}
    for n in range(1, rng.n_max + 1):
        for m in range(1, rng.n_max + rng.stem_max + 2):
            for kind in lookups:
                lookups[kind].append((getattr(db, kind), (m, n), (None, m, n)))
    lookups["boundary"] = [
        (db.boundary, (k, m, n_prime), (k, m, n_prime))
        for k in FIELDS
        for n_prime in range(1, rng.n_max + 1)
        for m in range(2, lift_dim(k, n_prime) + rng.stem_max + 1)
    ]
    resolved = {}
    for kind, calls in lookups.items():
        resolved[kind] = 0
        for lookup, args, cell in calls:
            try:
                hom = lookup(*args)
            except GapError:
                continue
            assert (hom.domain, hom.codomain) == db.hom_groups(kind, *cell), (kind, cell)
            resolved[kind] += 1
    assert resolved == {"suspension": 162, "antipodal": 184, "boundary": 620}


# --- boundary records ----------------------------------------------------------------------


def test_quaternionic_boundary_unknown(db):
    with pytest.raises(GapError, match="boundary unknown"):
        db.boundary("H", 11, 2)


def test_boundary_record_used_when_present(tmp_path, db_doc):
    # ship a fake boundary for (H, 11, 2): pi_11(S^11) = Z -> pi_10(S^7) = C24
    db_doc["homs"].append(
        {"kind": "boundary", "K": "H", "m": 11, "nprime": 2,
         "matrix": [[2]], "provenance": "synthetic test record"}
    )
    db2 = load_database(write_db(tmp_path, db_doc))
    from coincalc.fibration import boundary_kernel

    b = db2.boundary("H", 11, 2)
    assert b.matrix == ((2,),)
    # kernel of Z -> C24, x -> 2x is the subgroup 12Z, infinite cyclic
    ker = boundary_kernel(db2, "H", 11, 2)
    assert ker.canonical_form == FgAbGroup(1, ())
    assert ker.contains(b.domain.element([12]))
    assert not ker.contains(b.domain.element([6]))


def test_boundary_read_back_that_gaps_is_a_data_error(db_doc, monkeypatch):
    # the stable boundary at (R, 9, 6) looks up the suspension out of
    # pi_8(S^5) for its trace; no document makes that lookup gap, so it is
    # made to here, and the load names the boundary record it was reading
    # back
    suspension = Database.suspension

    def gapping(self, m, n, trace=None):
        if (m, n) == (8, 5):
            raise GapError("no suspension for pi_8(S^5)")
        return suspension(self, m, n, trace)

    monkeypatch.setattr(Database, "suspension", gapping)
    build_database(db_doc)
    _add_boundary_record("R", 9, 6, [[2]])(db_doc)
    with pytest.raises(DataError, match=re.escape(
            "boundary (R,9,6): no suspension for pi_8(S^5)")):
        build_database(db_doc)


@pytest.mark.parametrize("first", ["boundary", "suspension"])
def test_the_bad_suspension_is_named_whatever_the_record_order(db_doc, first):
    # the stable boundary at (R, 9, 6) is 2 whatever the suspension record
    # says, so a wrong suspension record is named in either order
    boundary = {"kind": "boundary", "K": "R", "m": 9, "nprime": 6,
                "matrix": [[2]], "provenance": "hand-built test record"}
    add_suspension_record(db_doc, 8, 5, [[2]])
    db_doc["homs"].insert(0 if first == "boundary" else len(db_doc["homs"]), boundary)
    with pytest.raises(DataError, match=re.escape(
            "suspension (8,5): the lookup gives [[1]], the record holds [[2]]")):
        build_database(db_doc)


# --- structure validation at load time ------------------------------------------------------------


def test_freudenthal_bijectivity_fault(tmp_path, db_doc):
    # doubling on pi_8(S^5) = C24 is no isomorphism; the rule's identity is
    add_suspension_record(db_doc, 8, 5, [[2]])
    with pytest.raises(DataError, match=r"^suspension \(8,5\): the lookup gives "
                                        r"\[\[1\]\], the record holds \[\[2\]\]$"):
        load_database(write_db(tmp_path, db_doc))


def test_a_directly_built_table_is_checked_for_freudenthal():
    # the stable suspension rule would answer with C4 -> C2 as its identity
    spheres = [SphereGroupRecord(8, 5, FgAbGroup(0, (4,)), "seeded record"),
               SphereGroupRecord(9, 6, FgAbGroup(0, (2,)), "seeded record")]
    with pytest.raises(DataError, match="^" + re.escape(
            "pi_8(S^5) = C4 and pi_9(S^6) = C2: suspension must be bijective "
            "in the stable range m < 2n-1") + "$"):
        Database(DatabaseRange(1, 0, 0), spheres, [])


def test_a_directly_built_table_is_checked_for_window_holes():
    with pytest.raises(DataError, match=re.escape(
            "range hole: pi_3(S^2) missing from the declared window")):
        Database(DatabaseRange(2, 2, 1), [], [])


def test_a_rebuilt_table_reads_its_records_back(db):
    doubling = StructureHomRecord("suspension", None, 8, 5, ((2,),), "seeded record")
    with pytest.raises(DataError, match="^" + re.escape(
            "suspension (8,5): the lookup gives [[1]], the record holds [[2]]") + "$"):
        rebuilt(db, hom_records=[doubling])


@pytest.mark.parametrize("matrix, message", [
    # pi_3(S^2) = Z and pi_4(S^3) = C2: one row of one entry
    (((1, 0),), "matrix must be 1 x 1"),
    (((1.5,),), "expected an integer, got 1.5"),
])
def test_a_directly_built_record_maps_between_its_cells_groups(db, matrix, message):
    records = [r for r in db.hom_records()
               if (r.kind, r.m, r.n) != ("suspension", 3, 2)]
    records.append(StructureHomRecord("suspension", None, 3, 2, matrix, "seeded record"))
    with pytest.raises(DataError, match="^" + re.escape(f"suspension (3,2): {message}") + "$"):
        Database(db.range, db.sphere_records(), records)


def test_a_load_checks_the_table_once(monkeypatch):
    calls = []
    check = homotopy_db._check_table
    monkeypatch.setattr(homotopy_db, "_check_table", lambda db: calls.append(check(db)))
    load_default_database()
    assert len(calls) == 1


def test_a_stable_identity_record_still_loads(db_doc):
    add_suspension_record(db_doc, 8, 5, [[1]])
    assert build_database(db_doc).suspension(8, 5).matrix == ((1,),)


def test_no_stable_suspension_is_stored(raw_db_doc):
    assert not [r for r in raw_db_doc["homs"]
                if r["kind"] == "suspension" and r["m"] < 2 * r["n"] - 1]


def test_every_stable_window_suspension_is_the_identity_rule(db):
    checked = 0
    for m, n in db.range.cells():
        if not m < 2 * n - 1:
            continue
        try:
            dom, cod = db.hom_groups("suspension", None, m, n)
        except GapError:
            assert n == db.range.n_max  # the codomain leaves the window
            continue
        if dom.is_trivial or cod.is_trivial:
            continue
        trace = Trace()
        e = db.suspension(m, n, trace)
        assert trace.entries == ["suspension-stable-identity"]
        assert (e.domain, e.codomain) == (dom, cod)
        assert e.codomain.labels == cod.labels
        assert e.matrix == tuple(tuple(int(i == j) for j in range(dom.ngens))
                                 for i in range(cod.ngens))
        checked += 1
    # the pairs that held an identity record before the rule, and no other
    assert checked == 33


def test_freudenthal_edge_surjectivity_fault(tmp_path, db_doc):
    for rec in db_doc["homs"]:
        if rec["kind"] == "suspension" and (rec["m"], rec["n"]) == (7, 4):
            rec["matrix"] = [[0, 2]]
    with pytest.raises(DataError, match=r"suspension \(7,4\)"):
        load_database(write_db(tmp_path, db_doc))


def test_range_hole_fault(tmp_path, db_doc):
    db_doc["sphere_groups"] = [
        r for r in db_doc["sphere_groups"] if (r["m"], r["n"]) != (8, 5)
    ]
    with pytest.raises(DataError, match=r"pi_8\(S\^5\)"):
        load_database(write_db(tmp_path, db_doc))


def test_antipodal_involution_fault(tmp_path, db_doc):
    # only the record answers pi_13(S^6) = C60, and 7 * 7 = 49 is not 1 mod 60
    for rec in db_doc["homs"]:
        if rec["kind"] == "antipodal" and (rec["m"], rec["n"]) == (13, 6):
            rec["matrix"] = [[7]]
    with pytest.raises(DataError, match=r"^antipodal \(13,6\): action is not an involution$"):
        load_database(write_db(tmp_path, db_doc))


def test_antipodal_record_in_stable_range(tmp_path, db_doc):
    # pi_9(S^6) = C24 is stable, where the antipodal map acts as -1
    db_doc["homs"].append(
        {"kind": "antipodal", "m": 9, "n": 6,
         "matrix": [[1]], "provenance": "bad synthetic record"}
    )
    with pytest.raises(DataError, match=r"^antipodal \(9,6\): the lookup gives "
                                        r"\[\[23\]\], the record holds \[\[1\]\]$"):
        load_database(write_db(tmp_path, db_doc))
    # and -1 loads fine
    db_doc["homs"][-1]["matrix"] = [[23]]
    load_database(write_db(tmp_path, db_doc))


# one record at each kind of cell a rule answers: it loads when it holds
# what the rule gives and names both values when it does not
@pytest.mark.parametrize("record, agreeing, match", [
    # below the diagonal, on it, and on S^1 above it
    ({"m": 3, "n": 5, "free_rank": 0, "torsion": [2]}, {"torsion": []},
     r"^sphere_groups\[3,5\]: the lookup gives 0, the record holds C2$"),
    ({"m": 4, "n": 4, "free_rank": 0, "torsion": [2]}, {"free_rank": 1, "torsion": []},
     r"^sphere_groups\[4,4\]: the lookup gives Z, the record holds C2$"),
    ({"m": 3, "n": 1, "free_rank": 0, "torsion": [2]}, {"torsion": []},
     r"^sphere_groups\[3,1\]: the lookup gives 0, the record holds C2$"),
    # suspension preserves the degree
    ({"kind": "suspension", "m": 5, "n": 5, "matrix": [[-1]]}, {"matrix": [[1]]},
     r"^suspension \(5,5\): the lookup gives \[\[1\]\], the record holds "
     r"\[\[-1\]\]$"),
    # 11 is an involution of pi_6(S^3) = C12, but odd n forces the identity
    ({"kind": "antipodal", "m": 6, "n": 3, "matrix": [[11]]}, {"matrix": [[1]]},
     r"^antipodal \(6,3\): the lookup gives \[\[1\]\], the record holds "
     r"\[\[11\]\]$"),
    # -1 on the stable pi_9(S^6) = C24
    ({"kind": "antipodal", "m": 9, "n": 6, "matrix": [[1]]}, {"matrix": [[23]]},
     r"^antipodal \(9,6\): the lookup gives \[\[23\]\], the record holds "
     r"\[\[1\]\]$"),
    # the antipodal map of S^2 lifts along the Hopf map: the identity on
    # pi_3(S^2) = Z, though -1 is an involution there too
    ({"kind": "antipodal", "m": 3, "n": 2, "matrix": [[-1]]}, {"matrix": [[1]]},
     r"^antipodal \(3,2\): the lookup gives \[\[1\]\], the record holds "
     r"\[\[-1\]\]$"),
    # the boundary pi_2(S^2) -> pi_1(S^1) is the Euler number 2 of S^2
    ({"kind": "boundary", "K": "R", "m": 2, "nprime": 2, "matrix": [[0]]},
     {"matrix": [[2]]},
     r"^boundary \(R,2,2\): the lookup gives \[\[2\]\], the record holds "
     r"\[\[0\]\]$"),
])
def test_record_at_a_rule_answered_cell_is_read_back(db_doc, record, agreeing, match):
    records = db_doc["homs" if "kind" in record else "sphere_groups"]
    records.append(dict(record, provenance="x"))
    with pytest.raises(DataError, match=match):
        build_database(db_doc)
    records[-1].update(agreeing)
    build_database(db_doc)


def test_loading_leaves_the_memo_empty():
    # reading records back must not warm the table, so that a freshly
    # loaded table traces like a cold one
    assert load_default_database()._memo == {}


def test_illdefined_hom_record_rejected(tmp_path, db_doc):
    db_doc["homs"].append(
        {"kind": "suspension", "m": 14, "n": 6,
         "matrix": [[1], [1], [1]], "provenance": "bad shape"}
    )
    with pytest.raises(DataError):
        load_database(write_db(tmp_path, db_doc))


def test_duplicate_sphere_record_rejected(tmp_path, db_doc):
    db_doc["sphere_groups"].append(dict(db_doc["sphere_groups"][0]))
    with pytest.raises(DataError, match="duplicate"):
        load_database(write_db(tmp_path, db_doc))


def test_duplicate_hom_record_rejected(db_doc):
    db_doc["homs"].append(dict(db_doc["homs"][0]))
    with pytest.raises(DataError,
                       match=r"^duplicate hom record \('suspension', None, 3, 2\)$"):
        build_database(db_doc)


def test_build_database_rejects_unknown_kind():
    with pytest.raises(DataError, match="unknown kind"):
        build_database(
            {"range": {"n_min": 1, "n_max": 1, "stem_max": 0},
             "sphere_groups": [], "homs": [
                 {"kind": "mystery", "m": 1, "matrix": [], "provenance": "x"}]}
        )


def _set_sphere_record(m, n, **fields):
    def mutate(doc):
        rec = next(r for r in doc["sphere_groups"] if (r["m"], r["n"]) == (m, n))
        rec.update(fields)
    return mutate


def _drop_sphere_key(m, n, key):
    def mutate(doc):
        rec = next(r for r in doc["sphere_groups"] if (r["m"], r["n"]) == (m, n))
        del rec[key]
    return mutate


def _add_boundary_record(k, m, n_prime, matrix, **fields):
    def mutate(doc):
        doc["homs"].append({"kind": "boundary", "K": k, "m": m, "nprime": n_prime,
                            "matrix": matrix, "provenance": "hand-built test record",
                            **fields})
    return mutate


def _add_suspension_record(m, n, matrix):
    return lambda doc: add_suspension_record(doc, m, n, matrix)


def _add_stable_pair_outside_the_window(doc):
    # groups the declared window never reaches, made unequal on purpose
    for m, n, t in ((30, 20, 2), (31, 21, 3)):
        doc["sphere_groups"].append({"m": m, "n": n, "free_rank": 0, "torsion": [t],
                                     "provenance": "seeded record"})


def _trivial_cell_without_suspensions(m, n, dropped):
    """Make pi_m(S^n) trivial and drop the suspension records at
    ``dropped``, whose matrices would no longer fit."""
    def mutate(doc):
        _set_sphere_record(m, n, torsion=[], labels=[])(doc)
        doc["homs"] = [r for r in doc["homs"] if not (
            r["kind"] == "suspension" and (r["m"], r["n"]) in dropped)]
    return mutate


def _set_suspension_matrix(m, n, matrix):
    def mutate(doc):
        rec = next(r for r in doc["homs"]
                   if (r["kind"], r["m"], r.get("n")) == ("suspension", m, n))
        rec["matrix"] = matrix
    return mutate


@pytest.mark.parametrize("mutate, match", [
    (lambda doc: doc.update(sphere_groups=[5]),
     r"sphere_groups\[0\]: record must be an object"),
    (lambda doc: doc.update(homs=["x"]), r"homs\[0\]: record must be an object"),
    (lambda doc: doc.update(range=5), "range must be an object"),
    (lambda doc: doc.update(homs=5), "homs must be a list"),
    (lambda doc: doc["range"].update(n_max=True), r"range\.n_max must be an integer"),
    (_set_sphere_record(3, 2, free_rank=True), r"sphere_groups\[3,2\]: free_rank"),
    (_set_sphere_record(9, 6, torsion=[True]),
     r"sphere_groups\[9,6\]: torsion must be a list of integers"),
    # homs[0] is the suspension pi_3(S^2) -> pi_4(S^3)
    (lambda doc: doc["homs"][0].update(matrix=[[True]]),
     r"homs\[0\] suspension record \(m=3\): matrix"),
    (lambda doc: doc["homs"][0].update(m=True), r"homs\[0\] suspension record: m"),
    (lambda doc: doc["homs"].append(dict(doc["homs"][0], m=40, n=12)),
     r"suspension \(40,12\): pi_40\(S\^12\) is not in the database"),
    (lambda doc: doc["homs"].append(dict(doc["homs"][0], m=0, n=0)),
     r"suspension \(0,0\): sphere dimensions"),
    # a present format must be this one; an absent one is read as it
    (lambda doc: doc.update(format="coincalc-homotopy-db/2"), "^format must be"),
    (lambda doc: doc.update(format=""), "^format must be"),
    (lambda doc: doc.update(format=True), "^format must be .*, got True$"),
    (lambda doc: doc.update(format=1), "^format must be .*, got 1$"),
    (lambda doc: doc.update(format=None), "^format must be .*, got None$"),
    (lambda doc: doc.update(format=["coincalc-homotopy-db/1"]), "^format must be"),
    # pi_8(S^5) = C24 -> pi_9(S^6) = C24 in the stable range: a record
    # there must be the identity the rule gives, which doubling is not
    (_add_suspension_record(8, 5, [[2]]),
     r"^suspension \(8,5\): the lookup gives \[\[1\]\], the record holds \[\[2\]\]$"),
    # the rule maps every stable pair whose groups resolve, in the window or not
    (_add_stable_pair_outside_the_window,
     r"^pi_30\(S\^20\) = C2 and pi_31\(S\^21\) = C3: suspension must be "
     r"bijective in the stable range m < 2n-1$"),
    # pi_5(S^3) = C2 -> pi_6(S^4) = C2 at the edge m = 2n-1
    (_set_suspension_matrix(5, 3, [[0]]),
     r"suspension \(5,3\): must be surjective at m = 2n-1"),
    # the same theorem on pairs of cells that have no suspension record:
    # a trivial pi_8(S^5) would answer C24 in C24 for the stage-3
    # filtration of pi_9(S^6), where the shipped table gives C2
    (_trivial_cell_without_suspensions(8, 5, ((7, 4),)),
     r"^pi_8\(S\^5\) = 0 and pi_9\(S\^6\) = C24: suspension must be "
     r"bijective in the stable range m < 2n-1$"),
    (_trivial_cell_without_suspensions(5, 3, ((4, 2), (5, 3))),
     r"^pi_5\(S\^3\) = 0 and pi_6\(S\^4\) = C2: suspension must be "
     r"surjective at m = 2n-1$"),
    # records for cells a rule answers must agree with the rule: pi_m(S^1)
    # is trivial for m >= 2, and suspension at m = n is the degree identity
    (lambda doc: doc["sphere_groups"].append(
        {"m": 3, "n": 1, "free_rank": 0, "torsion": [2], "provenance": "x"}),
     r"^sphere_groups\[3,1\]: the lookup gives 0, the record holds C2$"),
    (lambda doc: doc["homs"].append(
        {"kind": "suspension", "m": 5, "n": 5, "matrix": [[-1]], "provenance": "x"}),
     r"^suspension \(5,5\): the lookup gives \[\[1\]\], the record holds "
     r"\[\[-1\]\]$"),
    # what the schema rejects is read neither as a default nor ignored
    (lambda doc: doc.update(extra=1), r"^database document: unknown key\(s\) \['extra'\]$"),
    (lambda doc: doc.update(range=None), "^range must be an object$"),
    (lambda doc: doc["range"].update(extra=1), r"^range: unknown key\(s\) \['extra'\]$"),
    (lambda doc: doc["range"].update(n_min=0), r"^range\.n_min must be an integer >= 1$"),
    (lambda doc: doc["range"].update(stem_max=-1),
     r"^range\.stem_max must be an integer >= 0$"),
    (_set_sphere_record(9, 6, extra=1),
     r"^sphere_groups\[9,6\]: unknown key\(s\) \['extra'\]$"),
    (_drop_sphere_key(9, 6, "torsion"),
     r"^sphere_groups\[9,6\]: torsion must be a list of integers$"),
    (_set_sphere_record(3, 2, labels=None), r"^sphere_groups\[3,2\]: labels must be strings$"),
    # an empty list is a label count like any other
    (_set_sphere_record(9, 6, labels=[]),
     r"^sphere_groups\[9,6\]: label count must equal generator count$"),
    (lambda doc: doc["homs"][0].update(K=None), r"^homs\[0\] suspension record \(m=3\): K not allowed$"),
    (lambda doc: _add_boundary_record("R", 2, 1, [[2]])(doc),
     r"nprime must be an integer >= 2$"),
    # kinds outside HOM_KINDS, each as a well-formed record of its own shape
    (lambda doc: doc["homs"].append(
        {"kind": "stable_suspension", "m": 6, "n": 3, "matrix": [[2]],
         "provenance": "x"}),
     r"^homs\[\d+\]: hom record has unknown kind 'stable_suspension'$"),
    (lambda doc: doc["homs"].append(
        {"kind": "stiefel_projection", "K": "R", "m": 9, "nprime": 6,
         "domain_free_rank": 0, "domain_torsion": [24], "matrix": [[1]],
         "provenance": "x"}),
     r"^homs\[\d+\]: hom record has unknown kind 'stiefel_projection'$"),
    # each kind has its own key set
    (lambda doc: doc["homs"][0].update(typo_matrix=[[1]]),
     r"^homs\[0\] suspension record \(m=3\): unknown key\(s\) \['typo_matrix'\]$"),
    (lambda doc: _add_boundary_record("R", 2, 2, [[2]], n=3)(doc),
     r"^homs\[\d+\] boundary record \(m=\d+\): unknown key\(s\) \['n'\]$"),
    (lambda doc: next(r for r in doc["homs"] if r["kind"] == "antipodal").update(nprime=3),
     r"^homs\[\d+\] antipodal record \(m=\d+\): unknown key\(s\) \['nprime'\]$"),
    # boundary records read back under the rules: n' = 5 is odd, so the
    # frame bundle has a section and the boundary is zero ...
    (_add_boundary_record("R", 9, 5, [[1], [0]]),
     r"^boundary \(R,9,5\): the lookup gives \[\[0\], \[0\]\], "
     r"the record holds \[\[1\], \[0\]\]$"),
    # ... in the stable range the boundary is 2 transported along suspension ...
    (_add_boundary_record("R", 9, 6, [[0]]),
     r"^boundary \(R,9,6\): the lookup gives \[\[2\]\], the record holds \[\[0\]\]$"),
    # ... and out of pi_10(S^6) = 0 it is zero: a trivial group has no
    # generators, so a nonzero record does not even have the right shape
    (_add_boundary_record("R", 10, 6, [[1]]), r"^boundary \(R,10,6\): matrix must be 1 x 0$"),
])
def test_malformed_document_is_a_data_error(db_doc, mutate, match):
    mutate(db_doc)
    with pytest.raises(DataError, match=match):
        build_database(db_doc)
