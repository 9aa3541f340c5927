"""Database loading, lookups, structure maps and seeded faults."""

from __future__ import annotations

import json

import pytest

from coincalc.abelian import FgAbGroup
from coincalc.errors import DataError, GapError, UsageError
from coincalc.homotopy_db import (
    SCHEMA_PATH,
    build_database,
    load_database,
)

from conftest import write_db


# --- loading -------------------------------------------------------------------


def test_shipped_db_loads_with_pinned_values(db):
    assert db.pi_sphere(9, 6) == FgAbGroup(0, (24,))
    assert db.pi_sphere(17, 10) == FgAbGroup(0, (240,))
    assert db.pi_sphere(8, 5) == FgAbGroup(0, (24,))


def test_shipped_db_matches_schema(raw_db_doc):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text("utf-8"))
    jsonschema.validate(raw_db_doc, schema)


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


def test_unreadable_file_is_a_data_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", "utf-8")
    with pytest.raises(DataError):
        load_database(path)
    with pytest.raises(DataError):
        load_database(tmp_path / "missing.json")


# --- sphere lookups ---------------------------------------------------------------


def test_pi_sphere_analytic_rules(db):
    assert db.pi_sphere(3, 5).is_trivial  # m < n
    assert db.pi_sphere(6, 6) == FgAbGroup(1, ())  # degree
    assert db.pi_sphere(9, 1).is_trivial  # circle above degree 1
    with pytest.raises(GapError, match="not in the database"):
        db.pi_sphere(40, 12)


def test_forced_value_validation(tmp_path, db_doc):
    db_doc["sphere_groups"].append(
        {"m": 4, "n": 4, "free_rank": 0, "torsion": [2], "provenance": "x"}
    )
    with pytest.raises(DataError, match="infinite cyclic"):
        load_database(write_db(tmp_path, db_doc))


# --- suspensions --------------------------------------------------------------------


def test_suspension_stable_identity(db):
    e = db.suspension(8, 5)
    assert e.domain == FgAbGroup(0, (24,))
    assert e.codomain == FgAbGroup(0, (24,))
    assert e.matrix == ((1,),)
    assert e.is_bijective()


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


def test_stable_suspension_composite(db):
    # nu' in pi_6(S^3) stabilizes to twice the stable generator
    e = db.stable_suspension(6, 3)
    assert e.codomain == FgAbGroup(0, (24,))
    assert e.matrix == ((2,),)
    # eta3 stabilizes to 12 * nu
    e2 = db.stable_suspension(5, 2)
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


def test_antipodal_unknown_cell(db):
    with pytest.raises(GapError, match="antipodal"):
        db.antipodal(14, 6)


def test_antipodal_involution_everywhere(db):
    for rec in db.hom_records():
        if rec.kind == "antipodal":
            assert (rec.hom @ rec.hom) == rec.hom.domain.identity_hom()


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


# --- boundary records ----------------------------------------------------------------------


def test_quaternionic_boundary_unknown(db):
    from coincalc.fibration import boundary_hom

    with pytest.raises(GapError, match="boundary unknown"):
        boundary_hom(db, "H", 11, 2)


def test_boundary_record_used_when_present(tmp_path, db_doc):
    # ship a fake boundary for (H, 11, 2): pi_11(S^11) = Z -> pi_10(S^7) = C24
    db_doc["homs"].append(
        {"kind": "boundary", "K": "H", "m": 11, "nprime": 2,
         "matrix": [[2]], "provenance": "synthetic test record"}
    )
    db2 = load_database(write_db(tmp_path, db_doc))
    from coincalc.fibration import boundary_hom, boundary_kernel

    b = boundary_hom(db2, "H", 11, 2)
    assert b.matrix == ((2,),)
    # kernel of Z -> C24, x -> 2x is the subgroup 12Z, infinite cyclic
    ker = boundary_kernel(db2, "H", 11, 2)
    assert ker.canonical_form == FgAbGroup(1, ())
    assert ker.contains(b.domain.element([12]))
    assert not ker.contains(b.domain.element([6]))


# --- Stiefel manifolds -------------------------------------------------------------------------


def test_stiefel_split_values(db):
    assert db.pi_stiefel_real(3, 4) == FgAbGroup(2, ())
    assert db.pi_stiefel_real(8, 10) == FgAbGroup(1, ())
    assert db.pi_stiefel_real(5, 8).is_trivial  # m < r - 2
    with pytest.raises(UsageError):
        db.pi_stiefel_real(3, 5)
    with pytest.raises(UsageError):
        db.pi_stiefel_real(2, 4)


# --- structure validation at load time ------------------------------------------------------------


def test_freudenthal_bijectivity_fault(tmp_path, db_doc):
    for rec in db_doc["homs"]:
        if rec["kind"] == "suspension" and (rec["m"], rec["n"]) == (8, 5):
            rec["matrix"] = [[2]]
    with pytest.raises(DataError, match=r"suspension \(8,5\)"):
        load_database(write_db(tmp_path, db_doc))


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
    for rec in db_doc["homs"]:
        if rec["kind"] == "antipodal" and (rec["m"], rec["n"]) == (3, 2):
            rec["matrix"] = [[2]]
    with pytest.raises(DataError, match=r"antipodal \(3,2\)"):
        load_database(write_db(tmp_path, db_doc))


def test_stable_suspension_record_consistency(tmp_path, db_doc):
    # [[4]] is a homomorphism C12 -> C24, so the parse passes and the
    # consistency check is what rejects it
    db_doc["homs"].append(
        {"kind": "stable_suspension", "m": 6, "n": 3,
         "matrix": [[4]], "provenance": "bad synthetic record"}
    )
    with pytest.raises(DataError, match=r"stable_suspension \(6,3\): disagrees "
                                        r"with the composite"):
        load_database(write_db(tmp_path, db_doc))
    # and the correct value loads fine
    db_doc["homs"][-1]["matrix"] = [[2]]
    db2 = load_database(write_db(tmp_path, db_doc))
    assert db2.stable_suspension(6, 3).matrix == ((2,),)


def test_antipodal_record_in_stable_range(tmp_path, db_doc):
    # pi_9(S^6) = C24 is stable, where the antipodal map acts as -1
    db_doc["homs"].append(
        {"kind": "antipodal", "m": 9, "n": 6,
         "matrix": [[1]], "provenance": "bad synthetic record"}
    )
    with pytest.raises(DataError, match=r"antipodal \(9,6\): disagrees with "
                                        r"the stable-range action"):
        load_database(write_db(tmp_path, db_doc))
    # and -1 loads fine
    db_doc["homs"][-1]["matrix"] = [[23]]
    load_database(write_db(tmp_path, db_doc))


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
    # pi_8(S^5) = C24 -> pi_9(S^6) = C24: doubling is neither onto nor one-to-one
    (_set_suspension_matrix(8, 5, [[2]]),
     r"suspension \(8,5\): must be bijective in the stable range"),
    # pi_5(S^3) = C2 -> pi_6(S^4) = C2 at the edge m = 2n-1
    (_set_suspension_matrix(5, 3, [[0]]),
     r"suspension \(5,3\): must be surjective at m = 2n-1"),
])
def test_malformed_document_is_a_data_error(db_doc, mutate, match):
    mutate(db_doc)
    with pytest.raises(DataError, match=match):
        build_database(db_doc)
