"""Projective splitting, boundary synthesis and exactness validation."""

from __future__ import annotations

import copy
import random

import pytest

from coincalc.abelian import FgAbGroup, GroupHom
from coincalc.errors import DataError, GapError, UsageError
from coincalc.fibration import (
    ProjectiveSpace,
    boundary_kernel,
    exactness_report,
    pi_projective,
    suspended_boundary_kernel,
    validate_exactness,
)

from coincalc.homotopy_db import build_database, load_database

from conftest import intersection, write_db


# --- descriptors ----------------------------------------------------------------


def test_projective_descriptor_dimensions():
    rp6 = ProjectiveSpace("R", 6)
    assert (rp6.d, rp6.n, rp6.dimension) == (1, 6, 6)
    cp3 = ProjectiveSpace("C", 3)
    assert (cp3.d, cp3.n) == (2, 6)
    hp2 = ProjectiveSpace("H", 2)
    assert (hp2.d, hp2.n) == (4, 8)
    with pytest.raises(UsageError):
        ProjectiveSpace("Q", 2)


# --- splitting -------------------------------------------------------------------


def test_pi_projective_rp6_m9(db):
    pg = pi_projective(db, "R", 9, 6)
    assert pg.total == FgAbGroup(0, (24,))
    assert pg.c_group.is_trivial
    assert pg.sphere_group == FgAbGroup(0, (24,))
    # lift injection is injective and the summands generate
    assert pg.lift_injection.kernel().is_trivial
    joined = pg.lift_injection.image() + pg.c_injection.image()
    assert joined.canonical_form == pg.total
    assert intersection(pg.lift_injection.image(), pg.c_injection.image()).is_trivial


def test_pi_projective_complex_low_degree(db):
    pg = pi_projective(db, "C", 2, 3)
    # pi_2 of a high sphere is trivial; the circle fiber contributes Z
    assert pg.sphere_group.is_trivial
    assert pg.c_group == FgAbGroup(1, ())
    assert pg.total == FgAbGroup(1, ())


def test_pi_projective_quaternionic_low_degree(db):
    pg = pi_projective(db, "H", 2, 2)
    assert pg.c_group.is_trivial  # pi_1(S^3) = 0
    assert pg.total.is_trivial


def test_pi_projective_preconditions(db):
    with pytest.raises(UsageError):
        pi_projective(db, "R", 1, 6)
    with pytest.raises(UsageError):
        pi_projective(db, "R", 9, 1)
    # the field and n' >= 1 are refused before the degree range, at any m
    for m in (1, 9):
        with pytest.raises(UsageError) as exc:
            pi_projective(db, "Q", m, 6)
        assert str(exc.value) == "unknown coefficient field 'Q'; expected R, C or H"
        with pytest.raises(UsageError) as exc:
            pi_projective(db, "R", m, 0)
        assert str(exc.value) == "projective space needs n' >= 1"


def test_split_roundtrip(db):
    pg = pi_projective(db, "H", 11, 2)  # pi_11(S^11) + pi_10(S^3) = Z + C15
    for a in (-2, 0, 3):
        z = pg.sphere_group.element([a])
        for y in pg.c_group.enumerate_torsion_part():
            e = pg.lift_injection(z) + pg.c_injection(y)
            assert pg.lift_projection(e) == z
            assert e - pg.lift_injection(z) == pg.c_injection(y)
    assert all(pg.c_injection(y).is_zero == y.is_zero
               for y in pg.c_group.enumerate_torsion_part())


# --- boundary synthesis -------------------------------------------------------------


def test_stable_boundary_kernel_rp6(db):
    b = db.boundary("R", 9, 6)
    ker = b.kernel()
    assert ker.canonical_form == FgAbGroup(0, (2,))
    # oracle: exactly the elements killed by 1 + (-1)^n = 2
    g = db.pi_sphere(9, 6)
    expected = {e.coords for e in g.enumerate_torsion_part() if (2 * e).is_zero}
    actual = {e.coords for e in g.enumerate_torsion_part() if ker.contains(e)}
    assert actual == expected == {(0,), (12,)}


def test_stable_boundary_odd_n_zero(db):
    b = db.boundary("R", 9, 5)
    assert b.is_zero
    assert boundary_kernel(db, "R", 9, 5) == db.pi_sphere(9, 5).whole_subgroup()


def test_stable_boundary_rp10_m17(db):
    ker = boundary_kernel(db, "R", 17, 10)
    assert ker.canonical_form == FgAbGroup(0, (2,))
    g = db.pi_sphere(17, 10)
    assert ker.contains(g.element([120]))


def test_stable_boundary_refuses_metastable_edge(db):
    # m = 2n - 2 sits outside the validity range of the identification;
    # (10, 6) has a trivial side, so the edge is read at (6, 4)
    with pytest.raises(GapError, match="stable range"):
        db.boundary("R", 6, 4)


def test_boundary_trivial_target_forced_zero(db):
    # RP(2): the fiber sphere is a circle, so the boundary target dies
    b = db.boundary("R", 9, 2)
    assert b.is_zero
    assert boundary_kernel(db, "R", 9, 2) == db.pi_sphere(9, 2).whole_subgroup()


def test_kernel_inclusion_chain(db):
    # plain boundary kernel always sits inside the suspended one,
    # across the whole window wherever both are computable
    rng = db.range
    computed = 0
    for np_ in range(2, rng.n_max + 1):
        for m in range(2, np_ + rng.stem_max + 1):
            try:
                ker = boundary_kernel(db, "R", m, np_)
                kers = suspended_boundary_kernel(db, "R", m, np_)
            except GapError:
                continue
            assert kers.contains_subgroup(ker), (m, np_)
            computed += 1
    assert computed > 60


def test_suspended_kernel_rp6(db):
    ker = suspended_boundary_kernel(db, "R", 9, 6)
    assert ker.canonical_form == FgAbGroup(0, (2,))
    assert ker == boundary_kernel(db, "R", 9, 6)


def test_boundary_unknown_even_unstable(db):
    # RP(4) at m = 8: beyond the stable range, no record shipped
    with pytest.raises(GapError):
        db.boundary("R", 8, 4)


# --- exactness ------------------------------------------------------------------------


def test_exactness_odd_section_instance(db):
    chk = validate_exactness(db, "R", 9, 5)
    assert chk["status"] == "ok"


def test_exactness_trivial_instance_vacuous(db):
    chk = validate_exactness(db, "R", 3, 5)
    assert chk["status"] == "ok"


def test_exactness_unverifiable_without_projection(db):
    chk = validate_exactness(db, "R", 9, 6)
    assert chk["status"] == "unverifiable"


def test_exactness_unverifiable_outside_the_table(db):
    chk = validate_exactness(db, "R", 40, 3)
    assert (chk["status"], chk["detail"]) == (
        "unverifiable", "pi_40(S^3) is not in the database")


def test_exactness_fails_on_a_wrong_boundary_record(db, tmp_path, db_doc):
    # V_{4,2}(R) splits, so im(p_*) is all of pi_7(S^3) = C2 and the
    # boundary, read off the section, is zero
    assert validate_exactness(db, "R", 7, 3)["status"] == "ok"
    # a boundary record C2 -> pi_6(S^2) = C12 hitting 6 kills nothing and
    # would fail exactness; the section rule answers first, so it does not load
    db_doc["homs"].append(
        {"kind": "boundary", "K": "R", "m": 7, "nprime": 3,
         "matrix": [[6]], "provenance": "synthetic test record"}
    )
    with pytest.raises(DataError) as info:
        load_database(write_db(tmp_path, db_doc))
    assert str(info.value) == (
        "boundary (R,7,3): the lookup gives [[0]], the record holds [[6]]")


def test_exactness_report_all_ok(db):
    report = exactness_report(db)
    assert report
    assert all(c["status"] == "ok" for c in report)


def test_exactness_section_argument_against_the_split_stiefel_group(db, tmp_path, db_doc):
    """Oracle for reading im(p_*) as the whole group: pi_m(V_{n'+1,2}(R))
    splits as fiber + base, and the projection onto the base summand has
    the whole summand as its image, so the check decides im(p_*) = ker
    exactly when the kernel is whole.  The two wrong boundaries that
    would break exactness, one of them 2Z in Z, do not load."""
    rng = db.range
    instances = [(m, n_prime) for n_prime in range(3, rng.n_max + 1, 2)
                 for m in range(n_prime, n_prime + rng.stem_max)]
    report = exactness_report(db)
    assert len(report) == len(instances) == 40
    for (m, n_prime), chk in zip(instances, report):
        assert chk["instance"] == f"(K=R, m={m}, n'={n_prime})"
        split = db.pi_sphere(m, n_prime - 1).direct_sum(db.pi_sphere(m, n_prime))
        base = split.projections[1]
        image = base.image()
        assert image == base.codomain.whole_subgroup()
        ker = boundary_kernel(db, "R", m, n_prime)
        assert (image == ker) == ker.is_whole == (chk["status"] == "ok")
    for m, n_prime, matrix in ((7, 3, [[6]]), (3, 3, [[2]])):
        doc = copy.deepcopy(db_doc)
        doc["homs"].append({"kind": "boundary", "K": "R", "m": m, "nprime": n_prime,
                            "matrix": matrix, "provenance": "synthetic test record"})
        with pytest.raises(DataError, match=rf"^boundary \(R,{m},{n_prime}\): the lookup"):
            load_database(write_db(tmp_path, doc))


def _seeded_boundary_records(db, count, seed):
    """``count`` random boundary records at R cells with n' <= 12, each a
    homomorphism between the shipped groups of its cell."""
    rng = random.Random(seed)
    cells = []
    for n_prime in range(2, 13):
        for m in range(n_prime, n_prime + 9):
            try:
                dom, cod = db.pi_sphere(m, n_prime), db.pi_sphere(m - 1, n_prime - 1)
            except GapError:
                continue
            if not (dom.is_trivial or cod.is_trivial):
                cells.append((m, n_prime, dom, cod))
    records = []
    while len(records) < count:
        m, n_prime, dom, cod = rng.choice(cells)
        bound = max(cod.torsion, default=3)
        matrix = [[rng.randrange(bound) for _ in range(dom.ngens)]
                  for _ in range(cod.ngens)]
        try:
            GroupHom(dom, cod, matrix)
        except UsageError:
            continue
        records.append({"kind": "boundary", "K": "R", "m": m, "nprime": n_prime,
                        "matrix": matrix, "provenance": "seeded mutation"})
    return records


def test_seeded_boundary_records_keep_exactness_and_stable_kernels(db, db_doc):
    """Oracle for reading boundary records back: a record is used only
    where no rule answers, so no table that loads can fail exactness (the
    section rule) or the stable-range kernel of 1 + (-1)^n, whatever
    boundary record it was given."""
    loaded = 0
    for rec in _seeded_boundary_records(db, 60, seed=21):
        db_doc["homs"].append(rec)
        try:
            table = build_database(db_doc)
        except DataError as exc:
            assert str(exc).startswith(("boundary (R,", "duplicate hom record")), exc
            continue
        finally:
            db_doc["homs"].pop()
        loaded += 1
        assert [c for c in exactness_report(table) if c["status"] == "fail"] == [], rec
        for m, n in table.range.cells():
            group = table.pi_sphere(m, n)
            if m < 2 * n - 2 and not group.free_rank:
                killed = group.multiplication_by(1 + (-1) ** n).kernel()
                assert boundary_kernel(table, "R", m, n) == killed, (rec, m, n)
    assert loaded >= 20
