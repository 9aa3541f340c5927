"""Classifier verdicts, looseness, filtrations and their invariants."""

from __future__ import annotations

import random
from math import inf

import pytest

from coincalc.abelian import FgAbGroup
from coincalc.coincidence import (
    Grassmannian2,
    Sphere,
    SphereClassifier,
    classify_projective_pair,
    classify_sphere_pair,
    exclusivity_violations,
    filtration_subgroup,
    full_filtration_shortcut,
    grassmann_all_loose,
    grassmann_pi,
    loose_pair,
    pi_punctured,
    transfer_isomorphism,
)
from coincalc.errors import GapError, UsageError
from coincalc.fibration import ProjectiveSpace

rng = random.Random(0xC01C)


# --- sphere rules ----------------------------------------------------------------


def test_sphere_odd_same_class_is_loose(db):
    g = db.pi_sphere(8, 5)
    for e in g.enumerate_torsion_part():
        v = classify_sphere_pair(db, 8, 5, e, e)
        assert v.numbers() == (0, 0, 0)
        assert v.loose


def test_sphere_even_degree_one_pair(db):
    g = db.pi_sphere(6, 6)
    v = classify_sphere_pair(db, 6, 6, g.element([1]), g.element([1]))
    assert v.numbers() == (1, 1, 1)


def test_circle_degrees(db):
    g = db.pi_sphere(1, 1)
    v = classify_sphere_pair(db, 1, 1, g.element([3]), g.element([5]))
    assert v.numbers() == (2, 2, 2)
    assert classify_sphere_pair(db, 1, 1, g.element([4]), g.element([4])).loose


def test_sphere_below_target_dimension_always_loose(db):
    g = db.pi_sphere(3, 5)
    v = classify_sphere_pair(db, 3, 5, g.zero(), g.zero())
    assert v.loose


def test_sphere_mc_infinite_branch(db):
    # pi_9(S^6) = C24, image of suspension from pi_8(S^5) is everything,
    # so build an instance with a proper image instead: pi_6(S^3), where
    # the suspension from pi_5(S^2) lands in 6 * C12
    g = db.pi_sphere(6, 3)
    e = db.suspension(5, 2)
    image = e.image()
    assert image.canonical_form == FgAbGroup(0, (2,))
    z1, z2 = g.element([1]), g.zero()
    v = classify_sphere_pair(db, 6, 3, z1, z2)
    # difference 1 is not a suspension, so no homotopy reaches finitely
    # many coincidence points
    assert v.numbers() == (1, 1, inf)
    v2 = classify_sphere_pair(db, 6, 3, g.element([6]), g.zero())
    assert v2.numbers() == (1, 1, 1)


# --- projective seven-case table ----------------------------------------------------


def _rp6_classes(db, c1, c2):
    from coincalc.fibration import pi_projective

    pg = pi_projective(db, "R", 9, 6)
    return pg.total.element([c1]), pg.total.element([c2])


def test_rp6_case1_loose(db):
    x1, x2 = _rp6_classes(db, 12, 12)
    v = classify_projective_pair(db, "R", 9, 6, x1, x2)
    assert v.rule == "projective-case-1"
    assert v.numbers() == (0, 0, 0)


def test_rp6_case3(db):
    x1, x2 = _rp6_classes(db, 1, 1)
    v = classify_projective_pair(db, "R", 9, 6, x1, x2)
    assert v.rule == "projective-case-3"
    assert v.numbers() == (1, 1, 1)


def test_rp6_case4(db):
    x1, x2 = _rp6_classes(db, 1, 0)
    v = classify_projective_pair(db, "R", 9, 6, x1, x2)
    assert v.rule == "projective-case-4"
    assert v.numbers() == (2, 2, 2)


def test_rp6_exclusivity_all_pairs(db):
    assert exclusivity_violations(db, "R", 9, 6) == []


def test_projective_case5_instance(db):
    # RP(3) at m = 6: odd n so every pair with equal projections is
    # loose; distinct lift classes fall into cases 4/5 depending on the
    # suspension image E(pi_5(S^2)) = 6 C12 inside pi_6(S^3) = C12
    v = classify_projective_pair(db, "R", 6, 3, *_rp3_classes(db, 6, 0))
    assert v.rule == "projective-case-4"
    v2 = classify_projective_pair(db, "R", 6, 3, *_rp3_classes(db, 1, 0))
    assert v2.rule == "projective-case-5"
    assert v2.numbers() == (2, 2, inf)


def _rp3_classes(db, c1, c2):
    from coincalc.fibration import pi_projective

    pg = pi_projective(db, "R", 6, 3)
    return pg.total.element([c1]), pg.total.element([c2])


def test_projective_complex_case7(db):
    # CP(2) at m = 7: lift sphere S^5, pi_7(S^5) = C2; distinct lift
    # classes give case 7 without needing any boundary data
    from coincalc.fibration import pi_projective

    pg = pi_projective(db, "C", 7, 2)
    x1 = pg.lift_injection(pg.sphere_group.element([1]))
    x2 = pg.total.zero()
    v = classify_projective_pair(db, "C", 7, 2, x1, x2)
    assert v.rule == "projective-case-7"
    assert v.numbers() == (1, 1, inf)


def test_projective_complex_equal_classes_need_boundary(db):
    from coincalc.fibration import pi_projective

    pg = pi_projective(db, "C", 7, 2)
    x = pg.lift_injection(pg.sphere_group.element([1]))
    with pytest.raises(GapError, match="boundary unknown"):
        classify_projective_pair(db, "C", 7, 2, x, x)


def test_projective_c_components_ignored(db):
    # CP(3) at m = 2: the whole group is the punctured summand, so all
    # pairs project to homotopic maps and lift trivially: loose
    from coincalc.fibration import pi_projective

    pg = pi_projective(db, "C", 2, 3)
    x1 = pg.total.element([5])
    x2 = pg.total.element([-3])
    v = classify_projective_pair(db, "C", 2, 3, x1, x2)
    assert v.numbers() == (0, 0, 0)


def test_classifier_symmetry_swap(db):
    pairs = [(12, 12), (1, 1), (1, 0), (5, 17), (3, 21), (0, 12)]
    for c1, c2 in pairs:
        x1, x2 = _rp6_classes(db, c1, c2)
        a = classify_projective_pair(db, "R", 9, 6, x1, x2)
        b = classify_projective_pair(db, "R", 9, 6, x2, x1)
        assert a.numbers() == b.numbers()


def test_projective_preconditions(db):
    g = FgAbGroup.trivial()
    with pytest.raises(UsageError):
        classify_projective_pair(db, "R", 1, 6, g.zero(), g.zero())
    with pytest.raises(UsageError):
        classify_projective_pair(db, "R", 9, 1, g.zero(), g.zero())


# --- loose_pair across families ----------------------------------------------------------


def test_loose_sphere_consistency(db):
    g = db.pi_sphere(9, 6)
    for _ in range(40):
        z1 = g.element([rng.randrange(24)])
        z2 = g.element([rng.randrange(24)])
        ans = loose_pair(db, Sphere(6), 9, z1, z2)
        v = classify_sphere_pair(db, 9, 6, z1, z2)
        assert ans.loose == v.loose == (v.numbers() == (0, 0, 0))


def test_loose_projective_consistency(db):
    from coincalc.fibration import pi_projective

    pg = pi_projective(db, "R", 9, 6)
    space = ProjectiveSpace("R", 6)
    for e1 in pg.total.enumerate_torsion_part():
        for e2 in pg.total.enumerate_torsion_part():
            ans = loose_pair(db, space, 9, e1, e2)
            v = classify_projective_pair(db, "R", 9, 6, e1, e2)
            assert ans.loose == v.loose


def test_loose_grassmann(db):
    assert loose_pair(db, Grassmannian2(6), 9).loose
    with pytest.raises(GapError):
        loose_pair(db, Grassmannian2(5), 9)


def test_looseness_closed_under_addition(db):
    # the loose set is a subgroup-like graph: componentwise sums of
    # loose pairs are loose
    for m, n in [(9, 6), (8, 5), (6, 3), (4, 2)]:
        g = db.pi_sphere(m, n)
        cls = SphereClassifier(db, m, n)
        loose_set = [
            (z1, z2)
            for z1 in g.enumerate_torsion_part()
            for z2 in g.enumerate_torsion_part()
            if cls.is_loose(z1, z2)
        ]
        sample = loose_set if len(loose_set) <= 40 else rng.sample(loose_set, 40)
        for a1, a2 in sample:
            for b1, b2 in sample:
                assert cls.is_loose(a1 + b1, a2 + b2)
    # projective flavor on the golden instance
    space = ProjectiveSpace("R", 6)
    from coincalc.fibration import pi_projective

    pg = pi_projective(db, "R", 9, 6)
    loose_set = [
        (e1, e2)
        for e1 in pg.total.enumerate_torsion_part()
        for e2 in pg.total.enumerate_torsion_part()
        if loose_pair(db, space, 9, e1, e2).loose
    ]
    for a1, a2 in loose_set:
        for b1, b2 in loose_set:
            assert loose_pair(db, space, 9, a1 + b1, a2 + b2).loose


# --- filtration ------------------------------------------------------------------------------


def test_golden_filtration_chain_rp6(db):
    space = ProjectiveSpace("R", 6)
    c = pi_punctured(db, space, 9)
    f2 = filtration_subgroup(db, space, 9, 2)
    assert c.canonical_form.is_trivial
    assert f2.subgroup.canonical_form == FgAbGroup(0, (2,))
    assert f2.subgroup.ambient == FgAbGroup(0, (24,))


def test_golden_filtration_chain_rp10(db):
    space = ProjectiveSpace("R", 10)
    c = pi_punctured(db, space, 17)
    f5 = filtration_subgroup(db, space, 17, 5)
    assert c.canonical_form.is_trivial
    assert f5.subgroup.canonical_form == FgAbGroup(0, (2,))
    assert f5.subgroup.ambient == FgAbGroup(0, (240,))
    assert f5.stabilized_at == 2


def test_sphere_filtration_odd_full(db):
    space = Sphere(5)
    for q in (1, 2, 3, 7, inf):
        res = filtration_subgroup(db, space, 9, q)
        assert res.subgroup == db.pi_sphere(9, 5).whole_subgroup()


def test_sphere_filtration_even_collapses(db):
    space = Sphere(6)
    full = filtration_subgroup(db, space, 9, 2).subgroup
    tangent = filtration_subgroup(db, space, 9, 3).subgroup
    stable = filtration_subgroup(db, space, 9, inf).subgroup
    assert full == db.pi_sphere(9, 6).whole_subgroup()
    assert tangent.canonical_form == FgAbGroup(0, (2,))
    assert stable == tangent


def test_filtration_monotone_and_contains_punctured(db):
    spaces = [
        (Sphere(6), 9),
        (Sphere(5), 8),
        (ProjectiveSpace("R", 6), 9),
        (ProjectiveSpace("R", 10), 17),
        (ProjectiveSpace("R", 3), 6),
        (Grassmannian2(6), 9),
    ]
    for space, m in spaces:
        prev = None
        for q in (1, 2, 3, 4):
            sub = filtration_subgroup(db, space, m, q).subgroup
            if prev is not None:
                assert prev.contains_subgroup(sub)
            prev = sub
        stabilized = filtration_subgroup(db, space, m, inf).subgroup
        punct = pi_punctured(db, space, m)
        assert stabilized.contains_subgroup(punct)


def test_filtration_q_validation(db):
    with pytest.raises(UsageError):
        filtration_subgroup(db, Sphere(5), 9, 0)
    with pytest.raises(UsageError):
        filtration_subgroup(db, Sphere(5), 9, 2.5)


def test_even_sphere_stage3_drops_at_degree_level(db):
    # for even n the identity class does not lift to the unit tangent
    # bundle (Euler number 2), so stage 3 is strictly below stage 2
    for n in (2, 4, 6):
        full = filtration_subgroup(db, Sphere(n), n, 2).subgroup
        tangent = filtration_subgroup(db, Sphere(n), n, 3).subgroup
        assert full == db.pi_sphere(n, n).whole_subgroup()
        assert tangent.is_trivial


def test_circle_target_filtration_full(db):
    # the circle is parallelizable, so every stage is everything
    for q in (1, 2, 3, inf):
        res = filtration_subgroup(db, Sphere(1), 1, q)
        assert res.subgroup == db.pi_sphere(1, 1).whole_subgroup()
    assert filtration_subgroup(db, Sphere(1), 5, 3).subgroup.is_trivial


# --- shortcut clauses --------------------------------------------------------------------------


def test_shortcut_smaller_dimension():
    ans = full_filtration_shortcut(3, True, Sphere(6))
    assert ans.applies and ans.clause == "smaller-dimension"


def test_shortcut_vector_field():
    ans = full_filtration_shortcut(9, True, Sphere(7))
    assert ans.applies and ans.clause == "vector-field"
    ans2 = full_filtration_shortcut(9, True, ProjectiveSpace("R", 5))
    assert ans2.applies and ans2.clause == "vector-field"


def test_shortcut_none_applies():
    ans = full_filtration_shortcut(9, True, ProjectiveSpace("R", 4))
    assert not ans.applies


# --- Grassmannians --------------------------------------------------------------------------------


def test_grassmann_all_loose_values():
    assert grassmann_all_loose(4) is True
    assert grassmann_all_loose(6) is True
    assert grassmann_all_loose(8) is True
    assert grassmann_all_loose(5) is None
    with pytest.raises(UsageError):
        grassmann_all_loose(2)


def test_grassmann_pi_values(db):
    assert grassmann_pi(db, 3, 4) == FgAbGroup(2, ())
    # G(6,2): pi_3(RP4) + pi_3(CP2) = pi_3(S^4) + pi_3(S^5) = 0
    assert grassmann_pi(db, 3, 6).is_trivial
    # G(4,2): pi_7(RP2) + pi_7(CP1) = two copies of pi_7(S^2)
    assert grassmann_pi(db, 7, 4) == FgAbGroup(0, (2, 2))
    with pytest.raises(UsageError):
        grassmann_pi(db, 2, 4)
    with pytest.raises(UsageError):
        grassmann_pi(db, 3, 5)


# --- transfer isomorphism ---------------------------------------------------------------------------


def test_transfer_sphere(db):
    t_odd = transfer_isomorphism(db, Sphere(5), 9)
    assert t_odd == t_odd.domain.identity_hom()
    t_even = transfer_isomorphism(db, Sphere(6), 9)
    assert t_even.domain == FgAbGroup(0, (24,))
    assert t_even == t_even.domain.multiplication_by(-1)


def test_transfer_projective_identity_on_quotient(db):
    t = transfer_isomorphism(db, ProjectiveSpace("R", 6), 9)
    assert t.domain == FgAbGroup(0, (2,))
    assert t == t.domain.identity_hom()


def test_transfer_is_involution_where_defined(db):
    for space, m in [(Sphere(6), 9), (Sphere(5), 8), (ProjectiveSpace("R", 6), 9)]:
        t = transfer_isomorphism(db, space, m)
        assert (t @ t) == t.domain.identity_hom()


# --- instance sweeps of the structural claims ------------------------------------


def test_exclusivity_over_all_covered_instances(db):
    from conftest import covered_projective_instances

    swept = 0
    for k, m, n_prime, _cls in covered_projective_instances(db, max_order=40):
        assert exclusivity_violations(db, k, m, n_prime) == [], (k, m, n_prime)
        swept += 1
    assert swept >= 50


def _case_oracle(db, k, m, n_prime):
    """The seven cases evaluated outright on a pair of lift classes:
    kernels by applying the boundary, the suspension test on ``z1 - z2``
    with ``Subgroup.contains``, nothing cached per class and no case
    skipped."""
    from coincalc.fibration import boundary_hom

    n = ProjectiveSpace(k, n_prime).n
    real = k == "R"
    bnd = boundary_hom(db, k, m, n_prime)
    susp_bnd = None if bnd.is_zero else db.suspension(m - 1, n - 1) @ bnd
    if real:
        anti = db.antipodal(m, n)
        image = db.suspension(m - 1, n - 1).image()

    def in_ker_susp(z):
        return susp_bnd is None or susp_bnd(z).is_zero

    def cases(z1, z2):
        in_ker = bnd(z2).is_zero
        free = z1 == z2 or (real and z1 == anti(z2))
        suspended = real and image.contains(z1 - z2)
        table = {
            1: free and in_ker,
            2: free and in_ker_susp(z2) and not in_ker,
            3: real and free and z2 != anti(z2),
            4: real and not free and suspended,
            5: real and not suspended,
            6: not real and z1 == z2 and not in_ker_susp(z2),
            7: not real and z1 != z2,
        }
        return [i for i, holds in table.items() if holds]

    return cases


def test_hoisted_case_facts_match_the_direct_oracle(db):
    """``matching_cases`` reads per-class facts (kernel memberships, A(z),
    suspension cosets); on every pair of every covered instance of order
    <= 40 it must agree with the cases evaluated outright."""
    from conftest import covered_projective_instances
    from coincalc.fibration import HomotopyClass
    from coincalc.homotopy_db import Database

    oracle_db = Database(db.range, db.sphere_records(), db.hom_records())
    pairs = 0
    for k, m, n_prime, cls in covered_projective_instances(db, max_order=40):
        oracle = _case_oracle(oracle_db, k, m, n_prime)
        zero = cls.pg.c_group.zero()
        lifts = list(cls.pg.sphere_group.enumerate_torsion_part())
        for z1 in lifts:
            for z2 in lifts:
                got = cls.matching_cases(HomotopyClass(cls.space, m, z1, zero),
                                         HomotopyClass(cls.space, m, z2, zero))
                assert got == oracle(z1, z2), (k, m, n_prime, z1.coords, z2.coords)
                pairs += 1
    assert pairs >= 7000


def test_projective_split_exactness_sweep(db):
    # summand injections intersect trivially and jointly generate
    from conftest import covered_projective_instances
    from coincalc.fibration import pi_projective

    for k, m, n_prime, cls in covered_projective_instances(db, max_order=64):
        pg = cls.pg
        assert pg.lift_injection.kernel().is_trivial
        im1 = pg.lift_injection.image()
        im2 = pg.c_injection.image()
        assert im1.intersection(im2).is_trivial
        assert (im1 + im2).canonical_form == pg.total


def test_odd_n_section_gives_whole_kernel_sweep(db):
    # a section of the frame bundle forces a vanishing boundary
    from coincalc.fibration import boundary_kernel

    for n_prime in range(3, 12, 2):
        for m in range(n_prime, n_prime + 7):
            try:
                ker = boundary_kernel(db, "R", m, n_prime)
            except GapError:
                continue
            assert ker == db.pi_sphere(m, n_prime).whole_subgroup()
