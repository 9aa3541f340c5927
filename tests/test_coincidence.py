"""Classifier verdicts, looseness, filtrations and their invariants."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from math import inf

import pytest

from coincalc.abelian import FgAbGroup
from coincalc.coincidence import (
    Grassmannian2,
    ProjectiveClassifier,
    Sphere,
    SphereClassifier,
    classify_projective_pair,
    classify_sphere_pair,
    exclusivity_violations,
    filtration_subgroup,
    grassmann_all_loose,
    grassmann_pi,
    loose_pair,
    pi_punctured,
    transfer_isomorphism,
)
from coincalc.errors import GapError, UsageError
from coincalc.fibration import ProjectiveSpace
from coincalc.trace import Trace

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


def test_instance_data_that_is_a_gap_is_not_stored(db):
    # the boundary of CP(2) at m = 7 has no record: each read of the
    # kernel raises the same gap, and nothing is kept on the instance
    cls = ProjectiveClassifier(db, "C", 7, 2)
    before = dict(cls.__dict__)
    messages = []
    for _ in range(2):
        with pytest.raises(GapError, match="boundary unknown") as info:
            cls.kernel
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert cls.__dict__ == before


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
    # RP(1) is the circle, whose pi_9 is trivial: the pair is loose
    v = classify_projective_pair(db, "R", 9, 1, g.zero(), g.zero())
    assert v == classify_sphere_pair(db, 9, 1, g.zero(), g.zero())
    assert v.loose
    z = FgAbGroup.free(1).zero()
    with pytest.raises(UsageError, match=r"needs m, n' >= 2 \(KP\(1\) and m = 1"):
        classify_projective_pair(db, "R", 1, 1, z, z)
    # the space is built before any rule is chosen
    for n_prime in (0, -3):
        with pytest.raises(UsageError, match=r"^projective space needs n' >= 1$"):
            classify_projective_pair(db, "R", 9, n_prime, g.zero(), g.zero())


def _answer(call, *args):
    """What ``call(*args)`` returns, or the kind and text of its refusal."""
    try:
        return call(*args)
    except (GapError, UsageError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("k, m", [("R", 5), ("C", 4), ("C", 6), ("H", 7), ("H", 10)])
def test_kp1_library_calls_answer_as_the_sphere(db, k, m):
    kp1 = ProjectiveSpace(k, 1)
    sphere = Sphere(kp1.dimension)
    group = db.pi_sphere(m, sphere.n)
    classes = list(group.enumerate_torsion_part()) if not group.free_rank else [
        group.zero(), group.element([1] + [0] * (group.ngens - 1))]
    for x1 in classes:
        for x2 in classes:
            assert (_answer(classify_projective_pair, db, k, m, 1, x1, x2)
                    == _answer(classify_sphere_pair, db, m, sphere.n, x1, x2))
            assert (_answer(loose_pair, db, kp1, m, x1, x2)
                    == _answer(loose_pair, db, sphere, m, x1, x2))
    for q in (1, 2, 3, inf):
        assert (_answer(filtration_subgroup, db, kp1, m, q)
                == _answer(filtration_subgroup, db, sphere, m, q))
    for call in (pi_punctured, transfer_isomorphism):
        assert _answer(call, db, kp1, m) == _answer(call, db, sphere, m)


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


def test_sphere_pair_without_classes_is_a_usage_error(db):
    z = db.pi_sphere(7, 4).zero()
    for ask in (lambda: loose_pair(db, Sphere(4), 7),
                lambda: classify_sphere_pair(db, 7, 4, None, None),
                lambda: classify_sphere_pair(db, 7, 4, z, (0, 0))):
        with pytest.raises(UsageError) as exc:
            ask()
        assert str(exc.value) == "class does not live in pi_7(S^4)"


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
    # a bool is an int to Python, but True is not stage 1
    with pytest.raises(UsageError, match="positive integer or inf"):
        filtration_subgroup(db, Sphere(4), 7, True)


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


# --- a full filtration from descriptor data alone ------------------------------------


def _window(rng_meta):
    """Every target and source dimension of the documented window: the
    spheres, ``KP(n')`` and even-rank ``G(r,2)`` whose spheres lie in the
    table, with ``m`` from 1 to the top dimension plus ``stem_max``."""
    top, stems = rng_meta.n_max, rng_meta.stem_max
    for n in range(1, top + 1):
        for m in range(1, n + stems + 1):
            yield Sphere(n), m
    for k, d in (("R", 1), ("C", 2), ("H", 4)):
        for n_prime in range(1, (top + 1) // d):
            for m in range(1, d * (n_prime + 1) - 1 + stems + 1):
                yield ProjectiveSpace(k, n_prime), m
    for r in range(4, top + 1, 2):
        for m in range(1, r - 2 + stems + 1):
            yield Grassmannian2(r), m


def _full_by_shortcut(m, space) -> bool:
    """The oracle: the classical sufficient conditions for every filtration
    stage of maps S^m -> ``space`` to be everything.  Either m < dim
    ``space`` (a map can be pushed off any point by transversality), or
    ``space`` has a nowhere-zero vector field (flowing along it separates a
    map from itself), which among the targets here means S^n with n odd or
    RP(n') with n' odd."""
    if m < space.dimension:
        return True
    if isinstance(space, Sphere):
        return space.n % 2 == 1
    return isinstance(space, ProjectiveSpace) and space.k == "R" and space.n_prime % 2 == 1


def _resolved_stages_are_whole(db, space, m) -> int:
    """How many of the stages 1, 2, 3, inf resolve for maps S^m -> ``space``;
    each one that does must be all of pi_m."""
    from coincalc.coincidence import rules_for

    family, rule_space = rules_for(space, m)
    resolved = 0
    for q in (1, 2, 3, inf):
        try:
            sub = filtration_subgroup(db, space, m, q).subgroup
        except (GapError, UsageError):
            continue
        assert sub == family.pi(db, rule_space, m, None).whole_subgroup(), (space, m, q)
        resolved += 1
    return resolved


def test_shortcut_smaller_dimension(db):
    assert _full_by_shortcut(3, Sphere(6))
    assert _resolved_stages_are_whole(db, Sphere(6), 3) == 4


def test_shortcut_vector_field(db):
    for space in (Sphere(7), ProjectiveSpace("R", 5)):
        assert _full_by_shortcut(9, space)
        assert _resolved_stages_are_whole(db, space, 9) == 4


def test_shortcut_none_applies(db):
    # RP(6) has Euler characteristic 1, and stage 2 at m = 9 is a proper
    # subgroup: the boundary kernel C2 inside pi_9(RP(6)) = C24
    assert not _full_by_shortcut(9, ProjectiveSpace("R", 6))
    assert filtration_subgroup(db, ProjectiveSpace("R", 6), 9, 2).subgroup.order() == 2


def test_shortcut_clauses_give_the_whole_group_at_every_resolved_stage(db):
    """Over the whole window: wherever a shortcut clause holds, each stage
    the family rules resolve is all of pi_m."""
    cells = list(_window(db.range))
    assert len(cells) == 527
    held = [(space, m) for space, m in cells if _full_by_shortcut(m, space)]
    resolved = sum(_resolved_stages_are_whole(db, space, m) for space, m in held)
    assert (len(held), resolved) == (329, 1200)


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
    # pi_m(S^n) modulo its trivial subgroup is pi_m(S^n): the transfer is
    # the antipodal action on every window cell where that resolves
    window = db.range
    resolved = 0
    for n in range(window.n_min, window.n_max + 1):
        for m in range(1, n + window.stem_max + 1):
            rule = Trace()
            try:
                a = db.antipodal(m, n, rule)
            except GapError:
                continue
            trace = Trace()
            assert transfer_isomorphism(db, Sphere(n), m, trace) == a, (m, n)
            assert trace.entries == [*rule.entries, "transfer-sphere-antipodal"], (m, n)
            assert len(rule.entries) == 1, (m, n)
            resolved += 1
    assert resolved == 172


def test_transfer_projective_identity_on_quotient(db):
    t = transfer_isomorphism(db, ProjectiveSpace("R", 6), 9)
    assert t.domain == FgAbGroup(0, (2,))
    assert t == t.domain.identity_hom()


def test_transfer_even_rank_grassmannian(db):
    trace = Trace()
    t = transfer_isomorphism(db, Grassmannian2(6), 5, trace)
    assert t.domain.is_trivial
    assert t == t.domain.identity_hom()
    assert trace.entries == ["transfer-grassmann-trivial"]


def test_transfer_is_involution_where_defined(db):
    for space, m in [(Sphere(6), 9), (Sphere(5), 8), (ProjectiveSpace("R", 6), 9)]:
        t = transfer_isomorphism(db, space, m)
        assert (t @ t) == t.domain.identity_hom()


# --- one dispatch per target family ---------------------------------------------------

_QUESTIONS = {
    "looseness": lambda db, space, m: loose_pair(db, space, m),
    "pi^c": lambda db, space, m: pi_punctured(db, space, m),
    "filtration": lambda db, space, m: filtration_subgroup(db, space, m, 2),
    "transfer": lambda db, space, m: transfer_isomorphism(db, space, m),
}


@pytest.mark.parametrize("ask", _QUESTIONS.values(), ids=_QUESTIONS)
def test_unsupported_space_is_one_usage_error(db, ask):
    for space in ("S^6", 6, None):
        with pytest.raises(UsageError) as exc:
            ask(db, space, 9)
        assert str(exc.value) == f"unsupported space {space!r}"


@pytest.mark.parametrize("what", _QUESTIONS)
def test_odd_rank_grassmannian_is_one_gap(db, what):
    # parity is checked first: m = 1 would be refused by grassmann_pi
    for m in (1, 9):
        with pytest.raises(GapError) as exc:
            _QUESTIONS[what](db, Grassmannian2(5), m)
        assert str(exc.value) == f"{what} over G(5,2) with odd r is not covered"


# --- instance sweeps of the structural claims ------------------------------------


def test_exclusivity_over_all_covered_instances(db):
    """The subgroup identities and the pair sweep both pass on every
    covered instance of order <= 40, the ones ``validate-db`` checks."""
    from conftest import covered_projective_instances

    swept = 0
    for k, m, n_prime, cls in covered_projective_instances(db):
        if cls.pg.total.order() > 40:
            continue
        assert exclusivity_violations(db, k, m, n_prime) == [], (k, m, n_prime)
        assert cls.exclusivity_failure() is None, (k, m, n_prime)
        swept += 1
    assert swept == 369


def test_exclusivity_identities_above_the_order_cap(db):
    from conftest import covered_projective_instances

    above = [(k, m, n_prime)
             for k, m, n_prime, cls in covered_projective_instances(db)
             if cls.pg.total.order() > 40]
    assert above == [("R", 14, 7), ("R", 16, 9), ("R", 17, 10), ("R", 18, 11),
                     ("R", 19, 12)]
    for k, m, n_prime in above:
        assert ProjectiveClassifier(db, k, m, n_prime).exclusivity_failure() is None


def test_zero_lift_group_rule_against_the_identities_in_full(db):
    """``exclusivity_failure`` answers a zero lift group by rule; here
    identities (i)-(iii) are evaluated on every element of the lift group
    instead, with no early return, and the premises of the rule (zero
    kernels, zero maps) are checked outright."""
    from conftest import covered_projective_instances

    zero_lift = Counter()
    for k, m, n_prime, cls in covered_projective_instances(db):
        if cls.pg.total.order() > 40:
            continue
        lift = cls.pg.sphere_group
        if not lift.is_trivial:
            continue
        ker, ker_susp = cls.kernel, cls.suspended_kernel
        elements = list(lift.enumerate_torsion_part())
        assert all(ker_susp.contains(z) for z in elements if ker.contains(z))  # (i)
        assert ker.is_trivial and ker_susp.is_trivial
        if k == "R":
            a, q = cls.antipodal, cls.suspension_quotient
            assert all(ker_susp.contains(z) == (a(z) == z) for z in elements)  # (ii)
            assert all(q(a(z)) == q(z) for z in elements)  # (iii)
            assert a.is_zero and q.is_zero and cls.fixed.is_trivial
        assert cls.exclusivity_failure() is None, (k, m, n_prime)
        zero_lift[k] += 1
    assert zero_lift == {"C": 138, "H": 108, "R": 68}
    assert sum(zero_lift.values()) == 314  # of the 369 that validate-db checks


def test_exclusivity_identities_reject_what_the_sweep_rejects(db, monkeypatch):
    """Mutants of the instance data (each kernel replaced by 0 or the whole
    lift group, A by +1 or -1, in every combination) are set on the
    classifier's instance dictionary, where its attributes keep what they
    built; a mutant the pair sweep rejects must fail an identity too.

    Inconsistent data is the only place where the order of the cases
    matters, so on every pair of every mutant ``classify`` must also
    answer with the first case ``matching_cases`` finds, and raise the
    "no classification case matched" gap where it finds none."""
    from conftest import covered_projective_instances
    from coincalc import coincidence

    real_classifier = coincidence.ProjectiveClassifier
    tried = swept_bad = identities_bad = pairs = gaps = 0
    for k, m, n_prime, cls in covered_projective_instances(db):
        if cls.pg.total.order() > 24:
            continue
        lift = cls.pg.sphere_group
        subgroups = [lift.trivial_subgroup(), lift.whole_subgroup()]
        slots = {"kernel": (cls.kernel, subgroups),
                 "suspended_kernel": (cls.suspended_kernel, subgroups)}
        if k == "R":
            slots["antipodal"] = (cls.antipodal,
                                  [lift.identity_hom(), lift.multiplication_by(-1)])
        # the original value first, then each replacement that differs from it
        choices = [[o] + [v for v in vals if v != o] for o, vals in slots.values()]
        for combo in itertools.product(*choices):
            if all(v is c[0] for v, c in zip(combo, choices)):
                continue

            def mutant():
                mut = real_classifier(db, k, m, n_prime)
                mut.__dict__.update(zip(slots, combo))
                return mut

            broken = mutant().exclusivity_failure()
            swept = mutant()
            with monkeypatch.context() as patch:
                patch.setattr(coincidence, "ProjectiveClassifier", lambda *args: swept)
                bad = exclusivity_violations(db, k, m, n_prime)
            assert not (bad and broken is None), (k, m, n_prime, combo)
            tried += 1
            swept_bad += bool(bad)
            identities_bad += broken is not None
            tree = mutant()
            lifts = [tree.pg.lift_injection(z) for z in lift.enumerate_torsion_part()]
            for x1, x2 in itertools.product(lifts, repeat=2):
                where = (k, m, n_prime, combo, x1.coords, x2.coords)
                first = tree.matching_cases(x1, x2)[:1]
                if first:
                    assert tree.classify(x1, x2).rule == f"projective-case-{first[0]}", where
                else:
                    with pytest.raises(GapError, match="no classification case matched"):
                        tree.classify(x1, x2)
                    gaps += 1
                pairs += 1
    assert (tried, swept_bad, identities_bad) == (258, 130, 189)
    assert (pairs, gaps) == (64572, 553)


def _case_oracle(db, k, m, n_prime):
    """The seven cases evaluated outright on a pair of lift classes:
    kernels by applying the boundary, the suspension test on ``z1 - z2``
    with ``Subgroup.contains``, nothing read through the classifier and
    no case skipped."""
    n = ProjectiveSpace(k, n_prime).n
    real = k == "R"
    bnd = db.boundary(k, m, n_prime)
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


def test_lazy_case_facts_match_the_direct_oracle(db):
    """``matching_cases`` evaluates the seven predicates on the facts
    the classifier reads (A(z2), free homotopy, kernel memberships on
    coordinates, the suspension test on the memoized quotient); on every
    pair of every covered instance of order <= 40 it must agree with the
    cases evaluated outright.  ``classify`` must answer with the first of them,
    and ``loose_pair`` must agree with free homotopy and
    ``Subgroup.contains`` on the boundary kernel, applied to elements."""
    from conftest import covered_projective_instances, rebuilt
    from coincalc.fibration import boundary_kernel

    oracle_db = rebuilt(db)
    pairs = instances = 0
    for k, m, n_prime, cls in covered_projective_instances(db):
        if cls.pg.total.order() > 40:
            continue
        oracle = _case_oracle(oracle_db, k, m, n_prime)
        kernel = boundary_kernel(oracle_db, k, m, n_prime)
        space = ProjectiveSpace(k, n_prime)
        anti = oracle_db.antipodal(m, space.n) if k == "R" else None
        inj = cls.pg.lift_injection
        lifts = list(cls.pg.sphere_group.enumerate_torsion_part())
        for z1 in lifts:
            for z2 in lifts:
                x1, x2 = inj(z1), inj(z2)
                where = (k, m, n_prime, z1.coords, z2.coords)
                expected = oracle(z1, z2)
                assert cls.matching_cases(x1, x2) == expected, where
                rule = cls.classify(x1, x2).rule
                assert rule == f"projective-case-{expected[0]}", where
                free = z1 == z2 or (anti is not None and z1 == anti(z2))
                loose = free and (kernel.contains(z1) or kernel.contains(z2))
                assert loose_pair(db, space, m, x1, x2).loose == loose, where
                pairs += 1
        instances += 1
    assert (instances, pairs) == (369, 7906)


def test_sphere_answers_match_the_direct_oracle(db):
    """On every pair of every finite pi_m(S^n) of order <= 64 in the
    window, ``classify_sphere_pair`` and ``loose_pair`` agree with the
    sphere rules evaluated on elements: A(z2) by ``GroupHom.__call__``,
    looseness and the suspension test by element equality, the quotient
    built afresh on a second database."""
    from conftest import covered_sphere_instances, rebuilt

    oracle_db = rebuilt(db)
    pairs = instances = 0
    for m, n, group, _ in covered_sphere_instances(db):
        if group.order() > 64:
            continue
        anti = oracle_db.antipodal(m, n)
        q = None
        elems = list(group.enumerate_torsion_part())
        for z1 in elems:
            for z2 in elems:
                antipode = anti(z2)
                if z1 == antipode:
                    expected = (0, 0, 0), "sphere-loose"
                else:
                    if q is None:
                        image = oracle_db.suspension(m - 1, n - 1).image()
                        q = group.quotient_by(image)[1]
                    if q(z1) == q(antipode):
                        expected = (1, 1, 1), "sphere-suspended-difference"
                    else:
                        expected = (1, 1, inf), "sphere-unsuspended-difference"
                v = classify_sphere_pair(db, m, n, z1, z2)
                assert (v.numbers(), v.rule) == expected, (m, n, z1.coords, z2.coords)
                assert loose_pair(db, Sphere(n), m, z1, z2).loose == (z1 == antipode)
                pairs += 1
        instances += 1
    assert (instances, pairs) == (147, 10396)


def _with_boundary_record(doc, k, m, n_prime, matrix):
    """The shipped document plus one hand-built boundary record."""
    from coincalc.homotopy_db import build_database

    doc["homs"].append({"kind": "boundary", "K": k, "m": m, "nprime": n_prime,
                        "matrix": matrix, "provenance": "hand-built test record"})
    return build_database(doc)


def test_projective_case2_where_suspension_enlarges_the_kernel(db_doc):
    """On the shipped data the suspended boundary kernel equals the
    kernel, so case 2 never fires there.  Here pi_10(S^7) = C24 maps onto
    pi_9(S^5) = C2 and suspension kills that C2 (pi_10(S^6) = 0): the
    kernel is C12, the suspended kernel all of C24."""
    d = _with_boundary_record(db_doc, "C", 10, 3, [[1]])
    cls = ProjectiveClassifier(d, "C", 10, 3)
    assert cls.kernel.canonical_form == FgAbGroup(0, (12,))
    assert cls.suspended_kernel.canonical_form == FgAbGroup(0, (24,))
    lifts = list(cls.pg.sphere_group.enumerate_torsion_part())
    rules = Counter()
    for z in lifts:
        x = cls.pg.lift_injection(z)
        assert len(cls.matching_cases(x, x)) == 1
        rules[classify_projective_pair(d, "C", 10, 3, x, x).rule] += 1
    assert rules == {"projective-case-1": 12, "projective-case-2": 12}
    oracle = _case_oracle(d, "C", 10, 3)
    inj = cls.pg.lift_injection
    for z1 in lifts:
        for z2 in lifts:
            got = cls.matching_cases(inj(z1), inj(z2))
            assert got == oracle(z1, z2), (z1.coords, z2.coords)
    assert exclusivity_violations(d, "C", 10, 3) == []


def test_validate_db_reports_a_broken_case_identity(db_doc, tmp_path, capsys):
    """(R, 6, 4) is unstable with even n', so its boundary comes from a
    record.  An injective one, pi_6(S^4) = C2 -> pi_5(S^3) = C2, makes
    ker_susp zero while A fixes all of C2: identity (ii) fails, and the
    pair sweep agrees."""
    import json

    from conftest import write_db
    from coincalc.cli import EXIT_ERROR, main

    d = _with_boundary_record(db_doc, "R", 6, 4, [[1]])
    assert len(exclusivity_violations(d, "R", 6, 4)) == 1
    assert ProjectiveClassifier(d, "R", 6, 4).exclusivity_failure() == (
        "identity (ii) fails: ker_susp != ker(A - 1)")
    path = write_db(tmp_path, db_doc)  # db_doc now holds the record too
    assert main(["--format", "machine", "--db", str(path), "validate-db"]) == EXIT_ERROR
    checks = json.loads(capsys.readouterr().out)["payload"]["checks"]
    failed = [c for c in checks
              if c["check"] == "case-exclusivity" and c["status"] == "fail"]
    assert [c["instance"] for c in failed] == ["(K=R, m=6, n'=4)"]
    assert "ker(A - 1)" in failed[0]["detail"]


def test_projective_case6_and_the_gap_from_boundary_records(db_doc):
    """The two branches of the case tree the shipped table never reaches.
    With the record pi_7(S^5) = C2 -> pi_6(S^3) = C12, g -> 6, the
    generator leaves both kernels, so x = x is case 6.  With the
    injective (R, 6, 4) record, ker_susp is zero while A fixes all of
    C2: the pair (g, g) is free, A does not move g and the cosets agree,
    so no case holds and ``classify`` reports the gap."""
    from coincalc.fibration import pi_projective

    d = _with_boundary_record(db_doc, "C", 7, 2, [[6]])
    pg = pi_projective(d, "C", 7, 2)
    x = pg.lift_injection(pg.sphere_group.element([1]))
    trace = Trace()
    v = classify_projective_pair(d, "C", 7, 2, x, x, trace)
    assert (v.numbers(), v.rule) == ((1, 1, 1), "projective-case-6")
    assert trace.entries == ["projective-splitting", "boundary-record",
                             "suspension-record", "projective-case-6"]

    d = _with_boundary_record(db_doc, "R", 6, 4, [[1]])
    pg = pi_projective(d, "R", 6, 4)
    lift = [pg.lift_injection(pg.sphere_group.element([c])) for c in (0, 1)]
    # the gap first, on a fresh memo: it still reads case 5's quotient
    trace = Trace()
    with pytest.raises(GapError, match="no classification case matched for K=R, m=6, n'=4"):
        classify_projective_pair(d, "R", 6, 4, lift[1], lift[1], trace)
    assert trace.entries == ["projective-splitting", "boundary-record", "suspension-record",
                             "antipodal-stable-negation", "suspension-record"]
    rules = {(c1, c2): classify_projective_pair(d, "R", 6, 4, lift[c1], lift[c2]).rule
             for c1, c2 in [(0, 0), (0, 1), (1, 0)]}
    assert rules == {(0, 0): "projective-case-1", (0, 1): "projective-case-4",
                     (1, 0): "projective-case-4"}


def test_projective_real_case2_from_a_boundary_record(db_doc):
    # (R, 11, 6) is outside the stable range with even n', so a record
    # answers: pi_11(S^6) = Z -> pi_10(S^5) = C2 sends g to the generator,
    # which suspends to 0 in the torsion-free pi_11(S^6) = Z
    from coincalc.fibration import pi_projective

    d = _with_boundary_record(db_doc, "R", 11, 6, [[1]])
    pg = pi_projective(d, "R", 11, 6)
    g = pg.lift_injection(pg.sphere_group.element([1]))
    v = classify_projective_pair(d, "R", 11, 6, g, g)
    assert v.rule == "projective-case-2"
    assert v.numbers() == (0, 1, 1)


def test_projective_split_exactness_sweep(db):
    # summand injections intersect trivially and jointly generate
    from conftest import covered_projective_instances, intersection
    from coincalc.fibration import pi_projective

    for k, m, n_prime, cls in covered_projective_instances(db):
        if cls.pg.total.order() > 64:
            continue
        pg = cls.pg
        assert pg.lift_injection.kernel().is_trivial
        im1 = pg.lift_injection.image()
        im2 = pg.c_injection.image()
        assert intersection(im1, im2).is_trivial
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
