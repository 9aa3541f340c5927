"""Pinned examples for the abelian-group layer.

Expected values marked "enumeration oracle" are recomputed here with
brute force that never touches the Smith-normal-form machinery.
"""

from __future__ import annotations

import itertools
import re
from math import gcd, inf

import pytest

from coincalc.abelian import (
    FgAbGroup,
    GroupHom,
    smith_normal_form,
)
from coincalc.errors import UsageError

from conftest import intersection


# --- independent oracles ----------------------------------------------------


def matmul(a, b):
    width = len(b[0]) if b else 0
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(width)]
        for i in range(len(a))
    ]


def det(mat):
    n = len(mat)
    if n == 0:
        return 1
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j, length = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = sign
        for i in range(n):
            term *= mat[i][perm[i]]
        total += term
    return total


def closure(ambient: FgAbGroup, gens) -> set:
    """Subgroup element set by saturation; independent of any SNF."""
    zero = ambient.zero()
    seen = {zero.coords}
    frontier = [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x + g
                if y.coords not in seen:
                    seen.add(y.coords)
                    nxt.append(y)
        frontier = nxt
    return seen


# --- Smith normal form --------------------------------------------------------


def test_snf_identity():
    u, d, v = smith_normal_form([[1, 0], [0, 1]])
    assert d == ((1, 0), (0, 1))
    assert u == ((1, 0), (0, 1))
    assert v == ((1, 0), (0, 1))


def test_snf_zero_rectangular():
    u, d, v = smith_normal_form([[0, 0, 0], [0, 0, 0]])
    assert d == ((0, 0, 0), (0, 0, 0))
    assert u == ((1, 0), (0, 1))
    assert v == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_snf_2x2_example():
    a = [[2, 4], [6, 8]]
    u, d, v = smith_normal_form(a)
    # oracle: first invariant is the gcd of all entries, the product of
    # both invariants is |det|
    entries_gcd = gcd(2, 4, 6, 8)
    assert d[0][0] == entries_gcd == 2
    assert d[0][0] * d[1][1] == abs(det(a)) == 8
    assert d == ((2, 0), (0, 4))
    assert matmul(matmul([list(r) for r in u], a), [list(r) for r in v]) == [
        list(r) for r in d
    ]


def test_snf_empty_shapes():
    u, d, v = smith_normal_form([])
    assert u == () and d == () and v == ()
    u, d, v = smith_normal_form([[], []])
    assert len(u) == 2 and d == ((), ()) and v == ()


# --- kernels -----------------------------------------------------------------


def test_kernel_zero_hom_is_whole_group():
    g = FgAbGroup.cyclic(24)
    k = GroupHom.zero(g, g).kernel()
    assert k.canonical_form == g
    assert all(k.contains(e) for e in g.enumerate_torsion_part())


def test_kernel_mul2_on_c24():
    g = FgAbGroup.cyclic(24)
    k = g.multiplication_by(2).kernel()
    oracle = {e.coords for e in g.enumerate_torsion_part() if (2 * e).is_zero}
    assert oracle == {(0,), (12,)}
    assert {e.coords for e in g.enumerate_torsion_part() if k.contains(e)} == oracle
    assert k.canonical_form == FgAbGroup.cyclic(2)


def test_kernel_mul2_on_z_trivial():
    g = FgAbGroup.free(1)
    assert g.multiplication_by(2).kernel().is_trivial


# --- images --------------------------------------------------------------------


def test_image_identity_is_whole():
    g = FgAbGroup(1, (2,))
    img = g.identity_hom().image()
    assert img.canonical_form == g


def test_image_inclusion_c2_in_c24():
    c2 = FgAbGroup.cyclic(2)
    c24 = FgAbGroup.cyclic(24)
    h = GroupHom(c2, c24, [[12]])
    img = h.image()
    oracle = closure(c24, [c24.element([12])])
    assert {e.coords for e in c24.enumerate_torsion_part() if img.contains(e)} == oracle
    assert img.canonical_form == FgAbGroup.cyclic(2)


def test_image_zero_hom_trivial():
    g = FgAbGroup(0, (4, 8))
    assert GroupHom.zero(g, g).image().is_trivial


def test_is_whole_tells_a_proper_subgroup_of_equal_order():
    z = FgAbGroup.free(1)
    assert z.whole_subgroup().is_whole
    two_z = z.subgroup([z.element([2])])
    assert two_z.order() == z.order() and not two_z.is_whole
    c24 = FgAbGroup.cyclic(24)
    assert c24.subgroup([c24.element([5])]).is_whole
    assert not c24.subgroup([c24.element([2])]).is_whole  # C12
    trivial = FgAbGroup.trivial()
    assert trivial.whole_subgroup().is_whole and trivial.trivial_subgroup().is_whole


# --- quotients -------------------------------------------------------------------


def test_quotient_c24_by_12():
    g = FgAbGroup.cyclic(24)
    sub = g.subgroup([g.element([12])])
    q, proj = g.quotient_by(sub)
    # oracle: count cosets by enumeration
    members = [g.element(c) for c in closure(g, [g.element([12])])]
    cosets = {
        frozenset((e + s).coords for s in members)
        for e in g.enumerate_torsion_part()
    }
    assert q == FgAbGroup.cyclic(12)
    assert len(cosets) == 12
    assert proj.is_surjective()
    assert proj.kernel() == sub


def test_quotient_by_trivial_and_by_whole():
    g = FgAbGroup(1, (6,))
    q1, p1 = g.quotient_by(g.trivial_subgroup())
    assert q1 == g and p1.kernel().is_trivial
    q2, p2 = g.quotient_by(g.whole_subgroup())
    assert q2.is_trivial


def test_quotient_ambient_mismatch():
    g = FgAbGroup.cyclic(24)
    other = FgAbGroup.cyclic(12)
    with pytest.raises(UsageError):
        g.quotient_by(other.trivial_subgroup())


# --- integer inputs -------------------------------------------------------------


@pytest.mark.parametrize("build, value", [
    (lambda: FgAbGroup.cyclic(4).element((1.5,)), "1.5"),
    (lambda: FgAbGroup.cyclic(4).element(("3",)), "'3'"),
    (lambda: FgAbGroup(1, (4,)).reduce((2, 1.0)), "1.0"),
    (lambda: GroupHom(FgAbGroup.free(1), FgAbGroup.free(1), [[2.9]]), "2.9"),
    (lambda: FgAbGroup(0, (2.5,)), "2.5"),
    (lambda: FgAbGroup(1.0), "1.0"),
    (lambda: smith_normal_form([[1, "2"]]), "'2'"),
])
def test_a_non_integer_is_named_not_truncated(build, value):
    with pytest.raises(UsageError, match=f"^expected an integer, got {re.escape(value)}$"):
        build()


# --- direct sums ------------------------------------------------------------------


def test_direct_sum_z_c24():
    ds = FgAbGroup.free(1).direct_sum(FgAbGroup.cyclic(24))
    assert ds.group == FgAbGroup(1, (24,))


def test_direct_sum_chained():
    ds = FgAbGroup.cyclic(2).direct_sum(FgAbGroup.cyclic(4))
    assert ds.group == FgAbGroup(0, (2, 4))


def test_direct_sum_c4_c6():
    # oracle: invariant factors of diag(4, 6) by Smith normal form
    _, d, _ = smith_normal_form([[4, 0], [0, 6]])
    assert (d[0][0], d[1][1]) == (2, 12)
    ds = FgAbGroup.cyclic(4).direct_sum(FgAbGroup.cyclic(6))
    assert ds.group == FgAbGroup(0, (2, 12))


def test_direct_sum_projection_injection_identity():
    g1 = FgAbGroup(1, (4,))
    g2 = FgAbGroup(0, (6,))
    ds = g1.direct_sum(g2)
    for g, inj, proj in zip((g1, g2), ds.injections, ds.projections):
        assert (proj @ inj) == g.identity_hom()
    # the two summand images only share zero
    im1 = ds.injections[0].image()
    im2 = ds.injections[1].image()
    assert intersection(im1, im2).is_trivial


def test_intersection_helper_c24():
    # <2> meet <3> in C24 is <6>, a C4; the helper is a test oracle
    g = FgAbGroup(0, (24,))
    meet = intersection(g.multiplication_by(2).image(), g.multiplication_by(3).image())
    assert meet.canonical_form == FgAbGroup(0, (4,))
    assert meet.contains(g.element([6])) and not meet.contains(g.element([2]))


# --- membership ---------------------------------------------------------------------


def test_membership_examples():
    g = FgAbGroup.cyclic(24)
    sub = g.subgroup([g.element([12])])
    assert sub.contains(g.element([12]))
    assert not sub.contains(g.element([1]))
    assert sub.contains(g.zero())


def test_membership_matches_closure_oracle():
    g = FgAbGroup(0, (4, 12))
    gens = [g.element([2, 3]), g.element([0, 8])]
    sub = g.subgroup(gens)
    oracle = closure(g, gens)
    for e in g.enumerate_torsion_part():
        assert sub.contains(e) == (e.coords in oracle)


# --- element operations -----------------------------------------------------------


def test_element_arithmetic_and_order():
    g = FgAbGroup.cyclic(24)
    e = g.element([12])
    assert e.order() == 2
    assert (e + e).is_zero
    assert (-e) == e
    assert (5 * g.element([5])).coords == (1,)
    mixed = FgAbGroup(1, (2,))
    assert mixed.element([1, 0]).order() == inf
    assert mixed.element([0, 1]).order() == 2


def test_enumeration_cap():
    g = FgAbGroup.cyclic(24)
    assert len(list(g.enumerate_torsion_part())) == 24
    big = FgAbGroup(0, (2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2))
    with pytest.raises(UsageError, match="too large"):
        list(big.enumerate_torsion_part())


def test_hom_composition_and_welldefinedness():
    c4 = FgAbGroup.cyclic(4)
    c8 = FgAbGroup.cyclic(8)
    double = GroupHom(c4, c8, [[2]])
    back = GroupHom(c8, c4, [[1]])
    assert (back @ double).matrix == ((2,),)
    with pytest.raises(UsageError):
        GroupHom(c4, c8, [[1]])  # 4*1 is not 0 mod 8


def test_hom_composition_through_trivial_group():
    c4 = FgAbGroup.cyclic(4)
    c6 = FgAbGroup.cyclic(6)
    trivial = FgAbGroup.trivial()
    through = GroupHom.zero(trivial, c6) @ GroupHom.zero(c4, trivial)
    assert through.domain == c4 and through.codomain == c6
    assert through.is_zero
    assert through.matrix == ((0,),)


def test_groups_isomorphic_ignores_labels():
    a = FgAbGroup(0, (24,), ("nu",))
    b = FgAbGroup(0, (24,))
    assert a == b


def test_subgroup_canonical_form_generating_set_independent():
    g = FgAbGroup(0, (4, 12))
    s1 = g.subgroup([g.element([2, 0]), g.element([0, 6])])
    s2 = g.subgroup([g.element([2, 6]), g.element([0, 6]), g.element([2, 0])])
    assert s1 == s2
    assert s1.canonical_form == s2.canonical_form


def test_subgroup_coordinates_roundtrip():
    g = FgAbGroup(1, (4, 12))
    sub = g.subgroup([g.element([2, 1, 3]), g.element([0, 0, 4])])
    canon = sub.canonical_form
    for gens_combo in [(0, 0), (1, 0), (2, 3), (5, 1)]:
        elem = g.zero()
        for c, base in zip(gens_combo, sub.canonical_generators):
            elem = elem + c * base
        coords = sub.coordinates_of(elem)
        assert coords is not None
        rebuilt = g.zero()
        for c, base in zip(coords, sub.canonical_generators):
            rebuilt = rebuilt + c * base
        assert rebuilt == elem
    assert sub.coordinates_of(g.element([1, 0, 0])) is None


def test_subgroup_coordinates_solve_once(monkeypatch):
    # one lattice solve per call, member or not, and still the ambient check
    from coincalc import abelian

    solve = abelian._Snf.coefficients
    calls = []
    monkeypatch.setattr(abelian._Snf, "coefficients",
                        lambda self, b: calls.append(b) or solve(self, b))
    g = FgAbGroup(0, (24,))
    sub = g.subgroup([[12]])
    for coords, expected in (([12], (1,)), ([0], (0,)), ([6], None)):
        before = len(calls)
        assert sub.coordinates_of(g.element(coords)) == expected
        assert len(calls) == before + 1
    with pytest.raises(UsageError, match="different ambient"):
        sub.coordinates_of(FgAbGroup(0, (12,)).element([6]))
