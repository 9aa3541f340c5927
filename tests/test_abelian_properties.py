"""Randomized invariants of the exact-arithmetic layer.

Seeded so failures reproduce; the heavyweight counted suites required
by the acceptance gate live in test_acceptance.py, these runs cover the
same properties with independent seeds.
"""

from __future__ import annotations

import random
from math import gcd

from coincalc.abelian import FgAbGroup, GroupHom, smith_normal_form

from test_abelian import closure, det, matmul

rng = random.Random(0xABE1)


def random_matrix(r):
    m = r.randint(0, 6)
    n = r.randint(0, 6)
    return [[r.randint(-9, 9) for _ in range(n)] for _ in range(m)]


def random_finite_group(r, max_order=200) -> FgAbGroup:
    torsion = []
    total = 1
    t = r.choice([2, 2, 2, 3, 4, 5, 6, 8, 12])
    while total * t <= max_order:
        torsion.append(t)
        total *= t
        t *= r.choice([1, 1, 2, 3])
        if r.random() < 0.45:
            break
    return FgAbGroup(0, tuple(torsion))


def random_element_of_order_dividing(r, group: FgAbGroup, t: int):
    coords = []
    for tj in group.torsion:
        step = tj // gcd(tj, t)
        coords.append(step * r.randint(0, tj // step - 1))
    return group.element(coords)


def random_hom(r, dom: FgAbGroup, cod: FgAbGroup) -> GroupHom:
    cols = []
    for t in dom.torsion:
        cols.append(list(random_element_of_order_dividing(r, cod, t).coords))
    matrix = [[cols[j][i] for j in range(len(cols))] for i in range(cod.ngens)]
    return GroupHom(dom, cod, matrix)


def test_snf_reconstruction_randomized():
    for _ in range(300):
        a = random_matrix(rng)
        u, d, v = smith_normal_form(a)
        if a:
            ul = [list(r_) for r_ in u]
            vl = [list(r_) for r_ in v]
            assert matmul(matmul(ul, a), vl) == [list(r_) for r_ in d]
        assert abs(det([list(r_) for r_ in u])) == 1
        assert abs(det([list(r_) for r_ in v])) == 1
        diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
        nz = [x for x in diag if x]
        assert all(x > 0 for x in nz)
        for x, y in zip(nz, nz[1:]):
            assert y % x == 0
        # zeros trail
        assert diag[len(nz):] == [0] * (len(diag) - len(nz))


def test_kernel_image_counting():
    for _ in range(60):
        dom = random_finite_group(rng)
        cod = random_finite_group(rng)
        h = random_hom(rng, dom, cod)
        ker = h.kernel()
        img = h.image()
        n_ker = sum(1 for e in dom.enumerate_torsion_part() if ker.contains(e))
        n_img = sum(1 for e in cod.enumerate_torsion_part() if img.contains(e))
        assert n_ker == ker.order()
        assert n_img == img.order()
        assert n_ker * n_img == dom.order()
        # kernel membership is exactly h(x) == 0
        for e in dom.enumerate_torsion_part():
            assert ker.contains(e) == h(e).is_zero


def test_quotient_projection_roundtrip():
    for _ in range(50):
        g = random_finite_group(rng)
        gens = [
            g.element([rng.randrange(t) for t in g.torsion])
            for _ in range(rng.randint(0, 3))
        ]
        sub = g.subgroup(gens)
        q, proj = g.quotient_by(sub)
        assert proj.is_surjective()
        back = proj.kernel()
        assert back == sub
        assert back.canonical_form == sub.canonical_form
        assert sub.order() * q.order() == g.order()


def test_membership_against_coset_oracle():
    for _ in range(40):
        g = random_finite_group(rng)
        gens = [
            g.element([rng.randrange(t) for t in g.torsion])
            for _ in range(rng.randint(0, 3))
        ]
        sub = g.subgroup(gens)
        oracle = closure(g, gens)
        assert sub.order() == len(oracle)
        for e in g.enumerate_torsion_part():
            assert sub.contains(e) == (e.coords in oracle)


def test_direct_sum_associative_on_invariants():
    for _ in range(40):
        a, b, c = (random_finite_group(rng) for _ in range(3))
        left = a.direct_sum(b).group.direct_sum(c).group
        right = a.direct_sum(b.direct_sum(c).group).group
        assert left == right
        assert left.order() == a.order() * b.order() * c.order()


def test_surjective_and_bijective_against_closure():
    outcomes = set()
    for _ in range(120):
        dom = random_finite_group(rng, max_order=48)
        kind = rng.choice(("random", "automorphism", "quotient", "injection"))
        if kind == "random":
            h = random_hom(rng, dom, random_finite_group(rng, max_order=48))
        elif kind == "automorphism":  # a unit multiple: bijective
            exponent = dom.torsion[-1] if dom.torsion else 1
            unit = rng.choice([k for k in range(1, 13) if gcd(k, exponent) == 1])
            h = dom.multiplication_by(unit)
        elif kind == "quotient":  # onto, one-to-one only for a trivial subgroup
            gens = [dom.element([rng.randrange(t) for t in dom.torsion])
                    for _ in range(rng.randint(0, 2))]
            h = dom.quotient_by(dom.subgroup(gens))[1]
        else:  # one-to-one, onto only for a trivial complement
            h = dom.direct_sum(random_finite_group(rng, max_order=4)).injections[0]
        image = closure(h.codomain, [h(g) for g in dom.generators()])
        kernel = [x for x in closure(dom, dom.generators())
                  if h(dom.element(x)).is_zero]
        onto = len(image) == h.codomain.order()
        one_to_one = len(kernel) == 1
        assert h.is_surjective() == onto
        assert h.is_bijective() == (onto and one_to_one)
        outcomes.add((onto, one_to_one))
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


def test_surjective_and_bijective_with_free_summands():
    z, c2 = FgAbGroup(1), FgAbGroup(0, (2,))
    z_c2 = FgAbGroup(1, (2,))
    cases = [
        (GroupHom(z, z, [[2]]), False, False),
        (GroupHom(z, z, [[-1]]), True, True),
        (GroupHom(z, c2, [[1]]), True, False),
        (GroupHom(z_c2, z, [[1, 0]]), True, False),
        (GroupHom(z_c2, z_c2, [[1, 0], [1, 1]]), True, True),
        (GroupHom(c2, z_c2, [[0], [1]]), False, False),
    ]
    for h, onto, bijective in cases:
        assert h.is_surjective() == onto
        assert h.is_bijective() == bijective
