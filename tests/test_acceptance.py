"""Acceptance gate: one test per shipped-behavior criterion.

Each test prints a PASS line with its measured evidence; tolerances are
exact (integer equality) throughout, and the timed criteria assert
their runtime bounds.
"""

from __future__ import annotations

import json
import random
import time
from math import inf

from coincalc.abelian import FgAbGroup, smith_normal_form
from coincalc.cli import EXIT_ERROR, EXIT_OK, main
from coincalc.coincidence import (
    Grassmannian2,
    ProjectiveClassifier,
    Sphere,
    classify_sphere_pair,
    exclusivity_violations,
    filtration_subgroup,
    grassmann_all_loose,
    grassmann_pi,
    loose_pair,
    pi_punctured,
)
from coincalc.errors import GapError
from coincalc.fibration import ProjectiveSpace, boundary_kernel

from conftest import (add_suspension_record, covered_projective_instances,
                      covered_sphere_instances, write_db)
from test_abelian import closure, det, matmul
from test_abelian_properties import random_finite_group, random_hom


def test_criterion_1_golden_filtration_chains(db):
    start = time.monotonic()
    for n_prime, m, ambient in ((6, 9, 24), (10, 17, 240)):
        space = ProjectiveSpace("R", n_prime)
        punct = pi_punctured(db, space, m)
        stage2 = filtration_subgroup(db, space, m, 2).subgroup
        assert punct.canonical_form == FgAbGroup.trivial()
        assert stage2.canonical_form == FgAbGroup(0, (2,))
        assert stage2.ambient == FgAbGroup(0, (ambient,))
        assert stage2.contains_subgroup(punct)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"PASS criterion 1: filtration chains (0, C2, C24) and (0, C2, C240) "
          f"reproduced exactly in {elapsed:.3f}s")


def test_criterion_2_projective_table_conformance(db):
    start = time.monotonic()
    pg_cases = [
        ((12, 12), "projective-case-1", (0, 0, 0)),
        ((1, 1), "projective-case-3", (1, 1, 1)),
        ((1, 0), "projective-case-4", (2, 2, 2)),
    ]
    cls = ProjectiveClassifier(db, "R", 9, 6)
    total = cls.pg.total
    for (c1, c2), rule, numbers in pg_cases:
        v = cls.classify(total.element([c1]), total.element([c2]))
        assert v.rule == rule
        assert v.numbers() == numbers
    violations = exclusivity_violations(db, "R", 9, 6)
    assert violations == []
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"PASS criterion 2: cases 1/3/4 verdicts exact and 576/576 pairs "
          f"matched by exactly one case in {elapsed:.3f}s")


def test_criterion_3_sphere_rules(db):
    g5 = db.pi_sphere(8, 5)
    v_odd = classify_sphere_pair(db, 8, 5, g5.element([7]), g5.element([7]))
    assert v_odd.numbers() == (0, 0, 0) and v_odd.loose

    g6 = db.pi_sphere(6, 6)
    v_even = classify_sphere_pair(db, 6, 6, g6.element([1]), g6.element([1]))
    assert v_even.numbers() == (1, 1, 1)

    g1 = db.pi_sphere(1, 1)
    v_circle = classify_sphere_pair(db, 1, 1, g1.element([3]), g1.element([5]))
    assert v_circle.numbers() == (2, 2, 2)
    print("PASS criterion 3: sphere looseness, even-degree and circle-degree "
          "rules match exactly")


def test_criterion_4_grassmann(db):
    for r in (4, 6, 8):
        assert grassmann_all_loose(r) is True
        assert loose_pair(db, Grassmannian2(r), 9).loose
    assert grassmann_pi(db, 3, 4) == FgAbGroup(2, ())
    print("PASS criterion 4: G_{r,2} all-loose for r in {4,6,8}; "
          "pi_3(G_{4,2}) = Z x Z")


def test_criterion_5_property_suite(db):
    start = time.monotonic()
    rng = random.Random(0x5EED)

    # 1000 randomized Smith normal forms
    for _ in range(1000):
        rows = rng.randint(0, 6)
        cols = rng.randint(0, 6)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        u, d, v = smith_normal_form(a)
        ul, vl, dl = ([list(r) for r in mat] for mat in (u, v, d))
        assert matmul(matmul(ul, a), vl) == dl
        assert abs(det(ul)) == 1
        assert abs(det(vl)) == 1
        diag = [d[i][i] for i in range(min(rows, cols))]
        nz = [x for x in diag if x]
        assert all(x > 0 for x in nz)
        assert all(b % a_ == 0 for a_, b in zip(nz, nz[1:]))
        assert diag[len(nz):] == [0] * (len(diag) - len(nz))

    # 200 random homomorphisms on finite groups of order <= 200,
    # checked against enumeration oracles
    for _ in range(200):
        dom = random_finite_group(rng)
        cod = random_finite_group(rng)
        h = random_hom(rng, dom, cod)
        ker, img = h.kernel(), h.image()
        dom_elems = list(dom.enumerate_torsion_part())
        cod_elems = list(cod.enumerate_torsion_part())
        n_ker = 0
        for e in dom_elems:
            in_ker = h(e).is_zero
            assert ker.contains(e) == in_ker
            n_ker += in_ker
        img_oracle = closure(cod, [h(g) for g in dom.generators()])
        for e in cod_elems:
            assert img.contains(e) == (e.coords in img_oracle)
        assert n_ker * len(img_oracle) == len(dom_elems)

        # quotient and membership against coset enumeration
        gens = [
            dom.element([rng.randrange(t) for t in dom.torsion])
            for _ in range(rng.randint(0, 2))
        ]
        sub = dom.subgroup(gens)
        sub_oracle = closure(dom, gens)
        for e in dom_elems:
            assert sub.contains(e) == (e.coords in sub_oracle)
        q, proj = dom.quotient_by(sub)
        assert q.order() * len(sub_oracle) == len(dom_elems)
        assert proj.kernel() == sub

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"PASS criterion 5: 1000 SNF instances and 200 hom oracles, zero "
          f"failures in {elapsed:.1f}s")


def test_criterion_6_stable_kernel_oracle(db):
    checked = 0
    rng_meta = db.range
    for n in range(max(2, rng_meta.n_min), rng_meta.n_max + 1):
        for m in range(n + 1, n + rng_meta.stem_max + 1):
            if not m < 2 * n - 2:
                continue
            group = db.pi_sphere(m, n)
            if group.free_rank:
                continue
            ker = boundary_kernel(db, "R", m, n)
            factor = 1 + (-1) ** n
            expected = {
                e.coords
                for e in group.enumerate_torsion_part()
                if (factor * e).is_zero
            }
            actual = {
                e.coords
                for e in group.enumerate_torsion_part()
                if ker.contains(e)
            }
            assert actual == expected, (m, n)
            # validate-db compares ker with this lattice kernel instead
            killed = group.multiplication_by(factor).kernel()
            assert {e.coords for e in group.enumerate_torsion_part()
                    if killed.contains(e)} == expected, (m, n)
            checked += 1
    assert checked == 44
    print(f"PASS criterion 6: synthesized boundary kernels equal the "
          f"enumerated order-dividing sets on all {checked} stable cells")


def test_criterion_7_structural_invariants(db):
    rng = random.Random(0x57AB)
    instances = pairs_checked = 0

    for m, n, group, cls in covered_sphere_instances(db):
        elems = list(group.enumerate_torsion_part())
        if len(elems) > 26:
            pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(120)]
        else:
            pairs = [(a, b) for a in elems for b in elems]
        instances += 1
        for z1, z2 in pairs:
            v = cls.classify(z1, z2)
            assert 0 <= v.nielsen <= v.mcc <= v.mc
            w = cls.classify(z2, z1)
            assert v.numbers() == w.numbers()
            ans = loose_pair(db, Sphere(n), m, z1, z2)
            assert ans.loose == v.loose == (v.mcc == 0)
            pairs_checked += 1

    for k, m, n_prime, cls in covered_projective_instances(db):
        if cls.pg.total.order() > 64:
            continue
        elems = list(cls.pg.total.enumerate_torsion_part())
        space = ProjectiveSpace(k, n_prime)
        instances += 1
        for x1 in elems:
            for x2 in elems:
                v = cls.classify(x1, x2)
                assert 0 <= v.nielsen <= v.mcc <= v.mc
                w = cls.classify(x2, x1)
                assert v.numbers() == w.numbers()
                ans = loose_pair(db, space, m, x1, x2)
                assert ans.loose == v.loose == (v.mcc == 0)
                pairs_checked += 1

    # filtration monotonicity and punctured containment
    filt_spaces = [(Sphere(n), n + s) for n in range(2, 13) for s in (2, 3)]
    filt_spaces += [(ProjectiveSpace("R", np_), np_ + s)
                    for np_ in range(2, 11) for s in (2, 3)]
    filt_checked = 0
    for space, m in filt_spaces:
        try:
            chain = [filtration_subgroup(db, space, m, q).subgroup
                     for q in (1, 2, 3, 4)]
            stabilized = filtration_subgroup(db, space, m, inf).subgroup
            punct = pi_punctured(db, space, m)
        except GapError:
            continue
        for prev, nxt in zip(chain, chain[1:]):
            assert prev.contains_subgroup(nxt)
        assert stabilized.contains_subgroup(punct)
        filt_checked += 1
    assert filt_checked >= 20

    print(f"PASS criterion 7: ordering/symmetry/looseness invariants on "
          f"{pairs_checked} pairs over {instances} instances; filtration "
          f"monotone on {filt_checked} chains")


def test_criterion_8_database_validation(db, capsys, tmp_path, raw_db_doc):
    import copy

    # shipped database passes end to end through the CLI
    assert main(["validate-db"]) == EXIT_OK
    capsys.readouterr()

    faults = []

    doc = copy.deepcopy(raw_db_doc)
    add_suspension_record(doc, 8, 5, [[2]])
    faults.append((write_db(tmp_path, doc, "fault_freudenthal.json"),
                   "suspension (8,5)"))

    doc = copy.deepcopy(raw_db_doc)
    doc["sphere_groups"] = [
        r for r in doc["sphere_groups"] if (r["m"], r["n"]) != (8, 5)
    ]
    faults.append((write_db(tmp_path, doc, "fault_hole.json"), "pi_8(S^5)"))

    doc = copy.deepcopy(raw_db_doc)
    for rec in doc["sphere_groups"]:
        if (rec["m"], rec["n"]) == (14, 6):
            rec["torsion"] = [24, 2]
    faults.append((write_db(tmp_path, doc, "fault_chain.json"), "14,6"))

    for path, key in faults:
        code = main(["--format", "machine", "--db", str(path), "validate-db"])
        out = capsys.readouterr().out
        assert code == EXIT_ERROR
        assert key in json.loads(out)["message"]

    print("PASS criterion 8: shipped database validates; three seeded faults "
          "each rejected naming their record")
