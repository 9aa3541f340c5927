"""Smith normal form microbenchmark on the matrix shapes coincalc builds.

Groups in the shipped table have at most 4 generators, so the stacked
"map columns plus relation columns" matrices the package reduces are at
most 8 x 8; entries are small map coefficients or torsion orders up to
240.
"""

from __future__ import annotations

import random
import time

from coincalc import smith_normal_form

TORSION = (2, 3, 4, 6, 8, 12, 24, 120, 240)


def matrices(seed: int, count: int = 300) -> list[list[list[int]]]:
    rng = random.Random(f"snf:{seed}")
    out = []
    for _ in range(count):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        out.append([[_entry(rng) for _ in range(cols)] for _ in range(rows)])
    return out


def _entry(rng: random.Random) -> int:
    u = rng.random()
    if u < 0.5:
        return 0
    if u < 0.8:
        return rng.choice((-3, -2, -1, 1, 2, 3))
    return rng.choice(TORSION)


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def is_snf(a, u, d, v) -> bool:
    """``d = u a v``, diagonal, nonnegative and chained by divisibility."""
    if _mul(_mul(u, a), v) != [list(r) for r in d]:
        return False
    diag = []
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            if i != j and x:
                return False
            if i == j:
                diag.append(x)
    if any(x < 0 for x in diag):
        return False
    nonzero = [x for x in diag if x]
    if diag[:len(nonzero)] != nonzero:
        return False
    return all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))


def bench(seed: int, repeats: int = 7) -> tuple[float, bool]:
    """Median over ``repeats`` passes of the mean microseconds per call,
    and whether every result is a valid Smith normal form."""
    mats = matrices(seed)
    ok = all(is_snf(a, *smith_normal_form(a)) for a in mats)
    per_call = []
    for _ in range(repeats):
        start = time.perf_counter()
        for a in mats:
            smith_normal_form(a)
        per_call.append((time.perf_counter() - start) / len(mats) * 1e6)
    per_call.sort()
    return per_call[len(per_call) // 2], ok
