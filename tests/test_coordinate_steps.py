"""Property test of the coordinate-level steps against the element API.

``GroupHom.map_coords`` and ``Subgroup.contains_coords`` take reduced
coordinate tuples with no group check; on valid input they must agree
with ``GroupHom.__call__`` and ``Subgroup.contains`` on the elements.
"""

from __future__ import annotations

from math import gcd

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from coincalc.abelian import FgAbGroup, GroupHom  # noqa: E402


@st.composite
def groups(draw):
    """Free rank 0-2 and up to three chained torsion coefficients; the
    trivial group is the smallest draw."""
    torsion = []
    for _ in range(draw(st.integers(0, 3))):
        steps = [1, 2, 3] if torsion else [2, 3, 4]
        torsion.append((torsion[-1] if torsion else 1) * draw(st.sampled_from(steps)))
    return FgAbGroup(draw(st.integers(0, 2)), tuple(torsion))


def elements(group):
    """Elements with free coordinates of either sign."""
    free = st.lists(st.integers(-6, 6), min_size=group.free_rank,
                    max_size=group.free_rank)
    torsion = st.tuples(*(st.integers(0, t - 1) for t in group.torsion))
    return st.builds(lambda f, t: group.element(tuple(f) + t), free, torsion)


@st.composite
def homs(draw):
    """A valid hom: a torsion generator of order t goes to an element whose
    order divides t, so its free rows are 0 and a torsion row of order s
    is a multiple of s / gcd(s, t)."""
    dom, cod = draw(groups()), draw(groups())
    columns = []
    for j in range(dom.ngens):
        if j < dom.free_rank:
            column = [draw(st.integers(-6, 6)) for _ in range(cod.ngens)]
        else:
            t = dom.torsion[j - dom.free_rank]
            column = [0] * cod.free_rank + [
                s // gcd(s, t) * draw(st.integers(-3, 3)) for s in cod.torsion]
        columns.append(column)
    return GroupHom(dom, cod, [[c[i] for c in columns] for i in range(cod.ngens)])


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_the_coordinate_steps_match_the_element_api(data):
    hom = data.draw(homs())
    x = data.draw(elements(hom.domain))
    assert hom.map_coords(x.coords) == hom(x).coords
    assert hom.kernel().contains_coords(x.coords) == hom(x).is_zero
    cod = hom.codomain
    gens = data.draw(st.lists(elements(cod), max_size=3))
    sub = cod.subgroup(gens)
    for y in [hom(x)] + data.draw(st.lists(elements(cod), min_size=1, max_size=4)):
        assert sub.contains_coords(y.coords) == sub.contains(y)
