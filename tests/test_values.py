"""The value types: immutable, compared field by field within one type,
and importable without the dataclass machinery."""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from math import inf
from pathlib import Path

import pytest

from coincalc.abelian import FgAbGroup, GroupHom, Record, Subgroup
from coincalc.coincidence import CoincidenceVerdict, Grassmannian2, LooseAnswer, Sphere
from coincalc.errors import UsageError
from coincalc.fibration import ProjectiveSpace
from coincalc.homotopy_db import DatabaseRange, StructureHomRecord

SRC = Path(__file__).resolve().parent.parent / "src"


def _values():
    c24 = FgAbGroup(0, (24,), ("nu",))
    return {
        "FgAbGroup": (c24, FgAbGroup(0, (24,))),
        "GroupElement": (c24.element([25]), FgAbGroup(0, (24,)).element([1])),
        "GroupHom": (GroupHom(c24, c24, [[-1]]), c24.multiplication_by(23)),
        "Sphere": (Sphere(4), Sphere(4)),
        "ProjectiveSpace": (ProjectiveSpace("R", 6), ProjectiveSpace("R", 6)),
        "Grassmannian2": (Grassmannian2(6), Grassmannian2(6)),
        "CoincidenceVerdict": (CoincidenceVerdict(False, 1, 1, inf, "rule"),
                               CoincidenceVerdict(False, 1, 1, inf, "rule")),
        "LooseAnswer": (LooseAnswer(True, "rule"), LooseAnswer(True, "rule")),
        "DatabaseRange": (DatabaseRange(2, 12, 21), DatabaseRange(2, 12, 21)),
        # equal as subgroups, from different generating sets
        "Subgroup": (Subgroup(c24, (c24.element([6]),)),
                     Subgroup(FgAbGroup(0, (24,)), ([18], [12]))),
        "StructureHomRecord": tuple(
            StructureHomRecord("boundary", "R", 9, 6, ((5,),), "table")
            for _ in range(2)),
    }


@pytest.mark.parametrize("name", _values())
def test_value_is_immutable(name):
    value, _ = _values()[name]
    for field in type(value).__slots__:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("name", _values())
def test_equal_values_hash_equally(name):
    a, b = _values()[name]
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", _values())
def test_value_survives_copy_and_pickle(name):
    value, _ = _values()[name]
    for clone in (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value) and clone == value
        assert repr(clone) == repr(value)


def test_group_equality_ignores_labels():
    labelled, plain = _values()["FgAbGroup"]
    assert labelled.labels == ("nu",) and plain.labels is None
    assert labelled == plain
    assert labelled != FgAbGroup(1, (24,))


def test_plain_records_get_a_constructor_from_their_slots():
    assert DatabaseRange(n_min=2, stem_max=21, n_max=12) == DatabaseRange(2, 12, 21)
    for args, kwargs in (((2, 12), {}), ((2, 12, 21, 0), {}),
                         ((2, 12, 21), {"extra": 0})):
        with pytest.raises(TypeError):
            DatabaseRange(*args, **kwargs)

    class Checked(Record):
        __slots__ = ("n",)

        def __init__(self, n):
            if n < 0:
                raise UsageError("n must be >= 0")
            object.__setattr__(self, "n", n)

    assert Checked(3).n == 3
    with pytest.raises(UsageError):
        Checked(-1)
    with pytest.raises(UsageError):
        Sphere(0)


def test_values_of_different_types_differ():
    assert Sphere(4) != Grassmannian2(4)
    assert Sphere(4) != 4 and Sphere(4) != (4,)
    assert ProjectiveSpace("R", 6) != ("R", 6)
    assert len({Sphere(4), Grassmannian2(4)}) == 2


def test_cli_import_needs_no_dataclass_machinery():
    # nor hashlib: the CLI keys its loaded table by the file's raw bytes
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import sys, coincalc.cli; "
            "loaded = [m for m in ('dataclasses', 'inspect', 'hashlib') "
            "if m in sys.modules]; "
            "assert not loaded, loaded")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
