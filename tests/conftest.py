from __future__ import annotations

import copy
import json

import pytest

from coincalc.abelian import FgAbGroup, GroupHom, Subgroup
from coincalc.coincidence import SphereClassifier
from coincalc.coincidence import covered_projective_instances  # noqa: F401
from coincalc.errors import GapError
from coincalc.homotopy_db import DEFAULT_DB_PATH, Database, load_default_database


@pytest.fixture(scope="session")
def db():
    return load_default_database()


@pytest.fixture(scope="session")
def raw_db_doc():
    return json.loads(DEFAULT_DB_PATH.read_text("utf-8"))


@pytest.fixture
def db_doc(raw_db_doc):
    """Mutable copy of the shipped database document for fault seeding."""
    return copy.deepcopy(raw_db_doc)


def rebuilt(db, hom_records=()) -> Database:
    """A table over the records of ``db`` and ``hom_records``, built, and
    so checked, afresh: its memo starts empty."""
    return Database(db.range, db.sphere_records(), db.hom_records() + list(hom_records))


def write_db(tmp_path, doc, name="db.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), "utf-8")
    return path


def add_suspension_record(doc, m, n, matrix):
    """Append a suspension record to a database document.  The shipped
    table stores none in the stable range m < 2n - 1, where a record is
    read back against the identity the rule gives."""
    doc["homs"].append({"kind": "suspension", "m": m, "n": n, "matrix": matrix,
                        "provenance": "seeded record"})


def intersection(a, b):
    """``a`` meet ``b``, two subgroups of one ambient group: the kernel of
    ``(x, y) -> sum x_i a_i - sum y_j b_j`` on a free group, sent through
    the generators of ``a``."""
    ambient = a.ambient
    assert b.ambient == ambient
    zeros = tuple(ambient.zero() for _ in b.generators)
    free = FgAbGroup.free(len(a.generators) + len(zeros))

    def hom(vectors):
        return GroupHom(free, ambient,
                        [[v.coords[i] for v in vectors] for i in range(ambient.ngens)])

    meet = hom(a.generators + tuple(-g for g in b.generators)).kernel()
    return Subgroup(ambient, tuple(map(hom(a.generators + zeros), meet.generators)))


def covered_sphere_instances(db):
    """Every finite sphere instance the shipped data fully supports."""
    rng_meta = db.range
    for n in range(rng_meta.n_min, rng_meta.n_max + 1):
        for m in range(1, n + rng_meta.stem_max + 1):
            try:
                group = db.pi_sphere(m, n)
            except GapError:
                continue
            if group.free_rank:
                continue
            try:
                cls = SphereClassifier(db, m, n)
                # the suspension quotient is consulted only off the loose
                # and circle branches, which need n >= 2 and classes
                if n >= 2 and not group.is_trivial:
                    cls.suspension_quotient
            except GapError:
                continue
            yield m, n, group, cls


