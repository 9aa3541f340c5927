"""Differential fuzz of the loader against ``sphere_groups.schema.json``.

Each mutant of the shipped document has one value replaced, one key
deleted or one key added.  Loading it must succeed or raise ``DataError``,
never anything else, and a mutant the schema rejects must not load,
except where one of the two deliberate leniencies of ``build_database``
applies (``DEFAULTS`` below).
"""

from __future__ import annotations

import copy
import json

import pytest

pytest.importorskip("hypothesis")
jsonschema = pytest.importorskip("jsonschema")

from hypothesis import given, settings, strategies as st  # noqa: E402

from coincalc.errors import DataError  # noqa: E402
from coincalc.homotopy_db import (  # noqa: E402
    DEFAULT_DB_PATH,
    FORMAT,
    SCHEMA_PATH,
    build_database,
)

DOCUMENT = json.loads(DEFAULT_DB_PATH.read_text("utf-8"))
VALIDATOR = jsonschema.Draft202012Validator(json.loads(SCHEMA_PATH.read_text("utf-8")))

# The two leniencies, as the values the loader reads for absent top-level
# keys: a missing format is this format, and a missing range or record list
# is empty.  The schema has no empty range; any valid one stands in for it,
# since nothing else in the schema reads the range.
DEFAULTS = {"format": FORMAT, "range": {"n_min": 1, "n_max": 1, "stem_max": 0},
            "sphere_groups": [], "homs": []}
RECORD_LISTS = ("sphere_groups", "homs")


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _section(path) -> str:
    return path[0] if len(path) > 1 else "top level"


# every path into the document, grouped by the part it lies in, so that the
# few top-level and range paths are drawn as often as the record paths
SECTIONS: dict[str, list] = {}
for _path in _paths(DOCUMENT):
    SECTIONS.setdefault(_section(_path), []).append(_path)

KEYS = st.sampled_from(sorted(
    {key for path in _paths(DOCUMENT) for key in path if isinstance(key, str)}
    | {"K", "nprime", "extra"}
)) | st.text(max_size=3)
SCALARS = (st.none() | st.booleans() | st.integers(-2, 30)
           | st.sampled_from([2**70, 0.5, 3.0, "", "R", "boundary", FORMAT])
           | st.text(max_size=3))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=4,
)


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutants(draw):
    """``(path, mutant)``: the shipped document changed at ``path``."""
    path = draw(st.sampled_from(SECTIONS[draw(st.sampled_from(sorted(SECTIONS)))]))
    ops = ["replace"]
    if path and isinstance(path[-1], str):
        ops.append("delete")
    if isinstance(_node(DOCUMENT, path), dict):
        ops.append("add")
    op = draw(st.sampled_from(ops))
    doc = copy.deepcopy(DOCUMENT)
    if op == "add":
        _node(doc, path)[draw(KEYS)] = draw(VALUES)
    elif op == "delete":
        del _node(doc, path[:-1])[path[-1]]
    elif path:
        _node(doc, path[:-1])[path[-1]] = draw(VALUES)
    else:
        doc = draw(VALUES)
    return path, doc


def _schema_probe(doc, path):
    """``doc`` with the leniencies' defaults filled in, cut down for speed
    to the records the mutation at ``path`` can have touched: the schema
    constrains each record on its own, and the shipped records are valid."""
    if not isinstance(doc, dict):
        return doc
    probe = {**DEFAULTS, **doc}
    for key in RECORD_LISTS:
        if path[:1] != (key,):
            probe[key] = []
        elif len(path) > 1:
            probe[key] = [doc[key][path[1]]]
    return probe


def test_the_shipped_document_and_its_probes_are_valid():
    build_database(copy.deepcopy(DOCUMENT))
    # a probe depends on the first two steps of its path only
    for path in {path[:2] for paths in SECTIONS.values() for path in paths}:
        assert VALIDATOR.is_valid(_schema_probe(DOCUMENT, path)), path


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(mutants())
def test_the_loader_rejects_what_the_schema_rejects(mutant):
    path, doc = mutant
    try:
        build_database(doc)
    except DataError:
        return
    assert VALIDATOR.is_valid(_schema_probe(doc, path)), path
