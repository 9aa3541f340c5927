"""Out-of-program tracer for the coincalc layers.

The tracer wraps public functions and methods of the package modules at
run time.  Span wrappers record ``(id, parent, name, start_ns, end_ns)``
in memory; count wrappers only bump a counter, for functions hot enough
that a span per call would distort the run.  A module that imported a
function by name holds its own binding (``coincidence`` binds
``pi_projective`` and the boundary kernels from ``fibration``), so every
binding of a wrapped function in every loaded module is replaced, and
restored by :meth:`Tracer.uninstall`.

Self time of a span is its duration minus the part of it covered by its
child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path, metric name); spans nest, counts do not
SPANS = (
    ("cli", "main", "cli.main"),
    ("homotopy_db", "load_database", "homotopy_db.load_database"),
    ("fibration", "pi_projective", "fibration.pi_projective"),
    ("fibration", "boundary_kernel", "fibration.boundary_kernel"),
    ("fibration", "suspended_boundary_kernel",
     "fibration.suspended_boundary_kernel"),
    ("fibration", "exactness_report", "fibration.exactness_report"),
    ("coincidence", "classify_sphere_pair", "coincidence.classify_sphere_pair"),
    ("coincidence", "classify_projective_pair",
     "coincidence.classify_projective_pair"),
    ("coincidence", "loose_pair", "coincidence.loose_pair"),
    ("coincidence", "filtration_subgroup", "coincidence.filtration_subgroup"),
    ("coincidence", "exclusivity_violations",
     "coincidence.exclusivity_violations"),
)
COUNTS = (
    ("homotopy_db", "Database.pi_sphere", "homotopy_db.lookups"),
    ("homotopy_db", "Database.suspension", "homotopy_db.lookups"),
    ("homotopy_db", "Database.antipodal", "homotopy_db.lookups"),
    ("coincidence", "ProjectiveClassifier.matching_cases",
     "coincidence.exclusivity_violations.pairs"),
    ("abelian", "Subgroup.__init__", "abelian.subgroup_builds"),
    ("abelian", "Subgroup.contains", "abelian.contains.calls"),
    ("abelian", "GroupHom.kernel", "abelian.kernel.calls"),
    ("abelian", "FgAbGroup.direct_sum", "abelian.direct_sum.calls"),
    ("abelian", "GroupElement.__post_init__", "abelian.element_builds"),
)
# classifier constructors: counted, with the number of leading positional
# arguments after ``db`` that name the instance
BUILDS = (
    ("coincidence", "SphereClassifier.__init__", 2),
    ("coincidence", "ProjectiveClassifier.__init__", 3),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.instances: set = set()
        self._stack: list[int] = []
        self._dbs: dict = {}
        self._patches: list[tuple] = []

    # -- wrappers --------------------------------------------------------------

    def _enter(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        return sid, parent, name, time.perf_counter_ns()

    def _exit(self, frame):
        self.spans[frame[0]] = frame + (time.perf_counter_ns(),)
        self._stack.pop()

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _build(self, cls_name, nargs, fn):
        counts, instances, dbs = self.counts, self.instances, self._dbs

        @functools.wraps(fn)
        def wrapper(obj, db, *args, **kwargs):
            counts["coincidence.classifier_builds"] += 1
            dbs[id(db)] = db  # keeps ids unique while the tracer lives
            instances.add((cls_name, id(db)) + args[:nargs])
            return fn(obj, db, *args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """One span recorded by the benchmark itself, around a request."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    # -- patching ----------------------------------------------------------------

    def install(self):
        for mod, path, name in SPANS:
            self._patch(mod, path, lambda fn, n=name: self._span(n, fn))
        for mod, path, name in COUNTS:
            self._patch(mod, path, lambda fn, n=name: self._count(n, fn))
        for mod, path, nargs in BUILDS:
            cls_name = path.split(".")[0]
            self._patch(mod, path,
                        lambda fn, c=cls_name, k=nargs: self._build(c, k, fn))

    def _patch(self, mod_name, path, make):
        module = importlib.import_module(f"coincalc.{mod_name}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = owner.__dict__[attr]
        wrapped = make(original)
        if owner_name:
            self._set(owner, attr, wrapped, original)
            return
        # every module-level binding of the function, wherever imported
        for loaded in list(sys.modules.values()):
            for key, value in list(getattr(loaded, "__dict__", {}).items()):
                if value is original:
                    self._set(loaded, key, wrapped, original)

    def _set(self, owner, attr, wrapped, original):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name call count, total and self milliseconds, plus counts."""
        return {"spans": summarize(self.spans), "counts": dict(self.counts),
                "distinct_instances": len(self.instances)}


def self_times(spans) -> dict[int, int]:
    """Self time in ns of every span: its duration minus the union of its
    children's intervals, clipped to the span."""
    children = defaultdict(list)
    for sid, parent, _name, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = {}
    for sid, _parent, _name, start, end in spans:
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


def summarize(spans) -> dict[str, dict]:
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for sid, _parent, name, start, end in spans:
        agg = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        agg["calls"] += 1
        agg["total_ms"] += (end - start) / 1e6
        agg["self_ms"] += selfs[sid] / 1e6
    return out
