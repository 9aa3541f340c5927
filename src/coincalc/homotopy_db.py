"""Curated table of homotopy groups of spheres with structure maps.

The shipped file covers pi_m(S^n) for 1 <= n <= 12 and n <= m <= n+8,
taken from the standard tables (Toda and the classical Hopf-fibration
splittings), together with suspension homomorphisms and antipodal
actions wherever a classical derivation pins the matrix.  Cells whose
generator conventions cannot be pinned from standard results are left
without a structure record on purpose: lookups there raise
:class:`~coincalc.errors.GapError` rather than guessing.

Analytic rules that never need a record:

* ``pi_m(S^n)`` is trivial for ``m < n`` and infinite cyclic for
  ``m = n`` (mapping degree);
* ``pi_m(S^1)`` is trivial for ``m >= 2`` (contractible universal
  cover);
* a suspension with trivial source or target is the zero map, and the
  suspension ``pi_n(S^n) -> pi_{n+1}(S^{n+1})`` is the identity;
* the antipodal action is the identity for odd ``n`` (the antipodal map
  is homotopic to the identity) and multiplication by ``(-1)^{n+1}``
  in the stable range ``m < 2n - 1``.
"""

from __future__ import annotations

import json
from pathlib import Path

from .abelian import DirectSum, FgAbGroup, GroupHom, Record, compose_homs
from .errors import DataError, GapError, UsageError
from .trace import Trace

FIELDS = ("R", "C", "H")
FIELD_DIM = {"R": 1, "C": 2, "H": 4}

HOM_KINDS = (
    "suspension",
    "stable_suspension",
    "boundary",
    "antipodal",
    "stiefel_projection",
)


def field_dim(k: str) -> int:
    if k not in FIELD_DIM:
        raise UsageError(f"unknown coefficient field {k!r}; expected R, C or H")
    return FIELD_DIM[k]


class SphereGroupRecord(Record):
    __slots__ = ("m", "n", "group", "provenance")

    def __init__(self, m: int, n: int, group: FgAbGroup, provenance: str):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "provenance", provenance)


class StructureHomRecord(Record):
    """``field`` is R/C/H for boundary and stiefel_projection records;
    ``n`` is n for sphere-indexed kinds and n' for K-indexed kinds."""

    __slots__ = ("kind", "field", "m", "n", "hom", "provenance")

    def __init__(self, kind: str, field: str | None, m: int, n: int, hom: GroupHom,
                 provenance: str):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "hom", hom)
        object.__setattr__(self, "provenance", provenance)


class DatabaseRange(Record):
    __slots__ = ("n_min", "n_max", "stem_max")

    def __init__(self, n_min: int, n_max: int, stem_max: int):
        object.__setattr__(self, "n_min", n_min)
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "stem_max", stem_max)


class Database:
    """Immutable lookup service; raises ``GapError`` for uncovered cells.

    Derived instance data (projective splittings, boundary kernels,
    suspension quotients, antipodal maps, filtration stages) is built once
    per database through :meth:`memo`.
    """

    def __init__(self, range_: DatabaseRange, sphere_records, hom_records):
        self._range = range_
        self._memo: dict = {}
        self._spheres: dict[tuple[int, int], SphereGroupRecord] = {}
        for r in sphere_records:
            if (r.m, r.n) in self._spheres:
                raise DataError(f"duplicate sphere record ({r.m},{r.n})")
            self._spheres[(r.m, r.n)] = r
        self._homs: dict[tuple, StructureHomRecord] = {}
        for r in hom_records:
            key = (r.kind, r.field, r.m, r.n)
            if key in self._homs:
                raise DataError(f"duplicate hom record {key}")
            self._homs[key] = r

    @property
    def range(self) -> DatabaseRange:
        return self._range

    def memo(self, key, trace: Trace | None, build):
        """The value of ``build(Trace())`` for ``key``, built on first use.

        The rules the build noted are replayed into ``trace`` on every
        call, so a warm database traces exactly like a fresh one.  A build
        that raises replays what it noted and stores nothing: the next
        call builds, and raises, again.  Concurrent first calls may both
        build; the values are equal, and either may be kept.
        """
        entry = self._memo.get(key)
        if entry is None:
            local = Trace()
            try:
                entry = (build(local), tuple(local.entries))
            except Exception:
                Trace.replay(trace, local.entries)
                raise
            self._memo[key] = entry
        Trace.replay(trace, entry[1])
        return entry[0]

    def sphere_records(self):
        return list(self._spheres.values())

    def hom_records(self):
        return list(self._homs.values())

    # -- sphere groups -------------------------------------------------------

    def pi_sphere(self, m: int, n: int) -> FgAbGroup:
        if m < 1 or n < 1:
            raise UsageError("sphere dimensions must be >= 1")
        if m < n:
            return FgAbGroup.trivial()
        if m == n:
            return FgAbGroup.free(1, ("i",))
        if n == 1:
            # contractible universal cover
            return FgAbGroup.trivial()
        rec = self._spheres.get((m, n))
        if rec is None:
            raise GapError(f"pi_{m}(S^{n}) is not in the database")
        return rec.group

    def stable_stem(self, k: int) -> FgAbGroup:
        if k < 0:
            return FgAbGroup.trivial()
        n = self._range.n_max
        if k > self._range.stem_max:
            raise GapError(f"stable stem {k} is beyond the database window")
        return self.pi_sphere(n + k, n)

    # -- suspensions ----------------------------------------------------------

    def suspension(self, m: int, n: int, trace: Trace | None = None) -> GroupHom:
        """Suspension homomorphism pi_m(S^n) -> pi_{m+1}(S^{n+1})."""
        dom = self.pi_sphere(m, n)
        cod = self.pi_sphere(m + 1, n + 1)
        if m == n:
            Trace.note(trace, "suspension-degree")
            return GroupHom(dom, cod, [[1]])
        if dom.is_trivial or cod.is_trivial:
            Trace.note(trace, "suspension-trivial")
            return GroupHom.zero(dom, cod)
        rec = self._homs.get(("suspension", None, m, n))
        if rec is None:
            raise GapError(f"no suspension record for pi_{m}(S^{n})")
        Trace.note(trace, "suspension-record")
        return rec.hom

    def stable_suspension(self, m: int, n: int, trace: Trace | None = None) -> GroupHom:
        """Composite suspension pi_m(S^n) -> stable stem ``m - n``."""
        rec = self._homs.get(("stable_suspension", None, m, n))
        if rec is not None:
            Trace.note(trace, "stable-suspension-record")
            return rec.hom
        composite = self._suspension_composite(m, n, trace)
        return composite or self.pi_sphere(m, n).identity_hom()

    def _suspension_composite(self, m: int, n: int, trace: Trace | None = None):
        """Suspensions composed up to ``n_max``; ``None`` when ``n >= n_max``
        leaves nothing to compose."""
        steps = range(self._range.n_max - n)
        homs = [self.suspension(m + i, n + i, trace) for i in steps]
        return compose_homs(*homs) if homs else None

    # -- antipodal actions ------------------------------------------------------

    def antipodal(self, m: int, n: int, trace: Trace | None = None) -> GroupHom:
        """Automorphism of pi_m(S^n) induced by the antipodal map."""
        return self.memo(("antipodal", m, n), trace,
                         lambda t: self._antipodal(m, n, t))

    def _antipodal(self, m: int, n: int, trace: Trace) -> GroupHom:
        g = self.pi_sphere(m, n)
        if n % 2 == 1:
            Trace.note(trace, "antipodal-odd-identity")
            return g.identity_hom()
        if m < 2 * n - 1:
            Trace.note(trace, "antipodal-stable-negation")
            return g.multiplication_by(-1)
        rec = self._homs.get(("antipodal", None, m, n))
        if rec is None:
            raise GapError(
                f"antipodal action unknown for pi_{m}(S^{n}) "
                "(unstable, even n, no record)"
            )
        Trace.note(trace, "antipodal-record")
        return rec.hom

    # -- boundary and projection records ------------------------------------------

    def boundary_record(self, k: str, m: int, n_prime: int) -> GroupHom | None:
        rec = self._homs.get(("boundary", k, m, n_prime))
        return rec.hom if rec else None

    def stiefel_projection_record(self, k: str, m: int, n_prime: int) -> GroupHom | None:
        rec = self._homs.get(("stiefel_projection", k, m, n_prime))
        return rec.hom if rec else None

    # -- Stiefel manifolds --------------------------------------------------------

    def pi_stiefel_real(self, m: int, r: int) -> FgAbGroup:
        return self.stiefel_splitting(m, r).group

    def stiefel_splitting(self, m: int, r: int) -> DirectSum:
        """pi_m of the real Stiefel manifold V_{r,2} as fiber + base.

        For even ``r`` the frame bundle ``S^{r-2} -> V_{r,2} -> S^{r-1}``
        has a section (complex scalar multiplication), so the homotopy
        sequence splits.  ``projections[1]`` is induced by sending a
        frame to its first vector.
        """
        if r < 4 or r % 2:
            raise UsageError(
                "pi_m(V_{r,2}(R)) is only computed for even r >= 4"
            )
        if m < 3:
            raise UsageError("pi_m(V_{r,2}(R)) is only computed for m >= 3")
        return self.pi_sphere(m, r - 2).direct_sum(self.pi_sphere(m, r - 1))


# ---------------------------------------------------------------------------
# loading and validation


FORMAT = "coincalc-homotopy-db/1"


def _require(cond: bool, message: str):
    if not cond:
        raise DataError(message)


def _is_int(x) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(x, int) and not isinstance(x, bool)


def _records(raw: dict, key: str) -> list[dict]:
    recs = raw.get(key, [])
    _require(isinstance(recs, list), f"{key} must be a list")
    for i, rec in enumerate(recs):
        _require(isinstance(rec, dict), f"{key}[{i}]: record must be an object")
    return recs


def _parse_group(obj, where: str) -> FgAbGroup:
    _require(_is_int(obj.get("free_rank")), f"{where}: free_rank must be an integer")
    torsion = obj.get("torsion", [])
    _require(
        isinstance(torsion, list) and all(_is_int(t) for t in torsion),
        f"{where}: torsion must be a list of integers",
    )
    labels = obj.get("labels")
    if labels is not None:
        _require(
            isinstance(labels, list) and all(isinstance(x, str) for x in labels),
            f"{where}: labels must be strings",
        )
    try:
        return FgAbGroup(obj["free_rank"], tuple(torsion), tuple(labels) if labels else None)
    except UsageError as exc:
        raise DataError(f"{where}: {exc}") from exc


def _parse_matrix(obj, where: str):
    _require(
        isinstance(obj, list)
        and all(isinstance(r, list) and all(_is_int(x) for x in r) for r in obj),
        f"{where}: matrix must be a list of integer rows",
    )
    return obj


def load_database(path) -> Database:
    """Load and fully validate a database file.

    Every record invariant, the declared-range closure and the
    Freudenthal constraints are checked here; failures name the record.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text("utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read database {path}: {exc}") from exc
    return build_database(raw)


def build_database(raw: dict) -> Database:
    _require(isinstance(raw, dict), "database document must be a JSON object")
    fmt = raw.get("format", FORMAT)  # a document without one is read as this
    _require(fmt == FORMAT, f"format must be {FORMAT!r}, got {fmt!r}")
    range_obj = raw.get("range")
    if range_obj is None:
        range_ = DatabaseRange(1, 0, 0)  # empty window: every lookup is a gap
    else:
        _require(isinstance(range_obj, dict), "range must be an object")
        for key in ("n_min", "n_max", "stem_max"):
            _require(_is_int(range_obj.get(key)), f"range.{key} must be an integer")
        range_ = DatabaseRange(range_obj["n_min"], range_obj["n_max"], range_obj["stem_max"])

    sphere_records = []
    for rec in _records(raw, "sphere_groups"):
        where = f"sphere_groups[{rec.get('m')},{rec.get('n')}]"
        _require(_is_int(rec.get("m")) and _is_int(rec.get("n")),
                 f"{where}: m and n must be integers")
        group = _parse_group(rec, where)
        m, n = rec["m"], rec["n"]
        _require(m >= 1 and n >= 1, f"{where}: dimensions must be >= 1")
        if m < n:
            _require(group.is_trivial, f"{where}: pi_m(S^n) must be trivial for m < n")
        if m == n:
            _require(group.free_rank == 1 and not group.torsion,
                     f"{where}: pi_n(S^n) must be infinite cyclic")
        _require(isinstance(rec.get("provenance"), str), f"{where}: provenance required")
        sphere_records.append(SphereGroupRecord(m, n, group, rec["provenance"]))

    db = Database(range_, sphere_records, [])

    # declared window must be closed under lookups
    for n in range(range_.n_min, range_.n_max + 1):
        for m in range(n, n + range_.stem_max + 1):
            try:
                db.pi_sphere(m, n)
            except GapError:
                raise DataError(
                    f"range hole: pi_{m}(S^{n}) missing from the declared window"
                ) from None

    homs = _records(raw, "homs")
    hom_records = [_parse_hom(db, i, rec) for i, rec in enumerate(homs)]

    db = Database(range_, sphere_records, hom_records)
    _validate_structure(db)
    return db


def _parse_hom(db: Database, i: int, rec: dict) -> StructureHomRecord:
    """Hom record ``homs[i]``, checked against the sphere groups of ``db``."""
    kind = rec.get("kind")
    _require(kind in HOM_KINDS, f"homs[{i}]: hom record has unknown kind {kind!r}")
    k = rec.get("K")
    m = rec.get("m")
    name = f"homs[{i}] {kind} record"
    _require(_is_int(m), f"{name}: m must be an integer")
    _require(isinstance(rec.get("provenance"), str),
             f"{name} ({m}): provenance required")
    matrix = _parse_matrix(rec.get("matrix"), f"{name} (m={m})")
    try:
        if kind in ("suspension", "stable_suspension", "antipodal"):
            _require(k is None, f"{name} (m={m}): K not allowed")
            n = rec.get("n")
            _require(_is_int(n), f"{name} (m={m}): n must be an integer")
            where = f"{kind} ({m},{n})"
            if kind == "suspension":
                dom, cod = db.pi_sphere(m, n), db.pi_sphere(m + 1, n + 1)
            elif kind == "antipodal":
                dom = cod = db.pi_sphere(m, n)
            else:
                dom, cod = db.pi_sphere(m, n), db.stable_stem(m - n)
        else:
            _require(k in FIELDS, f"{name} (m={m}): K must be R, C or H")
            n = rec.get("nprime")
            _require(_is_int(n), f"{name} (m={m}): nprime must be an integer")
            where = f"{kind} ({k},{m},{n})"
            d = FIELD_DIM[k]
            if kind == "boundary":
                dom = db.pi_sphere(m, d * n + d - 1)
                cod = db.pi_sphere(m - 1, d * n - 1)
            else:  # stiefel_projection
                dom = _parse_group(
                    {
                        "free_rank": rec.get("domain_free_rank"),
                        "torsion": rec.get("domain_torsion", []),
                    },
                    where,
                )
                cod = db.pi_sphere(m, d * n + d - 1)
        hom = GroupHom(dom, cod, matrix)
    except (UsageError, GapError) as exc:
        # a bad matrix, or a cell the sphere records do not cover
        raise DataError(f"{where}: {exc}") from exc
    return StructureHomRecord(kind, k, m, n, hom, rec["provenance"])


def _validate_structure(db: Database):
    """Freudenthal, involution and consistency checks on stored homs."""
    for rec in db.hom_records():
        if rec.kind == "suspension":
            m, n = rec.m, rec.n
            if m < 2 * n - 1 and not rec.hom.is_bijective():
                raise DataError(
                    f"suspension ({m},{n}): must be bijective in the stable "
                    f"range m < 2n-1"
                )
            if m == 2 * n - 1 and not rec.hom.is_surjective():
                raise DataError(
                    f"suspension ({m},{n}): must be surjective at m = 2n-1"
                )
        elif rec.kind == "antipodal":
            m, n = rec.m, rec.n
            squared = rec.hom @ rec.hom
            if squared != rec.hom.domain.identity_hom():
                raise DataError(f"antipodal ({m},{n}): action is not an involution")
            if n % 2 == 1 and rec.hom != rec.hom.domain.identity_hom():
                raise DataError(
                    f"antipodal ({m},{n}): must be the identity for odd n"
                )
            if m < 2 * n - 1:
                expected = rec.hom.domain.multiplication_by((-1) ** (n + 1))
                if rec.hom != expected:
                    raise DataError(
                        f"antipodal ({m},{n}): disagrees with the stable-range "
                        f"action"
                    )
        elif rec.kind == "stable_suspension":
            try:
                composite = db._suspension_composite(rec.m, rec.n)
            except GapError:
                composite = None
            if composite is not None and composite != rec.hom:
                raise DataError(
                    f"stable_suspension ({rec.m},{rec.n}): disagrees with the "
                    f"composite of stored suspensions"
                )


# packaged default database -------------------------------------------------

DATA_DIR = Path(__file__).resolve().parent / "data"
DEFAULT_DB_PATH = DATA_DIR / "sphere_groups.json"
SCHEMA_PATH = DATA_DIR / "sphere_groups.schema.json"


def load_default_database() -> Database:
    return load_database(DEFAULT_DB_PATH)
