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
* a suspension with trivial source or target is the zero map; it is the
  identity at ``m = n`` (mapping degree) and in the stable range
  ``m < 2n - 1``, where Freudenthal makes it an isomorphism and the
  table writes each cell in the suspended generators of the cell one
  row up;
* the antipodal action is the identity for odd ``n`` (the antipodal map
  is homotopic to the identity), multiplication by ``(-1)^{n+1}``
  in the stable range ``m < 2n - 1``, and the identity on ``pi_m(S^2)``
  above it (the antipodal map lifts along the Hopf map);
* a frame-fibration boundary (:meth:`Database.boundary`) is zero on a
  trivial side or for K = R with odd ``n``, and multiplication by 2
  between two equal groups for K = R wherever the suspension into the
  domain cell is an isomorphism: the stable range ``m < 2n - 2`` and the
  degree cell ``m = n``, where 2 is the Euler number of ``S^2``.

The stable rules map between groups that Freudenthal makes equal, which
every :class:`Database` checks when it is built.
"""

from __future__ import annotations

import json
from pathlib import Path

from .abelian import FgAbGroup, GroupHom, Record, _integer
from .errors import DataError, GapError, UsageError
from .trace import Trace

FIELDS = ("R", "C", "H")
FIELD_DIM = {"R": 1, "C": 2, "H": 4}

# the groups the analytic rules answer with, shared by every lookup
TRIVIAL_GROUP = FgAbGroup.trivial()
DEGREE_GROUP = FgAbGroup.free(1, ("i",))

HOM_KINDS = ("suspension", "boundary", "antipodal")


def field_dim(k: str) -> int:
    if k not in FIELD_DIM:
        raise UsageError(f"unknown coefficient field {k!r}; expected R, C or H")
    return FIELD_DIM[k]


def lift_dim(k: str, n_prime: int) -> int:
    """d(n'+1) - 1, the dimension of the lift sphere S^{n+d-1} over KP(n')."""
    return field_dim(k) * (n_prime + 1) - 1


class SphereGroupRecord(Record):
    __slots__ = ("m", "n", "group", "provenance")


class StructureHomRecord(Record):
    """Plain data: the :class:`Database` builds the hom from ``matrix``.
    ``field`` is R/C/H for boundary records and ``None`` otherwise; ``n``
    is n for sphere-indexed kinds and n' for boundary records."""

    __slots__ = ("kind", "field", "m", "n", "matrix", "provenance")


class DatabaseRange(Record):
    __slots__ = ("n_min", "n_max", "stem_max")

    def cells(self):
        """The window cells ``(m, n)`` no analytic rule answers, row by row;
        none when ``stem_max`` is 0, however many rows are declared."""
        if self.stem_max:
            for n in range(max(2, self.n_min), self.n_max + 1):
                for m in range(n + 1, n + self.stem_max + 1):
                    yield m, n


class Database:
    """Immutable lookup service; raises ``GapError`` for uncovered cells.

    A table is checked when it is built, however its records were made:
    the constructor raises ``DataError``, naming the record or cell at
    fault, unless the records are unique, the declared window is closed
    under lookups, every pair of cells satisfies Freudenthal and every
    record equals what the lookup of its cell gives, a hom record as the
    hom its matrix makes between its cell's groups (:func:`_check_table`).

    The structure homs :meth:`suspension`, :meth:`antipodal` and
    :meth:`boundary` resolve rule, then :meth:`record`, then gap, all
    between the groups :meth:`hom_groups` gives their cell.

    Derived values are built once per database through :meth:`memo`;
    this is the one list of its keys.  Instance data: ``("pi_projective",
    k, m, n')``, ``("boundary_kernel", k, m, n')``,
    ``("suspended_boundary_kernel", k, m, n')``, ``("suspension_quotient",
    m, n)``, ``("antipodal", m, n)`` and ``("filtration", space, m,
    stage)``.  What ``validate-db`` reads: the kernel of multiplication
    by ``factor`` that ``stable_kernel_report`` compares with under
    ``("killed", group, factor)``, and the ``(label, classifier)`` pairs
    ``exclusivity_report`` decides under ``("exclusivity_checks",)``,
    whose classifiers keep ker(A - 1) and q o A.
    """

    def __init__(self, range_: DatabaseRange, sphere_records, hom_records):
        self._range = range_
        self._memo: dict = {}
        self._spheres: dict[tuple[int, int], SphereGroupRecord] = {}
        for r in sphere_records:
            if (r.m, r.n) in self._spheres:
                raise DataError(f"duplicate sphere record ({r.m},{r.n})")
            self._spheres[(r.m, r.n)] = r
        self._records: dict[tuple, StructureHomRecord] = {}
        for r in hom_records:
            key = (r.kind, r.field, r.m, r.n)
            if key in self._records:
                raise DataError(f"duplicate hom record {key}")
            self._records[key] = r
        self._homs: dict[tuple, GroupHom] = {}  # built by _check_table
        _check_table(self)

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
        return list(self._records.values())

    # -- sphere groups -------------------------------------------------------

    def pi_sphere(self, m: int, n: int) -> FgAbGroup:
        m, n = _integer(m), _integer(n)
        if m < 1 or n < 1:
            raise UsageError("sphere dimensions must be >= 1")
        if m < n:
            return TRIVIAL_GROUP
        if m == n:
            return DEGREE_GROUP
        if n == 1:
            # contractible universal cover
            return TRIVIAL_GROUP
        rec = self._spheres.get((m, n))
        if rec is None:
            raise GapError(f"pi_{m}(S^{n}) is not in the database")
        return rec.group

    # -- structure homs --------------------------------------------------------

    def hom_groups(self, kind: str, k: str | None, m: int, n: int):
        """``(domain, codomain)`` of the ``kind`` hom of a cell, keyed as in
        ``StructureHomRecord``: the one geometry every lookup and every
        record of the kind maps between."""
        m, n = _integer(m), _integer(n)
        if kind == "suspension":
            return self.pi_sphere(m, n), self.pi_sphere(m + 1, n + 1)
        if kind == "antipodal":
            group = self.pi_sphere(m, n)
            return group, group
        # boundary over KP(n); for dn = 1 the fiber is the discrete S^0
        dom = self.pi_sphere(m, lift_dim(k, n))
        fiber = field_dim(k) * n - 1
        return dom, TRIVIAL_GROUP if fiber == 0 else self.pi_sphere(m - 1, fiber)

    def suspension(self, m: int, n: int, trace: Trace | None = None) -> GroupHom:
        """Suspension homomorphism pi_m(S^n) -> pi_{m+1}(S^{n+1}); in the
        stable range m < 2n - 1 the identity, between groups every table
        is checked to hold equal."""
        dom, cod = self.hom_groups("suspension", None, m, n)
        if m == n:
            Trace.note(trace, "suspension-degree")
            return GroupHom(dom, cod, [[1]])
        if dom.is_trivial or cod.is_trivial:
            Trace.note(trace, "suspension-trivial")
            return GroupHom.zero(dom, cod)
        if m < 2 * n - 1:
            Trace.note(trace, "suspension-stable-identity")
            return GroupHom(dom, cod, dom.identity_hom().matrix)
        return self.record("suspension", None, m, n, trace,
                           f"no suspension record for pi_{m}(S^{n})")

    # -- antipodal actions ------------------------------------------------------

    def antipodal(self, m: int, n: int, trace: Trace | None = None) -> GroupHom:
        """Automorphism of pi_m(S^n) induced by the antipodal map."""
        m, n = _integer(m), _integer(n)
        return self.memo(("antipodal", m, n), trace,
                         lambda t: self._antipodal(m, n, t))

    def _antipodal(self, m: int, n: int, trace: Trace) -> GroupHom:
        """The rules, then the record.  On ``pi_m(S^2)``, ``m >= 3``, the
        action is the identity: the antipodal map of S^2 = CP(1) lifts
        along the Hopf map eta to (z, w) -> (-conj(w), conj(z)) on S^3,
        which lies in SO(4) and so is homotopic to the identity, and
        eta_* is onto for m >= 3 (Hopf 1931; Toda 1962, Ch. I)."""
        g, _ = self.hom_groups("antipodal", None, m, n)
        if n % 2 == 1:
            Trace.note(trace, "antipodal-odd-identity")
            return g.identity_hom()
        if m < 2 * n - 1:
            Trace.note(trace, "antipodal-stable-negation")
            return g.multiplication_by(-1)
        if n == 2:
            Trace.note(trace, "antipodal-s2-identity")
            return g.identity_hom()
        return self.record("antipodal", None, m, n, trace,
                           f"antipodal action unknown for pi_{m}(S^{n}) "
                           "(unstable, even n, no record)")

    # -- frame-fibration boundaries -----------------------------------------------

    def boundary(self, k: str, m: int, n_prime: int,
                 trace: Trace | None = None) -> GroupHom:
        """Connecting homomorphism pi_m(S^{n+d-1}) -> pi_{m-1}(S^{n-1}) of the
        frame fibration S^{n-1} -> V_{n'+1,2}(K) -> S^{n+d-1}, n = d n'.
        Zero on a trivial side, or for K = R with odd n (complex scalar
        multiplication is a section); for K = R with m < 2n - 2 or m = n,
        where the suspension into the domain cell is an isomorphism,
        2 = 1 + (-1)^n between the two groups it makes equal (only its
        kernel is contractual).  At m = n = 2 this is the Euler number
        chi(S^2) = 2 of the tangent bundle, so no record is needed there."""
        dom, cod = self.hom_groups("boundary", k, m, n_prime)
        if dom.is_trivial or cod.is_trivial:
            Trace.note(trace, "boundary-trivial-side")
            return GroupHom.zero(dom, cod)
        n = field_dim(k) * n_prime
        if k == "R" and n % 2 == 1:
            Trace.note(trace, "boundary-section-zero")
            return GroupHom.zero(dom, cod)
        if k == "R" and (m < 2 * n - 2 or m == n):
            # looked up for its trace entry: the degree or stable identity
            self.suspension(m - 1, n - 1, trace)
            Trace.note(trace, "stable-boundary-transport")
            return GroupHom(dom, cod, dom.multiplication_by(2).matrix)
        gap = (f"boundary unknown: ({m},{n}) is outside the stable range m < 2n-2" if k == "R"
               else f"boundary unknown for K = {k}, m = {m}, n' = {n_prime}: no record")
        return self.record("boundary", k, m, n_prime, trace, gap)

    # -- the record step ------------------------------------------------------------

    def record(self, kind: str, k: str | None, m: int, n: int,
               trace: Trace | None, gap: str) -> GroupHom:
        """The last step of every structure lookup, after its rules: the
        hom of the cell's ``kind`` record (keyed as in ``StructureHomRecord``),
        noted as ``<kind>-record``, or a ``GapError`` saying ``gap``."""
        hom = self._homs.get((kind, k, m, n))
        if hom is None:
            raise GapError(gap)
        Trace.note(trace, f"{kind}-record")
        return hom


# ---------------------------------------------------------------------------
# loading and validation


FORMAT = "coincalc-homotopy-db/1"


def _require(cond: bool, message: str):
    if not cond:
        raise DataError(message)


def _is_int(x) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(x, int) and not isinstance(x, bool)


def _known_keys(obj: dict, keys, where: str):
    unknown = [key for key in obj if key not in keys]
    _require(not unknown, f"{where}: unknown key(s) {unknown}")


def _records(raw: dict, key: str) -> list[dict]:
    recs = raw.get(key, [])
    _require(isinstance(recs, list), f"{key} must be a list")
    for i, rec in enumerate(recs):
        _require(isinstance(rec, dict), f"{key}[{i}]: record must be an object")
    return recs


def _parse_group(obj, where: str) -> FgAbGroup:
    """The group in ``obj``'s fields ``free_rank``, ``torsion`` and ``labels``."""
    free_rank = obj.get("free_rank")
    _require(_is_int(free_rank), f"{where}: free_rank must be an integer")
    torsion = obj.get("torsion")
    _require(
        isinstance(torsion, list) and all(_is_int(t) for t in torsion),
        f"{where}: torsion must be a list of integers",
    )
    labels = None
    if "labels" in obj:
        labels = obj["labels"]
        _require(
            isinstance(labels, list) and all(isinstance(x, str) for x in labels),
            f"{where}: labels must be strings",
        )
        labels = tuple(labels)
    try:
        return FgAbGroup(free_rank, tuple(torsion), labels)
    except UsageError as exc:
        raise DataError(f"{where}: {exc}") from exc


def _parse_matrix(obj, where: str):
    _require(
        isinstance(obj, list)
        and all(isinstance(r, list) and all(_is_int(x) for x in r) for r in obj),
        f"{where}: matrix must be a list of integer rows",
    )
    return tuple(map(tuple, obj))


def load_database(path) -> Database:
    """Load and fully validate a database file; a fresh ``Database`` on
    every call.

    :func:`build_database` checks the document's shape and record fields,
    and the :class:`Database` it builds checks the table; failures name
    the record.
    """
    return build_database(decode_database(read_database(path), path))


def read_database(path) -> bytes:
    """The bytes of a database file.  The path is opened as given: an
    empty one names no file (``Path("")`` would be the current directory)."""
    try:
        with open(path, "rb") as file:
            return file.read()
    except OSError as exc:
        raise _unreadable(path, exc) from exc


def decode_database(data: bytes, path) -> dict:
    """The JSON document in ``data``, the bytes of ``path``.

    The file is UTF-8 by format; the bytes are decoded as such rather than
    handed to ``json.loads``, which would also accept UTF-16 and UTF-32.
    Nesting too deep for the decoder is unreadable too.
    """
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise _unreadable(path, exc) from exc


def _unreadable(path, exc: Exception) -> DataError:
    return DataError(f"cannot read database {path}: {exc}")


# the keys each object may hold, with the least value of each range field
_DOCUMENT_KEYS = ("format", "range", "sphere_groups", "homs")
_RANGE_MINIMUM = {"n_min": 1, "n_max": 1, "stem_max": 0}
_SPHERE_KEYS = ("m", "n", "free_rank", "torsion", "labels", "provenance")
_SPHERE_HOM_KEYS = ("kind", "m", "n", "matrix", "provenance")
_BOUNDARY_KEYS = ("kind", "K", "m", "nprime", "matrix", "provenance")


def build_database(raw: dict) -> Database:
    """The table in a decoded document.  This only parses: the one
    :class:`Database` it builds makes the homs and checks the table.  Two
    departures from the schema are deliberate: a document without
    ``format`` is read as this format, and a missing ``range``,
    ``sphere_groups`` or ``homs`` is read as empty."""
    _require(isinstance(raw, dict), "database document must be a JSON object")
    _known_keys(raw, _DOCUMENT_KEYS, "database document")
    fmt = raw.get("format", FORMAT)
    _require(fmt == FORMAT, f"format must be {FORMAT!r}, got {fmt!r}")
    if "range" not in raw:
        range_ = DatabaseRange(1, 0, 0)  # empty window: every lookup is a gap
    else:
        range_obj = raw["range"]
        _require(isinstance(range_obj, dict), "range must be an object")
        _known_keys(range_obj, _RANGE_MINIMUM, "range")
        for key, least in _RANGE_MINIMUM.items():
            value = range_obj.get(key)
            _require(_is_int(value) and value >= least,
                     f"range.{key} must be an integer >= {least}")
        range_ = DatabaseRange(range_obj["n_min"], range_obj["n_max"], range_obj["stem_max"])

    sphere_records = []
    for rec in _records(raw, "sphere_groups"):
        where = f"sphere_groups[{rec.get('m')},{rec.get('n')}]"
        _known_keys(rec, _SPHERE_KEYS, where)
        _require(_is_int(rec.get("m")) and _is_int(rec.get("n")),
                 f"{where}: m and n must be integers")
        group = _parse_group(rec, where)
        m, n = rec["m"], rec["n"]
        _require(m >= 1 and n >= 1, f"{where}: dimensions must be >= 1")
        _require(isinstance(rec.get("provenance"), str), f"{where}: provenance required")
        sphere_records.append(SphereGroupRecord(m, n, group, rec["provenance"]))

    hom_records = [_parse_hom(i, rec) for i, rec in enumerate(_records(raw, "homs"))]
    return Database(range_, sphere_records, hom_records)


def _parse_hom(i: int, rec: dict) -> StructureHomRecord:
    """Hom record ``homs[i]``, its fields checked; the ``Database`` builds its hom."""
    kind = rec.get("kind")
    _require(kind in HOM_KINDS, f"homs[{i}]: hom record has unknown kind {kind!r}")
    k = rec.get("K")
    m = rec.get("m")
    name = f"homs[{i}] {kind} record"
    _require(_is_int(m), f"{name}: m must be an integer")
    _require(isinstance(rec.get("provenance"), str),
             f"{name} ({m}): provenance required")
    matrix = _parse_matrix(rec.get("matrix"), f"{name} (m={m})")
    if kind in ("suspension", "antipodal"):
        _require("K" not in rec, f"{name} (m={m}): K not allowed")
        _known_keys(rec, _SPHERE_HOM_KEYS, f"{name} (m={m})")
        n = rec.get("n")
        _require(_is_int(n), f"{name} (m={m}): n must be an integer")
    else:
        _require(k in FIELDS, f"{name} (m={m}): K must be R, C or H")
        _known_keys(rec, _BOUNDARY_KEYS, f"{name} (m={m})")
        n = rec.get("nprime")
        _require(_is_int(n) and n >= 2,
                 f"{name} (m={m}): nprime must be an integer >= 2")
    return StructureHomRecord(kind, k, m, n, matrix, rec["provenance"])


def _check_table(db: Database):
    """The checks every :class:`Database` runs when it is built, in this
    order: the declared window closed under lookups; Freudenthal on the
    groups of every pair of cells that both resolve, since the stable
    rules map between them; every hom record's hom built between its
    cell's groups; then each read back through the lookup of its cell,
    where a lookup that gaps fails the record too, with edge surjectivity
    and involution checks."""
    # the analytic cells (n = 1 or m = n) are always covered, and every
    # cell left needs a record, so a huge declared window fails at its
    # first hole instead of looping
    for m, n in db.range.cells():
        try:
            db.pi_sphere(m, n)
        except GapError:
            raise DataError(
                f"range hole: pi_{m}(S^{n}) missing from the declared window"
            ) from None
    for rec in db.sphere_records():
        m, n, dom = rec.m, rec.n, rec.group
        _read_back(f"sphere_groups[{m},{n}]", db.pi_sphere(m, n), dom)
        # the pair the record starts, in the window or not; the pairs the
        # rules answer on both sides satisfy Freudenthal by themselves
        if m > 2 * n - 1:
            continue
        try:
            cod = db.pi_sphere(m + 1, n + 1)
        except GapError:
            continue
        if m < 2 * n - 1 and dom != cod:
            rule = "bijective in the stable range m < 2n-1"
        elif m == 2 * n - 1 and dom.is_trivial and not cod.is_trivial:
            rule = "surjective at m = 2n-1"
        else:
            continue
        raise DataError(f"pi_{m}(S^{n}) = {dom} and pi_{m + 1}(S^{n + 1}) = "
                        f"{cod}: suspension must be {rule}")
    built = []
    for key, rec in db._records.items():
        where = f"{rec.kind} ({rec.field + ',' if rec.field else ''}{rec.m},{rec.n})"
        try:
            db._homs[key] = hom = GroupHom(*db.hom_groups(*key), rec.matrix)
        except (UsageError, GapError) as exc:
            # a bad matrix, or a cell the sphere records do not cover
            raise DataError(f"{where}: {exc}") from exc
        built.append((where, rec, hom))
    # unmemoized lookups, so that building leaves the memo empty
    lookup = {"suspension": lambda rec: db.suspension(rec.m, rec.n),
              "antipodal": lambda rec: db._antipodal(rec.m, rec.n, None),
              "boundary": lambda rec: db.boundary(rec.field, rec.m, rec.n)}
    for where, rec, hom in built:
        try:
            _read_back(where, lookup[rec.kind](rec), hom)
        except GapError as exc:
            raise DataError(f"{where}: {exc}") from None
        if rec.kind == "suspension":
            if rec.m == 2 * rec.n - 1 and not hom.is_surjective():
                raise DataError(f"{where}: must be surjective at m = 2n-1")
        elif rec.kind == "antipodal":
            if hom @ hom != hom.domain.identity_hom():
                raise DataError(f"{where}: action is not an involution")


def _read_back(where: str, looked_up, stored):
    """A record must hold what the lookup of its cell gives, so where a
    rule answers first, the rule decides."""
    if looked_up != stored:
        if isinstance(stored, GroupHom):
            looked_up, stored = (list(map(list, h.matrix)) for h in (looked_up, stored))
        raise DataError(
            f"{where}: the lookup gives {looked_up}, the record holds {stored}"
        )


# packaged default database -------------------------------------------------

DATA_DIR = Path(__file__).resolve().parent / "data"
DEFAULT_DB_PATH = DATA_DIR / "sphere_groups.json"
SCHEMA_PATH = DATA_DIR / "sphere_groups.schema.json"


def load_default_database() -> Database:
    return load_database(DEFAULT_DB_PATH)
