"""Exact arithmetic for finitely generated abelian groups.

Every group is kept in invariant-factor form: a free rank plus a list of
torsion coefficients chained by divisibility (``t[i]`` divides
``t[i+1]``).  That form is unique, so isomorphism tests reduce to a
field comparison.  All computations run over Python integers, which do
not overflow, so the Smith normal form and everything built on it is
exact for any input size.

Conventions used throughout:

* elements are integer coordinate vectors against the group's
  generators, free generators first, torsion coordinates stored reduced
  into ``[0, t)``;
* homomorphism matrices have one row per codomain generator and one
  column per domain generator;
* a subgroup of ``Z^n / L`` (``L`` the relation lattice) is handled as
  the lattice spanned by its generators together with ``L``;
* the coordinate step :meth:`GroupHom.map_coords` and coordinate
  membership :meth:`Subgroup.contains_coords` take reduced coordinate
  tuples unchecked, so deciding a pair builds no element; the public
  entry points still take :class:`GroupElement` values and check them.

All lattice solving goes through one primitive: :func:`_lattice` takes
the Smith normal form of a list of columns, and the resulting
:class:`_Snf` answers the three questions asked of a lattice, namely
whether a vector lies in it (:meth:`_Snf.coefficients`), which
combinations of the columns give zero (:meth:`_Snf.kernel_basis`), and
whether it is everything (:meth:`_Snf.spans_everything`).  Kernels,
membership, surjectivity and subgroup coordinates are each one of these
calls, and every canonical form (quotients, direct sums, subgroups)
comes from :func:`_canonicalize_presentation`.

All values are immutable after construction (:class:`Record`) and safe
to share between threads.
"""

from __future__ import annotations

import itertools
from math import gcd, inf, lcm, prod
from operator import attrgetter, index, mul

from .errors import UsageError

Matrix = tuple[tuple[int, ...], ...]

#: Guard for the tests' element-enumeration oracle, ``enumerate_torsion_part``.
ENUMERATION_CAP = 10**6


# ---------------------------------------------------------------------------
# immutable values


class Record:
    """Base of the package's immutable values.

    A subclass names its fields in ``__slots__``.  A plain record defines
    no ``__init__``: it gets one taking the fields in ``__slots__`` order,
    generated once when the class is created.  A validating record
    defines its own and sets each field once with ``object.__setattr__``.
    Equality and hash are field-wise over the ``compare`` class keyword
    (all fields by default), and two records are equal only when they
    have the same type, so ``Sphere(4) != Grassmannian2(4)``.  Setting or
    deleting an attribute raises ``AttributeError``.
    """

    __slots__ = ()

    def __init_subclass__(cls, compare=None, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*(compare or cls.__slots__))
        if "__init__" not in cls.__dict__:
            cls.__init__ = _slot_init(cls)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which takes the fields
        # in __slots__ order; restoring slots one by one would hit __setattr__
        return type(self), tuple(getattr(self, f) for f in self.__slots__)


def _slot_init(cls):
    # as in collections.namedtuple, the source is built from the slot names
    # only, so the constructor has a real signature and no per-call loop
    fields = cls.__slots__
    body = "".join(f"\n    _setattr(self, {f!r}, {f})" for f in fields)
    namespace = {"_setattr": object.__setattr__, "__name__": cls.__module__}
    exec(f"def __init__(self, {', '.join(fields)}):{body}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


# ---------------------------------------------------------------------------
# integer matrices


def _integer(x) -> int:
    """``x`` through ``operator.index``: a float or a string raises
    ``UsageError`` naming it rather than being truncated or parsed."""
    try:
        return index(x)
    except TypeError:
        raise UsageError(f"expected an integer, got {x!r}") from None


def _integers(values) -> list[int]:
    """:func:`_integer` of each of ``values``, a sequence: it is read a
    second time, to name the culprit, only when a value is no integer."""
    try:
        return list(map(index, values))
    except TypeError:
        return list(map(_integer, values))


def _identity(k: int) -> list[list[int]]:
    return [[int(i == j) for j in range(k)] for i in range(k)]


def _freeze(rows) -> Matrix:
    return tuple(map(tuple, rows))


def _mat_mul(a, b) -> list[list[int]]:
    if a and b and len(a[0]) != len(b):
        raise UsageError("matrix shape mismatch in product")
    inner = len(b)
    width = len(b[0]) if b else 0
    return [
        [sum(row[k] * b[k][j] for k in range(inner)) for j in range(width)]
        for row in a
    ]


def _mat_vec(a, v) -> list[int]:
    if a and len(a[0]) != len(v):
        raise UsageError("matrix/vector shape mismatch")
    return [sum(map(mul, row, v)) for row in a]


class _Snf(Record):
    """Transform data for ``diag = u * a * v``; ``uinv`` inverts ``u``."""

    __slots__ = ("u", "uinv", "v", "diag", "rank", "nrows", "ncols")

    def coefficients(self, b) -> list[int] | None:
        """``w`` with ``(u * b)[i] = diag[i] * w[i]`` for ``i < rank``, or
        ``None`` when ``b`` is not in the column lattice of ``a``."""
        y = _mat_vec(self.u, b)
        if any(y[self.rank:]):
            return None
        w = []
        for yi, d in zip(y, self.diag):
            if yi % d:
                return None
            w.append(yi // d)
        return w

    def kernel_basis(self) -> list[list[int]]:
        """Basis of the integer kernel of ``a``: the last columns of ``v``."""
        return [[row[j] for row in self.v] for j in range(self.rank, self.ncols)]

    def spans_everything(self) -> bool:
        """Whether the columns of ``a`` span all of ``Z^nrows``."""
        return self.rank == self.nrows and all(abs(d) == 1 for d in self.diag)

    def d_matrix(self) -> Matrix:
        rows = []
        for i in range(self.nrows):
            row = [0] * self.ncols
            if i < len(self.diag):
                row[i] = self.diag[i]
            rows.append(row)
        return _freeze(rows)


def _snf(rows: list[list[int]], ncols: int) -> _Snf:
    m = len(rows)
    n = ncols
    d = [list(r) for r in rows]
    u = _identity(m)
    uinv = _identity(m)
    v = _identity(n)

    def row_add(i, j, c):
        # row_i += c * row_j
        d[i] = [x + c * y for x, y in zip(d[i], d[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        for r in uinv:
            r[j] -= c * r[i]

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        for r in uinv:
            r[i], r[j] = r[j], r[i]

    def row_neg(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]
        for r in uinv:
            r[i] = -r[i]

    def col_add(j, i, c):
        # col_j += c * col_i
        for r in d:
            r[j] += c * r[i]
        for r in v:
            r[j] += c * r[i]

    def col_swap(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    t = 0
    while t < m and t < n:
        # smallest-absolute-value pivot keeps coefficient growth tame
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                a = abs(d[i][j])
                if a and (best is None or a < best):
                    pivot, best = (i, j), a
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        if d[t][t] < 0:
            row_neg(t)
        p = d[t][t]
        for i in range(t + 1, m):
            if d[i][t]:
                row_add(i, t, -(d[i][t] // p))
        for j in range(t + 1, n):
            if d[t][j]:
                col_add(j, t, -(d[t][j] // p))
        if any(d[i][t] for i in range(t + 1, m)) or any(
            d[t][j] for j in range(t + 1, n)
        ):
            continue  # residues smaller than the pivot appeared; re-pivot
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if d[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_add(t, offender, 1)  # drag a non-multiple into the pivot row
            continue
        t += 1

    diag = []
    for i in range(min(m, n)):
        if d[i][i] == 0:
            break
        diag.append(d[i][i])
    return _Snf(
        u=_freeze(u),
        uinv=_freeze(uinv),
        v=_freeze(v),
        diag=tuple(diag),
        rank=len(diag),
        nrows=m,
        ncols=n,
    )


def smith_normal_form(a) -> tuple[Matrix, Matrix, Matrix]:
    """Return ``(u, d, v)`` with ``d = u @ a @ v``.

    ``u`` and ``v`` are unimodular, ``d`` is diagonal with nonnegative
    entries chained by divisibility and zero rows/columns trailing.
    Total on integer matrices of any shape, including empty ones.
    """
    rows = [_integers(r) for r in a]
    ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise UsageError("ragged matrix")
    res = _snf(rows, ncols)
    return res.u, res.d_matrix(), res.v


def _lattice(cols, nrows: int) -> _Snf:
    """Smith normal form of the ``nrows``-row matrix with columns ``cols``."""
    return _snf([[c[i] for c in cols] for i in range(nrows)], len(cols))


# ---------------------------------------------------------------------------
# groups


class FgAbGroup(Record, compare=("free_rank", "torsion")):
    """A finitely generated abelian group in invariant-factor form.

    ``labels`` name the generators (free generators first); they are
    presentation metadata and do not take part in equality.
    """

    __slots__ = ("free_rank", "torsion", "labels")

    def __init__(self, free_rank: int, torsion: tuple[int, ...] = (),
                 labels: tuple[str, ...] | None = None):
        free_rank = _integer(free_rank)
        torsion = tuple(map(_integer, torsion))
        if free_rank < 0:
            raise UsageError("free rank must be nonnegative")
        for t in torsion:
            if t < 2:
                raise UsageError(f"torsion coefficient {t} must be >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise UsageError(
                    f"torsion coefficients {list(torsion)} violate the "
                    "divisibility chain"
                )
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != free_rank + len(torsion):
                raise UsageError("label count must equal generator count")
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)
        object.__setattr__(self, "labels", labels)

    # -- structure ---------------------------------------------------------

    @property
    def ngens(self) -> int:
        return self.free_rank + len(self.torsion)

    @property
    def is_trivial(self) -> bool:
        return self.ngens == 0

    def order(self) -> int | float:
        return inf if self.free_rank else prod(self.torsion)

    def relation_columns(self) -> list[list[int]]:
        """Columns spanning the relation lattice of ``Z^ngens``."""
        cols = []
        for j, t in enumerate(self.torsion):
            col = [0] * self.ngens
            col[self.free_rank + j] = t
            cols.append(col)
        return cols

    # -- constructors ------------------------------------------------------

    @classmethod
    def trivial(cls) -> "FgAbGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int, labels=None) -> "FgAbGroup":
        return cls(rank, (), labels)

    @classmethod
    def cyclic(cls, order: int, label: str | None = None) -> "FgAbGroup":
        labels = (label,) if label else None
        if order == 0:
            return cls(1, (), labels)
        if order == 1:
            return cls(0, ())
        return cls(0, (order,), labels)

    # -- elements ----------------------------------------------------------

    def reduce(self, coords) -> tuple[int, ...]:
        coords = _integers(coords)
        if len(coords) != self.ngens:
            raise UsageError(
                f"expected {self.ngens} coordinates, got {len(coords)}"
            )
        for j, t in enumerate(self.torsion):
            coords[self.free_rank + j] %= t
        return tuple(coords)

    def element(self, coords) -> "GroupElement":
        return GroupElement(self, tuple(coords))

    def zero(self) -> "GroupElement":
        return self.element((0,) * self.ngens)

    def generator(self, i: int) -> "GroupElement":
        if not 0 <= i < self.ngens:
            raise UsageError(f"no generator {i}")
        return self.element(tuple(int(j == i) for j in range(self.ngens)))

    def generators(self) -> list["GroupElement"]:
        return [self.generator(i) for i in range(self.ngens)]

    def enumerate_torsion_part(self):
        """Yield every torsion element (free coordinates zero).

        Oracle helper; refuses groups with more than ``ENUMERATION_CAP``
        torsion elements.
        """
        if prod(self.torsion) > ENUMERATION_CAP:
            raise UsageError(
                f"torsion part too large to enumerate (> {ENUMERATION_CAP} elements)"
            )
        zeros = (0,) * self.free_rank
        for combo in itertools.product(*(range(t) for t in self.torsion)):
            yield self.element(zeros + combo)

    # -- whole-group constructions ------------------------------------------

    def subgroup(self, generators) -> "Subgroup":
        return Subgroup(self, tuple(generators))

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, ())

    def whole_subgroup(self) -> "Subgroup":
        return Subgroup(self, tuple(self.generators()))

    def quotient_by(self, sub: "Subgroup") -> tuple["FgAbGroup", "GroupHom"]:
        """Quotient by a subgroup together with the projection map.

        The projection is surjective and its kernel is exactly ``sub``.
        """
        if sub.ambient != self:
            raise UsageError("subgroup lives in a different ambient group")
        cols = [list(g.coords) for g in sub.generators] + self.relation_columns()
        group, to_canon, _ = _canonicalize_presentation(self.ngens, cols)
        return group, GroupHom(self, group, to_canon)

    def direct_sum(self, other: "FgAbGroup") -> "DirectSum":
        n1, n2 = self.ngens, other.ngens
        n = n1 + n2
        cols = []
        for c in self.relation_columns():
            cols.append(c + [0] * n2)
        for c in other.relation_columns():
            cols.append([0] * n1 + c)
        group, to_canon, from_canon = _canonicalize_presentation(n, cols)
        inj1 = GroupHom(self, group, [row[:n1] for row in to_canon])
        inj2 = GroupHom(other, group, [row[n1:] for row in to_canon])
        proj1 = GroupHom(group, self, from_canon[:n1])
        proj2 = GroupHom(group, other, from_canon[n1:])
        return DirectSum(group, (inj1, inj2), (proj1, proj2))

    def multiplication_by(self, k: int) -> "GroupHom":
        n = self.ngens
        return GroupHom(
            self, self, [[k * int(i == j) for j in range(n)] for i in range(n)]
        )

    def identity_hom(self) -> "GroupHom":
        return self.multiplication_by(1)

    # -- display -------------------------------------------------------------

    def describe(self) -> str:
        parts = ["Z"] * self.free_rank + [f"C{t}" for t in self.torsion]
        return " x ".join(parts) if parts else "0"

    def __str__(self):
        return self.describe()


class DirectSum(Record):
    __slots__ = ("group", "injections", "projections")


def _canonicalize_presentation(ngens: int, relation_cols):
    """Canonical form of ``Z^ngens / <relation_cols>``.

    Returns ``(group, to_canonical, from_canonical)`` where the matrices
    convert coordinates between the presentation and the canonical
    generators (free generators first, torsion ascending).
    """
    res = _lattice(relation_cols, ngens)
    kept = list(range(res.rank, ngens))  # free coordinates
    torsion = []
    for i in range(res.rank):
        if res.diag[i] >= 2:
            kept.append(i)
            torsion.append(res.diag[i])
    group = FgAbGroup(ngens - res.rank, tuple(torsion))
    to_canon = [list(res.u[i]) for i in kept]
    from_canon = [[res.uinv[r][i] for i in kept] for r in range(ngens)]
    return group, to_canon, from_canon


# ---------------------------------------------------------------------------
# elements


class GroupElement(Record):
    __slots__ = ("group", "coords")

    def __init__(self, group: FgAbGroup, coords: tuple[int, ...]):
        # bench/tracer.py counts element builds by patching __post_init__
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coords", coords)
        self.__post_init__()

    def __post_init__(self):
        object.__setattr__(self, "coords", self.group.reduce(self.coords))

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def order(self) -> int | float:
        """Order of the element; ``inf`` when a free coordinate is nonzero.

        Computed in closed form from the cyclic factors, so it is total.
        """
        if any(self.coords[: self.group.free_rank]):
            return inf
        result = 1
        for c, t in zip(self.coords[self.group.free_rank:], self.group.torsion):
            result = lcm(result, t // gcd(t, c))
        return result

    def _check_peer(self, other):
        if not isinstance(other, GroupElement) or other.group != self.group:
            raise UsageError("elements live in different groups")

    def __add__(self, other):
        self._check_peer(other)
        return GroupElement(
            self.group, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other):
        self._check_peer(other)
        return GroupElement(
            self.group, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self):
        return GroupElement(self.group, tuple(-a for a in self.coords))

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return GroupElement(self.group, tuple(k * a for a in self.coords))

    __rmul__ = __mul__

    def __str__(self):
        if self.group.labels:
            terms = [
                f"{c}*{name}"
                for c, name in zip(self.coords, self.group.labels)
                if c
            ]
            return " + ".join(terms) if terms else "0"
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


# ---------------------------------------------------------------------------
# homomorphisms


class GroupHom(Record):
    """Integer-matrix homomorphism; validated at construction.

    The matrix has one row per codomain generator, one column per domain
    generator.  Well-definedness (each torsion generator's order must be
    killed in the codomain) is checked eagerly so downstream code never
    sees an ill-defined map.  Torsion rows are stored reduced, which
    makes equality a plain matrix comparison.
    """

    __slots__ = ("domain", "codomain", "matrix")

    def __init__(self, domain: FgAbGroup, codomain: FgAbGroup, matrix: Matrix):
        mat = [_integers(row) for row in matrix]
        if len(mat) != codomain.ngens or any(len(r) != domain.ngens for r in mat):
            raise UsageError(f"matrix must be {codomain.ngens} x {domain.ngens}")
        fr = codomain.free_rank
        for i, t in enumerate(codomain.torsion):
            row = mat[fr + i]
            mat[fr + i] = [x % t for x in row]
        matrix = _freeze(mat)
        for j, t in enumerate(domain.torsion):
            col = j + domain.free_rank
            for i in range(codomain.ngens):
                v = t * matrix[i][col]
                if i < fr:
                    ok = v == 0
                else:
                    ok = v % codomain.torsion[i - fr] == 0
                if not ok:
                    raise UsageError(
                        "matrix does not define a homomorphism: generator of "
                        f"order {t} maps to an element whose order does not "
                        f"divide {t}"
                    )
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "matrix", matrix)

    def __call__(self, elem: GroupElement) -> GroupElement:
        if elem.group != self.domain:
            raise UsageError("element is not in the domain")
        # GroupElement reduces the image
        return GroupElement(self.codomain, tuple(_mat_vec(self.matrix, elem.coords)))

    def map_coords(self, coords: tuple[int, ...]) -> tuple[int, ...]:
        """The reduced image of reduced domain coordinates, unchecked."""
        out = [sum(map(mul, row, coords)) for row in self.matrix]
        for i, t in enumerate(self.codomain.torsion, self.codomain.free_rank):
            out[i] %= t
        return tuple(out)

    def __matmul__(self, other: "GroupHom") -> "GroupHom":
        if not isinstance(other, GroupHom):
            return NotImplemented
        if other.codomain != self.domain:
            raise UsageError("homomorphisms do not compose: shape mismatch")
        if self.domain.is_trivial:
            # empty matrices carry no width, so a composite through the
            # trivial group must be rebuilt at full shape
            return GroupHom.zero(other.domain, self.codomain)
        return GroupHom(
            other.domain, self.codomain, _mat_mul(self.matrix, other.matrix)
        )

    @property
    def is_zero(self) -> bool:
        return not any(any(row) for row in self.matrix)

    def _solver(self) -> _Snf:
        """Lattice of the image columns followed by the codomain relations."""
        cols = [[row[j] for row in self.matrix] for j in range(self.domain.ngens)]
        return _lattice(cols + self.codomain.relation_columns(), self.codomain.ngens)

    def kernel(self) -> "Subgroup":
        """Full preimage of zero, as a subgroup of the domain."""
        n = self.domain.ngens
        gens = [self.domain.element(x[:n]) for x in self._solver().kernel_basis()]
        return Subgroup(self.domain, tuple(gens))

    def image(self) -> "Subgroup":
        gens = [self(g) for g in self.domain.generators()]
        return Subgroup(self.codomain, tuple(gens))

    def is_surjective(self) -> bool:
        return self._solver().spans_everything()

    @classmethod
    def zero(cls, domain: FgAbGroup, codomain: FgAbGroup) -> "GroupHom":
        return cls(
            domain,
            codomain,
            [[0] * domain.ngens for _ in range(codomain.ngens)],
        )


# ---------------------------------------------------------------------------
# subgroups


class Subgroup(Record):
    """A finitely generated subgroup of an ambient group.

    The generating set together with the ambient relations spans a
    lattice; one Smith normal form of that span yields the membership
    test, the canonical (isomorphism-invariant) form ``canonical_form``,
    and ``canonical_generators`` realizing it in ambient coordinates.
    Equality is equality of subgroups, whatever the generating sets:
    subgroups with different ambients or canonical forms are unequal
    outright; otherwise a finite ambient needs one inclusion (equal
    orders), and an ambient with a free part needs both.  The hash reads
    the ambient and the canonical form only.
    """

    __slots__ = ("ambient", "generators", "canonical_form", "canonical_generators",
                 "_span", "_to_canonical")

    def __init__(self, ambient: FgAbGroup, generators=()):
        gens = []
        for g in generators:
            if not isinstance(g, GroupElement):
                g = ambient.element(g)
            if g.group != ambient:
                raise UsageError("generator lies outside the ambient group")
            gens.append(g)
        rel = ambient.relation_columns()
        span = _lattice([list(g.coords) for g in gens] + rel, ambient.ngens)
        # the subgroup is the span modulo the ambient relations, written in
        # the span's basis: the columns of uinv scaled by the invariant factors
        canonical, to_canonical, from_canon = _canonicalize_presentation(
            span.rank, [span.coefficients(c) for c in rel]
        )
        basis = [[d * row[i] for i, d in enumerate(span.diag)] for row in span.uinv]
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "canonical_form", canonical)
        object.__setattr__(self, "canonical_generators", tuple(
            ambient.element(_mat_vec(basis, [row[i] for row in from_canon]))
            for i in range(canonical.ngens)
        ))
        object.__setattr__(self, "_span", span)
        object.__setattr__(self, "_to_canonical", to_canonical)

    def __reduce__(self):
        # the other slots are derived from these two
        return Subgroup, (self.ambient, self.generators)

    # -- accessors -----------------------------------------------------------

    @property
    def is_trivial(self) -> bool:
        return self.canonical_form.is_trivial

    def order(self) -> int | float:
        return self.canonical_form.order()

    @property
    def is_whole(self) -> bool:
        """Whether the subgroup is all of its ambient group.  Orders cannot
        tell this for an infinite ambient group: 2Z has the order of Z."""
        return self._span.spans_everything()

    # -- membership ----------------------------------------------------------

    def _coords(self, elem: GroupElement) -> tuple[int, ...]:
        if elem.group != self.ambient:
            raise UsageError("element lives in a different ambient group")
        return elem.coords

    def contains(self, elem: GroupElement) -> bool:
        return self.contains_coords(self._coords(elem))

    def contains_coords(self, coords: tuple[int, ...]) -> bool:
        """Membership of reduced ambient coordinates, unchecked."""
        return self._span.coefficients(coords) is not None

    def __contains__(self, elem) -> bool:
        return self.contains(elem)

    def coordinates_of(self, elem: GroupElement) -> tuple[int, ...] | None:
        """Coordinates of ``elem`` against the canonical generators, or
        ``None`` when the element is not a member."""
        w = self._span.coefficients(self._coords(elem))
        return None if w is None else self.canonical_form.reduce(
            _mat_vec(self._to_canonical, w))

    def contains_subgroup(self, other: "Subgroup") -> bool:
        if other.ambient != self.ambient:
            raise UsageError("subgroups live in different ambient groups")
        span = self._span
        return all(span.coefficients(g.coords) is not None
                   for g in other.canonical_generators)

    def __eq__(self, other):
        if not isinstance(other, Subgroup):
            return NotImplemented
        if self.ambient != other.ambient or self.canonical_form != other.canonical_form:
            return False
        # in a finite ambient a subgroup of the same order as one it
        # contains is that subgroup; 2Z and Z share a canonical form
        return self.contains_subgroup(other) and (
            not self.ambient.free_rank or other.contains_subgroup(self))

    def __hash__(self):
        return hash((self.ambient, self.canonical_form))

    # -- constructions --------------------------------------------------------

    def __add__(self, other: "Subgroup") -> "Subgroup":
        if not isinstance(other, Subgroup):
            return NotImplemented
        if other.ambient != self.ambient:
            raise UsageError("subgroups live in different ambient groups")
        return Subgroup(self.ambient, self.generators + other.generators)

    def __str__(self):
        return f"{self.canonical_form.describe()} in {self.ambient.describe()}"

    def __repr__(self):
        return f"Subgroup({self.canonical_form.describe()} in {self.ambient.describe()})"
