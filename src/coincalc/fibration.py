"""Homotopy of projective spaces assembled from the sphere data.

For N = KP(n') (K one of R, C, H with real dimension d, n = d*n') the
covering/bundle projection p : S^{n+d-1} -> KP(n') induces a split
injection on pi_m whenever m, n' >= 2, so

    pi_m(KP(n'))  =  p_*(pi_m(S^{n+d-1}))  +  pi^c_m(KP(n')),

where the second summand (classes of maps missing a point) is
isomorphic to pi_{m-1}(S^{d-1}).  The connecting homomorphism of the
orthonormal-2-frame fibration

    S^{n-1} -> V_{n'+1,2}(K) -> S^{n+d-1}

is the other ingredient: its kernel is exactly the set of lift classes
that admit a second, coincidence-free companion map.  The homomorphism
itself is a structure lookup, :meth:`~coincalc.homotopy_db.Database.boundary`,
resolved like the suspensions and antipodal actions; this module builds
its kernels and the ``validate-db`` rows that check them.
"""

from __future__ import annotations

from .abelian import Record, Subgroup
from .errors import GapError, UsageError
from .homotopy_db import TRIVIAL_GROUP, Database, field_dim, lift_dim
from .trace import Trace


class ProjectiveSpace(Record):
    """Descriptor for KP(n'); real dimension is d * n'."""

    __slots__ = ("k", "n_prime")

    def __init__(self, k: str, n_prime: int):
        field_dim(k)
        if n_prime < 1:
            raise UsageError("projective space needs n' >= 1")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n_prime", n_prime)

    @property
    def d(self) -> int:
        return field_dim(self.k)

    @property
    def n(self) -> int:
        return self.d * self.n_prime

    @property
    def dimension(self) -> int:
        return self.n

    def __str__(self):
        return f"{self.k}P({self.n_prime})"


class ProjectiveHomotopyGroup(Record):
    """pi_m(KP(n')) with its two labelled summands.

    ``sphere_group`` is pi_m(S^{n+d-1}) and ``c_group`` is
    pi_{m-1}(S^{d-1}).  ``lift_injection`` is induced by the bundle
    projection p and is injective, with left inverse ``lift_projection``;
    ``c_injection`` embeds the classes that miss a point.
    """

    __slots__ = ("m", "total", "sphere_group", "c_group", "lift_injection",
                 "c_injection", "lift_projection")

    def c_subgroup(self) -> Subgroup:
        return self.c_injection.image()


def pi_projective(
    db: Database, k: str, m: int, n_prime: int, trace: Trace | None = None
) -> ProjectiveHomotopyGroup:
    """Split computation of pi_m(KP(n')) for m, n' >= 2."""
    return db.memo(("pi_projective", k, m, n_prime), trace,
                   lambda t: _pi_projective(db, k, m, n_prime, t))


def _pi_projective(
    db: Database, k: str, m: int, n_prime: int, trace: Trace
) -> ProjectiveHomotopyGroup:
    d = ProjectiveSpace(k, n_prime).d  # refuses a bad K or n' < 1 first
    if m < 2 or n_prime < 2:
        raise UsageError("pi_m(KP(n')) is computed for m, n' >= 2 only")
    sphere = db.pi_sphere(m, lift_dim(k, n_prime))
    if d == 1:
        # S^0 is discrete: no nontrivial classes miss a point for m >= 2
        c_group = TRIVIAL_GROUP
    else:
        c_group = db.pi_sphere(m - 1, d - 1)
    Trace.note(trace, "projective-splitting")
    ds = sphere.direct_sum(c_group)
    return ProjectiveHomotopyGroup(
        m=m,
        total=ds.group,
        sphere_group=sphere,
        c_group=c_group,
        lift_injection=ds.injections[0],
        c_injection=ds.injections[1],
        lift_projection=ds.projections[0],
    )


# ---------------------------------------------------------------------------
# kernels of the frame-fibration boundary


def boundary_kernel(
    db: Database, k: str, m: int, n_prime: int, trace: Trace | None = None
) -> Subgroup:
    """Kernel of the connecting homomorphism, inside pi_m(S^{n+d-1})."""
    return db.memo(("boundary_kernel", k, m, n_prime), trace,
                   lambda t: db.boundary(k, m, n_prime, t).kernel())


def suspended_boundary_kernel(
    db: Database, k: str, m: int, n_prime: int, trace: Trace | None = None
) -> Subgroup:
    """Kernel of (suspension o boundary) : pi_m(S^{n+d-1}) -> pi_m(S^n).

    Always contains the plain boundary kernel; the difference is exactly
    the set of classes that can be made coincidence free without being
    jointly liftable.
    """
    return db.memo(("suspended_boundary_kernel", k, m, n_prime), trace,
                   lambda t: _suspended_boundary_kernel(db, k, m, n_prime, t))


def _suspended_boundary_kernel(
    db: Database, k: str, m: int, n_prime: int, trace: Trace
) -> Subgroup:
    bnd = db.boundary(k, m, n_prime, trace)
    if bnd.is_zero:
        return bnd.domain.whole_subgroup()
    n = field_dim(k) * n_prime
    susp = db.suspension(m - 1, n - 1, trace)
    return (susp @ bnd).kernel()


# ---------------------------------------------------------------------------
# validate-db rows for the boundary rules: dicts with keys ``check``,
# ``instance``, ``status`` ("ok", "fail" or "unverifiable") and ``detail``


def validate_exactness(db: Database, k: str, m: int, n_prime: int) -> dict:
    """The row checking im(p_*) = ker(boundary) at pi_m(S^{n+d-1}) for one
    instance.

    For K = R with odd n' and m >= 3 the bundle V_{n'+1,2}(R) -> S^{n'}
    has a section (complex scalar multiplication), so p_* is onto and
    exactness says the boundary kernel is the whole group.
    """
    try:
        ker = boundary_kernel(db, k, m, n_prime)
    except GapError as exc:
        status, detail = "unverifiable", str(exc)
    else:
        if not (k == "R" and n_prime % 2 == 1 and m >= 3):
            status, detail = "unverifiable", "no frame-bundle projection available"
        elif ker.is_whole:
            status, detail = "ok", f"im(p_*) = ker(boundary) = {ker.canonical_form.describe()}"
        else:
            status, detail = "fail", (f"im(p_*) = {ker.ambient.describe()} but "
                                      f"ker(boundary) = {ker.canonical_form.describe()}")
    return {"check": "exactness", "instance": f"(K={k}, m={m}, n'={n_prime})",
            "status": status, "detail": detail}


def exactness_report(db: Database) -> list[dict]:
    """The rows of every exactness instance the database can express: the
    K = R instances with odd n', whose frame bundle has a section."""
    rng = db.range
    return [validate_exactness(db, "R", m, n_prime)
            for n_prime in range(3, rng.n_max + 1, 2)
            for m in range(n_prime, n_prime + rng.stem_max)]


def stable_kernel_report(db: Database) -> list[dict]:
    """The rows comparing the boundary kernel at K = R on every finite
    window cell of the stable range, where :meth:`Database.boundary`
    synthesizes the boundary, with the kernel of ``1 + (-1)^n``."""
    rows = []
    for m, n in db.range.cells():
        if not m < 2 * n - 2:
            continue
        group = db.pi_sphere(m, n)
        if group.free_rank:
            continue
        try:
            ker = boundary_kernel(db, "R", m, n)
        except GapError as exc:
            status, detail = "unverifiable", str(exc)
        else:
            # memoized by value and compared on every call
            factor = 1 + (-1) ** n
            killed = db.memo(("killed", group, factor), None,
                             lambda _: group.multiplication_by(factor).kernel())
            status = "ok" if ker == killed else "fail"
            detail = (f"kernel has {ker.order()} elements, "
                      f"enumeration gives {killed.order()}")
        rows.append({"check": "stable-kernel", "instance": f"({m},{n})",
                     "status": status, "detail": detail})
    return rows
