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
that admit a second, coincidence-free companion map.

For K = R the connecting homomorphism is multiplication by
``1 + (-1)^n`` once both ends are identified along suspension, which is
valid in the stable range ``m < 2n - 2``; for odd ``n`` the fibration
has a section (complex scalar multiplication), so the boundary vanishes
for every ``m``.  Everything else must come from an explicit database
record or is reported as a gap.
"""

from __future__ import annotations

from .abelian import FgAbGroup, GroupElement, GroupHom, Record, Subgroup
from .errors import GapError, UsageError
from .homotopy_db import Database, field_dim
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

    @property
    def euler_characteristic_zero(self) -> bool:
        # chi(RP(odd)) = 0; chi(RP(even)) = 1; chi(CP(n')) = chi(HP(n')) = n'+1
        return self.k == "R" and self.n_prime % 2 == 1

    def __str__(self):
        return f"{self.k}P({self.n_prime})"


class ProjectiveHomotopyGroup(Record):
    """pi_m(KP(n')) with its two labelled summands.

    ``sphere_group`` is pi_m(S^{n+d-1}) and ``c_group`` is
    pi_{m-1}(S^{d-1}).  ``lift_injection`` is induced by the bundle
    projection p and is injective; ``c_injection`` embeds the classes
    that miss a point.
    """

    __slots__ = ("space", "m", "total", "sphere_group", "c_group", "lift_injection",
                 "c_injection", "lift_projection", "c_projection")

    def __init__(self, space: ProjectiveSpace, m: int, total: FgAbGroup,
                 sphere_group: FgAbGroup, c_group: FgAbGroup, lift_injection: GroupHom,
                 c_injection: GroupHom, lift_projection: GroupHom,
                 c_projection: GroupHom):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "sphere_group", sphere_group)
        object.__setattr__(self, "c_group", c_group)
        object.__setattr__(self, "lift_injection", lift_injection)
        object.__setattr__(self, "c_injection", c_injection)
        object.__setattr__(self, "lift_projection", lift_projection)
        object.__setattr__(self, "c_projection", c_projection)

    def split(self, elem: GroupElement) -> "HomotopyClass":
        if elem.group != self.total:
            raise UsageError("element does not live in pi_m of this space")
        return HomotopyClass(
            space=self.space,
            m=self.m,
            lift_component=self.lift_projection(elem),
            c_component=self.c_projection(elem),
        )

    def c_subgroup(self) -> Subgroup:
        return self.c_injection.image()


class HomotopyClass(Record):
    """An element of pi_m(KP(n')) in split coordinates."""

    __slots__ = ("space", "m", "lift_component", "c_component")

    def __init__(self, space: ProjectiveSpace, m: int, lift_component: GroupElement,
                 c_component: GroupElement):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "lift_component", lift_component)
        object.__setattr__(self, "c_component", c_component)


def pi_projective(
    db: Database, k: str, m: int, n_prime: int, trace: Trace | None = None
) -> ProjectiveHomotopyGroup:
    """Split computation of pi_m(KP(n')) for m, n' >= 2."""
    return db.memo(("pi_projective", k, m, n_prime), trace,
                   lambda t: _pi_projective(db, k, m, n_prime, t))


def _pi_projective(
    db: Database, k: str, m: int, n_prime: int, trace: Trace
) -> ProjectiveHomotopyGroup:
    space = ProjectiveSpace(k, n_prime)
    if m < 2 or n_prime < 2:
        raise UsageError("pi_m(KP(n')) is computed for m, n' >= 2 only")
    d = space.d
    sphere = db.pi_sphere(m, space.n + d - 1)
    if d == 1:
        # S^0 is discrete: no nontrivial classes miss a point for m >= 2
        c_group = FgAbGroup.trivial()
    else:
        c_group = db.pi_sphere(m - 1, d - 1)
    Trace.note(trace, "projective-splitting")
    ds = sphere.direct_sum(c_group)
    return ProjectiveHomotopyGroup(
        space=space,
        m=m,
        total=ds.group,
        sphere_group=sphere,
        c_group=c_group,
        lift_injection=ds.injections[0],
        c_injection=ds.injections[1],
        lift_projection=ds.projections[0],
        c_projection=ds.projections[1],
    )


# ---------------------------------------------------------------------------
# connecting homomorphism of the frame fibration


def stable_boundary(db: Database, m: int, n: int, trace: Trace | None = None) -> GroupHom:
    """Boundary pi_m(S^n) -> pi_{m-1}(S^{n-1}) of the unit tangent bundle,
    synthesized in the stable range m < 2n - 2.

    The map is multiplication by ``1 + (-1)^n`` transported along the
    suspension identification; only its kernel is contractual, the
    overall sign is a convention.
    """
    if not m < 2 * n - 2:
        raise GapError(
            f"boundary unknown: ({m},{n}) is outside the stable range m < 2n-2"
        )
    dom = db.pi_sphere(m, n)
    cod = db.pi_sphere(m - 1, n - 1)
    factor = 1 + (-1) ** n
    if factor == 0 or dom.is_trivial or cod.is_trivial:
        Trace.note(trace, "stable-boundary-zero")
        return GroupHom.zero(dom, cod)
    susp = db.suspension(m - 1, n - 1, trace)
    Trace.note(trace, "stable-boundary-transport")
    return susp.inverse() @ dom.multiplication_by(factor)


def boundary_hom(
    db: Database, k: str, m: int, n_prime: int, trace: Trace | None = None
) -> GroupHom:
    """Connecting homomorphism pi_m(S^{n+d-1}) -> pi_{m-1}(S^{n-1}) of the
    orthonormal-2-frame fibration over KP(n').

    Resolution order: explicit database record; forced zero (trivial
    side, or K = R with odd n where the fibration has a section); the
    stable-range synthesis for K = R.  Anything else is a gap that
    callers surface verbatim.
    """
    d = field_dim(k)
    n = d * n_prime
    rec = db.boundary_record(k, m, n_prime)
    if rec is not None:
        Trace.note(trace, "boundary-record")
        return rec
    dom = db.pi_sphere(m, n + d - 1)
    if n == 1:
        # the fiber is the discrete sphere S^0
        cod = FgAbGroup.trivial()
    else:
        cod = db.pi_sphere(m - 1, n - 1)
    if dom.is_trivial or cod.is_trivial:
        Trace.note(trace, "boundary-trivial-side")
        return GroupHom.zero(dom, cod)
    if k == "R":
        if n % 2 == 1:
            # complex scalar multiplication sections the frame bundle
            Trace.note(trace, "boundary-section-zero")
            return GroupHom.zero(dom, cod)
        return stable_boundary(db, m, n, trace)
    raise GapError(
        f"boundary unknown for K = {k}, m = {m}, n' = {n_prime}: no record"
    )


def boundary_kernel(
    db: Database, k: str, m: int, n_prime: int, trace: Trace | None = None
) -> Subgroup:
    """Kernel of the connecting homomorphism, inside pi_m(S^{n+d-1})."""
    return db.memo(("boundary_kernel", k, m, n_prime), trace,
                   lambda t: boundary_hom(db, k, m, n_prime, t).kernel())


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
    bnd = boundary_hom(db, k, m, n_prime, trace)
    if bnd.is_zero:
        return bnd.domain.whole_subgroup()
    n = field_dim(k) * n_prime
    susp = db.suspension(m - 1, n - 1, trace)
    return (susp @ bnd).kernel()


# ---------------------------------------------------------------------------
# exactness validation


class ExactnessCheck(Record):
    """``status`` is "ok", "fail" or "unverifiable"."""

    __slots__ = ("k", "m", "n_prime", "status", "detail")

    def __init__(self, k: str, m: int, n_prime: int, status: str, detail: str):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n_prime", n_prime)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "detail", detail)

    @property
    def instance(self) -> str:
        return f"(K={self.k}, m={self.m}, n'={self.n_prime})"


def _frame_projection(db: Database, k: str, m: int, n_prime: int) -> GroupHom | None:
    rec = db.stiefel_projection_record(k, m, n_prime)
    if rec is not None:
        return rec
    if k == "R" and (n_prime + 1) % 2 == 0 and m >= 3:
        # split Stiefel manifold: projection kills the fiber summand
        return db.stiefel_splitting(m, n_prime + 1).projections[1]
    return None


def validate_exactness(db: Database, k: str, m: int, n_prime: int) -> ExactnessCheck:
    """Check im(p_*) = ker(boundary) at pi_m(S^{n+d-1}) for one instance."""
    try:
        ker = boundary_kernel(db, k, m, n_prime)
    except GapError as exc:
        return ExactnessCheck(k, m, n_prime, "unverifiable", str(exc))
    proj = _frame_projection(db, k, m, n_prime)
    if proj is None:
        return ExactnessCheck(
            k, m, n_prime, "unverifiable", "no frame-bundle projection available"
        )
    image = proj.image()
    if image == ker:
        return ExactnessCheck(
            k, m, n_prime, "ok",
            f"im(p_*) = ker(boundary) = {ker.canonical_form.describe()}",
        )
    return ExactnessCheck(
        k, m, n_prime, "fail",
        f"im(p_*) = {image.canonical_form.describe()} but ker(boundary) = "
        f"{ker.canonical_form.describe()}",
    )


def exactness_report(db: Database) -> list[ExactnessCheck]:
    """Run every exactness instance the database can express.

    K = R instances with odd n' come for free from the split Stiefel
    manifold; all other instances need explicit projection records.
    """
    checks = []
    rng = db.range
    for n_prime in range(3, rng.n_max + 1, 2):
        for m in range(n_prime, n_prime + rng.stem_max):
            checks.append(validate_exactness(db, "R", m, n_prime))
    for rec in db.hom_records():
        if rec.kind == "stiefel_projection":
            checks.append(validate_exactness(db, rec.field, rec.m, rec.n))
    return checks
