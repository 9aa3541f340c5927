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
for every ``m``.  These rules come first; a cell they leave open is read
from its database record, or else reported as a gap.
"""

from __future__ import annotations

from .abelian import FgAbGroup, GroupHom, Record, Subgroup
from .errors import GapError, UsageError
from .homotopy_db import TRIVIAL_GROUP, Database, field_dim
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

    __slots__ = ("space", "m", "total", "sphere_group", "c_group", "lift_injection",
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
    space = ProjectiveSpace(k, n_prime)
    if m < 2 or n_prime < 2:
        raise UsageError("pi_m(KP(n')) is computed for m, n' >= 2 only")
    d = space.d
    sphere = db.pi_sphere(m, space.n + d - 1)
    if d == 1:
        # S^0 is discrete: no nontrivial classes miss a point for m >= 2
        c_group = TRIVIAL_GROUP
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
    )


# ---------------------------------------------------------------------------
# connecting homomorphism of the frame fibration


def _stable_boundary(db: Database, dom: FgAbGroup, m: int, n: int,
                     trace: Trace | None) -> GroupHom:
    """Boundary ``dom`` = pi_m(S^n) -> pi_{m-1}(S^{n-1}) of the unit tangent
    bundle for even n, synthesized in the stable range m < 2n - 2.

    The map is multiplication by ``1 + (-1)^n = 2`` transported along the
    suspension identification; only its kernel is contractual, the
    overall sign is a convention.
    """
    susp = db.suspension(m - 1, n - 1, trace)
    Trace.note(trace, "stable-boundary-transport")
    return susp.inverse() @ dom.multiplication_by(2)


def boundary_hom(
    db: Database, k: str, m: int, n_prime: int, trace: Trace | None = None
) -> GroupHom:
    """Connecting homomorphism pi_m(S^{n+d-1}) -> pi_{m-1}(S^{n-1}) of the
    orthonormal-2-frame fibration over KP(n').

    Resolution order, as for every structure lookup: the rules, forced
    zero (trivial side, or K = R with odd n where the fibration has a
    section) and the stable-range synthesis for K = R; then the database
    record; then a gap that callers surface verbatim.
    """
    d = field_dim(k)
    n = d * n_prime
    dom = db.pi_sphere(m, n + d - 1)
    # for n = 1 the fiber is the discrete sphere S^0
    cod = TRIVIAL_GROUP if n == 1 else db.pi_sphere(m - 1, n - 1)
    if dom.is_trivial or cod.is_trivial:
        Trace.note(trace, "boundary-trivial-side")
        return GroupHom.zero(dom, cod)
    if k == "R" and n % 2 == 1:
        # complex scalar multiplication sections the frame bundle
        Trace.note(trace, "boundary-section-zero")
        return GroupHom.zero(dom, cod)
    if k == "R" and m < 2 * n - 2:
        return _stable_boundary(db, dom, m, n, trace)
    gap = (f"boundary unknown: ({m},{n}) is outside the stable range m < 2n-2" if k == "R"
           else f"boundary unknown for K = {k}, m = {m}, n' = {n_prime}: no record")
    return db.record("boundary", k, m, n_prime, trace, gap)


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

    @property
    def instance(self) -> str:
        return f"(K={self.k}, m={self.m}, n'={self.n_prime})"


def validate_exactness(db: Database, k: str, m: int, n_prime: int) -> ExactnessCheck:
    """Check im(p_*) = ker(boundary) at pi_m(S^{n+d-1}) for one instance.

    For K = R with odd n' and m >= 3 the bundle V_{n'+1,2}(R) -> S^{n'}
    has a section (complex scalar multiplication), so p_* is onto and
    exactness says the boundary kernel is the whole group.
    """
    try:
        ker = boundary_kernel(db, k, m, n_prime)
    except GapError as exc:
        return ExactnessCheck(k, m, n_prime, "unverifiable", str(exc))
    if not (k == "R" and n_prime % 2 == 1 and m >= 3):
        return ExactnessCheck(
            k, m, n_prime, "unverifiable", "no frame-bundle projection available"
        )
    if ker.is_whole:
        return ExactnessCheck(
            k, m, n_prime, "ok",
            f"im(p_*) = ker(boundary) = {ker.canonical_form.describe()}",
        )
    return ExactnessCheck(
        k, m, n_prime, "fail",
        f"im(p_*) = {ker.ambient.describe()} but ker(boundary) = "
        f"{ker.canonical_form.describe()}",
    )


def exactness_report(db: Database) -> list[ExactnessCheck]:
    """Run every exactness instance the database can express: the K = R
    instances with odd n', whose frame bundle has a section."""
    checks = []
    rng = db.range
    for n_prime in range(3, rng.n_max + 1, 2):
        for m in range(n_prime, n_prime + rng.stem_max):
            checks.append(validate_exactness(db, "R", m, n_prime))
    return checks
