"""Looseness tests, Nielsen/minimum numbers and filtration subgroups.

The supported targets are spheres, projective spaces over R, C, H and
Grassmannians of 2-planes in even-dimensional real space; the domain is
always a sphere.  Verdicts come from closed-form case analyses:

* maps into S^n: a pair is loose exactly when the first class equals
  the antipodal image of the second, and the minimum numbers follow the
  degree/suspension dichotomy;
* maps into KP(n'): a seven-case table over the split description of
  pi_m(KP(n')), driven by the frame-fibration boundary kernel and the
  antipodal action on lift classes;
* maps into G_{r,2}(R), r even: every pair is loose.

Every verdict carries the rule that produced it.  When the data needed
for a case is not derivable, a :class:`~coincalc.errors.GapError`
propagates instead of a guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from .abelian import FgAbGroup, GroupElement, GroupHom, Subgroup
from .errors import GapError, UsageError
from .fibration import (
    HomotopyClass,
    ProjectiveSpace,
    boundary_kernel,
    pi_projective,
    suspended_boundary_kernel,
)
from .homotopy_db import FIELDS, Database, field_dim
from .trace import Trace


# ---------------------------------------------------------------------------
# space descriptors


@dataclass(frozen=True)
class Sphere:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise UsageError("sphere dimension must be >= 1")

    @property
    def dimension(self) -> int:
        return self.n

    @property
    def compact(self) -> bool:
        return True

    @property
    def euler_characteristic_zero(self) -> bool:
        return self.n % 2 == 1

    def __str__(self):
        return f"S^{self.n}"


@dataclass(frozen=True)
class Grassmannian2:
    """Grassmann manifold of 2-planes in R^r."""

    r: int

    def __post_init__(self):
        if self.r < 4:
            raise UsageError("G_{r,2} is supported for r >= 4")

    @property
    def dimension(self) -> int:
        return 2 * (self.r - 2)

    @property
    def compact(self) -> bool:
        return True

    @property
    def euler_characteristic_zero(self) -> bool:
        # chi(G_{r,2}(R)) = floor(r/2) > 0 for every supported r
        return False

    def __str__(self):
        return f"G({self.r},2)"


Space = Sphere | ProjectiveSpace | Grassmannian2


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class CoincidenceVerdict:
    """Nielsen number and minimum numbers for one pair of classes.

    ``mc`` is ``math.inf`` when no homotopy achieves finitely many
    coincidence points.
    """

    loose: bool
    nielsen: int
    mcc: int
    mc: int | float
    rule: str

    def __post_init__(self):
        if not 0 <= self.nielsen <= self.mcc <= self.mc:
            raise UsageError(
                f"verdict violates N# <= MCC <= MC: "
                f"({self.nielsen}, {self.mcc}, {self.mc})"
            )
        if self.loose != (self.mcc == 0) or (self.mcc == 0) != (self.mc == 0):
            raise UsageError("loose must mean MCC = MC = 0")

    def numbers(self) -> tuple[int, int, int | float]:
        return (self.nielsen, self.mcc, self.mc)


def _verdict(nielsen, mcc, mc, rule) -> CoincidenceVerdict:
    return CoincidenceVerdict(mcc == 0, nielsen, mcc, mc, rule)


# ---------------------------------------------------------------------------
# suspension images, shared by the sphere and projective rules


def _suspension_image(db: Database, m: int, n: int, trace: Trace | None) -> Subgroup:
    """Image of the suspension pi_{m-1}(S^{n-1}) -> pi_m(S^n)."""
    return db.memo(("suspension_image", m, n), trace,
                   lambda t: db.suspension(m - 1, n - 1, t).image())


def _suspension_quotient(db: Database, m: int, n: int, trace: Trace | None) -> GroupHom:
    """Projection of pi_m(S^n) onto its quotient by the suspension image:
    two classes differ by a suspension exactly when their images agree."""
    def build(t):
        image = _suspension_image(db, m, n, t)
        return image.ambient.quotient_by(image)[1]

    return db.memo(("suspension_quotient", m, n), trace, build)


# ---------------------------------------------------------------------------
# spheres


class SphereClassifier:
    """Shared per-(m, n) data for classifying pairs of maps S^m -> S^n."""

    def __init__(self, db: Database, m: int, n: int, trace: Trace | None = None):
        if m < 1 or n < 1:
            raise UsageError("need m, n >= 1")
        self.db = db
        self.m = m
        self.n = n
        self.trace = trace
        self.group = db.pi_sphere(m, n)
        self.antipodal = db.antipodal(m, n, trace)
        self._suspension_image: Subgroup | None = None

    def _check(self, z: GroupElement):
        if z.group != self.group:
            raise UsageError(f"class does not live in pi_{self.m}(S^{self.n})")

    def suspension_image(self) -> Subgroup:
        if self._suspension_image is None:
            self._suspension_image = _suspension_image(
                self.db, self.m, self.n, self.trace
            )
        return self._suspension_image

    def is_loose(self, z1: GroupElement, z2: GroupElement) -> bool:
        self._check(z1)
        self._check(z2)
        return z1 == self.antipodal(z2)

    def classify(self, z1: GroupElement, z2: GroupElement) -> CoincidenceVerdict:
        if self.is_loose(z1, z2):
            Trace.note(self.trace, "sphere-antipodal-match")
            return _verdict(0, 0, 0, "sphere-loose")
        if self.m == 1 and self.n == 1:
            # classes are degrees; the coincidence count is their distance
            k = abs(z1.coords[0] - z2.coords[0])
            Trace.note(self.trace, "circle-degree-count")
            return _verdict(k, k, k, "circle-degrees")
        diff = z1 - self.antipodal(z2)
        if self.suspension_image().contains(diff):
            Trace.note(self.trace, "sphere-suspended-difference")
            return _verdict(1, 1, 1, "sphere-suspended-difference")
        Trace.note(self.trace, "sphere-unsuspended-difference")
        return _verdict(1, 1, inf, "sphere-unsuspended-difference")


def classify_sphere_pair(
    db: Database, m: int, n: int, z1: GroupElement, z2: GroupElement,
    trace: Trace | None = None,
) -> CoincidenceVerdict:
    return SphereClassifier(db, m, n, trace).classify(z1, z2)


# ---------------------------------------------------------------------------
# projective spaces


_ROW_NUMBERS = {
    1: (0, 0, 0),
    2: (0, 1, 1),
    3: (1, 1, 1),
    4: (2, 2, 2),
    5: (2, 2, inf),
    6: (1, 1, 1),
    7: (1, 1, inf),
}


class ProjectiveClassifier:
    """Shared per-(K, m, n') data for classifying pairs into KP(n').

    The seven cases are evaluated in listed order, fetching kernels and
    antipodal data lazily so that cases whose hypotheses already fail do
    not demand unavailable records.  Only the lift components of the
    classes matter; the summand missing a point plays no role in
    looseness questions.  The facts the cases read about a single lift
    class (kernel memberships, antipodal image, suspension coset) are
    computed once per class, so a sweep over all pairs does linear work
    in lattice solving.
    """

    def __init__(self, db: Database, k: str, m: int, n_prime: int,
                 trace: Trace | None = None):
        if m < 2 or n_prime < 2:
            raise UsageError(
                "the projective classification needs m, n' >= 2 "
                "(KP(1) and m = 1 reduce to the sphere rules)"
            )
        self.db = db
        self.k = k
        self.m = m
        self.n_prime = n_prime
        self.trace = trace
        self.pg = pi_projective(db, k, m, n_prime, trace)
        self.space = self.pg.space
        self._antipodal: GroupHom | None = None
        self._ker: Subgroup | None = None
        self._ker_susp: Subgroup | None = None
        self._susp_quotient: GroupHom | None = None
        self._facts: dict[tuple, object] = {}

    # lazy instance data ----------------------------------------------------

    def antipodal(self) -> GroupHom:
        if self._antipodal is None:
            n_lift = self.space.n + self.space.d - 1
            self._antipodal = self.db.antipodal(self.m, n_lift, self.trace)
        return self._antipodal

    def kernel(self) -> Subgroup:
        if self._ker is None:
            self._ker = boundary_kernel(
                self.db, self.k, self.m, self.n_prime, self.trace
            )
        return self._ker

    def suspended_kernel(self) -> Subgroup:
        if self._ker_susp is None:
            self._ker_susp = suspended_boundary_kernel(
                self.db, self.k, self.m, self.n_prime, self.trace
            )
        return self._ker_susp

    def suspension_quotient(self) -> GroupHom:
        if self._susp_quotient is None:
            self._susp_quotient = _suspension_quotient(
                self.db, self.m, self.space.n, self.trace
            )
        return self._susp_quotient

    # per-class facts ----------------------------------------------------------

    def _per_class(self, fact: str, z: GroupElement, compute):
        key = (fact, z.coords)
        if key not in self._facts:
            self._facts[key] = compute()
        return self._facts[key]

    def in_kernel(self, z: GroupElement) -> bool:
        return self._per_class("ker", z, lambda: self.kernel().contains(z))

    def in_suspended_kernel(self, z: GroupElement) -> bool:
        return self._per_class(
            "ker_susp", z, lambda: self.suspended_kernel().contains(z)
        )

    def antipode(self, z: GroupElement) -> GroupElement:
        return self._per_class("A", z, lambda: self.antipodal()(z))

    def suspension_coset(self, z: GroupElement) -> tuple[int, ...]:
        """Label of ``z`` modulo the suspension image: ``z1 - z2`` is a
        suspension exactly when the labels agree."""
        return self._per_class(
            "coset", z, lambda: self.suspension_quotient()(z).coords
        )

    # class plumbing -----------------------------------------------------------

    def lift_component(self, x) -> GroupElement:
        if isinstance(x, HomotopyClass):
            if (x.space, x.m) != (self.space, self.m):
                raise UsageError("class belongs to a different space")
            return x.lift_component
        if isinstance(x, GroupElement):
            return self.pg.split(x).lift_component
        raise UsageError("expected a GroupElement of pi_m or a HomotopyClass")

    def freely_homotopic(self, z1: GroupElement, z2: GroupElement) -> bool:
        """Base-point-free comparison of the projected classes.

        For K = R the deck transformation of the double cover acts on
        lift classes through the antipodal map, so the free class is the
        orbit {z, A(z)}; CP(n') and HP(n') are simply connected.
        """
        if self.k == "R":
            return z1 == z2 or z1 == self.antipode(z2)
        return z1 == z2

    # the seven cases -----------------------------------------------------------

    def _case_predicates(self, z1: GroupElement, z2: GroupElement):
        real = self.k == "R"

        def case1():
            return self.freely_homotopic(z1, z2) and self.in_kernel(z2)

        def case2():
            return (
                self.freely_homotopic(z1, z2)
                and self.in_suspended_kernel(z2)
                and not self.in_kernel(z2)
            )

        def case3():
            return (
                real
                and self.freely_homotopic(z1, z2)
                and z2 != self.antipode(z2)
            )

        def suspended_difference():
            return self.suspension_coset(z1) == self.suspension_coset(z2)

        def case4():
            return (
                real
                and not self.freely_homotopic(z1, z2)
                and suspended_difference()
            )

        def case5():
            return real and not suspended_difference()

        def case6():
            return (
                not real
                and z1 == z2
                and not self.in_suspended_kernel(z2)
            )

        def case7():
            return not real and z1 != z2

        return {1: case1, 2: case2, 3: case3, 4: case4, 5: case5,
                6: case6, 7: case7}

    def classify(self, x1, x2) -> CoincidenceVerdict:
        z1 = self.lift_component(x1)
        z2 = self.lift_component(x2)
        for idx, pred in self._case_predicates(z1, z2).items():
            if pred():
                Trace.note(self.trace, f"projective-case-{idx}")
                n_, mcc, mc = _ROW_NUMBERS[idx]
                return _verdict(n_, mcc, mc, f"projective-case-{idx}")
        raise GapError(
            f"no classification case matched for K={self.k}, m={self.m}, "
            f"n'={self.n_prime}; this indicates a data inconsistency"
        )

    def matching_cases(self, x1, x2) -> list[int]:
        """Evaluate every case predicate (validation mode).

        Exactly one case should hold for each pair; anything else is a
        reportable finding about the instance data.
        """
        z1 = self.lift_component(x1)
        z2 = self.lift_component(x2)
        return [i for i, pred in self._case_predicates(z1, z2).items() if pred()]


def classify_projective_pair(
    db: Database, k: str, m: int, n_prime: int, x1, x2,
    trace: Trace | None = None,
) -> CoincidenceVerdict:
    return ProjectiveClassifier(db, k, m, n_prime, trace).classify(x1, x2)


def exclusivity_violations(
    db: Database, k: str, m: int, n_prime: int, cap: int = 10**4
) -> list[tuple[tuple, tuple, list[int]]]:
    """All lift-class pairs matched by anything other than exactly one case.

    Enumerates the full (finite) lift group; the result should be empty
    for every instance the database covers.
    """
    cls = ProjectiveClassifier(db, k, m, n_prime)
    sphere = cls.pg.sphere_group
    if sphere.free_rank:
        raise UsageError("exclusivity check needs a finite lift group")
    zero = cls.pg.c_group.zero()
    classes = [HomotopyClass(cls.space, m, z, zero)
               for z in sphere.enumerate_torsion_part(cap)]
    bad = []
    for h1 in classes:
        for h2 in classes:
            matches = cls.matching_cases(h1, h2)
            if len(matches) != 1:
                bad.append((h1.lift_component.coords, h2.lift_component.coords,
                            matches))
    return bad


def covered_projective_instances(db: Database, max_order: int = 64):
    """Yield ``(k, m, n_prime, classifier)`` for every finite projective
    instance whose complete case data the database can derive."""
    rng = db.range
    for k in FIELDS:
        d = field_dim(k)
        for n_prime in range(2, rng.n_max + 1):
            lift_n = d * n_prime + d - 1
            for m in range(2, lift_n + rng.stem_max + 1):
                try:
                    cls = ProjectiveClassifier(db, k, m, n_prime)
                    if cls.pg.total.free_rank or cls.pg.sphere_group.free_rank:
                        continue
                    if cls.pg.total.order() > max_order:
                        continue
                    cls.kernel()
                    cls.suspended_kernel()
                    if k == "R":
                        cls.antipodal()
                        cls.suspension_quotient()
                except GapError:
                    continue
                yield k, m, n_prime, cls


# ---------------------------------------------------------------------------
# loose pairs across all families


@dataclass(frozen=True)
class LooseAnswer:
    loose: bool
    rule: str


def loose_pair(
    db: Database, space: Space, m: int, x1=None, x2=None,
    trace: Trace | None = None,
) -> LooseAnswer:
    """Decide whether the pair of classes is loose, with the rule used.

    For Grassmannians of even rank the answer does not depend on the
    classes at all.
    """
    if isinstance(space, Sphere):
        cls = SphereClassifier(db, m, space.n, trace)
        ans = cls.is_loose(x1, x2)
        Trace.note(trace, "sphere-antipodal-test")
        return LooseAnswer(ans, "sphere-antipodal-test")
    if isinstance(space, ProjectiveSpace):
        cls = ProjectiveClassifier(db, space.k, m, space.n_prime, trace)
        z1 = cls.lift_component(x1)
        z2 = cls.lift_component(x2)
        if not cls.freely_homotopic(z1, z2):
            Trace.note(trace, "projective-projections-differ")
            return LooseAnswer(False, "projective-projections-differ")
        ans = cls.in_kernel(z1) or cls.in_kernel(z2)
        Trace.note(trace, "projective-frame-lift-test")
        return LooseAnswer(ans, "projective-frame-lift-test")
    if isinstance(space, Grassmannian2):
        if space.r % 2 == 0:
            Trace.note(trace, "grassmann-even-complement")
            return LooseAnswer(True, "grassmann-even-complement")
        raise GapError(
            f"looseness over G({space.r},2) with odd r is not covered by the "
            "implemented results"
        )
    raise UsageError(f"unsupported space {space!r}")


# ---------------------------------------------------------------------------
# filtration subgroups


@dataclass(frozen=True)
class FiltrationResult:
    """One stage of the coincidence filtration of pi_m(target).

    ``stabilized_at`` is the stage from which the chain is provably
    constant for this family of targets.
    """

    q: int | float
    subgroup: Subgroup
    stabilized_at: int


def _check_q(q):
    if q == inf:
        return inf
    if isinstance(q, int) and q >= 1:
        return q
    raise UsageError("filtration stage q must be a positive integer or inf")


def pi_punctured(db: Database, space: Space, m: int,
                 trace: Trace | None = None) -> Subgroup:
    """Classes of maps that miss a point of the target: the classes
    loose against every constant map."""
    if isinstance(space, Sphere):
        Trace.note(trace, "punctured-sphere-trivial")
        return db.pi_sphere(m, space.n).trivial_subgroup()
    if isinstance(space, ProjectiveSpace):
        pg = pi_projective(db, space.k, m, space.n_prime, trace)
        Trace.note(trace, "punctured-projective-summand")
        return pg.c_subgroup()
    if isinstance(space, Grassmannian2):
        if space.r % 2 == 0:
            Trace.note(trace, "punctured-grassmann-surjective")
            return grassmann_pi(db, m, space.r, trace).whole_subgroup()
        raise GapError(
            f"pi^c over G({space.r},2) with odd r is not covered"
        )
    raise UsageError(f"unsupported space {space!r}")


# the stage from which each family's chain is provably constant
_STABILIZED_AT = {Sphere: 3, ProjectiveSpace: 2, Grassmannian2: 1}


def filtration_subgroup(db: Database, space: Space, m: int, q,
                        trace: Trace | None = None) -> FiltrationResult:
    """The stage-q subgroup of classes extending to q pairwise
    coincidence-free maps; q = inf gives the stabilized subgroup."""
    q = _check_q(q)
    stable = _STABILIZED_AT.get(type(space))
    if stable is None:
        raise UsageError(f"unsupported space {space!r}")
    stage = min(q, stable)
    sub = db.memo(("filtration", space, m, stage), trace,
                  lambda t: _filtration_stage(db, space, m, stage, t))
    return FiltrationResult(q, sub, stable)


def _filtration_stage(db: Database, space: Space, m: int, stage: int,
                      trace: Trace) -> Subgroup:
    if isinstance(space, Sphere):
        n = space.n
        group = db.pi_sphere(m, n)
        if stage <= 2:
            Trace.note(trace, "sphere-filtration-full-below-3")
            return group.whole_subgroup()
        # from stage 3 on: classes lifting to the unit tangent bundle
        Trace.note(trace, "sphere-filtration-tangent-lift")
        return boundary_kernel(db, "R", m, n, trace)
    if isinstance(space, ProjectiveSpace):
        if stage == 1:
            pg = pi_projective(db, space.k, m, space.n_prime, trace)
            return pg.total.whole_subgroup()
        Trace.note(trace, "projective-filtration-collapse")
        cls = ProjectiveClassifier(db, space.k, m, space.n_prime, trace)
        ker = cls.kernel()
        lifted = [cls.pg.lift_injection(g) for g in ker.canonical_generators]
        return Subgroup(cls.pg.total, tuple(lifted)) + cls.pg.c_subgroup()
    if space.r % 2 == 0:
        Trace.note(trace, "grassmann-filtration-full")
        return grassmann_pi(db, m, space.r, trace).whole_subgroup()
    raise GapError(f"filtration over G({space.r},2) with odd r is not covered")


# ---------------------------------------------------------------------------
# shortcut criteria for a full filtration


@dataclass(frozen=True)
class ShortcutAnswer:
    applies: bool
    clause: str | None
    detail: str


def full_filtration_shortcut(m_dim: int, m_compact: bool, space: Space) -> ShortcutAnswer:
    """Sufficient conditions under which every filtration stage is the
    whole homotopy set, decided from descriptor data alone.

    ``applies = False`` means "no shortcut", not "not full".
    """
    if m_compact and not space.compact:
        return ShortcutAnswer(True, "noncompact-target",
                              "compact source, noncompact target")
    if space.euler_characteristic_zero:
        return ShortcutAnswer(True, "vector-field",
                              "target admits a nowhere-zero vector field")
    if m_dim < space.dimension:
        return ShortcutAnswer(True, "smaller-dimension",
                              f"dim source {m_dim} < dim target {space.dimension}")
    return ShortcutAnswer(False, None, "no shortcut clause applies")


# ---------------------------------------------------------------------------
# Grassmannians of 2-planes


def grassmann_pi(db: Database, m: int, r: int,
                 trace: Trace | None = None) -> FgAbGroup:
    """pi_m(G_{r,2}(R)) for even r >= 4 and m >= 3, via the splitting
    into a real and a complex projective summand."""
    if r < 4 or r % 2:
        raise UsageError("pi_m(G_{r,2}) is computed for even r >= 4")
    if m < 3:
        raise UsageError("pi_m(G_{r,2}) is computed for m >= 3")
    rp = pi_projective(db, "R", m, r - 2, trace).total
    r_half = r // 2
    if r_half - 1 == 1:
        cp = db.pi_sphere(m, 2)  # CP(1) is the 2-sphere
    else:
        cp = pi_projective(db, "C", m, r_half - 1, trace).total
    Trace.note(trace, "grassmann-splitting")
    return rp.direct_sum(cp).group


def grassmann_all_loose(r: int) -> bool | None:
    """True when every pair of maps into G_{r,2}(R) is loose; ``None``
    (unknown) outside the even-rank hypothesis."""
    if r < 4:
        raise UsageError("G_{r,2} is supported for r >= 4")
    if r % 2 == 0:
        return True
    return None


# ---------------------------------------------------------------------------
# the base-point transfer isomorphism


def transfer_isomorphism(db: Database, space: Space, m: int,
                         trace: Trace | None = None) -> GroupHom:
    """The isomorphism of (stage-2 filtration)/(punctured classes) that
    swaps the roles of the two maps in a loose pair, expressed as an
    endomorphism of the canonical quotient."""
    if isinstance(space, Sphere):
        group = db.pi_sphere(m, space.n)
        quotient, proj = group.quotient_by(group.trivial_subgroup())
        a = db.antipodal(m, space.n, trace)
        Trace.note(trace, "transfer-sphere-antipodal")
        return proj @ a @ proj.inverse()
    if isinstance(space, ProjectiveSpace):
        stage2 = filtration_subgroup(db, space, m, 2, trace).subgroup
        punct = pi_punctured(db, space, m, trace)
        canon = stage2.canonical_form
        inner = []
        for g in punct.canonical_generators:
            coords = stage2.coordinates_of(g)
            if coords is None:
                raise GapError(
                    "punctured classes do not sit inside the stage-2 subgroup; "
                    "inconsistent instance data"
                )
            inner.append(canon.element(coords))
        quotient, _ = canon.quotient_by(canon.subgroup(inner))
        Trace.note(trace, "transfer-projective-identity")
        # induced by a self-map homotopic to the identity
        return quotient.identity_hom()
    if isinstance(space, Grassmannian2):
        if space.r % 2 == 0:
            Trace.note(trace, "transfer-grassmann-trivial")
            return FgAbGroup.trivial().identity_hom()
        raise GapError("transfer over odd-rank Grassmannians is not covered")
    raise UsageError(f"unsupported space {space!r}")
