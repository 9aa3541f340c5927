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

import functools
from math import inf

from .abelian import FgAbGroup, GroupElement, GroupHom, Record, Subgroup, _integer
from .errors import GapError, UsageError
from .fibration import (
    ProjectiveSpace,
    boundary_kernel,
    pi_projective,
    suspended_boundary_kernel,
)
from .homotopy_db import FIELDS, TRIVIAL_GROUP, Database, field_dim, lift_dim
from .trace import Trace


# ---------------------------------------------------------------------------
# space descriptors


class Sphere(Record):
    __slots__ = ("n",)

    def __init__(self, n: int):
        n = _integer(n)
        if n < 1:
            raise UsageError("sphere dimension must be >= 1")
        object.__setattr__(self, "n", n)

    @property
    def dimension(self) -> int:
        return self.n

    def __str__(self):
        return f"S^{self.n}"


class Grassmannian2(Record):
    """Grassmann manifold of 2-planes in R^r."""

    __slots__ = ("r",)

    def __init__(self, r: int):
        r = _integer(r)
        if r < 4:
            raise UsageError("G_{r,2} is supported for r >= 4")
        object.__setattr__(self, "r", r)

    @property
    def dimension(self) -> int:
        return 2 * (self.r - 2)

    def __str__(self):
        return f"G({self.r},2)"


Space = Sphere | ProjectiveSpace | Grassmannian2


# ---------------------------------------------------------------------------
# verdicts


class CoincidenceVerdict(Record):
    """Nielsen number and minimum numbers for one pair of classes.

    ``mc`` is ``math.inf`` when no homotopy achieves finitely many
    coincidence points.
    """

    __slots__ = ("loose", "nielsen", "mcc", "mc", "rule")

    def __init__(self, loose: bool, nielsen: int, mcc: int, mc: int | float, rule: str):
        if not 0 <= nielsen <= mcc <= mc:
            raise UsageError(
                f"verdict violates N# <= MCC <= MC: ({nielsen}, {mcc}, {mc})"
            )
        if loose != (mcc == 0) or (mcc == 0) != (mc == 0):
            raise UsageError("loose must mean MCC = MC = 0")
        object.__setattr__(self, "loose", loose)
        object.__setattr__(self, "nielsen", nielsen)
        object.__setattr__(self, "mcc", mcc)
        object.__setattr__(self, "mc", mc)
        object.__setattr__(self, "rule", rule)

    def numbers(self) -> tuple[int, int, int | float]:
        return (self.nielsen, self.mcc, self.mc)


def _verdict(nielsen, mcc, mc, rule) -> CoincidenceVerdict:
    return CoincidenceVerdict(mcc == 0, nielsen, mcc, mc, rule)


# every verdict but the circle's is one of these, built and checked once
_SPHERE_LOOSE = _verdict(0, 0, 0, "sphere-loose")
_SPHERE_SUSPENDED = _verdict(1, 1, 1, "sphere-suspended-difference")
_SPHERE_UNSUSPENDED = _verdict(1, 1, inf, "sphere-unsuspended-difference")
_PROJECTIVE_VERDICTS = {
    i: _verdict(*numbers, f"projective-case-{i}")
    for i, numbers in enumerate([(0, 0, 0), (0, 1, 1), (1, 1, 1), (2, 2, 2),
                                 (2, 2, inf), (1, 1, 1), (1, 1, inf)], 1)
}


class _lazy:
    """``functools.cached_property`` without the per-class lock of CPython 3.11;
    concurrent first reads may both build, as ``Database.memo`` allows."""

    def __init__(self, build):
        self.build, self.name, self.__doc__ = build, build.__name__, build.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        return obj.__dict__.setdefault(self.name, self.build(obj))


# ---------------------------------------------------------------------------
# the suspension test, shared by the sphere and projective rules


def _suspension_quotient(db: Database, m: int, n: int, trace: Trace | None) -> GroupHom:
    """Projection of pi_m(S^n) onto its quotient by the image of the
    suspension pi_{m-1}(S^{n-1}) -> pi_m(S^n): two classes differ by a
    suspension exactly when their projections agree."""
    def build(t):
        image = db.suspension(m - 1, n - 1, t).image()
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

    def _check(self, z: GroupElement):
        if not isinstance(z, GroupElement) or z.group != self.group:
            raise UsageError(f"class does not live in pi_{self.m}(S^{self.n})")

    @_lazy
    def suspension_quotient(self) -> GroupHom:
        return _suspension_quotient(self.db, self.m, self.n, self.trace)

    def _loose_and_antipode(self, z1: GroupElement, z2: GroupElement):
        """Whether the pair is loose, i.e. ``z1 = A(z2)``, and A(z2)'s coords."""
        self._check(z1)
        self._check(z2)
        antipode = self.antipodal.map_coords(z2.coords)
        return z1.coords == antipode, antipode

    def is_loose(self, z1: GroupElement, z2: GroupElement) -> bool:
        return self._loose_and_antipode(z1, z2)[0]

    def classify(self, z1: GroupElement, z2: GroupElement) -> CoincidenceVerdict:
        loose, antipode = self._loose_and_antipode(z1, z2)
        if loose:
            Trace.note(self.trace, "sphere-antipodal-match")
            return _SPHERE_LOOSE
        if self.m == 1 and self.n == 1:
            # classes are degrees; the coincidence count is their distance
            k = abs(z1.coords[0] - z2.coords[0])
            Trace.note(self.trace, "circle-degree-count")
            return _verdict(k, k, k, "circle-degrees")
        q = self.suspension_quotient
        if q.map_coords(z1.coords) == q.map_coords(antipode):
            Trace.note(self.trace, "sphere-suspended-difference")
            return _SPHERE_SUSPENDED
        Trace.note(self.trace, "sphere-unsuspended-difference")
        return _SPHERE_UNSUSPENDED


def classify_sphere_pair(
    db: Database, m: int, n: int, z1: GroupElement, z2: GroupElement,
    trace: Trace | None = None,
) -> CoincidenceVerdict:
    return SphereClassifier(db, m, n, trace).classify(z1, z2)


# ---------------------------------------------------------------------------
# projective spaces


class ProjectiveClassifier:
    """Shared per-(K, m, n') data for classifying pairs into KP(n').

    Only the lift components of the classes matter; the summand missing a
    point plays no role in looseness questions: :meth:`lift_component`
    returns the reduced coordinates of a checked class's lift component,
    which a decision reads without building an element.  The instance data
    (the antipodal map A on the lift group, the boundary kernel and its
    suspended version, the projection modulo the suspension image) are
    attributes built on first read from the database's memo; a read that
    raises ``GapError`` stores nothing.  :meth:`classify` walks one
    decision tree, :meth:`_case`, to the first of the seven cases that
    holds; it reads each fact about the pair at most once and only where
    the case is still open, so a settled pair does not demand unavailable
    records.
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

    # lazy instance data ----------------------------------------------------

    @_lazy
    def antipodal(self) -> GroupHom:
        return self.db.antipodal(self.m, lift_dim(self.k, self.n_prime), self.trace)

    @_lazy
    def kernel(self) -> Subgroup:
        return boundary_kernel(self.db, self.k, self.m, self.n_prime, self.trace)

    @_lazy
    def suspended_kernel(self) -> Subgroup:
        return suspended_boundary_kernel(self.db, self.k, self.m, self.n_prime,
                                         self.trace)

    @_lazy
    def suspension_quotient(self) -> GroupHom:
        return _suspension_quotient(self.db, self.m, lift_dim(self.k, self.n_prime),
                                    self.trace)

    @_lazy
    def fixed(self) -> Subgroup:
        """ker(A - 1), the classes A fixes."""
        a = self.antipodal
        return GroupHom(a.domain, a.domain, [
            [x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(a.matrix)
        ]).kernel()

    @_lazy
    def quotient_of_antipode(self) -> GroupHom:
        """q o A."""
        return self.suspension_quotient @ self.antipodal

    # class plumbing -----------------------------------------------------------

    def lift_component(self, x) -> tuple[int, ...]:
        """Reduced coordinates in pi_m(S^{n+d-1}) of the lift of ``x``."""
        if not isinstance(x, GroupElement):
            raise UsageError("expected a GroupElement of pi_m")
        if x.group != self.pg.total:
            raise UsageError("element does not live in pi_m of this space")
        return self.pg.lift_projection.map_coords(x.coords)

    def freely_homotopic(self, z1: tuple[int, ...], z2: tuple[int, ...]) -> bool:
        """Base-point-free comparison of the projected classes.

        For K = R the deck transformation of the double cover acts on
        lift classes through the antipodal map, so the free class is the
        orbit {z, A(z)}; CP(n') and HP(n') are simply connected.
        """
        return z1 == z2 or (self.k == "R" and z1 == self.antipodal.map_coords(z2))

    # the seven cases -----------------------------------------------------------

    def _case(self, z1: tuple[int, ...], z2: tuple[int, ...]) -> int | None:
        """The first of the seven cases that holds for a pair of lift
        classes, or ``None`` when none does (inconsistent data)."""
        real = self.k == "R"
        if not self.freely_homotopic(z1, z2):
            if not real:
                return 7
            q = self.suspension_quotient
            return 4 if q.map_coords(z1) == q.map_coords(z2) else 5
        if self.kernel.contains_coords(z2):
            return 1
        if self.suspended_kernel.contains_coords(z2):
            return 2
        if not real:
            return 6
        # a free pair with z1 != z2 has A(z2) = z1 != z2
        if z1 != z2 or z2 != self.antipodal.map_coords(z2):
            return 3
        # case 5 reads the cosets, which agree here as z1 = z2
        self.suspension_quotient
        return None

    def exclusivity_failure(self) -> str | None:
        """``None`` when every pair of lift classes matches exactly one of
        the seven cases; otherwise the subgroup identity that fails.

        Derivation along the tree of :meth:`_case`, which answers with the
        first case that holds, writing ker and ker_susp for the boundary
        kernel and the suspended one, A for the antipodal map and q for
        the projection modulo the suspension image; the identities say
        when that answer is the only case that holds:

        * K = C, H.  The tree answers 7 for z1 != z2, which no other case
          admits.  For z1 = z2 = z it answers 1 (z in ker), else 2 (z in
          ker_susp), else 6.  Case 2 excludes ker, but case 6 holds beside
          case 1 at each z in ker outside ker_susp, so the answer is
          unique for every z iff (i) ker <= ker_susp.
        * K = R.  Write fh for "z1 = z2 or z1 = A z2".  Without fh the
          tree answers 4 or 5 by q(z1) = q(z2), and only those two cases
          admit the pair.  With fh it tries 1, 2, 3, then 5, and case 4
          does not hold; given (i), the number of cases that hold is
          [z2 in ker_susp] + [A z2 != z2] + [q(z1) != q(z2)], and zero of
          them is the tree's gap.  The pairs (z, z) make it one iff
          (ii) ker_susp = ker(A - 1).  Then the pairs (A z, z) with
          A z != z make it one iff q(A z) = q(z), i.e. (iii) q o A = q as
          homomorphisms: im(A - 1) lies in ker q, the suspension image.

        (i) holds on consistent data, because a class the boundary kills
        stays killed after suspension.  For K = R the pair sweep
        (:func:`exclusivity_violations`) cannot see a failure of (i) with
        ker_susp <= ker = ker(A - 1), so the identities are the stricter
        test.  Each is one subgroup or homomorphism comparison (torsion
        rows are stored reduced, so equal maps have equal matrices) of
        values the classifier keeps, ker(A - 1) and q o A among them; no
        element is built.

        A zero lift group is decided by rule: there ker, ker_susp and
        ker(A - 1) are all the zero subgroup, and q o A and q are both the
        zero map, so (i)-(iii) hold whatever the data holds.
        """
        if self.pg.sphere_group.is_trivial:
            return None
        ker_susp = self.suspended_kernel
        if not ker_susp.contains_subgroup(self.kernel):
            return "identity (i) fails: ker is not inside ker_susp"
        if self.k != "R":
            return None
        if self.fixed != ker_susp:
            return "identity (ii) fails: ker_susp != ker(A - 1)"
        if self.quotient_of_antipode != self.suspension_quotient:
            return "identity (iii) fails: im(A - 1) is not inside the suspension image"
        return None

    def classify(self, x1, x2) -> CoincidenceVerdict:
        idx = self._case(self.lift_component(x1), self.lift_component(x2))
        if idx is None:
            raise GapError(
                f"no classification case matched for K={self.k}, m={self.m}, "
                f"n'={self.n_prime}; this indicates a data inconsistency"
            )
        verdict = _PROJECTIVE_VERDICTS[idx]
        Trace.note(self.trace, verdict.rule)
        return verdict

    def matching_cases(self, x1, x2) -> list[int]:
        """Every case whose predicate holds, all seven evaluated: the
        validation oracle for :meth:`classify`.  Exactly one case should
        hold for each pair; anything else is a reportable finding about
        the instance data.  It belongs with the tests and stays here only
        because the benchmark in ``bench/`` binds it.
        """
        z1 = self.lift_component(x1)
        z2 = self.lift_component(x2)
        real = self.k == "R"
        free = self.freely_homotopic(z1, z2)
        in_ker = self.kernel.contains_coords(z2)
        in_ker_susp = self.suspended_kernel.contains_coords(z2)
        q = self.suspension_quotient if real else None
        same_coset = real and q.map_coords(z1) == q.map_coords(z2)
        holds = (
            free and in_ker,
            free and in_ker_susp and not in_ker,
            real and free and z2 != self.antipodal.map_coords(z2),
            real and not free and same_coset,
            real and not same_coset,
            not real and z1 == z2 and not in_ker_susp,
            not real and z1 != z2,
        )
        return [i for i, h in enumerate(holds, 1) if h]


def classify_projective_pair(
    db: Database, k: str, m: int, n_prime: int, x1, x2,
    trace: Trace | None = None,
) -> CoincidenceVerdict:
    family, space = rules_for(ProjectiveSpace(k, n_prime), m)
    return family.classify(db, space, m, x1, x2, trace)


def exclusivity_violations(
    db: Database, k: str, m: int, n_prime: int
) -> list[tuple[tuple, tuple, list[int]]]:
    """All lift-class pairs matched by anything other than exactly one case.

    Enumerates the full (finite) lift group; the result should be empty
    for every instance the database covers.
    """
    cls = ProjectiveClassifier(db, k, m, n_prime)
    sphere = cls.pg.sphere_group
    if sphere.free_rank:
        raise UsageError("exclusivity check needs a finite lift group")
    classes = [(z.coords, cls.pg.lift_injection(z))
               for z in sphere.enumerate_torsion_part()]
    bad = []
    for c1, x1 in classes:
        for c2, x2 in classes:
            matches = cls.matching_cases(x1, x2)
            if len(matches) != 1:
                bad.append((c1, c2, matches))
    return bad


def covered_projective_instances(db: Database):
    """Yield ``(k, m, n_prime, classifier)`` for every finite projective
    instance whose complete case data the database can derive; each call
    builds new classifiers over the database's memoized instance data."""
    rng = db.range
    for k in FIELDS:
        for n_prime in range(2, rng.n_max + 1):
            for m in range(2, lift_dim(k, n_prime) + rng.stem_max + 1):
                try:
                    cls = ProjectiveClassifier(db, k, m, n_prime)
                    if cls.pg.total.free_rank or cls.pg.sphere_group.free_rank:
                        continue
                    # read each attribute the cases need: built here, or a gap
                    cls.kernel, cls.suspended_kernel
                    if k == "R":
                        cls.antipodal, cls.suspension_quotient
                except GapError:
                    continue
                yield k, m, n_prime, cls


def exclusivity_report(db: Database) -> list[dict]:
    """The ``validate-db`` rows, dicts with keys ``check``, ``instance``,
    ``status`` ("ok" or "fail") and ``detail``, that report
    :meth:`ProjectiveClassifier.exclusivity_failure` for each covered
    instance of order at most 40.  The cap only keeps the list at its
    pinned 369 instances; the 5 of the 374 it skips have order 120 or 240.

    Which instances are checked does not change between calls, so their
    labels and classifiers are memoized per database, and the classifiers
    keep ker(A - 1) and q o A between calls; every call decides
    ``exclusivity_failure`` again on each of them and builds fresh rows."""
    checks = db.memo(("exclusivity_checks",), None, lambda _: tuple(
        (f"(K={k}, m={m}, n'={n_prime})", cls)
        for k, m, n_prime, cls in covered_projective_instances(db)
        if cls.pg.total.order() <= 40))
    rows = []
    for label, cls in checks:
        broken = cls.exclusivity_failure()
        rows.append({"check": "case-exclusivity", "instance": label,
                     "status": "fail" if broken else "ok",
                     "detail": broken or "0 pair(s) matched by != 1 case"})
    return rows


# ---------------------------------------------------------------------------
# answers shared by all families


class LooseAnswer(Record):
    __slots__ = ("loose", "rule")


# the few answers there are, each built once
_loose_answer = functools.cache(LooseAnswer)


class FiltrationResult(Record):
    """One stage of the coincidence filtration of pi_m(target).

    ``stabilized_at`` is the stage from which the chain is provably
    constant for this family of targets.
    """

    __slots__ = ("q", "subgroup", "stabilized_at")


def _check_q(q):
    if q == inf:
        return inf
    if isinstance(q, int) and not isinstance(q, bool) and q >= 1:
        return q
    raise UsageError("filtration stage q must be a positive integer or inf")


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
    family, cp_space = rules_for(ProjectiveSpace("C", r // 2 - 1), m)
    cp = family.pi(db, cp_space, m, trace)
    Trace.note(trace, "grassmann-splitting")
    return rp.direct_sum(cp).group


def grassmann_all_loose(r: int) -> bool | None:
    """True when every pair of maps into G_{r,2}(R) is loose; ``None``
    (unknown) outside the even-rank hypothesis."""
    return True if Grassmannian2(r).r % 2 == 0 else None


def _even_rank(space: Grassmannian2, what: str) -> None:
    if space.r % 2:
        raise GapError(f"{what} over G({space.r},2) with odd r is not covered")


# ---------------------------------------------------------------------------
# the family table


class TargetFamily:
    """The rules of one kind of target: the groups ``summands`` (pi_m, which
    class coordinates refer to, under ``"group"``) and the answers
    ``classify``, ``loose``, ``punctured``, filtration ``stage`` and
    ``transfer``.  Module functions are called by global name at call
    time, so a wrapper on a name sees every call."""

    stabilized_at: int  # the stage from which the chain is provably constant
    ignores_classes = False  # looseness is decided without reading the pair

    def pi(self, db: Database, space, m: int, trace) -> FgAbGroup:
        return self.summands(db, space, m, trace)["group"]


class _Spheres(TargetFamily):
    stabilized_at = 3

    def summands(self, db, space, m, trace):
        return {"group": db.pi_sphere(m, space.n)}

    def classify(self, db, space, m, z1, z2, trace):
        return classify_sphere_pair(db, m, space.n, z1, z2, trace)

    def loose(self, db, space, m, x1, x2, trace):
        ans = SphereClassifier(db, m, space.n, trace).is_loose(x1, x2)
        Trace.note(trace, "sphere-antipodal-test")
        return _loose_answer(ans, "sphere-antipodal-test")

    def punctured(self, db, space, m, trace):
        Trace.note(trace, "punctured-sphere-trivial")
        return db.pi_sphere(m, space.n).trivial_subgroup()

    def stage(self, db, space, m, stage, trace):
        if stage <= 2:
            group = db.pi_sphere(m, space.n)
            Trace.note(trace, "sphere-filtration-full-below-3")
            return group.whole_subgroup()
        # from stage 3 on: classes lifting to the unit tangent bundle
        Trace.note(trace, "sphere-filtration-tangent-lift")
        if m == 1 and space.n >= 2:
            # pi_1(S^n) = 0; the boundary would read pi_0(S^{n-1})
            return db.pi_sphere(m, space.n).whole_subgroup()
        return boundary_kernel(db, "R", m, space.n, trace)

    def transfer(self, db, space, m, trace):
        # pi_m(S^n) modulo its trivial subgroup is pi_m(S^n) itself
        a = db.antipodal(m, space.n, trace)
        Trace.note(trace, "transfer-sphere-antipodal")
        return a


class _ProjectiveSpaces(TargetFamily):
    stabilized_at = 2

    def summands(self, db, space, m, trace):
        pg = pi_projective(db, space.k, m, space.n_prime, trace)
        return {"group": pg.total, "lift_summand": pg.sphere_group,
                "punctured_summand": pg.c_group}

    def classify(self, db, space, m, z1, z2, trace):
        return ProjectiveClassifier(db, space.k, m, space.n_prime, trace).classify(z1, z2)

    def loose(self, db, space, m, x1, x2, trace):
        cls = ProjectiveClassifier(db, space.k, m, space.n_prime, trace)
        z1 = cls.lift_component(x1)
        z2 = cls.lift_component(x2)
        if not cls.freely_homotopic(z1, z2):
            Trace.note(trace, "projective-projections-differ")
            return _loose_answer(False, "projective-projections-differ")
        ker = cls.kernel
        ans = ker.contains_coords(z1) or ker.contains_coords(z2)
        Trace.note(trace, "projective-frame-lift-test")
        return _loose_answer(ans, "projective-frame-lift-test")

    def punctured(self, db, space, m, trace):
        pg = pi_projective(db, space.k, m, space.n_prime, trace)
        Trace.note(trace, "punctured-projective-summand")
        return pg.c_subgroup()

    def stage(self, db, space, m, stage, trace):
        if stage == 1:
            return self.pi(db, space, m, trace).whole_subgroup()
        Trace.note(trace, "projective-filtration-collapse")
        cls = ProjectiveClassifier(db, space.k, m, space.n_prime, trace)
        ker = cls.kernel
        lifted = [cls.pg.lift_injection(g) for g in ker.canonical_generators]
        return Subgroup(cls.pg.total, tuple(lifted)) + cls.pg.c_subgroup()

    def transfer(self, db, space, m, trace):
        stage2 = filtration_subgroup(db, space, m, 2, trace).subgroup
        punct = pi_punctured(db, space, m, trace)
        canon = stage2.canonical_form
        coords = [stage2.coordinates_of(g) for g in punct.canonical_generators]
        if None in coords:
            raise GapError("punctured classes do not sit inside the stage-2 "
                           "subgroup; inconsistent instance data")
        inner = canon.subgroup([canon.element(c) for c in coords])
        quotient, _ = canon.quotient_by(inner)
        Trace.note(trace, "transfer-projective-identity")
        # induced by a self-map homotopic to the identity
        return quotient.identity_hom()


class _Grassmannians(TargetFamily):
    stabilized_at = 1
    ignores_classes = True  # for even r every pair is loose

    def summands(self, db, space, m, trace):
        return {"group": grassmann_pi(db, m, space.r, trace)}

    def classify(self, db, space, m, z1, z2, trace):
        raise UsageError("classify supports spheres and projective spaces; "
                         "use `loose` for Grassmannians")

    def loose(self, db, space, m, x1, x2, trace):
        _even_rank(space, "looseness")
        Trace.note(trace, "grassmann-even-complement")
        return _loose_answer(True, "grassmann-even-complement")

    def punctured(self, db, space, m, trace):
        _even_rank(space, "pi^c")
        Trace.note(trace, "punctured-grassmann-surjective")
        return self.pi(db, space, m, trace).whole_subgroup()

    def stage(self, db, space, m, stage, trace):
        _even_rank(space, "filtration")
        Trace.note(trace, "grassmann-filtration-full")
        return self.pi(db, space, m, trace).whole_subgroup()

    def transfer(self, db, space, m, trace):
        _even_rank(space, "transfer")
        Trace.note(trace, "transfer-grassmann-trivial")
        return TRIVIAL_GROUP.identity_hom()


_FAMILIES = {Sphere: _Spheres(), ProjectiveSpace: _ProjectiveSpaces(),
             Grassmannian2: _Grassmannians()}


def rules_for(space: Space, m: int) -> tuple[TargetFamily, Space]:
    """The family whose rules answer for maps S^m -> ``space``, and the
    space they read: the one dispatch on the type of a space.

    The space read is ``space`` itself, or S^d when maps S^m -> KP(n')
    are maps into a sphere: KP(1) is S^d (RP(1) = S^1, CP(1) = S^2,
    HP(1) = S^4), answered as that sphere from m = 2 on.  At m = 1 KP(1)
    stays with the projective rules, which refuse it."""
    if isinstance(space, ProjectiveSpace) and space.n_prime == 1 and m >= 2:
        space = Sphere(field_dim(space.k))
    family = _FAMILIES.get(type(space))
    if family is None:
        raise UsageError(f"unsupported space {space!r}")
    return family, space


# ---------------------------------------------------------------------------
# the questions, for any supported target


def loose_pair(
    db: Database, space: Space, m: int, x1=None, x2=None,
    trace: Trace | None = None,
) -> LooseAnswer:
    """Decide whether the pair of classes is loose, with the rule used.

    For Grassmannians of even rank the answer does not depend on the
    classes at all.
    """
    family, space = rules_for(space, m)
    return family.loose(db, space, m, x1, x2, trace)


def pi_punctured(db: Database, space: Space, m: int,
                 trace: Trace | None = None) -> Subgroup:
    """Classes of maps that miss a point of the target: the classes
    loose against every constant map."""
    family, space = rules_for(space, m)
    return family.punctured(db, space, m, trace)


def filtration_subgroup(db: Database, space: Space, m: int, q,
                        trace: Trace | None = None) -> FiltrationResult:
    """The stage-q subgroup of classes extending to q pairwise
    coincidence-free maps; q = inf gives the stabilized subgroup."""
    q, m = _check_q(q), _integer(m)
    family, space = rules_for(space, m)
    stage = min(q, family.stabilized_at)
    sub = db.memo(("filtration", space, m, stage), trace,
                  lambda t: family.stage(db, space, m, stage, t))
    return FiltrationResult(q, sub, family.stabilized_at)


def transfer_isomorphism(db: Database, space: Space, m: int,
                         trace: Trace | None = None) -> GroupHom:
    """The isomorphism of (stage-2 filtration)/(punctured classes) that
    swaps the roles of the two maps in a loose pair, expressed as an
    endomorphism of the canonical quotient."""
    family, space = rules_for(space, m)
    return family.transfer(db, space, m, trace)
