"""coincalc: exact coincidence invariants over homotopy groups.

Decides looseness and computes Nielsen numbers, minimum numbers and
coincidence filtration subgroups for maps from spheres into spheres,
projective spaces and Grassmannians of 2-planes, using exact integer
linear algebra over finitely generated abelian groups and a curated
table of homotopy groups of spheres.
"""

from .abelian import (
    FgAbGroup,
    GroupElement,
    GroupHom,
    Subgroup,
    smith_normal_form,
)
from .coincidence import (
    CoincidenceVerdict,
    FiltrationResult,
    Grassmannian2,
    Space,
    Sphere,
    classify_projective_pair,
    classify_sphere_pair,
    exclusivity_violations,
    filtration_subgroup,
    grassmann_all_loose,
    grassmann_pi,
    loose_pair,
    pi_punctured,
    transfer_isomorphism,
)
from .errors import CoincalcError, DataError, GapError, UsageError
from .fibration import (
    ProjectiveHomotopyGroup,
    ProjectiveSpace,
    boundary_kernel,
    pi_projective,
    suspended_boundary_kernel,
    validate_exactness,
)
from .homotopy_db import (
    Database,
    load_database,
    load_default_database,
)

__version__ = "0.1.0"

__all__ = [
    "CoincalcError",
    "CoincidenceVerdict",
    "Database",
    "DataError",
    "FgAbGroup",
    "FiltrationResult",
    "GapError",
    "Grassmannian2",
    "GroupElement",
    "GroupHom",
    "ProjectiveHomotopyGroup",
    "ProjectiveSpace",
    "Space",
    "Sphere",
    "Subgroup",
    "UsageError",
    "boundary_kernel",
    "classify_projective_pair",
    "classify_sphere_pair",
    "exclusivity_violations",
    "filtration_subgroup",
    "grassmann_all_loose",
    "grassmann_pi",
    "load_database",
    "load_default_database",
    "loose_pair",
    "pi_projective",
    "pi_punctured",
    "smith_normal_form",
    "suspended_boundary_kernel",
    "transfer_isomorphism",
    "validate_exactness",
]
