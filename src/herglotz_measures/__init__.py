"""Measures on the unit circle that reproduce the Lebesgue scalar product
on the span of the Cauchy fractions 1/(t - z_k).

The family is parameterized by certified Schur-class functions omega through
h = Re (1 + B*omega)/(1 - B*omega), where B is the Blaschke product of the
nodes; the representing measure is recovered as a sampled boundary density
(strictly contractive omega) or a finite set of atoms (inner omega), and
membership is certified through the Gram and phi conditions.
"""

from .analytic import (
    CAYLEY_SINGULARITY_THRESHOLD,
    CertifiedRational,
    Constant,
    NodeSet,
    ScaledBlaschke,
    SchurParameter,
    SpecialSystemResult,
    blaschke_eval,
    herglotz_eval,
    mass_bound_base,
    s_eval,
    schur_eval,
    solve_special_system,
    validate_nodes,
)
from .errors import (
    CayleySingularity,
    DuplicateNode,
    EmptyNodeList,
    HerglotzMeasureError,
    MassConsistencyFailure,
    NodeOutsideDisc,
    NotInnerParameter,
    ParameterNotCertified,
    PhaseWindingMismatch,
    PoleHit,
    SchemaError,
    TooManyNodes,
    UnsupportedMixedCase,
)
from .measure import (
    DEFAULT_GRID_SIZE,
    Atom,
    CircleGrid,
    GeneratedMeasure,
    MeasureKind,
    boundary_density,
    build_measure,
    find_atoms,
    total_mass,
)
from .verify import (
    Certificate,
    certify,
    extremal_measures,
    gram_target,
    mass_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "CAYLEY_SINGULARITY_THRESHOLD",
    "CayleySingularity",
    "Certificate",
    "CertifiedRational",
    "CircleGrid",
    "Constant",
    "DEFAULT_GRID_SIZE",
    "DuplicateNode",
    "EmptyNodeList",
    "GeneratedMeasure",
    "HerglotzMeasureError",
    "MassConsistencyFailure",
    "MeasureKind",
    "NodeOutsideDisc",
    "NodeSet",
    "NotInnerParameter",
    "ParameterNotCertified",
    "PhaseWindingMismatch",
    "PoleHit",
    "ScaledBlaschke",
    "SchemaError",
    "SchurParameter",
    "SpecialSystemResult",
    "TooManyNodes",
    "UnsupportedMixedCase",
    "blaschke_eval",
    "boundary_density",
    "build_measure",
    "certify",
    "extremal_measures",
    "find_atoms",
    "gram_target",
    "herglotz_eval",
    "mass_bound_base",
    "mass_bounds",
    "s_eval",
    "schur_eval",
    "solve_special_system",
    "total_mass",
    "validate_nodes",
]
