"""Exact computation of the smallest complex nilpotent orbit meeting each
non-compact real simple Lie algebra without complex structure."""

from .errors import (
    FormNameError,
    InconsistentDiagram,
    InvalidReport,
    InvalidType,
    LieOrbitsError,
    NonIntegralWeights,
    OutOfRangeParams,
    RankTooSmall,
    SingularMatrix,
    TypeMismatch,
    UnrecognizedSystem,
)
from .orbits import (
    EquivalenceConditions,
    FormAnalysis,
    OrbitReport,
    black_extended_criterion,
    equivalence_conditions,
    min_g_wdd_direct,
    min_g_wdd_linear_system,
    orbit_report,
    report_from_dict,
    report_to_dict,
    wdd_matches_satake,
)
from .restricted import (
    RestrictedRootSystem,
    TypeLabel,
    is_C_or_BC,
    is_hermitian,
    parity_criterion,
    restricted_root_system,
)
from .rootsys import (
    RootSystem,
    SimpleType,
    WeightedDynkinDiagram,
    build_root_system,
    dual_coxeter_number,
    extended_neighbors,
    min_orbit_wdd,
    orbit_dim_from_wdd,
)
from .satake import (
    RealFormDescriptor,
    SatakeDiagram,
    SatakeInvolution,
    build_satake,
    catalog,
    parse_form_name,
    satake_involution,
    validate_satake,
)
from .verify import run_verification

__version__ = "0.1.0"
