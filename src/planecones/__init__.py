"""Exact effective-cone computations for moduli of sheaves on the projective plane."""

from .cfrac import (
    cantor_approx,
    cf_eval,
    even_expansion,
    is_endpoint_word,
    lr_parents,
    lr_to_slope,
    odd_expansion,
    parity_convert,
    period_structure,
    slope_to_lr,
)
from .chern import (
    ChernCharacter,
    SlopeDisc,
    euler_chi_pair,
    euler_pairing,
    hilbert_poly,
    line_bundle,
    moduli_dimension,
    natural_classes,
)
from .cone import (
    CaseSign,
    Classification,
    ConeReport,
    Fibration,
    Kind,
    KroneckerData,
    OrthogonalInvariants,
    ResolutionData,
    SecondaryEdge,
    SecondaryMode,
    Wall,
    bridgeland_wall,
    classify,
    cone_report,
    kronecker_data,
    orthogonal_character,
    orthogonal_invariants,
    resolution_multiplicities,
    secondary_edge,
)
from .errors import ConsistencyError, DescentError, DomainError, RankZeroError
from .exceptional import (
    DEFAULT_MAX_ORDER,
    DyadicRational,
    ExceptionalSlope,
    delta_curve,
    dot,
    enumerate_slopes,
    epsilon,
    find_interval,
    from_dyadic,
    from_integer,
    from_slope_value,
    interval_contains,
    parents,
)
from .qarith import (
    QuadraticNumber,
    parse_rational,
    sqrt_exact,
)

__version__ = "0.1.0"
