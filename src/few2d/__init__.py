"""few2d: planar reduction and spectra of O(d)xO(d)-symmetric and 3-body quantum problems."""

__version__ = "0.1.0"

from .errors import (
    AccuracyNotReached,
    BoundViolation,
    BridgeMismatch,
    ConfigError,
    DimensionMismatch,
    Few2DError,
    GridTooCoarse,
    NonPositiveDistance,
    NonPositiveMass,
    NonPositiveMassOrFrequency,
    NotRational,
    NotSeparable,
    PotentialNotJacobiRadial,
    SingularNodeUnavoidable,
    SingularPoint,
    ZeroK,
)
from .model import (
    CagedOscillator,
    Calogero,
    Custom2D,
    HydrogenPair,
    PW,
    PotentialSpec,
    Rational,
    ThreeBodyConfig,
    ThreeBodyTTW,
    TTW,
    Wolfes,
    coerce_k,
    eval_potential,
    permute_particles,
    spec_from_dict,
    spec_to_dict,
)
from .reduction import (
    Box,
    JacobiFrame,
    ReducedProblem2D,
    build_jacobi,
    centrifugal_coefficient,
    default_box,
    equal_mass_frame,
    jacobi_distances,
    jacobi_polar,
    kinetic_gram,
    map_threebody,
    ordered_line_config,
    reduce_to_2d,
    wolfes_to_ttw,
)
from .discretize import Grid, SparseOperator, assemble, make_grid
from .eigensolve import DegeneracyReport, EigenResult, detect_degeneracies, lowest_eigs
from .oracles import (
    OracleSpectrum,
    RadialProblem,
    angular_pt_levels,
    pregauge_radial_levels,
    radial_spectrum,
    separated_spectrum,
)
from .superintegrability import (
    CHECKS,
    Bridge,
    IdentityCheckResult,
    ScanEntry,
    caged_image_of_ttw,
    degeneracy_scan,
    identity_check,
    integral_order,
    labeled_collisions,
    ordered_line_to_jacobi_polar_bridge,
    polar_to_cartesian_bridge,
)
