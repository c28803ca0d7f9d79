"""Variational toolkit for radial nonlinear Klein-Gordon standing waves.

Ground-state profiles (closed form in one dimension, radial shooting in
two and three), the action/constraint functionals of the associated
variational problem, mountain-pass path construction with verification
reports, and a leapfrog radial evolution with invariant-set tracking.
"""

__version__ = "0.1.0"

from .errors import (
    BracketError,
    ConvergenceError,
    EmptyConstraintSample,
    GluingFailed,
    GridMismatch,
    InvalidInput,
    InvalidMass,
    InvalidParameter,
    NoNegativeEndpoint,
    NoRoot,
    NotOnConstraint,
    NumericalOverflow,
    PreconditionFailed,
    TruncationOverflow,
    Unsupported,
    VarkgError,
    WrongRegion,
)
from .evolution import (
    BLOWUP_DETECTED,
    BOUNDARY_CONTAMINATION,
    NON_FINITE,
    REACHED_TMAX,
    InvariantReport,
    Trajectory,
    TrajectoryRecord,
    energy_drift,
    evolve,
    invariant_monitor,
    make_initial_data,
)
from .ground_state import (
    GroundState,
    closed_form_1d,
    equation_residual,
    shoot_radial,
)
from .model import (
    AMPLITUDE_RAY,
    INTERIOR,
    INVALID,
    LIMIT,
    GeneralG,
    PowerKG,
    ScalingExponents,
    check_subcritical,
    classify_exponents,
    flow_nonlinearity,
    moments,
    ray_exponents,
)
from .paths import (
    KineticReport,
    MinimizationReport,
    PathSample,
    build_path,
    default_trial_family,
    exponent_region,
    family_action,
    mountain_pass_estimate,
    project_to_constraint,
    rescale,
    verify_T_min_over_P,
    verify_min_on_constraint,
)
from .radial_core import (
    GridFunction,
    RadialGrid,
    brent,
    load_profile,
    require_same_grid,
    save_profile,
    strauss_decay_profile,
)
