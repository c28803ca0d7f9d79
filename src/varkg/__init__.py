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
    EvolutionState,
    InvariantReport,
    Trajectory,
    TrajectoryRecord,
    discrete_energy,
    energy_drift,
    evolve,
    invariant_monitor,
    make_initial_data,
    radial_laplacian,
    step,
)
from .ground_state import (
    GroundState,
    closed_form_1d,
    equation_residual,
    least_energy,
    shoot_radial,
)
from .model import (
    AMPLITUDE_RAY,
    INTERIOR,
    INVALID,
    LIMIT,
    LINEAR_KG,
    GeneralG,
    PowerKG,
    ScalingExponents,
    action_S,
    check_subcritical,
    classify_exponents,
    constraint_K,
    flow_nonlinearity,
    energy_E,
    kinetic_T,
    moments,
    nehari_K,
    pohozaev_P,
    pohozaev_residual,
    power_integral,
    ray_exponents,
)
from .paths import (
    KineticReport,
    MinimizationReport,
    PathSample,
    action_profile,
    build_path,
    default_trial_family,
    family_action,
    mountain_pass_estimate,
    project_to_P_zero,
    project_to_constraint,
    rescale,
    verify_T_min_over_P,
    verify_min_on_constraint,
)
from .radial_core import (
    GridFunction,
    RadialGrid,
    brent,
    grad_norm_sq,
    h1_norm_sq,
    l2_norm_sq,
    load_profile,
    require_same_grid,
    save_profile,
    strauss_decay_profile,
)
