"""Numerical laboratory for strongly monotone discrete-time dynamical systems.

The package builds Poincare (period) maps of time-periodic reaction-
diffusion problems on interval, ring, and radial grids, plus explicit
analytic test maps; iterates them; detects and polishes cycles; grades
linear stability by the spectral radius of the cycle monodromy; and runs
ensemble experiments that put the qualitative predictions about monotone
dynamics to an empirical test: prevalence of convergence to stable cycles,
countability of exceptional sets along lines, one-sided omega limits, and
symmetry of limits under equivariant group actions.
"""

from .errors import (
    ConfigError,
    DimensionMismatchError,
    EscapeError,
    GridError,
    NumericalError,
    OrderError,
)
from .grids import Grid
from .order import (
    CHECK_TOL,
    DEFAULT_TOL,
    OrderTolerances,
    PropertyReport,
    StateVector,
    ValidationReport,
    check_monotone,
    check_strong_monotone,
    draw_ordered_pair,
    leq,
    order_interval_sample,
    strictly_less,
    strongly_less,
)
from .numerics import (
    SteppingScheme,
    build_diffusion,
    propagate_period,
    propagate_tangent,
)
from .systems import (
    AnalyticScalar,
    LinearCooperative,
    Nonlinearity,
    Parabolic,
    SystemSpec,
    apply_map,
    catalog,
    check_strong_positivity,
    cubic_map,
    evaluate,
    jacobian,
    linear_cooperative,
    logistic_map,
    negation_map,
    parabolic_catalog,
    parabolic_system,
    spatial_profile,
    trapping_check,
    validate_dissipativity,
)
from .asymptotics import (
    Classification,
    ClassificationReport,
    ClassifyBudget,
    CycleCandidate,
    CycleRecord,
    OmegaProbeReport,
    SideEstimate,
    VERDICTS,
    classify_many,
    classify_orbit,
    cycle_spectral_radius,
    default_tol_cyc,
    detect_cycle,
    iterate_orbit,
    omega_plus_probe,
    refine_cycle,
    separation_probe,
    set_distance,
)
from .prevalence import (
    LineReport,
    PrevalenceReport,
    RHO_EDGES,
    SamplerSpec,
    box_uniform,
    estimate_prevalence,
    line_probe,
    line_scan,
    sample_initial,
    smooth_field,
    wilson_interval,
)
from .symmetry import (
    GroupAction,
    SymmetrySurvey,
    SymmetryVerdict,
    check_equivariance,
    classify_symmetric_limit,
    interval_reflection,
    ring_rotation,
    spatial_variance,
    symmetric_limit_survey,
    symmetry_deviation,
    trivial_action,
)
from .config import (
    build_experiment,
    load_config,
    parse_config,
)

__version__ = "0.1.0"
