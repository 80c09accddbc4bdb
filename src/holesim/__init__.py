"""Numerical experiments on decoherence of superposed gravitational
branches: branch evolution, the complex interference observable, its
collapse under one-sided coordinate changes, and reconstruction of the
shared background from overlap data."""

from .background_recover import (
    BackgroundMap,
    FormSample,
    commutation_check,
    coordinate_projectors,
    localized_basis,
    pull_back_position_measure,
    recover_background,
    riesz_isomorphism,
    sample_form,
    translate_basis,
)
from .diffeo import (
    PushforwardPlan,
    SpatialDiffeomorphism,
    identity_map,
    make_bump_displacement,
    make_translation_ramp,
    pushforward_potential,
    pushforward_wavefunction,
)
from .errors import (
    ConfigError,
    DegenerateForm,
    DomainError,
    GridMismatch,
    HolesimError,
    InsufficientDisplacement,
    InvalidMeasure,
    NonInvertibleDiffeo,
    NormViolation,
    NumericalBlowup,
    ResolutionError,
    SignatureError,
    StabilityWarning,
    SupportViolation,
    UnderdeterminedFit,
    ZeroNormError,
)
from .evolve import (
    EvolutionConfig,
    Potential,
    Trajectory,
    energy_expectation,
    evolve,
    evolve_branches,
    step,
)
from .grid import (
    Grid,
    Region,
    WaveFunction,
    gaussian_packet,
    inner_product,
    norm,
    normalize,
    spectral_sample,
)
from .harmonic import (
    ConvergenceReport,
    MetricField,
    convergence_order,
    densitized_inverse,
    field_divergence,
    harmonic_residual,
    minkowski_metric,
)
from .hole_experiment import (
    HoleExperimentConfig,
    HoleReport,
    SweepEntry,
    default_config,
    run_baseline,
    run_hole,
    sweep,
)
from .observable import (
    DecoherenceObservable,
    FringePattern,
    TwoLevelDensityMatrix,
    compute_theta,
    density_matrix,
    estimate_theta,
    interference_pattern,
    partial_trace,
    theta_time_series,
)

__version__ = "0.1.0"
