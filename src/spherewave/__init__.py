"""Numerical laboratory for sphere-constrained damped wave dynamics.

A small-mass family of stochastic damped wave equations on (0, L), whose
solution lives on the unit sphere of L^2 and is driven by conservative
multiplicative noise, together with its deterministic small-mass limit flow
and the Monte Carlo machinery to measure the convergence between the two.
"""

from .errors import (
    AliasingError,
    BlowUpError,
    ConfigError,
    DegenerateFieldError,
    HypothesisViolationError,
    ParameterError,
    ShapeError,
)
from .fields import (
    Grid1D,
    eigenvalue,
    eigenvalues,
    field_from_modes,
    initial_pair,
    inner_each,
    h1_seminorm_sq,
    h2_norm_sq,
    inner_l2,
    laplacian,
    norm_l2,
    norm_l2_sq,
    normalize_sphere,
    project_tangent,
    sine_field,
    sobolev_norm,
    spectral_norm,
    triple_cross,
    zero_field,
)
from .limit import (
    ComparisonResult,
    LimitParams,
    LimitTrajectory,
    comparison_experiment,
    explicit_form_residual,
    limit_rhs,
    mobility_apply_inverse,
    solve_limit,
)
from .noise import (
    NoiseBasis,
    build_basis,
    derive_stream,
    strat_correction,
)
from .spde import (
    SpdeParams,
    SpdeStepper,
    SpdeTrajectory,
    remainder_norms,
    simulate,
)
from .study import (
    SampleRow,
    StudyConfig,
    StudyResult,
    run_study,
    trend_check,
)

__version__ = "0.1.0"
