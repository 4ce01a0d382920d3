"""Periodic autoregressions with symmetric alpha-stable noise.

Simulation, covariation-based coefficient estimation, Monte Carlo
benchmarking, and a fitting pipeline for seasonal heavy-tailed series.
"""

from .covariation import (
    cv_phase_matrix_spectral,
    estimate_spectral_measure_2d,
    ncv_cross,
    ncv_phase_matrix,
)
from .estimators import (
    EstimationResult,
    estimate_alpha,
    theta_from_cov_matrices,
    yw_cv_estimate,
    yw_t_estimate,
)
from .exceptions import (
    DataError,
    DegenerateSeriesError,
    NumericalError,
    SolverError,
    StableParError,
    TableRangeError,
    UnboundedModelError,
)
from .mc import (
    McConfig,
    McReport,
    model1_preset,
    model2_preset,
    run_mc_study,
)
from .par_model import (
    BoundednessReport,
    MultiTrajectory,
    ParModel,
    check_boundedness,
    g_product,
    simulate_par1,
)
from .pipeline import (
    DeterministicComponents,
    DiagnosticsReport,
    FitResult,
    QuantilePaths,
    build_predictive_model,
    diagnose_residuals,
    fit_deterministic,
    fit_model,
    fit_par1,
    one_step_quantiles,
    simulate_quantile_lines,
)
from .rng import RandomStream
from .solvers import SolveReport, bicgstab, solution1, solve_yw
from .stable import (
    DiscreteSpectralMeasure,
    StableParams,
    ad_stable_test,
    mcculloch_estimate,
    sample_sas_1d,
    sample_stable_vector,
    signed_power,
    stable_cdf,
    stable_quantile,
)

__version__ = "0.1.0"
