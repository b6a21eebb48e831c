"""Component-count distributions of random graphs with all degrees 1 or 2.

Three cross-validating pipelines:

* exact — census generating polynomials over the rationals plus brute-force
  enumeration oracles;
* asymptotics — saddle-point estimates, contour coefficient extraction, and
  the closed-form Gaussian/Poisson limit law;
* sampler/stats — configuration-model Monte Carlo with moment and
  goodness-of-fit verdicts.
"""

from .errors import (
    ConvergenceError,
    DegseqError,
    DomainError,
    EmptyClassError,
    SamplingError,
    StructuralError,
)
from .exact import (
    CensusPolynomial,
    GraphClassParams,
    brute_force_multigraph,
    brute_force_simple,
    census_from_json,
    census_to_json,
    class_is_empty,
    graph_gf,
    graph_gf_value,
    joint_pmf,
    pmf_moments,
    v_factor,
)
from .asymptotics import (
    LimitLaw,
    SaddleData,
    asymptotic_log_gf,
    contour_extract,
    gradient_chi,
    hessian_H,
    limit_law,
    phi_second,
    saddle_data,
    solve_zeta,
)
from .sampler import (
    ComponentCensus,
    ExperimentResult,
    StubMultigraph,
    census,
    compensation_factor,
    run_experiment,
    sample_multigraph,
    sample_simple,
    validate_structure,
    write_samples_csv,
)
from .series import MPoly, TruncatedSeries, build_cycle_series, build_path_series
from .stats import (
    MomentReport,
    Verdict,
    chi_square_gof,
    gaussian_check,
    moment_report,
    poisson_check,
    psd_check,
    standardize,
)

__version__ = "0.1.0"
