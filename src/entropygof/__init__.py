"""Entropy-based goodness-of-fit testing.

Simple distributional hypotheses are tested by maximizing entropy over
observation weights subject to a single characteristic-function moment
constraint; twice the sample size times the attained divergence from
uniform weights is asymptotically chi-square(1) under the null.  A
Kolmogorov-Smirnov comparator, a regression-residual pipeline, and a
seeded Monte Carlo power-study harness round out the package.
"""

from .harness import (
    DEFAULT_SEED,
    PowerRow,
    PowerStudyConfig,
    PowerTable,
    emit_power_csv,
    emit_power_svg,
    load_config,
    run_power_study,
)
from .kstest import (
    CalibrationCache,
    kolmogorov_critical,
    kolmogorov_sf,
    ks_critical_simple,
    ks_statistic,
    lilliefors_critical,
    run_ks_test,
)
from .maxent import MaxEntSolution, solve_maxent
from .moments import (
    MomentConstraint,
    build_cauchy_sin_constraint,
    build_cf_constraint,
    build_standard_normal_constraint,
    normal_cf_integral,
    null_constraint,
    run_et_test,
    sinc_kernel,
    standardize,
)
from .numerics import (
    QuadratureError,
    chi2_1_critical,
    chi2_1_sf,
    erf,
    erfc,
    integrate,
    normal_cdf,
    normal_quantile,
)
from .regression import (
    DegenerateTrialError,
    LinearModelSpec,
    OlsFit,
    ols_fit,
    ratio_transform,
    run_regression_et,
    run_regression_ks,
    simulate_model,
    standardized_residuals,
)
from .results import TestResult
from .sampling import (
    ARProcess,
    Cauchy,
    CenteredLogNormal,
    DistributionSpec,
    Exponential,
    MAProcess,
    Normal,
    SeedSpec,
    StudentT,
    Uniform,
    cdf,
    centered_lognormal_params,
    parse_distribution,
    sample,
    sample_using,
    spec_label,
)
from .tables import TABLE_NAMES, reference_value, table_config

__version__ = "0.1.0"
