"""Oscillating limit behavior of maxima of i.i.d. discrete random variables.

Core pipeline: build a tail model (`tailmodel`), derive its extremal
profile at a sample size n (`extremes.profile`), then study limiting
maximum laws, tie counts, and phase transitions, or check the matching
allocation models by simulation and exact enumeration (`allocsim`).
`datafit` fits negative binomials to count series and compares block
maxima; `cli` exposes everything as a command-line tool.
"""

from .specfun import (
    AccuracyError,
    lambert_w0,
    log_binomial,
    log_gamma,
    log_sum_exp,
    reg_beta_log,
    reg_gamma_p_log,
    reg_gamma_q_log,
)
from .tailmodel import (
    DiscreteCauchyModel,
    DiscreteTailModel,
    EmpiricalModel,
    GeometricModel,
    NegativeBinomialModel,
    PoissonModel,
    make_model,
)
from .extremes import (
    ExtremalProfile,
    OscillationScan,
    Regime,
    RootBracketError,
    TieDistribution,
    anderson_cluster_bound,
    briggs_approximation,
    exact_max_cdf_log,
    exact_order_stat_cdf_log,
    limiting_max_cdf,
    limiting_max_pmf,
    profile,
    scan_oscillation,
    tie_distribution,
    tie_phase_threshold,
)
from .allocsim import (
    AllocationSpec,
    AllocationSummary,
    enumerate_conditional,
    merging_report,
    simulate,
)
from .datafit import (
    CountSeries,
    DataError,
    NBFit,
    daily_max_law,
    empirical_daily_max,
    fit_nb_moments,
    ingest,
    simulate_daily_max,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "lambert_w0", "log_binomial", "log_gamma",
    "log_sum_exp", "reg_beta_log", "reg_gamma_p_log", "reg_gamma_q_log",
    "DiscreteCauchyModel", "DiscreteTailModel", "EmpiricalModel",
    "GeometricModel", "NegativeBinomialModel", "PoissonModel", "make_model",
    "ExtremalProfile", "OscillationScan", "Regime", "RootBracketError",
    "TieDistribution", "anderson_cluster_bound", "briggs_approximation",
    "exact_max_cdf_log", "exact_order_stat_cdf_log", "limiting_max_cdf",
    "limiting_max_pmf", "profile", "scan_oscillation", "tie_distribution",
    "tie_phase_threshold",
    "AllocationSpec", "AllocationSummary", "enumerate_conditional",
    "merging_report", "simulate",
    "CountSeries", "DataError", "NBFit", "daily_max_law",
    "empirical_daily_max", "fit_nb_moments", "ingest", "simulate_daily_max",
]
