"""Weighted Lasso estimation for additive hazard rates on right-censored
data, plus Monte Carlo harnesses that audit the estimator's finite-sample
guarantees (slow and fast oracle inequalities, data-driven deviation
bound for the martingale noise).

The numerical core is an exact active-set solver in plain numpy (see
``hazlasso.solver``). A fit's ``sweeps`` counts its solver steps, each of
which brings in every violating zero coordinate and solves the active
block, and the constant ``hazlasso.solver.MAX_STEPS`` bounds them;
``active_kernel()`` names the solver.
"""

from .bernstein import (
    PAPER_NUMERIC,
    BernsteinConstants,
    bound_empirical,
    classical_bound,
    half_range,
    noise_process_terminal,
    run_mc,
    wilson_interval,
    zeta,
)
from .dictionary import DictionaryMatrix, linear_dictionary, load_dictionary
from .errors import ConfigError, DataValidationError, HazLassoError
from .gram import (
    GramSystem,
    build_gram,
    dump_gram,
    empirical_norm_sq,
    empirical_norm_sq_fn,
    objective,
)
from .oracle import (
    ConeSearchResult,
    fast_oracle_check,
    guarantee_level,
    identity_gram_check,
    mu3_bracket,
    mu3_search,
    run_oracle_mc,
    slow_oracle_check,
)
from .simulate import (
    SimulatedTruth,
    SimulationConfig,
    default_config,
    load_config,
    simulate_batch,
)
from .solver import LassoFit, active_kernel, fit, fit_path
from .survival import (
    RiskSetTimeline,
    StepFunction,
    SurvivalDataset,
    build_timeline,
    check_orthogonality,
    load_dataset,
    write_dataset,
)
from .weights import DEFAULT_X, WeightVector, compute_weights

__version__ = "0.1.0"

__all__ = [
    "BernsteinConstants",
    "ConeSearchResult",
    "ConfigError",
    "DEFAULT_X",
    "DataValidationError",
    "DictionaryMatrix",
    "GramSystem",
    "HazLassoError",
    "LassoFit",
    "PAPER_NUMERIC",
    "RiskSetTimeline",
    "SimulatedTruth",
    "SimulationConfig",
    "StepFunction",
    "SurvivalDataset",
    "WeightVector",
    "active_kernel",
    "bound_empirical",
    "build_gram",
    "build_timeline",
    "check_orthogonality",
    "classical_bound",
    "compute_weights",
    "default_config",
    "dump_gram",
    "empirical_norm_sq",
    "empirical_norm_sq_fn",
    "fast_oracle_check",
    "fit",
    "fit_path",
    "guarantee_level",
    "half_range",
    "identity_gram_check",
    "linear_dictionary",
    "load_config",
    "load_dataset",
    "load_dictionary",
    "mu3_bracket",
    "mu3_search",
    "noise_process_terminal",
    "objective",
    "run_mc",
    "run_oracle_mc",
    "simulate_batch",
    "slow_oracle_check",
    "wilson_interval",
    "write_dataset",
    "zeta",
]
