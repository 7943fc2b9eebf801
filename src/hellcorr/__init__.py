"""Hellinger correlation: a normalized measure of dependence between two
continuous random variables, estimated from ranks via nearest-neighbour
distances and an orthogonal series correction, with Monte-Carlo
significance tests and double-bootstrap confidence intervals."""

from .errors import (
    CacheMismatchError,
    CapabilityError,
    ConfigError,
    DegenerateDataError,
    DiagnosticsError,
    DomainError,
    HellcorrError,
    SizeError,
)
from .estimator import (
    EstimateConfig,
    EstimateResult,
    estimate,
    estimate_batch,
    eta_from_B,
    gaussian_B,
    gaussian_H2,
    pearson,
)
from .generators import (
    GeneratorSpec,
    SCENARIOS,
    block_copula_mi,
    gen_block_copula,
    gen_cross,
    gen_gaussian,
    gen_peano,
    gen_scenario,
)
from .inference import (
    BootstrapCI,
    NullTable,
    SignificanceResult,
    bootstrap_ci,
    critical_value,
    load_null_table,
    null_table,
    p_value,
    sample_beta_copula,
    save_null_table,
    significance,
)
from .datasets import seabirds
from .version import __version__

__all__ = [
    "BootstrapCI",
    "CacheMismatchError",
    "CapabilityError",
    "ConfigError",
    "DegenerateDataError",
    "DiagnosticsError",
    "DomainError",
    "EstimateConfig",
    "EstimateResult",
    "GeneratorSpec",
    "HellcorrError",
    "NullTable",
    "SCENARIOS",
    "SignificanceResult",
    "SizeError",
    "__version__",
    "block_copula_mi",
    "bootstrap_ci",
    "critical_value",
    "estimate",
    "estimate_batch",
    "eta_from_B",
    "gaussian_B",
    "gaussian_H2",
    "gen_block_copula",
    "gen_cross",
    "gen_gaussian",
    "gen_peano",
    "gen_scenario",
    "load_null_table",
    "null_table",
    "p_value",
    "pearson",
    "sample_beta_copula",
    "save_null_table",
    "seabirds",
    "significance",
]
