"""Transnational attack-allocation risk engine.

Estimates model parameters from country-level data, allocates each source's
expected plots over its routes to target countries with a closed-form logit,
and evaluates counterfactual defense scenarios.
"""

from .params import (
    BLOCKED,
    DEFAULT_LAMBDA,
    DEFAULT_Q,
    ModelError,
    ModelParams,
    SupportWeights,
    WEIGHT_PRESETS,
    is_blocked,
)
from .dataset import (
    CountryTable,
    DataBundle,
    bundled_data_dir,
    load_bundle,
    load_country_table,
    load_pre_estimated,
)
from .evader import AttackMatrix, target_totals
from .scenario import (
    ScenarioSpec,
    apply_scenario,
    deterrence_sweep,
    diff_matrices,
    find_threshold,
    solve,
)

__version__ = "0.1.0"
