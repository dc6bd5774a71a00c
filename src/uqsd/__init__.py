"""Optimal conclusive discrimination of two pure product multipartite states.

Computes the closed-form optimum for unambiguously telling two non-orthogonal
pure states apart, runs the sequential local protocol that attains it one
party at a time, and validates both against a brute-force oracle and Monte
Carlo sampling of the physical measurements.
"""

from .states import (
    NORM_TOL,
    PROB_TOL,
    InternalFaultError,
    LocalPair,
    Priors,
    ProductInstance,
    PureState,
    checked_integer,
    checked_number,
    inner_product,
    random_instance,
    random_pure_state,
    state_pair_with_overlap,
    state_pairs_with_overlaps,
)
from .pair_disc import (
    DegeneratePairError,
    InconsistentStrategyError,
    NeumarkModel,
    PairSpan,
    Povm,
    Regime,
    Strategy,
    brute_force_strategy,
    build_povm,
    failure_posterior,
    neumark_model,
    optimal_strategy,
)
from .locc import (
    EXHAUSTIVE_MAX_PARTIES,
    Order,
    OrderMode,
    ProtocolResult,
    StepRecord,
    best_order,
    checked_order,
    global_optimum,
    global_overlap,
    group,
    measurement_count_distribution,
    run_protocol,
)
from .montecarlo import Engine, SimStats, simulate

__version__ = "0.1.0"

__all__ = [
    "NORM_TOL",
    "PROB_TOL",
    "InternalFaultError",
    "PureState",
    "Priors",
    "LocalPair",
    "ProductInstance",
    "checked_number",
    "checked_integer",
    "inner_product",
    "random_pure_state",
    "state_pair_with_overlap",
    "state_pairs_with_overlaps",
    "random_instance",
    "Regime",
    "Strategy",
    "PairSpan",
    "Povm",
    "NeumarkModel",
    "DegeneratePairError",
    "InconsistentStrategyError",
    "optimal_strategy",
    "failure_posterior",
    "brute_force_strategy",
    "build_povm",
    "neumark_model",
    "Order",
    "OrderMode",
    "StepRecord",
    "ProtocolResult",
    "EXHAUSTIVE_MAX_PARTIES",
    "global_overlap",
    "global_optimum",
    "run_protocol",
    "checked_order",
    "best_order",
    "group",
    "measurement_count_distribution",
    "Engine",
    "SimStats",
    "simulate",
    "__version__",
]
