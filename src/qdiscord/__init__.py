"""Quantum discord, entanglement, and entropy measures for two-qubit states,
plus the boundary analysis of the discord-entanglement and discord-entropy
regions."""

from .bounds import (
    BoundaryCurve,
    RegionReport,
    SampleBatch,
    entropy_upper,
    horn_crossovers,
    horn_lower,
    horn_upper,
    sample_near_boundary,
    sample_random,
    sweep_family,
    verify_bounds,
)
from .measures import (
    AnalyticDiscordTrace,
    CorrelationRecord,
    OptimizerDidNotConverge,
    UnsupportedFamily,
    apply_measurement,
    concurrence,
    conditional_information,
    discord_analytic,
    discord_batch,
    discord_numeric,
    eof_from_concurrence,
    measurement_pair,
    mutual_information,
)
from .states import (
    Family,
    NotHermitian,
    NotPositive,
    ParamOutOfRange,
    StateError,
    TraceNotOne,
    linear_entropy,
    make_family,
    partial_trace,
    random_state,
    random_states,
    spectrum,
    validate_state,
    validate_states,
    von_neumann_entropy,
)

__all__ = [name for name in dir() if not name.startswith("_")]
