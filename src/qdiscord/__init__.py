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
    conditional_information,
    discord_analytic,
    discord_batch,
    discord_numeric,
    eof_from_concurrence,
)
from .states import (
    Family,
    NotHermitian,
    NotPositive,
    ParamOutOfRange,
    StateError,
    TraceNotOne,
    make_family,
    random_state,
    random_states,
    validate_state,
    validate_states,
)

__all__ = [name for name in dir() if not name.startswith("_")]
