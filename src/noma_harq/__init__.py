"""Uplink NOMA with one Chase-combining retransmission: short-packet
reliability analysis, power-ratio optimization, dynamic cell planning,
and slot-level simulation."""

__version__ = "0.1.0"

from .cellplan import CellPlan, build_plan, locate_segment, ring_radii
from .errors import InfeasibleError, NomaHarqError, NumericalError
from .fbl import CodeParams
from .markov import (
    StationaryDistribution,
    TransitionMatrix,
    UserMetrics,
    analyze,
    build_transition_matrix,
    delay_pmf,
    max_user_per,
    oma_metrics,
    oma_received_power,
    stationary_distribution,
    throughput,
)
from .montecarlo import (
    SimConfig,
    SimResult,
    simulate_coordinated,
    simulate_oma_baseline,
    simulate_uncoordinated,
)
from .optimizer import GaParams, ParetoPoint, ga_minimize, min_blocklength, \
    optimize_power_split, pareto_front
from .sic import (
    DecodingOrder,
    Phase,
    SystemConfig,
    SystemState,
    decoding_order,
    stage_sinr,
)

__all__ = [
    "__version__",
    "CellPlan", "build_plan", "locate_segment", "ring_radii",
    "InfeasibleError", "NomaHarqError", "NumericalError",
    "CodeParams",
    "StationaryDistribution", "TransitionMatrix", "UserMetrics", "analyze",
    "build_transition_matrix", "delay_pmf", "max_user_per", "oma_metrics",
    "oma_received_power", "stationary_distribution", "throughput",
    "SimConfig", "SimResult", "simulate_coordinated", "simulate_oma_baseline",
    "simulate_uncoordinated",
    "GaParams", "ParetoPoint", "ga_minimize", "min_blocklength",
    "optimize_power_split", "pareto_front",
    "DecodingOrder", "Phase", "SystemConfig", "SystemState", "decoding_order",
    "stage_sinr",
]
