"""Discrete-event simulation kernel (substrate)."""

from .seeding import derive_seed
from .simulator import SimulationError, Simulator
from .stats import Counter, Histogram, StatsRegistry, Summary, TimeSeries

__all__ = [
    "derive_seed",
    "SimulationError",
    "Simulator",
    "Counter",
    "Histogram",
    "StatsRegistry",
    "Summary",
    "TimeSeries",
]
