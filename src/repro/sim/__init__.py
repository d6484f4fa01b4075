"""Discrete-event simulation kernel used by the whole reproduction."""

from .engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from .queues import PriorityStore, Resource, Store
from .rng import RngRegistry
from .trace import Span, TraceEvent, Tracer
from .stats import (
    Counter,
    Histogram,
    TimeSeries,
    TimeWeighted,
    UtilizationTracker,
    percentile,
)
from .units import (
    GB,
    KB,
    MB,
    MS,
    NS,
    SEC,
    US,
    bytes_per_ns_to_gbps,
    gbps_to_bytes_per_ns,
    ms,
    ns_to_us,
    seconds,
    us,
    wire_time_ns,
)

__all__ = [
    "AllOf", "AnyOf", "Environment", "Event", "Interrupt", "Process",
    "SimulationError", "Timeout",
    "PriorityStore", "Resource", "Store",
    "RngRegistry",
    "Tracer", "Span", "TraceEvent",
    "Counter", "Histogram", "TimeSeries", "TimeWeighted",
    "UtilizationTracker", "percentile",
    "GB", "KB", "MB", "MS", "NS", "SEC", "US",
    "bytes_per_ns_to_gbps", "gbps_to_bytes_per_ns", "ms", "ns_to_us",
    "seconds", "us", "wire_time_ns",
]
