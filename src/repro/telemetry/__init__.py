"""Unified observability for the vRIO reproduction.

The paper's claims are observability claims — events per request (Table
3), latency/throughput/utilization across models (Fig. 5–9), per-sidecore
scalability (Fig. 13, 15).  This package gives every run one way to see
those numbers:

* :mod:`.registry` — a namespaced :class:`MetricsRegistry` that components
  register their existing counters/histograms/utilization trackers into;
* :mod:`.instrument` — walks a testbed and registers everything;
* :mod:`.timeline` — fixed-width simulated-time windows turning counters
  into rates, sampling gauges, and computing rolling percentiles, driven
  by the engine's ``on_advance`` monitor hook (zero-cost unbound);
* :mod:`.attribution` — per-stage, queueing-vs-service decomposition of
  each traced request plus cycles-per-component flamegraph exports;
* :mod:`.slo` — declarative :class:`SloSpec` probes evaluated per
  window, with violations mirrored into the flight recorder;
* :mod:`.exporters` — Chrome ``trace_event`` JSON, metrics JSON/CSV,
  timeline JSON/CSV, speedscope profiles, and a text report;
* :mod:`.flight` — a bounded ring buffer of recent engine steps, dumped
  when an invariant breaks;
* :mod:`.session` — :class:`TelemetrySession`, a context manager that
  instruments every testbed built inside it (the cluster builders call
  :func:`bind_testbed`; it is free when no session is active).

Driven from the command line by ``python -m repro observe <scenario>``.
"""

from .attribution import (
    LatencyAttribution,
    attribute,
    stage_kind,
    to_folded_stacks,
    to_speedscope,
    trace_markers,
)
from .exporters import (
    text_report,
    to_chrome_trace_json,
    to_metrics_csv,
    to_metrics_json,
    to_timeline_csv,
    to_timeline_json,
    validate_chrome_trace,
    validate_metrics,
    validate_speedscope,
    validate_timeline,
)
from .flight import FlightEntry, FlightRecorder
from .instrument import (
    instrument_testbed,
    register_core,
    register_nic,
    register_storage_device,
    register_switch,
    sample_utilization,
)
from .registry import MetricsNamespace, MetricsRegistry
from .session import (
    TelemetrySession,
    TestbedTelemetry,
    active_session,
    bind_testbed,
)
from .slo import SloProbe, SloSpec, SloViolation
from .timeline import (
    DEFAULT_WINDOW_NS,
    Timeline,
    render_dashboard,
    sparkline,
)

__all__ = [
    "MetricsRegistry", "MetricsNamespace",
    "instrument_testbed", "register_core", "register_nic",
    "register_storage_device", "register_switch", "sample_utilization",
    "LatencyAttribution", "attribute", "stage_kind", "trace_markers",
    "to_folded_stacks", "to_speedscope",
    "DEFAULT_WINDOW_NS", "Timeline", "render_dashboard", "sparkline",
    "SloSpec", "SloProbe", "SloViolation",
    "to_metrics_json", "to_metrics_csv", "to_chrome_trace_json",
    "to_timeline_json", "to_timeline_csv",
    "text_report", "validate_metrics", "validate_chrome_trace",
    "validate_timeline", "validate_speedscope",
    "FlightRecorder", "FlightEntry",
    "TelemetrySession", "TestbedTelemetry", "bind_testbed",
    "active_session",
]
