"""``repro.observe`` — deterministic observability for the simulators.

Two layers over one switchboard (:class:`ObserveConfig`):

* **Metrics** (:mod:`repro.observe.metrics`) — sim-slice-keyed gauges
  and counters plus the full :class:`~repro.engine.stats.StatsRegistry`
  namespace, recorded at existing event boundaries (zero new events).
* **Tracing** (:mod:`repro.observe.trace`) — packet-lifecycle spans for
  a ``derive_seed``-sampled packet population, exportable as
  Chrome-trace/Perfetto JSON.

Host wall-clock is not measured here: ``python3 perfbench/run.py
--trace 1`` splits it by network layer.

Cross-run accounting builds on the same discipline:

* **Run ledger** (:mod:`repro.observe.ledger`) — a persistent,
  append-only JSONL record of every execution beside the result cache,
  deterministic by construction (no wall clocks, grid-order appends).
* **Live status** (:mod:`repro.observe.status`) — per-grid-point
  heartbeat events and the ASCII progress board, segregated into their
  own file because they *are* wall-clock telemetry.

The contract: with observation off (the default) every machine takes
the exact pre-observability code paths, and with it on the simulated
trajectory is unchanged — only artifacts appear, byte-identical for any
``--jobs`` split.
"""

from .config import ObserveConfig
from .context import (
    activate,
    active_observe_config,
    collect,
    deactivate,
    observing,
    register_observer,
)
from .ledger import RunLedger, ledger_dir
from .metrics import MetricsHub, SliceCounter, SliceGauge
from .status import append_status, render_status_board
from .trace import PacketTracer, chrome_trace_events

__all__ = [
    "MetricsHub",
    "ObserveConfig",
    "PacketTracer",
    "RunLedger",
    "SliceCounter",
    "SliceGauge",
    "activate",
    "active_observe_config",
    "append_status",
    "chrome_trace_events",
    "collect",
    "deactivate",
    "ledger_dir",
    "observing",
    "register_observer",
    "render_status_board",
]
