"""Packet-lifecycle tracing with deterministic, jobs-invariant sampling.

A traced packet carries a stable identity ``(node_id, seq)`` assigned at
injection: ``node_id`` is the injecting node's linear id and ``seq`` a
per-chip injection sequence number.  Neither depends on process-global
state (unlike ``Packet.pid``, an ``itertools.count`` shared by every
machine in the process), so the same packet gets the same identity no
matter how a sweep is split across worker processes.

Whether a packet is traced is decided by hashing that identity with
:func:`~repro.engine.seeding.derive_seed`:

    ``derive_seed(trace_seed, "packet", node_id, seq) < trace_sample * 2**31``

— a pure function of config, so ``--jobs 1`` and ``--jobs N`` produce
byte-identical traces.

The recorded spans are *closed intervals in simulated time* taken at
existing event boundaries (no new simulator events):

* ``inject``   — send-overhead window at the source chip
* ``queue``    — residency in one link VC queue (enqueue → grant)
* ``transmit`` — flit serialization on the wire (grant → arrival)
* ``deliver``  — an instant marker at final delivery

:func:`chrome_trace_events` converts the span list to Chrome
trace-event JSON (the ``traceEvents`` array Perfetto loads directly):
complete events (``ph: "X"``) with microsecond timestamps, one ``pid``
per machine and one ``tid`` per traced packet.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..engine.seeding import derive_seed

__all__ = ["PacketTracer", "chrome_trace_events"]

_HASH_SPACE = float(2**31)


class PacketTracer:
    """Collects lifecycle spans for the deterministically sampled packets."""

    def __init__(self, trace_sample: float, trace_seed: int) -> None:
        self.trace_sample = trace_sample
        self.trace_seed = trace_seed
        self._threshold = trace_sample * _HASH_SPACE
        self._spans: List[dict] = []

    def selects(self, node_id: int, seq: int) -> bool:
        """Deterministic trace-sampling decision for one packet identity."""
        if self.trace_sample >= 1.0:
            return True
        if self.trace_sample <= 0.0:
            return False
        return derive_seed(self.trace_seed, "packet", node_id, seq) < self._threshold

    def span(
        self,
        trace_id: Tuple[int, int],
        kind: str,
        start_ns: float,
        end_ns: float,
        **args: object,
    ) -> None:
        """Record one closed interval of the packet's lifecycle."""
        record: Dict[str, object] = {
            "trace_id": list(trace_id),
            "kind": kind,
            "start_ns": start_ns,
            "end_ns": end_ns,
        }
        if args:
            record["args"] = args
        self._spans.append(record)

    def instant(self, trace_id: Tuple[int, int], kind: str, ns: float, **args: object) -> None:
        """Record an instantaneous lifecycle marker."""
        self.span(trace_id, kind, ns, ns, **args)

    def jsonable(self) -> Dict[str, object]:
        """The trace layer as a JSON-able mapping (spans in record order).

        Span record order is itself deterministic: spans are appended at
        simulator event boundaries and the event order of a run is fixed
        by its config and seeds.
        """
        return {
            "trace_sample": self.trace_sample,
            "trace_seed": self.trace_seed,
            "spans": self._spans,
        }


def chrome_trace_events(payload: Dict[str, object], pid: int = 0) -> List[dict]:
    """Chrome trace-event records for one machine's trace payload.

    Packets map to ``tid``s (one lane per traced packet, named by its
    stable identity); every span becomes a complete event (``ph: "X"``)
    with timestamps in microseconds, plus an instant event (``ph: "i"``)
    for zero-width markers such as delivery.
    """
    events: List[dict] = []
    tids: Dict[Tuple[int, int], int] = {}
    for span in payload.get("spans", []):
        trace_id = tuple(span["trace_id"])
        if trace_id not in tids:
            tid = len(tids)
            tids[trace_id] = tid
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": f"packet n{trace_id[0]}#{trace_id[1]}"},
                }
            )
        tid = tids[trace_id]
        start_us = span["start_ns"] / 1000.0
        dur_us = (span["end_ns"] - span["start_ns"]) / 1000.0
        event: Dict[str, object] = {
            "name": span["kind"],
            "pid": pid,
            "tid": tid,
            "ts": start_us,
        }
        if dur_us > 0:
            event["ph"] = "X"
            event["dur"] = dur_us
        else:
            event["ph"] = "i"
            event["s"] = "t"
        if "args" in span:
            event["args"] = span["args"]
        events.append(event)
    return events
