"""Links and the router base class for the flit-level simulator.

A :class:`Link` models one physical connection (an on-chip mesh channel or
an off-chip SERDES slice): it owns the serialization resource (one packet
at a time, ``num_flits`` flit-times each) and a per-VC credit pool sized to
the eight-flit input queues of the downstream router (Section III-B).

A :class:`Router` receives packets on input ports, charges its pipeline
latency, asks its subclass for a routing decision, and forwards on the
chosen output link.  Flow control is credit-based virtual cut-through:
a packet consumes downstream credits when it starts on a link and returns
them when it leaves the downstream router's input queue.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Deque, List, Mapping, Optional, Tuple

from ..engine.simulator import Simulator
from .packet import Packet


#: Input-queue depth per VC at every router input, in flits: the credit
#: pool each link starts with (Section III-B).
INPUT_QUEUE_FLITS = 8


class FabricError(RuntimeError):
    """Raised on wiring or routing bugs."""


@dataclass(slots=True)
class _QueuedSend:
    packet: Packet
    upstream: Optional["Link"]
    upstream_vc: int


#: The dead-VC set of every healthy link, shared: ``fail_vc`` and
#: ``restore_vc`` replace a link's set rather than mutate it.
_NO_DEAD_VCS: frozenset = frozenset()


@lru_cache(maxsize=None)
def _filled(vcs: int, value: int) -> Tuple[int, ...]:
    """``(value,) * vcs``, one shared read-only tuple per argument pair.

    An untouched link's credits are this tuple; its first transmit
    replaces it with a list of its own.
    """
    return (value,) * vcs


class Link:
    """A point-to-point channel with credits and a serialization resource.

    Each virtual channel has its own send queue; the serialization
    resource arbitrates round-robin over the VCs whose head packet has
    downstream credits.  The per-VC queues matter for correctness, not
    just fairness: a VC blocked on credits must not stall the others, or
    the dateline VC discipline of the torus routing
    (:mod:`repro.routing`) could deadlock behind a single shared FIFO.
    A send to an idle link with nothing queued and credits to spare
    goes out at once; only a send that has to wait allocates the queue
    list and its VC's queue (each ``None`` until then, read as empty).
    Credits start as a shared read-only tuple and become the link's own
    list on its first transmit, so a link that never carries a packet
    costs only its wiring.

    A link built with ``name=None`` takes its name from the router that
    adds it as an output: :attr:`name` is then ``"{router.name}->{port}"``,
    formatted when read, so no link stores a name string of its own.
    Mesh links are built on their first use (:meth:`Router.output`).

    Attributes:
        name: Debug name, printed by observe artifacts and diagnoses.
        latency_ns: Propagation delay after serialization completes
            (wire + SERDES for off-chip; 0 for on-chip).
        ser_ns_per_flit: Serialization time per flit.
        vcs: Number of virtual channels.
        credit_flits: Input-queue depth per VC at the receiver.
        target: The downstream router; an arriving packet is handed to
            ``target.receive(packet, vc, in_port, link)``.
        in_port: The input port ``target`` is told the packet came in on.
    """

    __slots__ = ("_sim", "_name", "_port", "latency_ns", "ser_ns_per_flit",
                 "vcs", "_credits", "target", "_in_port", "_busy_until",
                 "_queues", "_queued", "_next_vc", "failed", "_dead_vcs",
                 "packets_sent", "flits_sent", "monitor")

    def __init__(self, sim: Simulator, name: Optional[str], latency_ns: float,
                 ser_ns_per_flit: float, vcs: int, credit_flits: int,
                 target: "Router", in_port: str = "") -> None:
        self._sim = sim
        # The whole name, or (once a router adds a nameless link as its
        # output) that router, with the output port in ``_port``.
        self._name = name
        self._port: Optional[str] = None
        self.latency_ns = latency_ns
        self.ser_ns_per_flit = ser_ns_per_flit
        self.vcs = vcs
        self._credits = _filled(vcs, credit_flits)
        self.target = target
        self._in_port = in_port
        self._busy_until = 0.0
        self._queues: Optional[List[Optional[Deque[_QueuedSend]]]] = None
        self._queued = 0  # packets waiting across every VC
        self._next_vc = 0  # round-robin arbitration pointer
        self.failed = False
        self._dead_vcs: frozenset = _NO_DEAD_VCS
        self.packets_sent = 0
        self.flits_sent = 0
        # Observability (repro.observe): a LinkMonitor when the owning
        # machine is observed, else None — the unobserved hot path pays
        # only these None checks.
        self.monitor = None

    @property
    def name(self) -> str:
        """``"{source router}->{output port}"``, or the name it was built
        with."""
        if self._port is None:
            return self._name
        return f"{self._name.name}->{self._port}"

    def send(self, packet: Packet, vc: int, upstream: Optional["Link"] = None,
             upstream_vc: int = 0) -> None:
        """Transmit ``packet`` on ``vc``, or queue it until it can go.

        When the link accepts the packet it returns the packet's credits
        to ``upstream`` (the link it arrived on, if any) on ``upstream_vc``.
        """
        if not 0 <= vc < self.vcs:
            raise FabricError(f"{self.name}: VC {vc} out of range")
        flits = packet.num_flits
        credits = self._credits
        now = self._sim.now
        if (self._busy_until <= now and credits[vc] >= flits
                and self.monitor is None and not self.failed
                and not self._queued and vc not in self._dead_vcs):
            # Idle and unobserved with nothing queued: the transmit branch
            # of _dispatch, taken without queueing the packet first.
            self._next_vc = vc + 1 if vc + 1 < self.vcs else 0
            sent = self.packets_sent
            if not sent:
                credits = self._credits = list(credits)
            credits[vc] -= flits
            busy_until = self._busy_until = (
                now + flits * self.ser_ns_per_flit)
            self.packets_sent = sent + 1
            self.flits_sent += flits
            if upstream is not None:
                upstream.return_credits(upstream_vc, flits)
            self._sim.at(busy_until + self.latency_ns,
                         partial(self.target.receive, packet, vc,
                                 self._in_port, self))
            return
        queues = self._queues
        if queues is None:
            queues = self._queues = [None] * self.vcs
        queue = queues[vc]
        if queue is None:
            queue = queues[vc] = deque()
        queue.append(_QueuedSend(packet, upstream, upstream_vc))
        self._queued += 1
        if self.monitor is not None:
            self.monitor.on_enqueue(self._sim.now, packet, vc)
        self._dispatch()

    def return_credits(self, vc: int, flits: int) -> None:
        """Downstream freed input-queue space; retry blocked sends."""
        try:
            self._credits[vc] += flits
        except TypeError:
            # Still the shared tuple: this link never transmitted, so no
            # packet of its can have freed downstream space.
            raise FabricError(
                f"{self.name}: {flits} credit(s) returned on VC {vc} "
                "before any transmit (credit conservation violated)"
            ) from None
        # With nothing queued there is nothing to send and no stall to
        # report, so the dispatch would be a no-op.
        if self._queued:
            self._dispatch()

    def _eligible_vc(self) -> Optional[int]:
        """The next VC (round-robin) whose head packet has credits."""
        if not self._queued:
            return None
        queues = self._queues
        credits = self._credits
        vcs = self.vcs
        vc = self._next_vc
        for __ in range(vcs):
            queue = queues[vc]
            if (queue and credits[vc] >= queue[0].packet.num_flits
                    and vc not in self._dead_vcs):
                return vc
            vc += 1
            if vc == vcs:
                vc = 0
        return None

    def _eligible_count(self) -> int:
        """How many VCs could dispatch right now (monitor bookkeeping)."""
        count = 0
        for vc in range(self.vcs):
            if vc in self._dead_vcs:
                continue
            queue = self._queues[vc]
            if queue and self._credits[vc] >= queue[0].packet.num_flits:
                count += 1
        return count

    def _blocked_vcs(self) -> List[int]:
        """VCs with queued packets that cannot dispatch (monitor bookkeeping).

        A VC is blocked when its head packet lacks downstream credits (or
        the VC is dead) — the per-VC detail the stall-attribution tap
        records.  Only computed when a monitor is attached, so unobserved
        dispatch never pays for it.
        """
        blocked = []
        for vc in range(self.vcs):
            queue = self._queues[vc]
            if not queue:
                continue
            if vc in self._dead_vcs or self._credits[vc] < queue[0].packet.num_flits:
                blocked.append(vc)
        return blocked

    def _dispatch(self) -> None:
        if self.failed:
            # A dead channel holds its queued sends indefinitely (no
            # events, so an open-loop run simply drains around it); a
            # later restore() re-dispatches whatever is stranded.
            return
        now = self._sim.now
        monitor = self.monitor
        while True:
            vc = self._eligible_vc()
            if vc is None:
                # Every queued VC is blocked on credits (or empty).
                if monitor is not None and self.queued:
                    monitor.on_stall(now, self._blocked_vcs())
                return
            if self._busy_until > now:
                # Channel busy: retry when it frees.
                self._sim.at(self._busy_until, self._dispatch)
                return
            self._next_vc = vc + 1 if vc + 1 < self.vcs else 0
            conflicts = (self._eligible_count() - 1
                         if monitor is not None else 0)
            head = self._queues[vc].popleft()
            self._queued -= 1
            packet = head.packet
            flits = packet.num_flits
            if not self.packets_sent:
                self._credits = list(self._credits)
            self._credits[vc] -= flits
            busy_until = now + flits * self.ser_ns_per_flit
            self._busy_until = busy_until
            self.packets_sent += 1
            self.flits_sent += flits
            if head.upstream is not None:
                head.upstream.return_credits(head.upstream_vc, flits)
            arrival = busy_until + self.latency_ns
            if monitor is not None:
                monitor.on_transmit(now, packet, vc, busy_until, arrival,
                                    conflicts)
            self._sim.at(arrival, partial(self.target.receive, packet, vc,
                                          self._in_port, self))

    @property
    def queued(self) -> int:
        """Packets waiting locally, across every VC."""
        return self._queued

    # -- fault injection (repro.faults) -----------------------------------

    def fail(self) -> None:
        """Kill the channel: stop dispatching and withdraw all credits.

        Queued and future sends are accepted but held; credit probes
        (:meth:`vc_credits`) read zero so adaptive choosers route away.
        """
        self.failed = True

    def restore(self) -> None:
        """Revive a failed channel and re-dispatch stranded sends."""
        if not self.failed:
            return
        self.failed = False
        self._dispatch()

    def fail_vc(self, vc: int) -> None:
        """Kill one virtual channel; the others keep flowing."""
        if not 0 <= vc < self.vcs:
            raise FabricError(f"{self.name}: VC {vc} out of range")
        self._dead_vcs = self._dead_vcs | {vc}

    def restore_vc(self, vc: int) -> None:
        self._dead_vcs = self._dead_vcs - {vc}
        self._dispatch()

    # -- per-VC visibility (adaptive routing's credit/occupancy probe) ----

    def vc_credits(self, vc: int) -> int:
        """Downstream input-queue credits currently held for ``vc``.

        A failed link (or a dead VC) reads zero: the adaptive chooser's
        headroom test then rejects it without fault-specific logic.
        """
        if self.failed or vc in self._dead_vcs:
            return 0
        return self._credits[vc]

    def _queue(self, vc: int) -> Deque[_QueuedSend]:
        """``vc``'s send queue, or an empty tuple before it exists."""
        queues = self._queues
        if queues is None:
            return ()
        return queues[vc] or ()

    def queued_on(self, vc: int) -> int:
        """Packets waiting locally on ``vc``'s send queue."""
        return len(self._queue(vc))

    def queued_flits_on(self, vc: int) -> int:
        """Flits waiting locally on ``vc``'s send queue.

        ``vc_credits(vc) - queued_flits_on(vc)`` is the headroom the
        per-hop adaptive chooser (:mod:`repro.routing.escape`) scores:
        credits not yet spoken for by packets already committed to the
        VC.
        """
        return sum(item.packet.num_flits for item in self._queue(vc))


#: The sink map of every router without local sinks, shared: ``add_sink``
#: replaces a router's map rather than mutate it.
_NO_SINKS: Mapping[str, Callable[[Packet], None]] = {}


class PortSlots(dict):
    """Output port -> the attribute that holds its link.

    A router class names one slot per output port it can have.  Any
    other port maps to ``"->{port}"``, an attribute only a router with
    an instance dict can hold (a slotted router raises "no output
    port" for it).
    """

    __slots__ = ()

    def __missing__(self, port: str) -> str:
        return "->" + port


class Router:
    """Base class: pipeline delay, subclass routing, credit bookkeeping.

    Subclasses implement :meth:`route` returning either
    ``("link", out_port, out_vc)`` or ``("local", sink_name, None)``;
    local sinks are registered callbacks (endpoint delivery).

    ``pipeline`` maps each arrival port to the pipeline latency (ns) a
    packet arriving on it is charged.  It is read, never written, so one
    table per router class and :class:`~repro.netsim.params.LatencyParams`
    serves every router; so can one ``sinks`` map (``add_sink`` copies).

    Each output link sits in a slot of its own, named by the class's
    ``_PORTS``; a port whose slot is empty has no link yet.  A subclass
    whose links can be built on demand (the mesh neighbours of a Core
    or Edge Router) overrides :meth:`_new_output`, and :meth:`output`
    builds such a link the first time it is asked for it.
    """

    __slots__ = ("_sim", "_name", "_pipeline", "_sinks", "packets_routed")

    _PORTS: PortSlots = PortSlots()

    def __init__(self, sim: Simulator, name: Optional[str],
                 pipeline: Mapping[str, float],
                 sinks: Mapping[str, Callable[[Packet], None]] = _NO_SINKS
                 ) -> None:
        self._sim = sim
        self._name = name
        self._pipeline = pipeline
        self._sinks = sinks
        self.packets_routed = 0

    @property
    def name(self) -> str:
        return self._name

    # -- wiring ----------------------------------------------------------

    def add_output(self, port: str, link: Link) -> None:
        """Wire ``link`` to output ``port``; a link built without a name
        is named ``"{self.name}->{port}"`` from now on."""
        attr = self._PORTS[port]
        if getattr(self, attr, None) is not None:
            raise FabricError(f"{self.name}: duplicate output port {port}")
        try:
            setattr(self, attr, link)
        except AttributeError:
            raise FabricError(
                f"{self.name}: no output port {port!r}") from None
        if link._name is None:
            link._name = self
            link._port = port

    def add_sink(self, port: str, handler: Callable[[Packet], None]) -> None:
        if port in self._sinks:
            raise FabricError(f"{self.name}: duplicate sink {port}")
        self._sinks = {**self._sinks, port: handler}

    def output(self, port: str) -> Link:
        """The link wired to ``port``, built now if it is a mesh link
        not used before."""
        attr = self._PORTS[port]
        return getattr(self, attr, None) or self._build_output(attr, port)

    def output_or_none(self, port: str) -> Optional[Link]:
        """The link wired to ``port``, or ``None`` before wiring (or,
        for a mesh link, before its first use).

        For observers (statistics, monitors) that must tolerate
        partially wired fabrics without the FabricError of
        :meth:`output`, and must not build links.
        """
        return getattr(self, self._PORTS[port], None)

    def _new_output(self, port: str) -> Optional[Link]:
        """A nameless link for ``port`` built on demand, or ``None`` when
        this router has no such port.  Building one schedules nothing and
        draws no random number, so it changes no result."""
        return None

    def _build_output(self, attr: str, port: str) -> Link:
        """Build and wire the link of ``port``, whose slot ``attr`` is
        empty, naming it ``"{self.name}->{port}"``."""
        link = self._new_output(port)
        if link is None:
            raise FabricError(f"{self.name}: no output port {port!r}")
        setattr(self, attr, link)
        link._name = self
        link._port = port
        return link

    # -- pipeline ---------------------------------------------------------

    def receive(self, packet: Packet, vc: int, in_port: str,
                from_link: Optional[Link]) -> None:
        """Entry point for packets from a link or local injection: the
        arrival port's pipeline latency, then the routing step."""
        try:
            delay = self._pipeline[in_port]
        except KeyError:
            raise FabricError(
                f"{self.name}: unknown in_port {in_port}") from None
        self._sim.after(delay,
                        partial(self._forward, packet, vc, in_port, from_link))

    def _forward(self, packet: Packet, vc: int, in_port: str,
                 from_link: Optional[Link]) -> None:
        self.packets_routed += 1
        target, port, out_vc = self.route(packet, vc, in_port)
        if target == "local":
            # The packet leaves the input queue: its credits go back now.
            if from_link is not None:
                from_link.return_credits(vc, packet.num_flits)
            handler = self._sinks.get(port)
            if handler is None:
                raise FabricError(f"{self.name}: no sink {port!r}")
            handler(packet)
            return
        attr = self._PORTS[port]
        link = getattr(self, attr, None) or self._build_output(attr, port)
        # ``link`` returns the credits to ``from_link`` once it accepts.
        link.send(packet, out_vc if out_vc is not None else vc, from_link, vc)

    # -- routing (subclass responsibility) --------------------------------

    def route(self, packet: Packet, vc: int,
              in_port: str) -> Tuple[str, str, Optional[int]]:
        raise NotImplementedError
