"""A multi-node Anton 3 machine: chips wired into a 3D torus.

:class:`NetworkMachine` builds one :class:`~repro.netsim.chip.ChipNetwork`
per node and connects their Channel Adapters with SERDES channel links
(two slices per neighbor, 8 lanes / 232 Gb/s each).  It provides the
packet-level API used by the latency and fence experiments: counted
writes, blocking reads, and raw packet injection.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from ..engine.seeding import derive_seed
from ..engine.simulator import Simulator, _gc_paused
from ..faults import FaultAdviser, FaultInjector, FaultState
from ..routing import RoutePlan, RoutingPolicy, make_policy
from ..topology.torus import Coord, DIRECTIONS, Torus3D
from .chip import ChipNetwork, GcEndpoint
from .config import MachineConfig
from .fabric import INPUT_QUEUE_FLITS, FabricError, Link
from .packet import NUM_LINK_VCS, CoreAddress, Packet, PacketKind, TrafficClass


class NetworkMachine:
    """A torus of simulated Anton 3 node networks.

    Every knob lives in one :class:`~repro.netsim.config.MachineConfig`,
    passed as the keyword-only ``config``::

        NetworkMachine(config=MachineConfig(dims=(4, 4, 8), seed=3))
    """

    def __init__(self, *, config: MachineConfig) -> None:
        self.config = config
        self.sim = Simulator()
        self.torus = Torus3D(config.dims)
        self.params = config.params
        self.chip_cols = config.chip_cols
        self.chip_rows = config.chip_rows
        self.seed = config.seed
        # All machine-level randomness (routing choices, GC sampling)
        # draws from a derive_seed stream so results are stable across
        # processes (the PR-1 determinism convention).
        self.rng = random.Random(derive_seed(config.seed, "machine"))
        # The request routing policy (repro.routing).  The default,
        # randomized-minimal, reproduces the paper's Section III-B2
        # scheme draw for draw.
        self.routing = (config.routing
                        if isinstance(config.routing, RoutingPolicy)
                        else make_policy(config.routing, self.torus))
        self.chips: Dict[Coord, ChipNetwork] = {}
        with _gc_paused():
            for coord in self.torus.nodes():
                self.chips[coord] = ChipNetwork(
                    self.sim, coord, self.torus, params=self.params,
                    cols=self.chip_cols, rows=self.chip_rows,
                    rng=random.Random(derive_seed(config.seed, coord)))
            self._wire_channels()
        # Observability (repro.observe): explicit config wins; otherwise
        # the ambient context set by an observed runner task applies.
        # Unobserved machines keep ``observer`` None everywhere, so the
        # hot paths pay only the existing None checks.
        self.observer = None
        observe = config.observe
        if observe is None:
            from ..observe.context import active_observe_config
            observe = active_observe_config()
        if observe is not None and observe.enabled:
            from ..observe.observer import Observer
            from ..observe.context import register_observer
            self.observer = Observer(self, observe)
            self.observer.install()
            register_observer(self.observer)
        # Fault machinery: the state object always exists (cheap, empty);
        # the adviser and injector are wired only for scheduled faults,
        # so fault-free machines run the exact pre-fault code paths.
        self.fault_state = FaultState()
        if self.observer is not None and self.observer.hub is not None:
            # Installed before the injector applies, so epochs bumped by
            # t <= 0 fault events are counted too.
            self.fault_state.epoch_hook = self.observer.on_fault_epoch
        self.fault_adviser: Optional[FaultAdviser] = None
        self.fault_injector: Optional[FaultInjector] = None
        if config.faults is not None and len(config.faults):
            self.fault_adviser = FaultAdviser(self)
            for chip in self.chips.values():
                chip.fault_adviser = self.fault_adviser
            self.fault_injector = FaultInjector(self, config.faults)
            self.fault_injector.apply()

    def _wire_channels(self) -> None:
        params = self.params
        latency = params.channel_hop_ns
        ser = params.flit_serialization_ns
        for coord, chip in self.chips.items():
            for axis, sign in DIRECTIONS:
                neighbor_coord = self.torus.neighbor(coord, axis, sign)
                neighbor = self.chips[neighbor_coord]
                opposite = (axis, -sign)
                for slice_index in (0, 1):
                    ca_in = neighbor.channel_adapter(opposite, slice_index)
                    link = Link(
                        self.sim,
                        f"chan{coord}->{neighbor_coord}[{axis},{sign}]s{slice_index}",
                        latency, ser, NUM_LINK_VCS, INPUT_QUEUE_FLITS,
                        ca_in, "channel")
                    chip.attach_channel((axis, sign), slice_index, link)

    # ------------------------------------------------------------------
    # Endpoint access.
    # ------------------------------------------------------------------

    def chip(self, coord: Coord) -> ChipNetwork:
        return self.chips[self.torus.normalize(coord)]

    def channel_link(self, coord: Coord, direction: Tuple[int, int],
                     slice_index: int) -> Link:
        """The outgoing channel link of one node in one direction/slice.

        The handle the fault injector kills and restores; raises
        :class:`~repro.netsim.fabric.FabricError` if the channel was
        never wired (a machine-construction bug, not a fault).
        """
        ca = self.chip(coord).channel_adapters[(direction, slice_index)]
        link = ca.output_or_none("channel")
        if link is None:
            raise FabricError(
                f"{coord} has no wired channel {direction} slice "
                f"{slice_index}")
        return link

    def gc(self, coord: Coord, address: CoreAddress) -> GcEndpoint:
        return self.chip(coord).gc(address)

    def random_gc_address(self, rng: Optional[random.Random] = None) -> CoreAddress:
        rng = rng or self.rng
        return CoreAddress(tile_u=rng.randrange(self.chip_cols),
                           tile_v=rng.randrange(self.chip_rows),
                           which=rng.randrange(2))

    # ------------------------------------------------------------------
    # Packet injection.
    # ------------------------------------------------------------------

    def inject(self, packet: Packet) -> None:
        """Raw injection hook: hand ``packet`` to its source chip.

        Open-loop traffic generators (:mod:`repro.traffic`) build packets
        with explicit routing choices and inject them here; per-class
        injected/delivered counters live on the chips and aggregate
        through :meth:`injected_counts` / :meth:`delivered_counts`.
        """
        self.chip(packet.src_node).send(packet)

    def set_delivery_hook(
            self, hook: Optional[Callable[[Packet], None]]) -> None:
        """Install (or clear) a machine-wide final-delivery callback."""
        for chip in self.chips.values():
            chip.delivery_hook = hook

    def injected_counts(self) -> Dict[TrafficClass, int]:
        """Machine-wide injected packets per traffic class."""
        totals = {tc: 0 for tc in TrafficClass}
        for chip in self.chips.values():
            for tc, count in chip.injected_counts.items():
                totals[tc] += count
        return totals

    def delivered_counts(self) -> Dict[TrafficClass, int]:
        """Machine-wide delivered packets per traffic class."""
        totals = {tc: 0 for tc in TrafficClass}
        for chip in self.chips.values():
            for tc, count in chip.delivered_counts.items():
                totals[tc] += count
        return totals

    def in_flight_counts(self) -> Dict[TrafficClass, int]:
        """Machine-wide packets injected but not yet delivered, per class.

        The occupancy signal closed-loop workloads (:mod:`repro.workload`)
        throttle against and drain checks assert on.
        """
        injected = self.injected_counts()
        delivered = self.delivered_counts()
        return {tc: injected[tc] - delivered[tc] for tc in TrafficClass}

    def plan_request_route(self, src_node: Coord, dst_node: Coord,
                           rng: Optional[random.Random] = None,
                           src_core: Optional[CoreAddress] = None) -> RoutePlan:
        """The routing policy's plan for one request, drawn from ``rng``;
        ``src_core`` keys the per-source VC-class spread."""
        rng = rng or self.rng
        return self.routing.make_plan(
            self.torus.normalize(src_node), self.torus.normalize(dst_node),
            rng, source=src_core)

    def make_request(self, kind: PacketKind, src_node: Coord,
                     src_core: CoreAddress, dst_node: Coord,
                     dst_core: CoreAddress, quad_addr: int = 0,
                     payload_words: Tuple[int, ...] = (),
                     num_flits: int = 1,
                     accumulate: bool = False,
                     slice_index: Optional[int] = None,
                     rng: Optional[random.Random] = None) -> Packet:
        """Build a request packet routed by the machine's policy, with a
        random channel slice (oblivious load balance, Section III-B2).
        ``slice_index`` pins the slice, for experiments.  The plan and
        then the slice are drawn from ``rng`` (default: the machine's
        own stream); traffic harnesses pass a per-source stream so
        sweeps stay deterministic across processes."""
        if rng is None:
            rng = self.rng
        plan = self.plan_request_route(src_node, dst_node, rng,
                                       src_core=src_core)
        if slice_index is None:
            slice_index = rng.randrange(2)
        packet = Packet(kind=kind, traffic_class=TrafficClass.REQUEST,
                        src_node=self.torus.normalize(src_node),
                        dst_node=self.torus.normalize(dst_node),
                        src_core=src_core, dst_core=dst_core,
                        num_flits=num_flits, payload_words=payload_words,
                        slice_index=slice_index,
                        quad_addr=quad_addr, accumulate=accumulate,
                        route=plan)
        return packet

    def send_counted_write(self, src_node: Coord, src_core: CoreAddress,
                           dst_node: Coord, dst_core: CoreAddress,
                           quad_addr: int = 0,
                           words: Tuple[int, int, int, int] = (0, 0, 0, 0),
                           accumulate: bool = False,
                           slice_index: Optional[int] = None) -> Packet:
        """Issue a 16-byte counted write from a GC (the ping-pong unit).

        One quad (128 bits) fits a single flit's payload, so a counted
        write is a one-flit packet.
        """
        packet = self.make_request(
            PacketKind.COUNTED_WRITE, src_node, src_core, dst_node,
            dst_core, quad_addr=quad_addr, payload_words=tuple(words),
            num_flits=1, accumulate=accumulate, slice_index=slice_index)
        self.chip(src_node).send(packet)
        return packet

    def send_remote_read(self, src_node: Coord, src_core: CoreAddress,
                         dst_node: Coord, dst_core: CoreAddress,
                         quad_addr: int, reply_quad: int = 0,
                         slice_index: Optional[int] = None) -> Packet:
        """Issue a remote read: a request packet to the target GC's SRAM,
        answered by a two-flit response on the response traffic class
        (XYZ-only, mesh-restricted — Section III-B2).

        The read data arrives at the requester as a counted write to
        ``reply_quad``, so software detects completion with a blocking
        read of that quad (threshold 1).
        """
        packet = self.make_request(
            PacketKind.READ_REQUEST, src_node, src_core, dst_node,
            dst_core, quad_addr=quad_addr,
            payload_words=(reply_quad,), num_flits=1,
            slice_index=slice_index)
        self.chip(src_node).send(packet)
        return packet

    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until=until)

    # ------------------------------------------------------------------
    # Machine-wide statistics.
    # ------------------------------------------------------------------

    def total_channel_flits(self) -> int:
        """Flits that crossed any inter-node channel."""
        total = 0
        for chip in self.chips.values():
            for ca in chip.channel_adapters.values():
                link = ca.output_or_none("channel")
                if link is not None:
                    total += link.flits_sent
        return total

    def channel_vc_packets(self) -> List[int]:
        """Packets that crossed inter-node channels, per link VC.

        The escape/adaptive accounting view: indices follow the link VC
        map (escape VCs 0-3, response VC 4, adaptive VC 5), so tests can
        assert which layers actually carried traffic under a policy.
        Each receiving Channel Adapter counts its arrivals per VC.
        """
        totals = [0] * NUM_LINK_VCS
        for chip in self.chips.values():
            for ca in chip.channel_adapters.values():
                for vc, count in (ca.channel_arrivals or {}).items():
                    totals[vc] += count
        return totals
