"""Tests for links (credits, serialization) and the router base class."""

import gc
import hashlib
import tracemalloc
from collections import Counter

import pytest

from repro.engine import Simulator
from repro.faults import FaultEvent, FaultSchedule
from repro.netsim import (CoreAddress, MachineConfig, NetworkMachine, Packet,
                          PacketKind, TrafficClass)
from repro.netsim.fabric import FabricError, Link, Router
from repro.runner.cache import canonicalize, config_digest
from repro.traffic import OpenLoopHarness
from repro.traffic.patterns import make_pattern
from repro.workload import PhaseLoopHarness, md_timestep_phases


def make_packet(num_flits=1):
    return Packet(kind=PacketKind.COUNTED_WRITE,
                  traffic_class=TrafficClass.REQUEST,
                  src_node=(0, 0, 0), dst_node=(1, 0, 0),
                  src_core=CoreAddress(0, 0, 0),
                  dst_core=CoreAddress(0, 0, 0),
                  num_flits=num_flits)


class _Sink:
    """A stand-in downstream router: each arrival goes to ``on_arrival``."""

    def __init__(self, on_arrival):
        self.receive = on_arrival


class _CountingSink:
    """A stand-in downstream router that counts its arrivals per VC."""

    def __init__(self, vcs):
        self.by_vc = [0] * vcs

    def receive(self, packet, vc, in_port, link):
        self.by_vc[vc] += 1


class TestLink:
    def test_delivers_after_serialization_and_latency(self):
        sim = Simulator()
        arrivals = []
        link = Link(sim, "l", latency_ns=5.0, ser_ns_per_flit=1.0,
                    vcs=2, credit_flits=8,
                    target=_Sink(
                        lambda p, v, i, l: arrivals.append((sim.now, v))))
        sim.at(0.0, lambda: link.send(make_packet(num_flits=2), 1))
        sim.run()
        assert arrivals == [(7.0, 1)]  # 2 flits x 1 ns + 5 ns

    def test_serialization_is_exclusive(self):
        sim = Simulator()
        arrivals = []
        link = Link(sim, "l", latency_ns=0.0, ser_ns_per_flit=2.0,
                    vcs=1, credit_flits=64,
                    target=_Sink(lambda p, v, i, l: arrivals.append(sim.now)))
        def send_two():
            link.send(make_packet(), 0)
            link.send(make_packet(), 0)
        sim.at(0.0, send_two)
        sim.run()
        assert arrivals == [2.0, 4.0]  # back-to-back, not overlapped

    def test_vc_range_checked(self):
        sim = Simulator()
        link = Link(sim, "l", 0.0, 1.0, vcs=2, credit_flits=8,
                    target=_Sink(lambda p, v, i, l: None))
        with pytest.raises(FabricError):
            link.send(make_packet(), 5)
        with pytest.raises(FabricError):
            link.fail_vc(2)

    def test_credits_block_and_release(self):
        sim = Simulator()
        arrivals = []
        link = Link(sim, "l", latency_ns=0.0, ser_ns_per_flit=1.0,
                    vcs=1, credit_flits=2,
                    target=_Sink(lambda p, v, i, l: arrivals.append(sim.now)))
        def send_three():
            for __ in range(3):
                link.send(make_packet(num_flits=1), 0)
        sim.at(0.0, send_three)
        sim.run()
        # Only two packets fit the downstream queue.
        assert len(arrivals) == 2
        assert link.queued == 1
        # Downstream frees one slot: the third proceeds.
        link.return_credits(0, 1)
        sim.run()
        assert len(arrivals) == 3

    def test_round_robin_prevents_vc_starvation(self):
        """A continuously backlogged VC must not starve a low-rate VC.

        Pins the PR-3 arbitration rebuild: with per-VC queues and
        round-robin arbitration, a low-rate VC's head packet is served
        within two serialization slots of arriving (the packet already
        in service, then its own slot) no matter how deep the other
        VC's backlog is.  A shared FIFO would park it behind the entire
        backlog (~40 slots here).
        """
        sim = Simulator()
        deliveries = []
        link = Link(sim, "l", latency_ns=0.0, ser_ns_per_flit=1.0,
                    vcs=2, credit_flits=64,
                    target=_Sink(
                        lambda p, v, i, l: deliveries.append((sim.now, v))))

        def backlog():
            for __ in range(40):
                link.send(make_packet(), 0)

        sim.at(0.0, backlog)
        enqueued = []

        def trickle():
            enqueued.append(sim.now)
            link.send(make_packet(), 1)

        for i in range(8):
            sim.at(5.0 * i, trickle)
        sim.run()
        vc1_times = [t for t, vc in deliveries if vc == 1]
        assert len(vc1_times) == 8
        for t_in, t_out in zip(enqueued, vc1_times):
            assert t_out <= t_in + 2.0 + 1e-9
        # ... while the backlogged VC keeps making progress in between.
        vc0_before_last = sum(1 for t, vc in deliveries
                              if vc == 0 and t < vc1_times[-1])
        assert vc0_before_last >= 8

    def test_stats(self):
        sim = Simulator()
        arrivals = []
        link = Link(sim, "l", 0.0, 1.5, vcs=1, credit_flits=8,
                    target=_Sink(lambda p, v, i, l: arrivals.append(sim.now)))
        sim.at(0.0, lambda: link.send(make_packet(num_flits=2), 0))
        sim.run()
        assert link.packets_sent == 1
        assert link.flits_sent == 2
        # With no propagation delay the packet lands when the link's
        # 3.0 ns of serialization ends.
        assert arrivals == [pytest.approx(3.0)]

    def test_credits_returned_before_any_transmit_raise(self):
        """A link that never transmitted holds every credit already: a
        return is a credit-conservation violation, named by link and VC."""
        sim = Simulator()
        router = _StubRouter(sim, "r", ("local", "gc0", None))
        link = Link(sim, None, 0.0, 1.0, vcs=2, credit_flits=8,
                    target=_Sink(lambda p, v, i, l: None))
        router.add_output("U+", link)
        with pytest.raises(FabricError, match=(
                r"^r->U\+: 2 credit\(s\) returned on VC 1 before any "
                r"transmit \(credit conservation violated\)$")):
            link.return_credits(1, 2)
        assert [link.vc_credits(vc) for vc in range(2)] == [8, 8]


def _allocated(link):
    """The VCs of ``link`` whose send queue has been allocated."""
    return [vc for vc, queue in enumerate(link._queues or ())
            if queue is not None]


def _owned_lists(link):
    """The lists ``link`` refers to, in slot order."""
    return [obj for obj in gc.get_referents(link) if type(obj) is list]


def _record_links(monkeypatch):
    """Every Link built from now on, in construction order."""
    links = []
    original = Link.__init__

    def record(link, *args, **kwargs):
        original(link, *args, **kwargs)
        links.append(link)

    monkeypatch.setattr(Link, "__init__", record)
    return links


def _routers(machine):
    """Every router of ``machine``, chip by chip."""
    return [router for chip in machine.chips.values()
            for router in (*chip.core.routers.values(),
                           *(router for edge in chip.edges.values()
                             for router in edge.routers.values()),
                           *chip.row_adapters.values(),
                           *chip.channel_adapters.values())]


def _all_links(machine):
    """Every link of ``machine``, found by forcing each router's ports: a
    mesh link not used yet is built now."""
    links = []
    for router in _routers(machine):
        for port in router._PORTS:
            try:
                links.append(router.output(port))
            except FabricError:
                pass  # a port this router does not have
    return links


#: Mesh output ports, built on their first use.
_MESH_PORTS = ("U+", "U-", "V+", "V-", "E", "W", "N", "S")


def _record_sends(monkeypatch):
    """How many sends each (link, VC) pair took."""
    sent = Counter()
    original = Link.send

    def send(link, packet, vc, *args):
        sent[(id(link), vc)] += 1
        original(link, packet, vc, *args)

    monkeypatch.setattr(Link, "send", send)
    return sent


def _record_waits(monkeypatch):
    """The (link, VC) pairs of every send that had to wait: the link was
    busy, short of credits on the VC, or already held queued packets."""
    waited = set()
    original = Link.send

    def send(link, packet, vc, *args):
        if (link._busy_until > link._sim.now or link.queued
                or link.vc_credits(vc) < packet.num_flits):
            waited.add((id(link), vc))
        original(link, packet, vc, *args)

    monkeypatch.setattr(Link, "send", send)
    return waited


class TestLazyQueues:
    """A VC's send queue exists only once a send on it had to wait."""

    def _link(self, sim, vcs=4):
        return Link(sim, "l", 0.0, 1.0, vcs=vcs, credit_flits=8,
                    target=_CountingSink(vcs))

    def test_fresh_link_reads_empty_with_full_credits(self):
        link = self._link(Simulator())
        assert _allocated(link) == []
        assert link.queued == 0
        for vc in range(link.vcs):
            assert link.queued_on(vc) == 0
            assert link.queued_flits_on(vc) == 0
            assert link.vc_credits(vc) == 8

    def test_send_allocates_only_its_vc(self):
        sim = Simulator()
        link = self._link(sim)
        sim.at(0.0, lambda: link.send(make_packet(num_flits=2), 2))
        sim.run()
        # An idle link sends at once: nothing is allocated.
        assert _allocated(link) == []
        assert link.target.by_vc == [0, 0, 1, 0]

        def send_two():
            link.send(make_packet(num_flits=2), 3)
            link.send(make_packet(), 1)

        sim.at(sim.now, send_two)
        sim.run()
        # The second send found the link busy: only its VC got a queue.
        assert _allocated(link) == [1]
        assert link.target.by_vc == [0, 1, 1, 1]
        assert link.queued == 0

    def test_queued_reads_an_allocated_vc(self):
        sim = Simulator()
        link = Link(sim, "l", 0.0, 1.0, vcs=3, credit_flits=2,
                    target=_Sink(lambda p, v, i, l: None))

        def send_three():
            for __ in range(3):
                link.send(make_packet(num_flits=2), 1)

        sim.at(0.0, send_three)
        sim.run()
        # One packet used the VC's credits; two wait behind it.
        assert _allocated(link) == [1]
        assert link.queued == 2
        assert link.queued_on(1) == 2
        assert link.queued_flits_on(1) == 4
        assert link.queued_on(0) == link.queued_flits_on(0) == 0

    def test_fail_and_restore_vc_round_trip(self):
        sim = Simulator()
        arrivals = []
        link = Link(sim, "l", 0.0, 1.0, vcs=2, credit_flits=8,
                    target=_Sink(lambda p, v, i, l: arrivals.append(v)))
        other = self._link(sim, vcs=2)
        # Restoring a VC that never failed is a no-op.
        link.restore_vc(0)
        assert link.vc_credits(0) == 8
        # A dead VC whose queue was never allocated reads zero credit and
        # stays unallocated; its neighbour is unaffected.
        link.fail_vc(1)
        assert link.vc_credits(1) == 0
        assert link.vc_credits(0) == 8
        assert _allocated(link) == []
        # Failing one link's VC leaves every other link healthy.
        assert other.vc_credits(1) == 8
        # Sends on a dead VC are held, not dropped.
        sim.at(0.0, lambda: link.send(make_packet(), 1))
        sim.run()
        assert arrivals == []
        assert link.queued_on(1) == 1
        link.restore_vc(1)
        sim.run()
        assert arrivals == [1]
        assert link.vc_credits(1) == 7  # its flit now sits downstream
        assert link.queued == 0
        # A dead VC that was never used restores cleanly too.
        link.fail_vc(0)
        link.restore_vc(0)
        assert link.vc_credits(0) == 8
        assert _allocated(link) == [1]

    def test_drained_run_allocates_exactly_the_queued_vcs(self,
                                                          monkeypatch):
        """On a full-chip machine, exactly the (link, VC) pairs with a send
        that had to wait hold a queue once the run has drained; each of
        them carried a packet."""
        waited = _record_waits(monkeypatch)
        sent = _record_sends(monkeypatch)
        machine = NetworkMachine(config=MachineConfig(
            dims=(2, 2, 1), seed=4, routing="adaptive-escape"))
        harness = OpenLoopHarness(
            machine, make_pattern("uniform", machine.torus), 0.02, seed=4,
            read_fraction=0.25, warmup_ns=0.0, measure_ns=200.0,
            drain_ns=5000.0)
        harness.run()
        assert all(count == 0 for count in
                   machine.in_flight_counts().values())
        links = _all_links(machine)
        assert len(links) == 5_760
        allocated = {(id(link), vc) for link in links
                     for vc in _allocated(link)}
        # Drained: every send was transmitted.
        assert sum(sent.values()) == sum(link.packets_sent for link in links)
        used = set(sent)
        assert used
        assert allocated == waited
        assert waited <= used
        # At this light load almost every send finds its link idle.
        assert len(waited) < len(used) / 2
        # Most of a full chip's links never see this light load.
        assert len({key for key, __ in used}) < len(links) / 2
        assert all(link.queued == 0 for link in links)


class TestLazyLinkState:
    """A link that never transmits costs only its wiring: its credits are
    a shared read-only tuple until its first transmit, it allocates no
    queue until a send has to wait, and it stores no name string.  A
    mesh link no packet has needed is not built at all."""

    def _link(self, sim, name="l", vcs=4):
        return Link(sim, name, 0.0, 1.0, vcs=vcs, credit_flits=8,
                    target=_CountingSink(vcs))

    def test_fresh_link_reads_full_credits_and_no_sends(self):
        link = self._link(Simulator())
        assert [link.vc_credits(vc) for vc in range(4)] == [8, 8, 8, 8]
        assert link.queued == 0
        assert link.packets_sent == link.flits_sent == 0

    def test_send_leaves_a_sibling_links_credits_untouched(self):
        sim = Simulator()
        link = self._link(sim, "a")
        sibling = self._link(sim, "b")
        shared = sibling._credits
        sim.at(0.0, lambda: link.send(make_packet(num_flits=2), 2))
        sim.run()
        assert [link.vc_credits(vc) for vc in range(4)] == [8, 8, 6, 8]
        assert link.target.by_vc == [0, 0, 1, 0]
        assert sibling._credits is shared and shared == (8, 8, 8, 8)
        assert [sibling.vc_credits(vc) for vc in range(4)] == [8, 8, 8, 8]
        assert sibling.packets_sent == 0
        assert sibling.target.by_vc == [0, 0, 0, 0]

    def test_first_transmit_allocates_only_the_credit_list(self):
        link = self._link(Simulator())
        assert _owned_lists(link) == []
        link.send(make_packet(num_flits=2), 2)
        (owned,) = _owned_lists(link)
        assert owned is link._credits and owned == [8, 8, 6, 8]

    def test_unused_machine_allocates_nothing_per_link(self, monkeypatch):
        """On a built, unused 2x2x2 full-chip machine no link owns a
        GC-tracked object, and the whole build makes 1.54 tracked
        objects per router: the router itself, its share of the links
        wired at build (RA, CA and channel links) and of the chips."""
        config = MachineConfig(dims=(2, 2, 2))
        NetworkMachine(config=config)  # warm: first-build imports
        links = _record_links(monkeypatch)
        gc.collect()
        before = len(gc.get_objects())
        machine = NetworkMachine(config=config)
        gc.collect()
        built = len(gc.get_objects()) - before
        routers = _routers(machine)
        assert len(routers) == 3_168
        owned = {id(obj) for link in links for obj in gc.get_referents(link)
                 if gc.is_tracked(obj)
                 and obj not in (link._sim, link.target, link._name, Link)}
        # Only the dead-VC set every healthy link shares.
        assert len(owned) == 1
        assert built / len(routers) == pytest.approx(1.54, abs=0.01)
        assert machine.sim.events_processed == 0

    def test_unused_machine_build_bytes_per_router(self):
        """An unused 2x2x2 full-chip build retains under 360 bytes per
        router, its share of the eager links and the chips included
        (~332 today, 1,112 when every mesh link was built with the
        machine and each router held an output-port dict)."""
        config = MachineConfig(dims=(2, 2, 2))
        NetworkMachine(config=config)  # warm: first-build imports
        gc.collect()
        tracemalloc.start()
        try:
            machine = NetworkMachine(config=config)
            gc.collect()  # also empties the free lists the build refilled
            retained, __ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained / len(_routers(machine)) < 360
        assert machine.sim.events_processed == 0

    def test_unused_machine_builds_no_mesh_link(self, monkeypatch):
        """A build wires only the RA, CA and channel links (132 per full
        chip); no core- or edge-mesh link exists until a packet needs it."""
        links = _record_links(monkeypatch)
        machine = NetworkMachine(config=MachineConfig(dims=(2, 2, 2)))
        assert len(links) == 8 * 132
        for router in _routers(machine):
            for port in _MESH_PORTS:
                if port in router._PORTS:
                    assert router.output_or_none(port) is None
        # Forcing every port builds the rest, each link once.
        assert len(_all_links(machine)) == 11_520
        assert len(links) == 11_520
        assert len(_all_links(machine)) == 11_520
        assert len(links) == 11_520


#: SHA-256 of the sorted link and router names of a 2x2x2 machine of
#: full 24x12 chips.  Observe artifacts and diagnoses print these names,
#: so they must not change however a link comes by its name.
NAMES_2X2X2_SHA256 = (
    "93aa13e6ffb52c87dac6fb71700e32de6f60902e59d7658512f2697fc68fcb90")


class TestLinkNames:
    def test_router_formats_a_nameless_links_name(self):
        sim = Simulator()
        router = _StubRouter(sim, "r", ("local", "gc0", None))
        link = Link(sim, None, 0.0, 1.0, 1, 8, _Sink(lambda p, v, i, l: None))
        named = Link(sim, "kept", 0.0, 1.0, 1, 8,
                     _Sink(lambda p, v, i, l: None))
        router.add_output("U+", link)
        router.add_output("U-", named)
        assert link.name == "r->U+"
        assert named.name == "kept"
        with pytest.raises(FabricError, match=r"^r->U\+: VC 3 out of range"):
            link.send(make_packet(), 3)

    def test_full_chip_names_are_unique_and_pinned(self):
        machine = NetworkMachine(config=MachineConfig(dims=(2, 2, 2)))
        link_names = [link.name for link in _all_links(machine)]
        router_names = [router.name for router in _routers(machine)]
        assert len(link_names) == 11_520 and len(router_names) == 3_168
        assert len(set(link_names)) == len(link_names)
        assert len(set(router_names)) == len(router_names)
        digest = hashlib.sha256(
            "\n".join(sorted(link_names + router_names)).encode()).hexdigest()
        assert digest == NAMES_2X2X2_SHA256


class _NoOpMonitor:
    """A link monitor that records nothing; it forces the queued path."""

    def on_enqueue(self, now, packet, vc):
        pass

    def on_stall(self, now, blocked):
        pass

    def on_transmit(self, now, packet, vc, busy_until, arrival, conflicts):
        pass


def _open_loop_run(monkeypatch, monitored):
    """(digest, events, waiting sends) of a 6x6-chip open loop, with a
    no-op monitor on every link when ``monitored``."""
    waited = _record_waits(monkeypatch)
    machine = NetworkMachine(config=MachineConfig(
        dims=(2, 2, 2), chip_cols=6, chip_rows=6, seed=5))
    if monitored:
        for link in _all_links(machine):
            link.monitor = _NoOpMonitor()
    harness = OpenLoopHarness(
        machine, make_pattern("uniform", machine.torus), 0.95, seed=5,
        read_fraction=0.25, warmup_ns=50.0, measure_ns=100.0,
        drain_ns=2000.0)
    record = {"result": harness.run().to_dict(),
              "events": machine.sim.events_processed}
    monkeypatch.undo()
    return (config_digest("fast-path", {"result": canonicalize(record)}),
            machine.sim.events_processed, len(waited))


def _open_loop(machine):
    return OpenLoopHarness(
        machine, make_pattern("uniform", machine.torus), 0.5, seed=3,
        read_fraction=0.25, warmup_ns=50.0, measure_ns=100.0,
        drain_ns=2000.0).run()


def _phase_loop(machine):
    phases = md_timestep_phases(machine, messages_per_node=6, window=2,
                                pattern="uniform", read_fraction=0.5)
    return PhaseLoopHarness(machine, phases, seed=3).run(2)


_DEAD_LINK = FaultSchedule((FaultEvent(kind="dead-link", node=(0, 0, 0),
                                       axis=0),))

#: name -> (machine overrides, workload run on it).
_FIRST_USE_RUNS = {
    "open-loop": ({}, _open_loop),
    "phase-loop-reads-fences": ({"routing": "adaptive-escape"}, _phase_loop),
    "faulted-open-loop": ({"dims": (3, 2, 2), "routing": "adaptive-escape",
                           "faults": _DEAD_LINK}, _open_loop),
}


class TestLinksOnFirstUse:
    def _run(self, monkeypatch, name, forced):
        """(digest, events, links built) of one run; with ``forced`` every
        link is built before the run starts."""
        overrides, workload = _FIRST_USE_RUNS[name]
        links = _record_links(monkeypatch)
        config = dict(dims=(2, 2, 2), chip_cols=6, chip_rows=6, seed=3)
        config.update(overrides)
        machine = NetworkMachine(config=MachineConfig(**config))
        if forced:
            _all_links(machine)
        record = canonicalize(workload(machine).to_dict())
        monkeypatch.undo()
        return (config_digest("first-use", {"result": record}),
                machine.sim.events_processed, len(links))

    @pytest.mark.parametrize("name", sorted(_FIRST_USE_RUNS))
    def test_forcing_every_link_up_front_changes_nothing(self, monkeypatch,
                                                         name):
        """Building a link schedules no event, draws no random number and
        starts with full credits, so building the mesh links on first use
        gives the result of building them all with the machine."""
        lazy = self._run(monkeypatch, name, forced=False)
        forced = self._run(monkeypatch, name, forced=True)
        assert lazy[:2] == forced[:2]
        assert lazy[1] > 0
        # The lazy run really left links unbuilt.
        assert lazy[2] < forced[2]


class TestIdleLinkFastPath:
    def test_fast_path_matches_the_queued_path(self, monkeypatch):
        """Sending at once from an idle link is exactly what queueing the
        packet and dispatching it would do: a run whose every link is
        monitored (so every send queues) gives the same result."""
        fast = _open_loop_run(monkeypatch, monitored=False)
        queued = _open_loop_run(monkeypatch, monitored=True)
        assert fast[:2] == queued[:2]
        # Some sends really had to wait, so the queue path was exercised.
        assert fast[2] > 0


class _StubRouter(Router):
    def __init__(self, sim, name, decision, latency=1.0):
        super().__init__(sim, name, dict.fromkeys(("inject", "in"), latency))
        self._decision = decision

    def route(self, packet, vc, in_port):
        return self._decision


class TestRouter:
    def test_local_sink_delivery(self):
        sim = Simulator()
        got = []
        router = _StubRouter(sim, "r", ("local", "gc0", None))
        router.add_sink("gc0", got.append)
        packet = make_packet()
        sim.at(0.0, lambda: router.receive(packet, 0, "inject", None))
        sim.run()
        assert got == [packet]
        assert router.packets_routed == 1

    def test_missing_sink_raises(self):
        sim = Simulator()
        router = _StubRouter(sim, "r", ("local", "nope", None))
        sim.at(0.0, lambda: router.receive(make_packet(), 0, "inject", None))
        with pytest.raises(FabricError):
            sim.run()

    def test_missing_output_raises(self):
        sim = Simulator()
        router = _StubRouter(sim, "r", ("link", "U+", 0))
        sim.at(0.0, lambda: router.receive(make_packet(), 0, "inject", None))
        with pytest.raises(FabricError):
            sim.run()

    def test_duplicate_wiring_rejected(self):
        sim = Simulator()
        router = _StubRouter(sim, "r", ("local", "gc0", None))
        link = Link(sim, "l", 0.0, 1.0, 1, 8, _Sink(lambda p, v, i, l: None))
        router.add_output("U+", link)
        with pytest.raises(FabricError):
            router.add_output("U+", link)
        router.add_sink("gc0", lambda p: None)
        with pytest.raises(FabricError):
            router.add_sink("gc0", lambda p: None)

    def test_pipeline_latency_charged(self):
        sim = Simulator()
        times = []
        router = _StubRouter(sim, "r", ("local", "gc0", None), latency=3.5)
        router.add_sink("gc0", lambda p: times.append(sim.now))
        sim.at(1.0, lambda: router.receive(make_packet(), 0, "inject", None))
        sim.run()
        assert times == [4.5]

    def test_credits_returned_upstream_on_delivery(self):
        sim = Simulator()
        router = _StubRouter(sim, "r", ("local", "gc0", None))
        router.add_sink("gc0", lambda p: None)
        link = Link(sim, "up", 0.0, 1.0, vcs=1, credit_flits=1,
                    target=router, in_port="in")
        def send_two():
            link.send(make_packet(), 0)
            link.send(make_packet(), 0)
        sim.at(0.0, send_two)
        sim.run()
        # Second packet required the first's credit to come back.
        assert link.packets_sent == 2
