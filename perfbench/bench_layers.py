"""Per-layer tracing for the benchmark's traced run.

:class:`LayerTracer` wraps each layer's entry methods from outside the
program: it replaces class attributes (and two module functions) with
timing wrappers before the machine is built, and puts the originals
back afterwards.  Nothing under ``src/`` knows it is being traced.

Spans stay in memory, folded as they close into per-layer totals: a
layer's ``self_s`` is the time inside its spans minus the time inside
the child spans they contain.  Two rules bill work that no method
boundary separates:

* **Events belong to their scheduler.**  ``Simulator.at``/``after`` wrap
  each scheduled callback in a span of the layer that scheduled it, so
  the router's forward step is router time, a link's delivery event is
  link time, and the open loop's injection timer is traffic time.
  ``engine.self_s`` is what is left: the event loop and the heap.
* **Delivery hooks belong to their installer.**
  ``NetworkMachine.set_delivery_hook`` wraps the hook in a span of the
  layer that installed it (the open-loop or phase-loop harness).

Counts come from call counts and the program's public counters
(``Simulator.events_processed``, ``Router.packets_routed``,
``Link.packets_sent``/``flits_sent``, ``NetworkMachine.injected_counts``/
``delivered_counts``/``total_channel_flits``).  The wrappers draw no
randomness and schedule nothing, so a traced run's results are
identical to an untraced run's.  An entry point the program no longer
has is skipped and named in :attr:`LayerTracer.missing`; the tracing
of every other layer goes on.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, module, owner, attribute) of every plain span: ``owner`` is
#: the class, or submodule, of ``module`` that holds ``attribute``.
SPANS: Tuple[Tuple[str, str, str, str], ...] = (
    ("engine", "repro.engine.simulator", "Simulator", "run"),
    ("netsim.core", "repro.netsim.core_router", "CoreRouter", "receive"),
    ("netsim.edge", "repro.netsim.edge_router", "EdgeRouter", "receive"),
    ("netsim.row_adapter", "repro.netsim.edge_router", "RowAdapter",
     "receive"),
    ("netsim.channel_adapter", "repro.netsim.edge_router", "ChannelAdapter",
     "receive"),
    ("netsim.link", "repro.netsim.fabric", "Link", "return_credits"),
    ("netsim.chip", "repro.netsim.chip", "ChipNetwork", "send"),
    ("netsim.chip", "repro.netsim.chip", "ChipNetwork", "_deliver_to_gc"),
    ("netsim.chip", "repro.netsim.chip", "ChipNetwork",
     "_serve_remote_read"),
    ("netsim.chip", "repro.netsim.chip", "ChipNetwork", "_deliver_fence"),
    ("netsim.chip", "repro.netsim.chip", "ChipNetwork", "gc"),
    ("routing", "repro.netsim.machine", "NetworkMachine",
     "plan_request_route"),
    ("routing", "repro.netsim.chip", "ChipNetwork", "next_direction"),
    ("routing", "repro.netsim.chip", "ChipNetwork", "adaptive_vc_state"),
    ("routing", "repro.netsim.chip", "ChipNetwork", "_note_torus_hop"),
    ("traffic", "repro.traffic.openloop", "OpenLoopHarness", "_inject_one"),
    ("workload", "repro.workload.phases", "PhaseLoopHarness", "run"),
    ("workload", "repro.workload.window", "ClosedLoopDriver", "issue"),
    ("workload", "repro.workload.window", "ClosedLoopDriver", "completion"),
    ("fence", "repro.fence.engine", "FenceEngine", "barrier_latency"),
    ("fence", "repro.fence.engine", "FenceEngine", "start_fence"),
    ("fence", "repro.fence.engine", "FenceEngine", "_emit_round"),
    ("fence", "repro.fence.engine", "FenceEngine", "_fence_arrival"),
    ("md", "repro.md.engine", "MdEngine", "water"),
    ("md", "repro.md.engine", "MdEngine", "run"),
    ("compression", "repro.compression", "inz", "encoded_sizes"),
    ("fullsim", "repro.fullsim.traffic", "TrafficModel", "process_step"),
    ("fullsim", "repro.fullsim.timestep", "TimestepModel", "evaluate"),
)

#: Router class -> the layer its ``packets_routed`` counts toward.
ROUTER_LAYERS = {
    "CoreRouter": "netsim.core",
    "EdgeRouter": "netsim.edge",
    "RowAdapter": "netsim.row_adapter",
    "ChannelAdapter": "netsim.channel_adapter",
}

#: Layers whose traced self time is reported as ``<layer>.self_s``.
SELF_TIME_LAYERS = tuple(dict.fromkeys(layer for layer, *_ in SPANS))


class LayerTracer:
    """Installs per-layer spans and counters; folds them as they close."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.machines: List[object] = []
        self.routers: List[object] = []
        self.links: List[object] = []
        self.queued_sends = 0
        self.md_pairs = 0
        self.pcache_hits = 0
        self.pcache_lookups = 0
        self.openloop_results: List[object] = []
        self.system_results: List[object] = []
        #: ``Owner.name`` of every entry point that could not be wrapped.
        self.missing: List[str] = []
        # One [layer, child seconds] frame per open span.
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Span machinery.
    # ------------------------------------------------------------------

    def _span(self, layer: str, key: str, fn: Callable,
              after: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span of ``layer``; ``after(args, result)``
        runs inside the span when given."""
        stack, self_s, calls, clock = (self._stack, self.self_s, self.calls,
                                       perf_counter)

        def span(*args, **kwargs):
            calls[key] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return span

    def _owned(self, fn: Callable) -> Callable:
        """``fn`` billed to the layer whose span is open now, if any."""
        if not self._stack:
            return fn
        layer = self._stack[-1][0]
        return self._span(layer, f"{layer}:callback", fn)

    def _patch(self, owner: object, name: str, make: Callable) -> None:
        """Replace ``owner.name`` by ``make(original function)``.

        A name the program no longer has (renamed or inlined) is recorded
        in :attr:`missing` and left alone, so its spans and counts read 0.
        """
        if isinstance(owner, type):
            raw = next((klass.__dict__[name] for klass in owner.__mro__
                        if name in klass.__dict__), None)
        else:
            raw = getattr(owner, name, None)
        if raw is None:
            self.missing.append(f"{owner.__name__}.{name}")
            return
        self._patches.append((owner, name, owner.__dict__.get(name)))
        if isinstance(raw, classmethod):
            setattr(owner, name, classmethod(make(raw.__func__)))
        else:
            setattr(owner, name, make(raw))

    # ------------------------------------------------------------------
    # Install / uninstall.
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's entry points; call before building."""
        from repro.engine.simulator import Simulator
        from repro.fullsim import speedup
        from repro.compression.vector_cache import VectorParticleCache
        from repro.md.integrator import VelocityVerlet
        from repro.netsim.fabric import Link, Router
        from repro.netsim.machine import NetworkMachine
        from repro.traffic.openloop import OpenLoopHarness

        for layer, module, owner, name in SPANS:
            target = getattr(importlib.import_module(module), owner)
            key = f"{owner}.{name}"
            self._patch(target, name,
                        lambda fn, layer=layer, key=key: self._span(
                            layer, key, fn))

        owned = self._owned

        def scheduler(key: str) -> Callable:
            def make(fn: Callable) -> Callable:
                span = self._span("engine", key, fn)

                def schedule(sim, time, action, *args, **kwargs):
                    return span(sim, time, owned(action), *args, **kwargs)
                return schedule
            return make

        self._patch(Simulator, "at", scheduler("Simulator.at"))
        self._patch(Simulator, "after", scheduler("Simulator.after"))

        def hook_installer(fn: Callable) -> Callable:
            def set_delivery_hook(machine, hook):
                return fn(machine, None if hook is None else owned(hook))
            return set_delivery_hook

        self._patch(NetworkMachine, "set_delivery_hook", hook_installer)

        def collect(into: List[object]) -> Callable:
            def make(fn: Callable) -> Callable:
                def init(instance, *args, **kwargs):
                    fn(instance, *args, **kwargs)
                    into.append(instance)
                return init
            return make

        self._patch(Router, "__init__", collect(self.routers))
        self._patch(Link, "__init__", collect(self.links))
        self._patch(NetworkMachine, "__init__", lambda fn: self._span(
            "netsim.build", "NetworkMachine.__init__", fn,
            after=lambda args, __: self.machines.append(args[0])))

        def note_queued(args, __) -> None:
            link, vc = args[0], args[2]
            if link.queued_on(vc):
                self.queued_sends += 1

        self._patch(Link, "send", lambda fn: self._span(
            "netsim.link", "Link.send", fn, after=note_queued))
        self._patch(OpenLoopHarness, "run", lambda fn: self._span(
            "traffic", "OpenLoopHarness.run", fn,
            after=lambda __, result: self.openloop_results.append(result)))

        def note_pairs(__, record) -> None:
            self.md_pairs += record.num_pairs

        self._patch(VelocityVerlet, "step", lambda fn: self._span(
            "md", "VelocityVerlet.step", fn, after=note_pairs))

        def note_lookups(__, batch) -> None:
            self.pcache_hits += batch.hits
            self.pcache_lookups += batch.hits + batch.misses

        self._patch(VectorParticleCache, "process_batch", lambda fn: self._span(
            "compression", "VectorParticleCache.process_batch", fn,
            after=note_lookups))
        self._patch(speedup, "evaluate_system", lambda fn: self._span(
            "fullsim", "speedup.evaluate_system", fn,
            after=lambda __, result: self.system_results.append(result)))

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # Per-layer metrics.
    # ------------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric except ``trace.overhead_ratio``."""
        calls = self.calls
        machines = self.machines
        events = sum(m.sim.events_processed for m in machines)
        injected = sum(sum(m.injected_counts().values()) for m in machines)
        delivered = sum(sum(m.delivered_counts().values()) for m in machines)
        routed: Dict[str, int] = defaultdict(int)
        for router in self.routers:
            routed[ROUTER_LAYERS.get(type(router).__name__, "other")] += (
                router.packets_routed)
        sends = calls["Link.send"]
        out: Dict[str, float] = {
            "engine.events": events,
            "engine.events_per_delivery": _ratio(events, delivered),
            "netsim.build_s": self.self_s["netsim.build"],
            "netsim.routers_built": len(self.routers),
            "netsim.links_built": len(self.links),
            "netsim.links_used_ratio": _ratio(
                sum(1 for link in self.links if link.packets_sent),
                len(self.links)),
            "netsim.link.sends": sends,
            "netsim.link.flits": sum(link.flits_sent for link in self.links),
            "netsim.link.credit_returns": calls["Link.return_credits"],
            "netsim.link.queued_send_ratio": _ratio(self.queued_sends, sends),
            "netsim.channel.flits": sum(m.total_channel_flits()
                                        for m in machines),
            "netsim.chip.injected": injected,
            "netsim.chip.delivered": delivered,
            "routing.plans": calls["NetworkMachine.plan_request_route"],
            "routing.vc_probes": calls["ChipNetwork.adaptive_vc_state"],
            "traffic.injected": calls["OpenLoopHarness._inject_one"],
            "traffic.delivered_ratio": _ratio(
                sum(r.accepted_load for r in self.openloop_results),
                sum(r.offered_load_measured for r in self.openloop_results)),
            "workload.transactions": calls["ClosedLoopDriver.issue"],
            "fence.barriers": calls["FenceEngine.barrier_latency"],
            "md.steps": calls["VelocityVerlet.step"],
            "md.pairs": self.md_pairs,
            "compression.pcache_hit_rate": _ratio(self.pcache_hits,
                                                  self.pcache_lookups),
            "compression.bits_ratio": _ratio(
                sum(r.outcomes["inz+pcache"].total_bits
                    for r in self.system_results),
                sum(r.outcomes["baseline"].total_bits
                    for r in self.system_results)),
            "fullsim.steps_priced": calls["TimestepModel.evaluate"],
        }
        for layer in ROUTER_LAYERS.values():
            out[f"{layer}.routed"] = routed[layer]
        for layer in SELF_TIME_LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
        return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
