"""Built-in experiments: the paper's figure grids as declarative sweeps.

Each experiment names its run surface once, by the dotted path of a
pure module-level function (``repro.netsim.surface``,
``repro.fence.surface``, ``repro.traffic.surface``,
``repro.workload.surface``, ``repro.fullsim.surface``), and binds it
to the parameter grid the corresponding benchmark sweeps — the single
source of truth shared by ``benchmarks/``, ``examples/``, and the
``python -m repro.runner`` CLI.  The accepted parameters are the
function's own signature.  Surfaces are imported on first use, so
importing the registry stays cheap and workers only load what they
execute.  Smoke grids are tiny variants used by CI and tests to
exercise the parallel path in seconds.
"""

from __future__ import annotations

from .experiment import Experiment, Sweep, register
from .grid import ParameterGrid

# ---------------------------------------------------------------------------
# Figure 5: one-way latency vs hop count on the 128-node machine.
# ---------------------------------------------------------------------------

FIG5_GRID = ParameterGrid(
    {
        "dims": [(4, 4, 8)],
        "machine_seed": 42,
        "harness_seed": 17,
        "max_hops": 8,
        "samples_per_hop": 15,
    }
)

FIG5_SMOKE_GRID = ParameterGrid(
    {
        "dims": [(2, 2, 2)],
        "chip_cols": 6,
        "chip_rows": 6,
        "machine_seed": 42,
        "harness_seed": 17,
        "max_hops": 2,
        "samples_per_hop": 2,
    }
)

register(
    Experiment(
        name="fig5_latency",
        grid=FIG5_GRID,
        smoke_grid=FIG5_SMOKE_GRID,
        description="One-way end-to-end latency vs inter-node hops (Figure 5)",
        version=2,  # v2: results gained per-hop percentile summaries
        surface="repro.netsim.surface.measure_latency_curve",
    )
)

register(
    Experiment(
        name="min_one_hop",
        grid=ParameterGrid({"machine_seed": 42, "harness_seed": 18, "samples": 30}),
        smoke_grid=ParameterGrid(
            {
                "dims": [(2, 2, 2)],
                "chip_cols": 6,
                "chip_rows": 6,
                "machine_seed": 42,
                "harness_seed": 18,
                "samples": 4,
            }
        ),
        description="Best-placement minimum single-hop latency (~55 ns)",
        surface="repro.netsim.surface.measure_min_one_hop",
    )
)

# ---------------------------------------------------------------------------
# Figure 11: fence barrier latency vs synchronization domain.
# ---------------------------------------------------------------------------

FIG11_GRID = ParameterGrid({"dims": [(4, 4, 8)], "seed": 42, "max_hops": 8})

FIG11_SMOKE_GRID = ParameterGrid(
    {
        "dims": [(2, 2, 2)],
        "chip_cols": 6,
        "chip_rows": 6,
        "seed": 42,
        "max_hops": 2,
    }
)

register(
    Experiment(
        name="fig11_fence",
        grid=FIG11_GRID,
        smoke_grid=FIG11_SMOKE_GRID,
        description="Network-fence barrier latency vs hop count (Figure 11)",
        surface="repro.fence.surface.measure_fence_curve",
    )
)

# ---------------------------------------------------------------------------
# Figures 9a/9b: water-box traffic reduction and application speedup.
# ---------------------------------------------------------------------------

FIG9_ATOM_COUNTS = [2048, 4096, 8192, 16384]

FIG9_GRID = ParameterGrid({"n_atoms": FIG9_ATOM_COUNTS})

FIG9_SMOKE_GRID = ParameterGrid({"n_atoms": [256, 512], "steps": 5})

register(
    Experiment(
        name="fig9_water",
        grid=FIG9_GRID,
        smoke_grid=FIG9_SMOKE_GRID,
        description="Water-box traffic reduction and speedup (Figures 9a/9b)",
        surface="repro.fullsim.surface.evaluate_water_system",
    )
)

# ---------------------------------------------------------------------------
# Synthetic-traffic load sweeps: latency vs offered load per pattern, at
# the paper's randomized-minimal routing (``route_ablation`` sweeps).
# ---------------------------------------------------------------------------

#: Offered load as a fraction of per-slice channel capacity; the top of
#: the axis is source line rate (the injection process cannot offer more
#: than one flit per slot).
LOAD_SWEEP_LOADS = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]

#: The patterns that get a registered ``load-sweep-<pattern>`` sweep.
LOAD_SWEEP_PATTERNS = (
    "uniform",
    "transpose",
    "bit-complement",
    "tornado",
    "neighbor",
    "halo",
    "hotspot",
    "all-to-all",
)

#: Tornado needs an X ring of >= 3 nodes to be non-degenerate; an 8-ring
#: puts the half-way offset at 3 hops, the classic worst case for
#: minimal routing (same node count as the 2x2x2 default).
TORNADO_DIMS = (8, 1, 1)


def _load_sweep_grid(pattern: str) -> ParameterGrid:
    return ParameterGrid(
        {
            "dims": [TORNADO_DIMS if pattern == "tornado" else (2, 2, 2)],
            "chip_cols": 6,
            "chip_rows": 6,
            "pattern": pattern,
            "routing": "randomized-minimal",
            "offered_load": list(LOAD_SWEEP_LOADS),
            "machine_seed": 7,
            "traffic_seed": 11,
            "warmup_ns": 400.0,
            "measure_ns": 1600.0,
        }
    )


LOAD_SWEEPS = {
    f"load-sweep-{pattern}": Sweep(
        "route_ablation", _load_sweep_grid(pattern), label=f"load-sweep-{pattern}"
    )
    for pattern in LOAD_SWEEP_PATTERNS
}

# ---------------------------------------------------------------------------
# Routing ablations: the adversarial patterns under each routing policy.
# ---------------------------------------------------------------------------

#: Policies that get a registered ``route-ablation-<policy>`` sweep.
ROUTE_ABLATION_POLICIES = (
    "fixed-xyz",
    "randomized-minimal",
    "valiant",
    "adaptive-escape",
)

#: The PR-2 adversarial patterns each ablation drives to saturation.
ROUTE_ABLATION_PATTERNS = ("transpose", "bit-complement", "hotspot", "tornado")

ROUTE_ABLATION_LOADS = [0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.8, 1.0]


def _route_ablation_grid(policy: str) -> ParameterGrid:
    """One policy's ablation: every adversarial pattern over the load axis.

    A union grid (one subgrid per pattern) because tornado needs its
    own torus shape; the report groups the curves by (pattern, routing).
    """
    return ParameterGrid(
        [
            {
                "dims": [TORNADO_DIMS if pattern == "tornado" else (2, 2, 2)],
                "chip_cols": 6,
                "chip_rows": 6,
                "pattern": pattern,
                "routing": policy,
                "offered_load": list(ROUTE_ABLATION_LOADS),
                "machine_seed": 7,
                "traffic_seed": 11,
                "warmup_ns": 400.0,
                "measure_ns": 1600.0,
            }
            for pattern in ROUTE_ABLATION_PATTERNS
        ]
    )


ROUTE_ABLATION_SMOKE_GRID = ParameterGrid(
    {
        "dims": [(2, 2, 2)],
        "chip_cols": 6,
        "chip_rows": 6,
        "pattern": "uniform",
        "routing": ["randomized-minimal", "valiant", "adaptive-escape"],
        "offered_load": [0.05, 0.2, 0.4],
        "machine_seed": 7,
        "traffic_seed": 11,
        "warmup_ns": 200.0,
        "measure_ns": 600.0,
    }
)

#: Degraded-mode smoke points: two policies around four dead cables
#: and their healthy baseline, a union member of the ``route_ablation``
#: smoke grid so ``sweep --smoke`` also routes around faults.
FAULT_SWEEP_SMOKE_GRID = ParameterGrid(
    {
        "dims": [(2, 2, 2)],
        "chip_cols": 6,
        "chip_rows": 6,
        "pattern": "uniform",
        "routing": ["fixed-xyz", "adaptive-escape"],
        "offered_load": 0.3,
        "num_faults": [0, 4],
        "fault_seed": 1,
        "machine_seed": 0,
        "traffic_seed": 0,
        "warmup_ns": 100.0,
        "measure_ns": 300.0,
    }
)

register(
    Experiment(
        name="route_ablation",
        grid=_route_ablation_grid("randomized-minimal"),
        smoke_grid=ParameterGrid(
            ROUTE_ABLATION_SMOKE_GRID.subgrids() + FAULT_SWEEP_SMOKE_GRID.subgrids()
        ),
        description="Open-loop load point under a chosen routing policy "
        "and fault count (routing ablations, fault sweeps)",
        version=2,  # v2: adaptive-escape routing + the six-VC link map
        surface="repro.traffic.surface.measure_load_point",
    )
)

ROUTE_ABLATIONS = {
    f"route-ablation-{policy}": Sweep(
        "route_ablation",
        _route_ablation_grid(policy),
        label=f"route-ablation-{policy}",
    )
    for policy in ROUTE_ABLATION_POLICIES
}

# ---------------------------------------------------------------------------
# Closed-loop workloads: fixed-outstanding windows and fenced phase loops.
# ---------------------------------------------------------------------------

#: The outstanding-window axis of every ``closed-loop-<pattern>`` sweep.
CLOSED_LOOP_WINDOWS = [1, 2, 4, 8, 16, 32]

#: Patterns that get a registered ``closed-loop-<pattern>`` sweep (the
#: same family the open-loop load sweeps cover, so every closed-loop
#: plateau has an open-loop saturation curve to compare against).
CLOSED_LOOP_PATTERNS = LOAD_SWEEP_PATTERNS


def _closed_loop_grid(pattern: str) -> ParameterGrid:
    return ParameterGrid(
        {
            "dims": [TORNADO_DIMS if pattern == "tornado" else (2, 2, 2)],
            "chip_cols": 6,
            "chip_rows": 6,
            "pattern": pattern,
            "window": list(CLOSED_LOOP_WINDOWS),
            "machine_seed": 7,
            "workload_seed": 11,
            "warmup_ns": 400.0,
            "measure_ns": 1600.0,
        }
    )


CLOSED_LOOP_SMOKE_GRID = ParameterGrid(
    {
        "dims": [(2, 1, 1)],
        "chip_cols": 6,
        "chip_rows": 6,
        "pattern": "uniform",
        "routing": ["randomized-minimal", "valiant", "adaptive-escape"],
        "window": [1, 4],
        "machine_seed": 7,
        "workload_seed": 11,
        "warmup_ns": 200.0,
        "measure_ns": 600.0,
    }
)

register(
    Experiment(
        name="closed_loop",
        grid=_closed_loop_grid("uniform"),
        smoke_grid=CLOSED_LOOP_SMOKE_GRID,
        description="Closed-loop fixed-outstanding-window point "
        "(throughput/latency vs window)",
        version=2,  # v2: adaptive-escape routing + the six-VC link map
        surface="repro.workload.surface.measure_window_point",
    )
)

CLOSED_LOOP_SWEEPS = {
    f"closed-loop-{pattern}": Sweep(
        "closed_loop",
        _closed_loop_grid(pattern),
        label=f"closed-loop-{pattern}",
    )
    for pattern in CLOSED_LOOP_PATTERNS
}

#: Patterns that get a registered ``phase-loop-<pattern>`` sweep; each
#: fans the routing-policy axis out over one fence-synchronized
#: MD-timestep-shaped workload (export burst, fence, return burst,
#: fence).
PHASE_LOOP_PATTERNS = ("halo", "neighbor", "uniform", "tornado")


def _phase_loop_grid(pattern: str) -> ParameterGrid:
    # Tornado gets bandwidth-bound bursts (deep windows, long phases):
    # with latency-bound bursts every policy just pays its path length
    # and minimal routing looks fine, which hides exactly the ring
    # congestion the tornado workload exists to expose.
    heavy = pattern == "tornado"
    return ParameterGrid(
        {
            "dims": [TORNADO_DIMS if heavy else (2, 2, 2)],
            "chip_cols": 6,
            "chip_rows": 6,
            "pattern": pattern,
            "routing": list(ROUTE_ABLATION_POLICIES),
            "messages_per_node": 200 if heavy else 12,
            "window": 64 if heavy else 4,
            "iterations": 1 if heavy else 2,
            "machine_seed": 7,
            "workload_seed": 11,
        }
    )


PHASE_LOOP_SMOKE_GRID = ParameterGrid(
    {
        "dims": [(2, 1, 1)],
        "chip_cols": 6,
        "chip_rows": 6,
        "pattern": "uniform",
        "routing": ["randomized-minimal"],
        "messages_per_node": 4,
        "window": 2,
        "iterations": 1,
        "machine_seed": 7,
        "workload_seed": 11,
    }
)

#: A faulted phase loop and its healthy baseline, a union member of the
#: ``phase_loop`` smoke grid.
FAULT_PHASE_LOOP_SMOKE_GRID = ParameterGrid(
    {
        "dims": [(2, 2, 2)],
        "chip_cols": 6,
        "chip_rows": 6,
        "pattern": "halo",
        "routing": ["adaptive-escape"],
        "messages_per_node": 4,
        "window": 2,
        "iterations": 1,
        "num_faults": [0, 2],
        "fault_seed": 1,
        "machine_seed": 0,
        "workload_seed": 0,
    }
)

register(
    Experiment(
        name="phase_loop",
        grid=_phase_loop_grid("halo"),
        smoke_grid=ParameterGrid(
            PHASE_LOOP_SMOKE_GRID.subgrids() + FAULT_PHASE_LOOP_SMOKE_GRID.subgrids()
        ),
        description="Fence-synchronized phase workload "
        "(MD-timestep iteration time per routing policy and fault count)",
        version=2,  # v2: adaptive-escape routing + the six-VC link map
        surface="repro.workload.surface.measure_phase_loop",
    )
)

PHASE_LOOP_SWEEPS = {
    f"phase-loop-{pattern}": Sweep(
        "phase_loop",
        _phase_loop_grid(pattern),
        label=f"phase-loop-{pattern}",
    )
    for pattern in PHASE_LOOP_PATTERNS
}

# ---------------------------------------------------------------------------
# Fault sweeps: degraded-mode resilience per routing policy.  Faults are
# a machine axis of the healthy surfaces, so these sweeps run on
# ``route_ablation`` and ``phase_loop``.
# ---------------------------------------------------------------------------

#: Policies that get registered ``fault-sweep-<policy>`` and
#: ``fault-phase-loop-<policy>`` sweeps — the deterministic table-driven
#: baseline, the paper's randomized-minimal default, and the adaptive
#: policy whose misroute budget is the degraded-mode story.
FAULT_SWEEP_POLICIES = (
    "fixed-xyz",
    "randomized-minimal",
    "adaptive-escape",
)

#: The fault-count axis.  Every count is a connectivity-preserving
#: dead-link set derived from ``fault_seed`` (the sampler resamples any
#: partitioning draw), so the sweep measures routing around damage,
#: never unreachable destinations.  12 dead cables out of 24 on the
#: 2x2x2 torus is the deep-damage end where policies separate hard.
FAULT_SWEEP_COUNTS = [0, 2, 4, 6, 8, 10, 12]

#: Saturating offered load: with headroom to spare every policy hides
#: the damage, at line rate the surviving cables are the bottleneck and
#: the accepted-load gap between policies is the resilience metric.
FAULT_SWEEP_LOAD = 1.0


def _fault_sweep_grid(policy: str) -> ParameterGrid:
    return ParameterGrid(
        {
            "dims": [(2, 2, 2)],
            "chip_cols": 6,
            "chip_rows": 6,
            "pattern": "uniform",
            "routing": policy,
            "offered_load": FAULT_SWEEP_LOAD,
            "num_faults": list(FAULT_SWEEP_COUNTS),
            "fault_seed": 1,
            "machine_seed": 0,
            "traffic_seed": 0,
            "warmup_ns": 200.0,
            "measure_ns": 800.0,
        }
    )


FAULT_SWEEPS = {
    f"fault-sweep-{policy}": Sweep(
        "route_ablation",
        _fault_sweep_grid(policy),
        label=f"fault-sweep-{policy}",
    )
    for policy in FAULT_SWEEP_POLICIES
}


def _fault_phase_loop_grid(policy: str) -> ParameterGrid:
    return ParameterGrid(
        {
            "dims": [(2, 2, 2)],
            "chip_cols": 6,
            "chip_rows": 6,
            "pattern": "halo",
            "routing": policy,
            "messages_per_node": 8,
            "window": 4,
            "iterations": 2,
            "num_faults": [0, 2, 4, 6],
            "fault_seed": 1,
            "machine_seed": 0,
            "workload_seed": 0,
        }
    )


FAULT_PHASE_LOOP_SWEEPS = {
    f"fault-phase-loop-{policy}": Sweep(
        "phase_loop",
        _fault_phase_loop_grid(policy),
        label=f"fault-phase-loop-{policy}",
    )
    for policy in FAULT_SWEEP_POLICIES
}

# ---------------------------------------------------------------------------
# 512-node scaling study: the 8x8x8 torus with reduced-size chips.
# ---------------------------------------------------------------------------

SCALING_512_FENCE_GRID = ParameterGrid(
    {
        "dims": [(8, 8, 8)],
        "chip_cols": 6,
        "chip_rows": 6,
        "seed": 9,
        "hops": [[1, 2, 4, 8, 12]],
        "request_vcs": 1,
        "slices": 1,
    }
)

SCALING_512_LATENCY_GRID = ParameterGrid(
    {
        "dims": [(8, 8, 8)],
        "chip_cols": 6,
        "chip_rows": 6,
        "machine_seed": 9,
        "harness_seed": 10,
        "max_hops": 12,
        "samples_per_hop": 4,
    }
)

#: Adaptive-escape at 512-node scale: closed-loop window points and one
#: fenced phase loop on the 8x8x8 torus, each ablated against the
#: paper's randomized-minimal baseline.  Short measure windows keep one
#: point tractable (a 512-chip machine is ~100x the default build);
#: these sweeps are CLI-driven, not part of tier-1.
SCALING_512_CLOSED_LOOP_GRID = ParameterGrid(
    {
        "dims": [(8, 8, 8)],
        "chip_cols": 6,
        "chip_rows": 6,
        "pattern": "neighbor",
        "routing": ["randomized-minimal", "adaptive-escape"],
        "window": [1, 4],
        "machine_seed": 9,
        "workload_seed": 13,
        "warmup_ns": 200.0,
        "measure_ns": 800.0,
    }
)

SCALING_512_PHASE_LOOP_GRID = ParameterGrid(
    {
        "dims": [(8, 8, 8)],
        "chip_cols": 6,
        "chip_rows": 6,
        "pattern": "halo",
        "routing": ["randomized-minimal", "adaptive-escape"],
        "messages_per_node": 4,
        "window": 2,
        "iterations": 1,
        "machine_seed": 9,
        "workload_seed": 13,
    }
)

# ---------------------------------------------------------------------------
# Named sweeps: what the benchmarks and the CLI actually run.
# ---------------------------------------------------------------------------

FIG5_SWEEP = Sweep("fig5_latency", FIG5_GRID, label="fig5")
FIG9_SWEEP = Sweep("fig9_water", FIG9_GRID, label="fig9")
FIG11_SWEEP = Sweep("fig11_fence", FIG11_GRID, label="fig11")
SCALING_512_FENCE_SWEEP = Sweep(
    "fig11_fence", SCALING_512_FENCE_GRID, label="scaling-512-fence"
)
SCALING_512_LATENCY_SWEEP = Sweep(
    "fig5_latency", SCALING_512_LATENCY_GRID, label="scaling-512-latency"
)
SCALING_512_CLOSED_LOOP_SWEEP = Sweep(
    "closed_loop",
    SCALING_512_CLOSED_LOOP_GRID,
    label="scaling-512-closed-loop-adaptive",
)
SCALING_512_PHASE_LOOP_SWEEP = Sweep(
    "phase_loop",
    SCALING_512_PHASE_LOOP_GRID,
    label="scaling-512-phase-loop-adaptive",
)

BUILTIN_SWEEPS = {
    sweep.name: sweep
    for sweep in (
        FIG5_SWEEP,
        FIG9_SWEEP,
        FIG11_SWEEP,
        SCALING_512_FENCE_SWEEP,
        SCALING_512_LATENCY_SWEEP,
        SCALING_512_CLOSED_LOOP_SWEEP,
        SCALING_512_PHASE_LOOP_SWEEP,
        *LOAD_SWEEPS.values(),
        *ROUTE_ABLATIONS.values(),
        *CLOSED_LOOP_SWEEPS.values(),
        *PHASE_LOOP_SWEEPS.values(),
        *FAULT_SWEEPS.values(),
        *FAULT_PHASE_LOOP_SWEEPS.values(),
    )
}

DEFAULT_SWEEP_NAMES = ("fig5", "fig9", "fig11")


def smoke_sweeps() -> list:
    """Tiny sweeps over every experiment that declares a smoke grid."""
    from .experiment import list_experiments

    return [
        Sweep(exp.name, exp.smoke_grid, label=f"smoke-{exp.name}")
        for exp in list_experiments()
        if exp.smoke_grid is not None
    ]
