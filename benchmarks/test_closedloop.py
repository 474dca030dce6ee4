"""Closed-loop workloads: self-throttling and fences.

The acceptance pins of the closed-loop subsystem (`repro.workload`):

* **Window discipline** — fixed-outstanding-window accepted throughput
  is monotone in the window while the fabric has headroom, and its
  plateau can never exceed the open-loop saturation throughput of the
  same (pattern, routing): a window fills the pipe, it does not widen
  it.
* **Fence-synchronized phases** — under tornado phase workloads with
  bandwidth-bound bursts, Valiant's non-minimal spreading finishes an
  MD-shaped iteration (export burst, fence, return burst, fence)
  measurably faster than fixed-xyz, whose one-directional ring traffic
  congests; the closed-loop restatement of the routing-ablation result.

Byte identity of the ``closed_loop`` smoke grid under ``--jobs 1`` and
a worker pool is pinned by ``tests/test_runner.py::TestClosedLoopSweeps``.
"""

import pytest

from repro.analysis import (
    analyze_load_sweep,
    analyze_window_sweep,
    closed_vs_open_table,
)
from repro.runner import ParameterGrid, Sweep, run_sweep

UNIFORM_DIMS = (2, 2, 2)
RING_DIMS = (8, 1, 1)
UNIFORM_WINDOWS = [1, 4, 16, 64]
UNIFORM_LOADS = [0.3, 0.6, 1.0]


def _run(experiment, grid, label, cache, jobs=2):
    sweep = Sweep(experiment, ParameterGrid(grid), label=label)
    result = run_sweep(sweep, jobs=jobs, cache=cache)
    return [run.record() for run in result.runs]


@pytest.fixture(scope="module")
def uniform_closed(runner_cache):
    return _run(
        "closed_loop",
        {
            "dims": [UNIFORM_DIMS],
            "chip_cols": 6,
            "chip_rows": 6,
            "pattern": "uniform",
            "window": UNIFORM_WINDOWS,
            "machine_seed": 7,
            "workload_seed": 11,
        },
        "closed-uniform",
        runner_cache,
    )


@pytest.fixture(scope="module")
def uniform_open(runner_cache):
    return _run(
        "route_ablation",
        {
            "dims": [UNIFORM_DIMS],
            "chip_cols": 6,
            "chip_rows": 6,
            "pattern": "uniform",
            "routing": "randomized-minimal",
            "offered_load": UNIFORM_LOADS,
            "machine_seed": 7,
            "traffic_seed": 11,
        },
        "open-uniform",
        runner_cache,
    )


def _phase_runs(routing, cache):
    return _run(
        "phase_loop",
        {
            "dims": [RING_DIMS],
            "chip_cols": 6,
            "chip_rows": 6,
            "pattern": "tornado",
            "routing": routing,
            "messages_per_node": 200,
            "window": 64,
            "iterations": 1,
            "machine_seed": 7,
            "workload_seed": 11,
        },
        f"phase-tornado-{routing}",
        cache,
        jobs=1,
    )


@pytest.fixture(scope="module")
def tornado_phase_fixed(runner_cache):
    (record,) = _phase_runs("fixed-xyz", runner_cache)
    return record["result"]


@pytest.fixture(scope="module")
def tornado_phase_valiant(runner_cache):
    (record,) = _phase_runs("valiant", runner_cache)
    return record["result"]


def test_window_throughput_monotone_and_bounded_by_open_loop(
    uniform_closed, uniform_open
):
    """(a) Accepted throughput rises with the window and never exceeds
    the open-loop saturation throughput of the same curve."""
    closed = analyze_window_sweep(uniform_closed)
    open_analysis = analyze_load_sweep(uniform_open)
    print(f"\n{closed_vs_open_table(closed, open_analysis)}")
    accepted = [a for __, a, __unused in closed.points]
    for lower, higher in zip(accepted, accepted[1:]):
        assert higher >= lower * 0.98  # monotone modulo sim noise
    # Doubling a sub-saturation window roughly doubles throughput ...
    assert accepted[-1] > 5 * accepted[0]
    # ... but the plateau is bounded by what the fabric accepts open-loop.
    assert closed.plateau_accepted_load <= 1.02 * open_analysis.max_accepted_load


def test_window_latency_flat_below_saturation(uniform_closed):
    """Self-throttling keeps transaction latency near zero-load across
    the whole rising portion of the window curve — the defining contrast
    with an open-loop sweep, whose latency diverges past saturation."""
    closed = analyze_window_sweep(uniform_closed)
    latencies = [latency for __, __unused, latency in closed.points]
    assert max(latencies) <= 1.15 * min(latencies)


def test_valiant_beats_fixed_xyz_under_tornado_phase_loop(
    tornado_phase_fixed, tornado_phase_valiant, benchmark
):
    """(b) The closed-loop headline: with bandwidth-bound tornado bursts
    between fences, non-minimal spreading finishes the MD-shaped
    iteration measurably sooner than fixed-xyz (~2.2x here; assert a
    conservative 1.3x)."""
    result = benchmark.pedantic(lambda: tornado_phase_valiant, rounds=1,
                                iterations=1)
    assert (result["mean_iteration_ns"]
            < tornado_phase_fixed["mean_iteration_ns"] / 1.3)


def test_phase_records_account_for_the_iteration(tornado_phase_valiant):
    """Phase burst + fence spans compose into the iteration time, and the
    fence-wait fraction is a real fraction."""
    (iteration,) = tornado_phase_valiant["iterations"]
    total = sum(p["burst_ns"] + p["fence_ns"] for p in iteration["phases"])
    assert total == pytest.approx(iteration["iteration_ns"], rel=1e-6)
    assert 0 < iteration["fence_wait_fraction"] < 1
