"""Routing ablation: the classic minimal-vs-Valiant throughput tradeoff.

Open-loop load sweeps through the ``route_ablation`` experiment pin the
textbook result the pluggable routing subsystem exists to measure:

* under **tornado** traffic (half-way ring offset, all one rotational
  direction) minimal dimension-order routing collapses — deterministic
  fixed-xyz worst of all — while Valiant's random intermediate node
  spreads load over both ring directions and sustains a multiple of the
  accepted throughput;
* under **uniform random** traffic the positions reverse: Valiant pays
  its doubled average path length and accepts measurably less load than
  the paper's randomized minimal scheme (Section III-B2), which is the
  argument for Anton 3 shipping minimal routing in the first place.

The second act is the per-hop adaptive-escape policy (this PR's
tentpole): under both congesting patterns — **tornado** (where the
half-ring tie lets a per-hop router balance the two ring rotations
oblivious minimal routing must commit to blindly) and **hotspot**
(where per-hop credit observation steers packets around the converging
links) — ``adaptive-escape`` must beat ``fixed-xyz`` decisively, while
under benign **uniform** traffic it must stay within noise of the
paper's randomized minimal scheme (ties in the per-hop score degrade to
a random minimal choice).

Curves run on the 8-node ring (8 x 1 x 1) where ring effects are
visible (hotspot on the 2 x 2 x 2 torus, as in the registered sweeps),
via the parallel runner and the session result cache.
"""

import pytest

from repro.analysis import analyze_load_sweep, load_sweep_table
from repro.runner import ParameterGrid, Sweep, run_sweep

RING_DIMS = (8, 1, 1)
HOTSPOT_DIMS = (2, 2, 2)
TORNADO_LOADS = [0.05, 0.2, 0.3, 0.45, 0.6]
UNIFORM_LOADS = [0.05, 0.3, 0.45, 0.6, 0.8, 1.0]
HOTSPOT_LOADS = [0.6, 0.8, 1.0]


def _ablation_analysis(pattern, routing, loads, cache, dims=RING_DIMS):
    grid = ParameterGrid(
        {
            "dims": [dims],
            "chip_cols": 6,
            "chip_rows": 6,
            "pattern": pattern,
            "routing": routing,
            "offered_load": loads,
            "machine_seed": 7,
            "traffic_seed": 11,
            "warmup_ns": 400.0,
            "measure_ns": 1600.0,
        }
    )
    sweep = Sweep("route_ablation", grid, label=f"{pattern}-{routing}")
    result = run_sweep(sweep, jobs=2, cache=cache)
    runs = [run.record() for run in result.runs]
    print(f"\n{load_sweep_table(runs, title=sweep.name)}")
    return analyze_load_sweep(runs)


@pytest.fixture(scope="module")
def tornado_fixed(runner_cache):
    return _ablation_analysis("tornado", "fixed-xyz", TORNADO_LOADS,
                              runner_cache)


@pytest.fixture(scope="module")
def tornado_valiant(runner_cache):
    return _ablation_analysis("tornado", "valiant", TORNADO_LOADS,
                              runner_cache)


@pytest.fixture(scope="module")
def uniform_minimal(runner_cache):
    return _ablation_analysis("uniform", "randomized-minimal", UNIFORM_LOADS,
                              runner_cache)


@pytest.fixture(scope="module")
def uniform_valiant(runner_cache):
    return _ablation_analysis("uniform", "valiant", UNIFORM_LOADS,
                              runner_cache)


@pytest.fixture(scope="module")
def tornado_adaptive(runner_cache):
    return _ablation_analysis("tornado", "adaptive-escape", TORNADO_LOADS,
                              runner_cache)


@pytest.fixture(scope="module")
def uniform_adaptive(runner_cache):
    return _ablation_analysis("uniform", "adaptive-escape", UNIFORM_LOADS,
                              runner_cache)


@pytest.fixture(scope="module")
def hotspot_fixed(runner_cache):
    return _ablation_analysis("hotspot", "fixed-xyz", HOTSPOT_LOADS,
                              runner_cache, dims=HOTSPOT_DIMS)


@pytest.fixture(scope="module")
def hotspot_adaptive(runner_cache):
    return _ablation_analysis("hotspot", "adaptive-escape", HOTSPOT_LOADS,
                              runner_cache, dims=HOTSPOT_DIMS)


def test_minimal_routing_collapses_under_tornado(tornado_fixed):
    """Fixed-xyz saturates almost immediately on the one-directional
    ring pattern: latency diverges early and accepted throughput never
    approaches the offered axis."""
    assert tornado_fixed.saturated
    assert tornado_fixed.saturation_load < 0.3
    assert tornado_fixed.max_accepted_load < 0.2


def test_valiant_beats_fixed_xyz_under_tornado(tornado_fixed,
                                               tornado_valiant, benchmark):
    """The acceptance headline: Valiant sustains a measurably higher
    accepted load than fixed-xyz when tornado traffic loads one ring
    direction (2.8x in this calibration; assert a conservative 1.5x)."""
    analysis = benchmark.pedantic(lambda: tornado_valiant, rounds=1,
                                  iterations=1)
    assert analysis.max_accepted_load > 1.5 * tornado_fixed.max_accepted_load


def test_valiant_loses_to_randomized_minimal_under_uniform(uniform_minimal,
                                                           uniform_valiant):
    """The other side of the tradeoff: under benign uniform traffic
    Valiant's doubled path length costs real throughput against the
    paper's randomized minimal scheme."""
    assert (uniform_minimal.max_accepted_load
            > 1.3 * uniform_valiant.max_accepted_load)


def test_valiant_pays_latency_at_zero_load(uniform_minimal, uniform_valiant):
    """Even before congestion, the detour through a random intermediate
    node shows up as higher zero-load latency."""
    assert (uniform_valiant.zero_load_latency_ns
            > 1.15 * uniform_minimal.zero_load_latency_ns)


def test_adaptive_escape_beats_fixed_xyz_under_tornado(tornado_fixed,
                                                       tornado_adaptive):
    """The per-hop payoff on the ring: at the tornado's half-ring tie
    both rotations are productive, so adaptive-escape balances them per
    hop from adaptive-VC credit (and Valiant-misroutes out of the
    congested rotation when its budget allows) while fixed-xyz piles
    everything onto one direction (measured ~3x here; assert 2x)."""
    assert tornado_adaptive.max_accepted_load > \
        2.0 * tornado_fixed.max_accepted_load
    # Under load, not just on the zero-load fast path: at 0.45 offered
    # the escape layer and misroute budget engage and traffic flows.
    accepted = {load: acc for load, _, acc in tornado_adaptive.points}
    assert accepted[0.45] > 0.2


def test_adaptive_escape_beats_fixed_xyz_under_hotspot(hotspot_fixed,
                                                       hotspot_adaptive):
    """Converging hotspot traffic: per-hop credit observation spreads
    packets across the productive dimensions that deterministic XYZ
    serializes (measured ~2.8x accepted load here; assert 1.5x)."""
    assert hotspot_adaptive.max_accepted_load > \
        1.5 * hotspot_fixed.max_accepted_load


def test_adaptive_escape_matches_randomized_minimal_under_uniform(
        uniform_minimal, uniform_adaptive):
    """Under benign uniform traffic the per-hop score is all ties, which
    break randomly — adaptive-escape must stay within noise of the
    paper's randomized minimal scheme on both throughput and zero-load
    latency (it may exceed it: misrouting out of transient hotspots is
    allowed to help)."""
    assert uniform_adaptive.max_accepted_load > \
        0.85 * uniform_minimal.max_accepted_load
    assert uniform_adaptive.zero_load_latency_ns == pytest.approx(
        uniform_minimal.zero_load_latency_ns, rel=0.15)
