"""Degraded-mode resilience: adaptive routing keeps throughput as
cables die, deterministic table routing collapses.

The ``route_ablation`` experiment drives saturating uniform traffic over a
2 x 2 x 2 torus degraded by seed-derived, connectivity-preserving
dead-cable sets.  At line-rate offered load the surviving cables are
the bottleneck, so accepted load is a direct read of how well each
policy routes *around* the damage:

* **fixed-xyz** follows rebuilt shortest-path tables but commits every
  packet of a flow to one deterministic live path, so dead cables
  concentrate whole flows onto single survivors and accepted load
  collapses roughly with the damage fraction;
* **adaptive-escape** observes per-hop credit headroom — dead channels
  withdraw all credits, so the chooser steers flits over every live
  distance-decreasing option (plus budgeted misroutes) and keeps the
  surviving capacity busy.

At the deep-damage anchor (12 of 24 cables dead) the adaptive policy
must retain at least twice the accepted load of fixed-xyz and nearly
all of its own healthy throughput — the graceful-degradation claim the
fault subsystem exists to measure.
"""

import pytest

from repro.runner import ParameterGrid, Sweep, run_sweep

#: The tuned anchor point of the registered ``fault-sweep-*`` grids:
#: saturating load, deepest connectivity-preserving smoke damage.
DEEP_FAULTS = 12


def _accepted_by_faults(routing, cache):
    grid = ParameterGrid(
        {
            "dims": [(2, 2, 2)],
            "chip_cols": 6,
            "chip_rows": 6,
            "pattern": "uniform",
            "routing": routing,
            "offered_load": 1.0,
            "num_faults": [0, DEEP_FAULTS],
            "fault_seed": 1,
            "machine_seed": 0,
            "traffic_seed": 0,
            "warmup_ns": 200.0,
            "measure_ns": 800.0,
        }
    )
    sweep = Sweep("route_ablation", grid, label=f"fault-resilience-{routing}")
    result = run_sweep(sweep, jobs=2, cache=cache)
    return {
        run.params["num_faults"]: run.result["accepted_load"]
        for run in result.runs
    }


@pytest.fixture(scope="module")
def accepted(runner_cache):
    return {
        routing: _accepted_by_faults(routing, runner_cache)
        for routing in ("fixed-xyz", "adaptive-escape")
    }


class TestFaultResilience:
    def test_fault_sets_are_recorded_and_deep(self, accepted):
        # Both policies measured the same healthy and deep-damage points.
        for curve in accepted.values():
            assert set(curve) == {0, DEEP_FAULTS}
            assert all(load > 0 for load in curve.values())

    def test_adaptive_escape_doubles_fixed_xyz_under_deep_damage(
            self, accepted):
        adaptive = accepted["adaptive-escape"][DEEP_FAULTS]
        fixed = accepted["fixed-xyz"][DEEP_FAULTS]
        assert adaptive >= 2.0 * fixed, (
            f"adaptive-escape {adaptive:.3f} vs fixed-xyz {fixed:.3f}")

    def test_adaptive_escape_retains_most_of_its_healthy_throughput(
            self, accepted):
        curve = accepted["adaptive-escape"]
        assert curve[DEEP_FAULTS] >= 0.9 * curve[0]

    def test_fixed_xyz_collapses_with_the_damage(self, accepted):
        curve = accepted["fixed-xyz"]
        assert curve[DEEP_FAULTS] <= 0.6 * curve[0]
