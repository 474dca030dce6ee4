"""Golden pins for the water pipeline (md, compression and fullsim).

Each case runs a small water box through MD, prices its snapshots under
the baseline, INZ and INZ+particle-cache configurations, and prices the
same snapshots again with in-network force reduction.  Only integers are
pinned: per-configuration ``total_bits``, per-step particle-cache hits
and misses, and per-step pair counts.  They move if the pair list, the
force summation order (through the trajectory), the routing of exports
and force returns, or the order of packets through a particle cache
changes.  The values were computed before the pipeline's hot path was
rewritten and are never regenerated to make a change pass.

``water-512`` is the size the issue-level acceptance names (two cells
per side, so pairs come from the brute-force path); ``water-1000`` has
exactly three cells per side at the neighbor list's reach, so its pairs
come from the cell list.
"""

from __future__ import annotations

import pytest

from repro.fullsim import (
    FULL,
    TrafficModel,
    compare_configurations,
    evaluate_water_system,
)
from repro.md import Decomposition, MdEngine

STEPS = 5
NODE_DIMS = (2, 2, 2)


def water_pipeline(n_atoms: int, seed: int = 1) -> dict:
    """The integer outputs of one water run, priced every way."""
    summary = evaluate_water_system(n_atoms=n_atoms, steps=STEPS, seed=seed,
                                    node_dims=NODE_DIMS)
    engine = MdEngine.water(n_atoms, seed=seed)
    snapshots = engine.run(STEPS)
    decomposition = Decomposition(box=engine.system.box, node_dims=NODE_DIMS)
    cutoff = engine.field.cutoff
    model = TrafficModel(decomposition, FULL, cutoff)
    steps = []
    for snapshot in snapshots:
        traffic = model.process_step(snapshot)
        steps.append((snapshot.record.num_pairs, traffic.pcache_hits,
                      traffic.pcache_misses))
    reduced = compare_configurations(snapshots, decomposition, cutoff,
                                     force_reduction=True)
    return {
        "total_bits": {label: config["total_bits"]
                       for label, config in summary["configs"].items()},
        "reduced_bits": dict(reduced.bits),
        "steps": steps,
    }


PINS = {
    "water-512": {
        "total_bits": {"baseline": 2662400, "inz": 1625336,
                       "inz+pcache": 969344},
        "reduced_bits": {"baseline": 2150400, "inz": 1348440,
                         "inz+pcache": 692448},
        "steps": [(20989, 0, 3584), (21001, 3580, 4), (21013, 3580, 4),
                  (21021, 3580, 4), (21035, 3580, 4)],
    },
    "water-1000": {
        "total_bits": {"baseline": 5200000, "inz": 3183824,
                       "inz+pcache": 1905640},
        "reduced_bits": {"baseline": 4200000, "inz": 2644760,
                         "inz+pcache": 1366576},
        "steps": [(40966, 0, 7000), (41007, 6914, 86), (41040, 6914, 86),
                  (41066, 6914, 86), (41107, 6914, 86)],
    },
}

SIZES = {"water-512": 512, "water-1000": 1000}


@pytest.mark.parametrize("name", sorted(PINS))
def test_water_pipeline_is_pinned(name):
    assert water_pipeline(SIZES[name]) == PINS[name]


if __name__ == "__main__":
    for case in sorted(PINS):
        print(f"    {case!r}: {water_pipeline(SIZES[case])!r},")
