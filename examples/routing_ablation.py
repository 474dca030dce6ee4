"""Routing ablation: one traffic pattern, several routing policies.

Sweeps open-loop tornado traffic (the half-way ring offset where
minimal dimension-order routing collapses) on an 8-node ring under
four routing policies and prints the latency-vs-load table per policy
— fixed-xyz collapses, randomized minimal limps, Valiant keeps both
ring directions busy, and per-hop adaptive-escape matches Valiant under
congestion without paying its detour at low load.  The same curves
(plus transpose, bit-complement and hotspot) are available through the
parallel runner as registered sweeps::

    repro-runner sweep route-ablation-valiant route-ablation-adaptive-escape

and can be rendered as an ASCII chart straight from the results::

    repro-runner sweep route-ablation-valiant -o out.json
    repro-runner report --input out.json \
        --plot offered_load:classes.request.latency_ns.mean \
        --plot-by pattern,routing

Run:  python examples/routing_ablation.py
"""

from repro.analysis import load_sweep_tables
from repro.runner import ParameterGrid, Sweep, run_sweep

RING = (8, 1, 1)
LOADS = [0.05, 0.2, 0.45]
POLICIES = ("fixed-xyz", "randomized-minimal", "valiant",
            "adaptive-escape")


def main() -> None:
    ceilings = {}
    for routing in POLICIES:
        grid = ParameterGrid({
            "dims": [RING],
            "chip_cols": 6,
            "chip_rows": 6,
            "pattern": "tornado",
            "routing": routing,
            "offered_load": LOADS,
            "warmup_ns": 300.0,
            "measure_ns": 1000.0,
        })
        result = run_sweep(Sweep("route_ablation", grid))
        print(load_sweep_tables([run.record() for run in result.runs]))
        print()
        ceilings[routing] = max(run.result["accepted_load"]
                                for run in result.runs)
    print("accepted-load ceilings:",
          "  ".join(f"{name}={ceiling:.3f}"
                    for name, ceiling in ceilings.items()))


if __name__ == "__main__":
    main()
