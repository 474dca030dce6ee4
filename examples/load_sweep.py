"""Synthetic-traffic load sweep: latency vs offered load with saturation.

Sweeps open-loop uniform-random and nearest-neighbor traffic on a small
torus and prints the latency-vs-offered-load tables with the detected
saturation points.  The same curves are available through the parallel
runner as registered sweeps::

    repro-runner sweep load-sweep-uniform load-sweep-neighbor --jobs 4

Run:  python examples/load_sweep.py
"""

from repro.analysis import load_sweep_tables
from repro.runner import ParameterGrid, Sweep, run_sweep

LOADS = [0.05, 0.2, 0.4, 0.6, 0.8, 1.0]


def main() -> None:
    for pattern in ("uniform", "neighbor"):
        grid = ParameterGrid({
            "dims": [(2, 2, 2)],
            "chip_cols": 6,
            "chip_rows": 6,
            "pattern": pattern,
            "offered_load": LOADS,
            "warmup_ns": 300.0,
            "measure_ns": 1000.0,
        })
        result = run_sweep(Sweep("route_ablation", grid))
        print(load_sweep_tables([run.record() for run in result.runs]))
        print()


if __name__ == "__main__":
    main()
