"""Closed-loop window sweep: tornado under minimal vs Valiant routing.

Sweeps the fixed-outstanding window on the 8-node ring under tornado
traffic for the paper's randomized-minimal scheme and for Valiant
routing, and prints the throughput/latency-vs-window tables with the
detected knees.  Tornado sends every node nearly half-way around the X
ring in one rotational direction, so minimal routing loads a single
ring direction and plateaus once its windows saturate it (latency, not
throughput, grows past the knee), while Valiant's random intermediate
hop spreads the same closed-loop demand over both directions and keeps
scaling through the deepest windows.

The same curves are available through the parallel runner as registered
sweeps::

    repro-runner sweep closed-loop-tornado --jobs 4

Run:  python examples/closed_loop_window_sweep.py
"""

from repro.analysis import window_sweep_tables
from repro.runner import ParameterGrid, Sweep, run_sweep

WINDOWS = [4, 16, 48, 96]


def main() -> None:
    for routing in ("randomized-minimal", "valiant"):
        grid = ParameterGrid({
            "dims": [(8, 1, 1)],
            "chip_cols": 6,
            "chip_rows": 6,
            "pattern": "tornado",
            "routing": routing,
            "window": WINDOWS,
            "machine_seed": 7,
            "workload_seed": 11,
        })
        result = run_sweep(Sweep("closed_loop", grid))
        print(window_sweep_tables([run.record() for run in result.runs]))
        print()


if __name__ == "__main__":
    main()
