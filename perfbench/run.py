"""Run the repository's benchmark: one workload, or all three in turn.

    python3 perfbench/run.py --workload openloop-uniform-128 --seed 1 \\
        --seconds 30 --trace 0

A run repeats *operations* of the workload until ``--seconds`` have
passed, and does at least :data:`MIN_OPS` of them.  Each operation is a
fresh child process (this script with ``--op``).  It warms up at the
tiny size, then sets the workload up at the paper size, runs it, and
checks it.  The run prints one JSON line per operation, then the result
line::

    {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: the medians of
``setup_s``, ``run_s`` and ``peak_rss_mb`` over the operations.  With
``--trace 1`` one more operation runs under
:class:`bench_layers.LayerTracer`.  The metrics are then its per-layer
ones plus ``trace.overhead_ratio``.  Metric names, units and workload
names are read from ``BENCHMARK.json``.  An operation that crashes
counts as failed, and the result line is still printed, with a metric
no operation reported read as 0.  Without ``--workload`` every workload
runs in turn, and the metrics are named ``<workload>/<metric>``.

Before anything is imported the script re-executes itself with
single-threaded BLAS/OpenMP and a fixed ``PYTHONHASHSEED``, so every
operation hashes and schedules the same way.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

WORKLOAD_NAMES = [workload["name"] for workload in BENCHMARK["workloads"]]

#: The fewest operations a run medians over, however long they take.
MIN_OPS = 3

#: An operation still running after this many seconds is killed.
OP_TIMEOUT_S = 170


def pin_environment() -> None:
    """Re-execute this script under :data:`PINNED_ENV` unless it already is."""
    if all(os.environ.get(key) == value for key, value in PINNED_ENV.items()):
        return
    os.execve(sys.executable, [sys.executable, *sys.argv],
              {**os.environ, **PINNED_ENV})


# ----------------------------------------------------------------------
# One operation, inside its own process.
# ----------------------------------------------------------------------


def run_op(workload, seed: int, size: str) -> dict:
    """Set up, run and check the workload once, timing set-up and run."""
    from bench_workloads import result_digest

    gc.collect()
    start = perf_counter()
    state = workload.setup(seed, workload.sizes[size])
    setup_s = perf_counter() - start
    gc.collect()
    start = perf_counter()
    result = workload.run(state)
    run_s = perf_counter() - start
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "failures": workload.check(state, result),
        "digest": result_digest(workload.name, seed, size,
                                workload.record(state, result)),
    }


def op_main(name: str, seed: int, trace: bool) -> dict:
    """The ``--op`` child: warm up untraced, then one measured operation."""
    from bench_layers import LayerTracer
    from bench_workloads import WORKLOADS

    workload = WORKLOADS[name]
    warmup = run_op(workload, seed, "tiny")
    if warmup["failures"]:
        raise RuntimeError(f"warm-up failed: {warmup['failures']}")
    if trace:
        with LayerTracer() as tracer:
            op = run_op(workload, seed, "paper")
        op["layers"] = tracer.metrics()
        op["missing_entry_points"] = tracer.missing
    else:
        op = run_op(workload, seed, "paper")
    op["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    return op


# ----------------------------------------------------------------------
# Host diagnostics (recorded beside each operation, never scored).
# ----------------------------------------------------------------------


def cpu_times() -> Optional[List[int]]:
    """The first eight aggregate CPU counters of ``/proc/stat``."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()[1:9]
    except OSError:
        return None
    return [int(field) for field in fields]


def steal_share(before: Optional[List[int]],
                after: Optional[List[int]]) -> Optional[float]:
    """Share of CPU time the hypervisor stole between two samples."""
    if before is None or after is None:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return delta[7] / total if total else 0.0


# ----------------------------------------------------------------------
# A run: operations in child processes, then medians.
# ----------------------------------------------------------------------


def spawn_op(name: str, seed: int, trace: bool, index: int) -> dict:
    """One operation in a child process; a crash counts as a failed one."""
    before = cpu_times()
    command = [sys.executable, str(Path(__file__).resolve()), "--op",
               "--workload", name, "--seed", str(seed),
               "--trace", str(int(trace))]
    try:
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               timeout=OP_TIMEOUT_S, check=False)
        lines = child.stdout.splitlines()
        op = (json.loads(lines[-1]) if child.returncode == 0 and lines
              else {"failures": [f"exited with code {child.returncode}"]})
    except subprocess.TimeoutExpired:
        op = {"failures": [f"timed out after {OP_TIMEOUT_S} s"]}
    line = {"op": index, "workload": name, "seed": seed, "traced": trace,
            **{key: op[key] for key in
               ("setup_s", "run_s", "peak_rss_mb", "failures", "digest",
                "missing_entry_points") if key in op},
            "steal_share": steal_share(before, cpu_times()),
            "loadavg_1m": os.getloadavg()[0]}
    print(json.dumps(line), flush=True)
    return op


def count_failed(ops: List[dict]) -> int:
    """Failed operations: failed checks, or a digest unlike the first one."""
    reference = next((op["digest"] for op in ops if op.get("digest")), None)
    return sum(1 for op in ops
               if op["failures"] or op.get("digest") != reference)


def median_of(ops: List[dict], field: str) -> float:
    """The median of ``field`` over the operations that reported it, or 0."""
    values = [op[field] for op in ops if op.get(field) is not None]
    return statistics.median(values) if values else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    ops: List[dict] = []
    start = perf_counter()
    while len(ops) < MIN_OPS or perf_counter() - start < seconds:
        ops.append(spawn_op(name, seed, False, len(ops)))
    section = "end_to_end"
    values: Dict[str, float] = {
        metric["name"]: median_of(ops, metric["name"])
        for metric in BENCHMARK[section]}
    if trace:
        traced = spawn_op(name, seed, True, len(ops))
        ops.append(traced)
        section = "per_layer"
        untraced_run_s = values["run_s"]
        values = dict(traced.get("layers", {}))
        if "layers" in traced and untraced_run_s:
            values["trace.overhead_ratio"] = traced["run_s"] / untraced_run_s
    failed = count_failed(ops)
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": {metric["name"]: {"value": values.get(metric["name"],
                                                             0.0),
                                         "unit": metric["unit"]}
                        for metric in BENCHMARK[section]}}


def run_all(args: argparse.Namespace) -> dict:
    """Every workload in turn; metrics named ``<workload>/<metric>``."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        result = run_workload(name, args.seed, args.seconds,
                              bool(args.trace))
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = value
    for metric, value in total["metrics"].items():
        print(f"{metric:56s} {value['value']:>14.6g} {value['unit']}")
    return total


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run the benchmark and print its metrics as JSON.")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload (default: all three in turn)")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed: machine, traffic and MD inputs")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="start operations until this much time passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add one traced operation, report per-layer "
                             "metrics")
    parser.add_argument("--op", action="store_true",
                        help=argparse.SUPPRESS)  # one operation, in a child
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    pin_environment()
    if not (SRC / "repro").is_dir():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.op:
        try:
            op = op_main(args.workload, args.seed, bool(args.trace))
        except Exception:  # reported to the parent as a failed operation
            traceback.print_exc()
            return 1
        print(json.dumps(op), flush=True)
        # Skip tearing down the simulated machine: the parent only waits.
        os._exit(0)
    if args.workload is None:
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
