"""Tests of the benchmark itself, mostly at the tiny smoke size.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from bench_layers import LayerTracer  # noqa: E402
from bench_workloads import WORKLOADS  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = {metric["name"] for metric in BENCHMARK["per_layer"]}


def _traced_op(workload, seed=1):
    with LayerTracer() as tracer:
        op = bench_run.run_op(workload, seed, "tiny")
    return op, tracer.metrics()


@pytest.mark.parametrize("name", bench_run.WORKLOAD_NAMES)
def test_smoke_run_passes_its_checks(name):
    op = bench_run.run_op(WORKLOADS[name], 1, "tiny")
    assert op["failures"] == []
    assert op["setup_s"] > 0 and op["run_s"] > 0
    assert op["digest"]


@pytest.mark.parametrize("name", bench_run.WORKLOAD_NAMES)
def test_held_out_seed_passes_and_changes_inputs(name):
    first = bench_run.run_op(WORKLOADS[name], 1, "tiny")
    held_out = bench_run.run_op(WORKLOADS[name], 2, "tiny")
    assert held_out["failures"] == []
    assert held_out["digest"] != first["digest"]


@pytest.mark.parametrize("name", bench_run.WORKLOAD_NAMES)
def test_traced_run_matches_untraced_and_counts_repeat(name):
    workload = WORKLOADS[name]
    untraced = bench_run.run_op(workload, 1, "tiny")
    first, first_metrics = _traced_op(workload)
    second, second_metrics = _traced_op(workload)
    assert first["failures"] == [] and second["failures"] == []
    assert first["digest"] == second["digest"] == untraced["digest"]
    counts = [metric for metric in first_metrics
              if not metric.endswith(("self_s", "build_s"))]
    assert ({metric: first_metrics[metric] for metric in counts}
            == {metric: second_metrics[metric] for metric in counts})
    assert set(first_metrics) == PER_LAYER - {"trace.overhead_ratio"}


def test_tracer_skips_an_entry_point_the_program_lost(monkeypatch):
    from repro.netsim.chip import ChipNetwork

    monkeypatch.delattr(ChipNetwork, "_deliver_fence")
    op, metrics = _traced_op(WORKLOADS["water-compression"])
    assert op["failures"] == []
    assert set(metrics) == PER_LAYER - {"trace.overhead_ratio"}
    assert not hasattr(ChipNetwork, "_deliver_fence")


def test_layer_counts_agree_with_the_program():
    network, metrics = _traced_op(WORKLOADS["phaseloop-adaptive-reads"])
    assert network["failures"] == []
    routed = sum(metrics[f"{layer}.routed"] for layer in
                 ("netsim.core", "netsim.edge", "netsim.row_adapter",
                  "netsim.channel_adapter"))
    assert routed > 0 and metrics["engine.events"] > routed
    assert metrics["netsim.chip.delivered"] == metrics["netsim.chip.injected"]
    assert metrics["routing.vc_probes"] > 0  # adaptive routing probes VCs
    assert metrics["fence.barriers"] == 2
    water, metrics = _traced_op(WORKLOADS["water-compression"])
    assert metrics["engine.events"] == 0 and metrics["netsim.links_built"] == 0
    assert metrics["md.steps"] > 0 and metrics["fullsim.steps_priced"] > 0
    assert 0 < metrics["compression.bits_ratio"] < 1


def test_tracer_restores_every_patched_attribute():
    from repro.engine.simulator import Simulator
    from repro.fullsim import speedup
    from repro.md.engine import MdEngine
    from repro.netsim.core_router import CoreRouter

    before = (Simulator.at, speedup.evaluate_system, MdEngine.__dict__["water"],
              "receive" in CoreRouter.__dict__)
    with LayerTracer():
        assert Simulator.at is not before[0]
    assert (Simulator.at, speedup.evaluate_system, MdEngine.__dict__["water"],
            "receive" in CoreRouter.__dict__) == before


def _assert_result_line(result, section):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
    assert {name: value["unit"] for name, value in result["metrics"].items()} \
        == expected


GOOD_OP = {"setup_s": 0.3, "run_s": 3.0, "peak_rss_mb": 240.0,
           "failures": [], "digest": "d"}
CRASHED_OP = {"failures": ["exited with code 1"]}


@pytest.mark.parametrize("untraced, trace, section, failed", [
    (GOOD_OP, False, "end_to_end", 0),
    (CRASHED_OP, False, "end_to_end", bench_run.MIN_OPS),
    (GOOD_OP, True, "per_layer", 1),  # the traced operation crashed
    (CRASHED_OP, True, "per_layer", bench_run.MIN_OPS + 1),
])
def test_result_line_names_every_metric_even_after_crashes(
        monkeypatch, untraced, trace, section, failed):
    monkeypatch.setattr(bench_run, "spawn_op",
                        lambda name, seed, trace, index:
                        dict(CRASHED_OP if trace else untraced))
    result = bench_run.run_workload("water-compression", 1, 0, trace)
    _assert_result_line(result, section)
    assert result["attempted"] == bench_run.MIN_OPS + trace
    assert result["failed"] == failed
    assert result["correct"] == (failed == 0)
    if not failed:
        assert result["metrics"]["run_s"]["value"] == GOOD_OP["run_s"]


def _cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)


def _copy_benchmark(into: Path) -> None:
    shutil.copytree(HERE, into / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", into)


def test_cli_traced_run_survives_a_renamed_entry_point(tmp_path):
    """A paper-size traced run of a program whose chip renamed one method."""
    _copy_benchmark(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    chip = tmp_path / "src" / "repro" / "netsim" / "chip.py"
    chip.write_text(chip.read_text().replace("_deliver_fence",
                                             "_deliver_fence_renamed"))
    child = _cli("--workload", "water-compression", "--seed", "3",
                 "--seconds", "0", "--trace", "1", cwd=tmp_path)
    assert child.returncode == 0, child.stderr
    lines = [json.loads(line) for line in child.stdout.splitlines()]
    result = lines[-1]
    _assert_result_line(result, "per_layer")
    assert result["correct"] and result["failed"] == 0
    assert lines[-2]["traced"]
    assert lines[-2]["missing_entry_points"] == ["ChipNetwork._deliver_fence"]


def test_fails_without_printing_a_result_when_the_program_is_missing(tmp_path):
    _copy_benchmark(tmp_path)
    child = _cli("--workload", "openloop-uniform-128", "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
