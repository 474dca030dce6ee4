"""Tests for the observability subsystem (repro.observe).

Covers the slice-keyed metrics primitives, the ambient observation
context, deterministic trace sampling, the zero-perturbation contract
(observed and unobserved runs produce identical simulated trajectories),
jobs-invariant artifact files, schema validation, and the runner/CLI
integration (``--observe``/``--trace``, ``trace export``,
``timeline``, ``cache stats --json``).
"""

import json

import pytest

from repro.netsim import (
    CoreAddress,
    MachineConfig,
    NetworkMachine,
    PingPongHarness,
)
from repro.observe import (
    MetricsHub,
    ObserveConfig,
    PacketTracer,
    SliceCounter,
    SliceGauge,
    chrome_trace_events,
)
from repro.observe import context as observe_context
from repro.observe.artifacts import (
    artifact_path,
    find_artifact,
    list_artifacts,
    load_artifact,
    observe_dir,
    write_run_artifacts,
)
from repro.observe.metrics import slice_count
from repro.observe.schema import (
    validate_chrome_trace,
    validate_metrics,
    validate_trace,
)
from repro.runner import ParameterGrid, ResultCache, Sweep, run_sweep
from repro.runner.cli import main

#: One sub-second phase-loop config, reused by the integration tests.
PHASE_PARAMS = {
    "dims": (2, 1, 1),
    "chip_cols": 6,
    "chip_rows": 6,
    "pattern": "uniform",
    "routing": "randomized-minimal",
    "messages_per_node": 4,
    "window": 2,
    "iterations": 1,
    "machine_seed": 7,
    "workload_seed": 11,
}


def tiny_sweep(**overrides):
    params = dict(PHASE_PARAMS)
    params.update(overrides)
    return Sweep("phase_loop", ParameterGrid(params), label="tiny")


@pytest.fixture(autouse=True)
def _clean_context():
    """No test leaks an armed ambient observation context."""
    observe_context.deactivate()
    yield
    observe_context.deactivate()


# ---------------------------------------------------------------------------
# Config validation.
# ---------------------------------------------------------------------------


class TestObserveConfig:
    def test_defaults_and_enabled(self):
        config = ObserveConfig()
        assert config.metrics and not config.trace
        assert config.enabled
        assert not ObserveConfig(metrics=False, trace=False).enabled
        assert ObserveConfig(metrics=False, trace=True).enabled

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError, match="period_ns"):
            ObserveConfig(period_ns=0.0)

    def test_rejects_bad_sample(self):
        with pytest.raises(ValueError, match="trace_sample"):
            ObserveConfig(trace_sample=1.5)
        with pytest.raises(ValueError, match="trace_sample"):
            ObserveConfig(trace_sample=-0.1)


# ---------------------------------------------------------------------------
# Slice-keyed metrics primitives.
# ---------------------------------------------------------------------------


class TestSliceMetrics:
    def test_slice_count(self):
        assert slice_count(0.0, 100.0) == 1
        assert slice_count(99.9, 100.0) == 1
        assert slice_count(100.0, 100.0) == 2
        assert slice_count(250.0, 100.0) == 3

    def test_gauge_time_weighted_means(self):
        gauge = SliceGauge(100.0)
        gauge.update(0.0, 2.0)    # 2.0 over [0, 50)
        gauge.update(50.0, 4.0)   # 4.0 over [50, 150)
        gauge.update(150.0, 0.0)  # idle afterwards
        gauge.close(300.0)
        means = gauge.means(300.0)
        # Slice 0: (50*2 + 50*4)/100 = 3; slice 1: 50*4/100 = 2.
        assert means == pytest.approx([3.0, 2.0, 0.0, 0.0])

    def test_gauge_spanning_many_slices(self):
        gauge = SliceGauge(10.0)
        gauge.update(5.0, 1.0)
        gauge.close(35.0)
        assert gauge.means(35.0) == pytest.approx([0.5, 1.0, 1.0, 1.0])

    def test_gauge_partial_final_slice_uses_true_width(self):
        gauge = SliceGauge(100.0)
        gauge.update(0.0, 1.0)
        gauge.close(150.0)
        # The last slice covers only [100, 150): a held value of 1.0
        # must average to 1.0, not 0.5.
        assert gauge.means(150.0) == pytest.approx([1.0, 1.0])

    def test_counter_bucketing(self):
        counter = SliceCounter(100.0)
        counter.add(0.0)
        counter.add(99.0, 2)
        counter.add(100.0)
        assert counter.counts(250.0) == [3, 1, 0]
        assert counter.total == 4

    def test_hub_is_a_stats_registry_with_slices(self):
        hub = MetricsHub(50.0)
        hub.counter("plain").add(2)
        hub.slice_gauge("g").update(0.0, 1.0)
        hub.slice_counter("c").add(60.0)
        hub.close(100.0)
        payload = hub.slices_jsonable(100.0)
        assert payload["period_ns"] == 50.0
        assert payload["slices"] == 3
        # end_ns on a slice boundary opens one empty trailing slice.
        assert payload["gauges"]["g"] == pytest.approx([1.0, 1.0, 0.0])
        assert payload["counters"]["c"] == [0, 1, 0]
        assert hub.snapshot()["counters"]["plain"] == 2

    def test_hub_rejects_bad_period(self):
        with pytest.raises(ValueError):
            MetricsHub(0.0)


# ---------------------------------------------------------------------------
# Ambient observation context.
# ---------------------------------------------------------------------------


class TestAmbientContext:
    def test_activate_collect_deactivate(self):
        config = ObserveConfig()
        observe_context.activate(config)
        assert observe_context.active_observe_config() is config
        observe_context.deactivate()
        assert observe_context.active_observe_config() is None

    def test_double_activate_raises(self):
        observe_context.activate(ObserveConfig())
        with pytest.raises(RuntimeError, match="already active"):
            observe_context.activate(ObserveConfig())

    def test_register_is_a_noop_when_inactive(self):
        observe_context.register_observer(object())
        assert observe_context.collect() is None

    def test_collect_empty_when_no_machines_observed(self):
        with observe_context.observing(ObserveConfig()):
            assert observe_context.collect() is None

    def test_observing_deactivates_on_error(self):
        with pytest.raises(RuntimeError, match="boom"):
            with observe_context.observing(ObserveConfig()):
                raise RuntimeError("boom")
        assert observe_context.active_observe_config() is None


# ---------------------------------------------------------------------------
# Trace sampling and Chrome export.
# ---------------------------------------------------------------------------


class TestPacketTracer:
    def test_full_and_zero_sampling(self):
        assert PacketTracer(1.0, 0).selects(3, 17)
        assert not PacketTracer(0.0, 0).selects(3, 17)

    def test_sampling_is_deterministic_across_instances(self):
        a = PacketTracer(0.5, 42)
        b = PacketTracer(0.5, 42)
        decisions = [(n, s) for n in range(4) for s in range(32)]
        assert [a.selects(n, s) for n, s in decisions] == \
            [b.selects(n, s) for n, s in decisions]

    def test_partial_sampling_selects_a_plausible_fraction(self):
        tracer = PacketTracer(0.25, 7)
        picked = sum(tracer.selects(n, s)
                     for n in range(8) for s in range(128))
        assert 0.15 < picked / 1024 < 0.35

    def test_spans_and_chrome_events(self):
        tracer = PacketTracer(1.0, 0)
        tracer.span((2, 0), "transmit", 10.0, 30.0, link="L", vc=1)
        tracer.instant((2, 0), "deliver", 30.0, hops=1)
        tracer.span((3, 1), "inject", 0.0, 5.0)
        payload = tracer.jsonable()
        validate_trace({"schema": "repro.observe.trace/1", "end_ns": 30.0,
                        **payload})
        events = chrome_trace_events(payload, pid=4)
        # Two lanes -> two thread_name metadata events.
        metas = [e for e in events if e["ph"] == "M"]
        assert [m["args"]["name"] for m in metas] == \
            ["packet n2#0", "packet n3#1"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(complete) == 2 and len(instants) == 1
        assert complete[0]["ts"] == pytest.approx(0.01)  # ns -> us
        assert complete[0]["dur"] == pytest.approx(0.02)
        assert all(e["pid"] == 4 for e in events)
        validate_chrome_trace({"traceEvents": events})


# ---------------------------------------------------------------------------
# Zero perturbation: observation never changes the simulation.
# ---------------------------------------------------------------------------


def small_machine(observe=None):
    return NetworkMachine(config=MachineConfig(
        dims=(1, 1, 2), chip_cols=6, chip_rows=6, seed=21, observe=observe))


class TestZeroPerturbation:
    def test_observed_run_is_byte_identical(self):
        plain = small_machine()
        observed = small_machine(ObserveConfig(metrics=True, trace=True))
        assert observed.observer is not None
        results = []
        for machine in (plain, observed):
            harness = PingPongHarness(machine, seed=3)
            result = harness.measure_pair(
                (0, 0, 0), CoreAddress(0, 0, 0),
                (0, 0, 1), CoreAddress(0, 0, 0), rounds=4)
            results.append((result.one_way_ns, machine.sim.now))
        assert results[0] == results[1]
        # ...and the observer actually recorded the run it watched.
        artifacts = observed.observer.artifacts()
        validate_metrics(artifacts["metrics"])
        validate_trace(artifacts["trace"])
        assert artifacts["trace"]["spans"]

    def test_disabled_machine_builds_no_instrumentation(self):
        machine = small_machine()
        assert machine.observer is None
        for chip in machine.chips.values():
            assert chip.observer is None
            for ca in chip.channel_adapters.values():
                link = ca.output_or_none("channel")
                if link is not None:
                    assert link.monitor is None

    def test_disabled_config_is_not_installed(self):
        machine = small_machine(ObserveConfig(metrics=False, trace=False))
        assert machine.observer is None

    def test_every_channel_link_gets_a_monitor_and_vc_gauges(self):
        machine = small_machine(ObserveConfig(metrics=True))
        observer = machine.observer
        links = set()
        for chip in machine.chips.values():
            for ca in chip.channel_adapters.values():
                link = ca.output_or_none("channel")
                if link is not None:
                    links.add(link.name)
                    assert link.monitor is not None
        assert {m.link.name for m in observer.monitors} == links
        harness = PingPongHarness(machine, seed=3)
        harness.measure_pair((0, 0, 0), CoreAddress(0, 0, 0),
                             (0, 0, 1), CoreAddress(0, 0, 0))
        payload = observer.artifacts()["metrics"]
        for name in links:
            for vc in range(6):
                assert f"link/{name}/vc{vc}/occupancy" in payload["gauges"]


# ---------------------------------------------------------------------------
# Fence and fault hooks.
# ---------------------------------------------------------------------------


class TestFenceAndFaultHooks:
    def test_fence_completions_and_wait_summary(self):
        from repro.fence import FenceEngine

        machine = NetworkMachine(config=MachineConfig(
            dims=(2, 2, 2), chip_cols=6, chip_rows=6, seed=21,
            observe=ObserveConfig(metrics=True)))
        FenceEngine(machine).barrier_latency(2)
        payload = machine.observer.artifacts()["metrics"]
        nodes = len(machine.chips)
        assert sum(payload["counters"]["fence/node_completions"]) == nodes
        wait = payload["stats"]["summaries"]["fence/node_wait_ns"]
        assert wait["count"] == nodes and wait["max"] > 0

    def test_fault_epochs_counted(self):
        from repro.faults import FaultEvent, FaultSchedule

        schedule = FaultSchedule((
            FaultEvent(kind="dead-vc", node=(0, 0, 0), vc=1),
            FaultEvent(kind="dead-link", node=(1, 0, 0), axis=0),
        ))
        machine = NetworkMachine(config=MachineConfig(
            dims=(2, 2, 2), chip_cols=6, chip_rows=6, seed=21,
            faults=schedule, observe=ObserveConfig(metrics=True)))
        payload = machine.observer.artifacts()["metrics"]
        assert payload["stats"]["counters"]["faults/epochs"] == \
            machine.fault_state.epoch
        assert machine.fault_state.epoch >= 2

    def test_route_events_counted_under_adaptive_escape(self):
        from repro.runner import get_experiment

        params = dict(PHASE_PARAMS, routing="adaptive-escape")
        with observe_context.observing(ObserveConfig(metrics=True)):
            get_experiment("phase_loop").run(params)
            payload = observe_context.collect()["metrics"][0]
        counters = payload["stats"]["counters"]
        assert counters.get("route/adaptive", 0) > 0
        # Every slice-counter total matches its plain-counter twin.
        for kind in ("adaptive", "escape", "misroute"):
            name = f"route/{kind}"
            if name in counters:
                assert sum(payload["counters"][name]) == counters[name]


# ---------------------------------------------------------------------------
# Runner integration: artifacts, determinism, unchanged digests.
# ---------------------------------------------------------------------------


class TestSweepObservation:
    def test_artifacts_byte_identical_across_jobs(self, tmp_path):
        observe = ObserveConfig(metrics=True, trace=True, period_ns=50.0)
        sweep = tiny_sweep(messages_per_node=[2, 4])
        dirs = {}
        for jobs in (1, 4):
            directory = tmp_path / f"jobs{jobs}"
            result = run_sweep(sweep, jobs=jobs, observe=observe,
                               artifact_dir=directory)
            assert all(run.artifact_paths for run in result.runs)
            dirs[jobs] = directory
        names1 = sorted(p.name for p in dirs[1].iterdir())
        names4 = sorted(p.name for p in dirs[4].iterdir())
        assert names1 == names4 and len(names1) == 4  # 2 runs x 2 layers
        for name in names1:
            assert (dirs[1] / name).read_bytes() == \
                (dirs[4] / name).read_bytes()

    def test_observation_leaves_results_and_cache_untouched(self, tmp_path):
        sweep = tiny_sweep()
        plain_cache = ResultCache(tmp_path / "plain")
        plain = run_sweep(sweep, cache=plain_cache)
        observed_cache = ResultCache(tmp_path / "observed")
        artifact_dir = tmp_path / "observed" / "observe"
        observed = run_sweep(
            sweep, cache=observed_cache, artifact_dir=artifact_dir,
            observe=ObserveConfig(metrics=True, trace=True))
        assert observed.record() == plain.record()
        # Same digests land in both caches: observation is invisible to
        # content addressing.
        plain_keys = sorted(p.name for p in plain_cache.root.rglob("*.json"))
        observed_keys = sorted(
            p.relative_to(observed_cache.root).name
            for p in observed_cache.root.rglob("*.json")
            if "observe" not in p.parts)
        assert plain_keys == observed_keys

    def test_disabled_observe_writes_no_artifacts(self, tmp_path):
        directory = tmp_path / "observe"
        result = run_sweep(
            tiny_sweep(), artifact_dir=directory,
            observe=ObserveConfig(metrics=False, trace=False))
        assert all(run.artifact_paths == () for run in result.runs)
        assert not directory.exists()

    def test_observed_runs_bypass_cache_reads(self, tmp_path):
        sweep = tiny_sweep()
        cache = ResultCache(tmp_path / "cache")
        run_sweep(sweep, cache=cache)  # warm the cache
        directory = tmp_path / "observe"
        observed = run_sweep(sweep, cache=cache, artifact_dir=directory,
                             observe=ObserveConfig(metrics=True))
        assert all(not run.cached for run in observed.runs)
        assert all(run.artifact_paths for run in observed.runs)


# ---------------------------------------------------------------------------
# Artifact files.
# ---------------------------------------------------------------------------


def fake_metrics(end_ns=10.0):
    return {
        "schema": "repro.observe.metrics/1",
        "end_ns": end_ns,
        "period_ns": 5.0,
        "slices": 3,
        "gauges": {"g": [0.0, 1.0, 2.0]},
        "counters": {"c": [1, 0, 2]},
        "stats": {"counters": {}, "summaries": {}, "histograms": {},
                  "series": {}},
    }


class TestArtifactFiles:
    def test_write_load_find_list(self, tmp_path):
        directory = observe_dir(tmp_path)
        written = write_run_artifacts(
            directory, "abc123", {"metrics": [fake_metrics()]})
        assert written == [artifact_path(directory, "abc123", "metrics")]
        loaded = load_artifact(written[0])
        assert loaded["digest"] == "abc123" and loaded["layer"] == "metrics"
        validate_metrics(loaded["machines"][0])
        assert find_artifact(directory, "abc", "metrics") == written[0]
        assert find_artifact(directory, "zzz", "metrics") is None
        rows = list_artifacts(directory)
        assert [(r["digest"], r["layer"]) for r in rows] == \
            [("abc123", "metrics")]

    def test_ambiguous_prefix_raises(self, tmp_path):
        directory = tmp_path
        write_run_artifacts(directory, "ab1", {"metrics": [fake_metrics()]})
        write_run_artifacts(directory, "ab2", {"metrics": [fake_metrics()]})
        with pytest.raises(ValueError, match="ambiguous"):
            find_artifact(directory, "ab", "metrics")

    def test_empty_layers_write_nothing(self, tmp_path):
        assert write_run_artifacts(tmp_path, "d", {"metrics": []}) == []

    def test_unknown_layer_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown artifact layer"):
            artifact_path(tmp_path, "d", "flamegraph")


# ---------------------------------------------------------------------------
# Schema validators reject mutations.
# ---------------------------------------------------------------------------


class TestSchemas:
    def test_metrics_rejects_bad_slice_lengths(self):
        payload = fake_metrics()
        payload["gauges"]["g"] = [1.0]
        with pytest.raises(ValueError, match="one mean per slice"):
            validate_metrics(payload)

    def test_metrics_rejects_wrong_schema(self):
        payload = fake_metrics()
        payload["schema"] = "nope/9"
        with pytest.raises(ValueError, match="schema"):
            validate_metrics(payload)

    def test_trace_rejects_inverted_span(self):
        payload = {
            "schema": "repro.observe.trace/1", "end_ns": 5.0,
            "trace_sample": 1.0, "trace_seed": 0,
            "spans": [{"trace_id": [0, 0], "kind": "transmit",
                       "start_ns": 5.0, "end_ns": 1.0}],
        }
        with pytest.raises(ValueError, match="start_ns <= end_ns"):
            validate_trace(payload)

    def test_chrome_rejects_unknown_phase(self):
        with pytest.raises(ValueError, match="phase"):
            validate_chrome_trace({"traceEvents": [
                {"name": "x", "ph": "Z", "pid": 0, "tid": 0}]})


# ---------------------------------------------------------------------------
# Timeline rendering.
# ---------------------------------------------------------------------------


class TestTimeline:
    def artifact(self):
        return {"digest": "deadbeef" * 4, "layer": "metrics",
                "machines": [fake_metrics()]}

    def test_available_and_points(self):
        from repro.analysis.timeline import (
            available_metrics,
            timeline_points,
        )

        artifact = self.artifact()
        assert available_metrics(artifact) == \
            [("counter", "c"), ("gauge", "g")]
        points = timeline_points(artifact, "g")
        assert points == {"m0": [(2.5, 0.0), (7.5, 1.0), (12.5, 2.0)]}

    def test_unknown_metric_lists_alternatives(self):
        from repro.analysis.timeline import timeline_points

        with pytest.raises(ValueError, match="available: c, g"):
            timeline_points(self.artifact(), "nope")

    def test_render_has_title_and_axis(self):
        from repro.analysis.timeline import render_timeline

        chart = render_timeline(self.artifact(), "g")
        assert "g @ deadbeefdead" in chart
        assert "t_ns" in chart


# ---------------------------------------------------------------------------
# Numeric flattening of result payloads.
# ---------------------------------------------------------------------------


class TestBench:
    def test_flatten_numeric(self):
        from repro.observe.ledger import flatten_numeric

        flat = flatten_numeric(
            {"b": {"y": 2, "x": 1.5}, "a": 3, "s": "skip", "t": True})
        assert flat == {"a": 3.0, "b.x": 1.5, "b.y": 2.0}


# ---------------------------------------------------------------------------
# CLI integration.
# ---------------------------------------------------------------------------


class TestObserveCLI:
    def run_args(self, tmp_path, *extra):
        args = ["run", "phase_loop", "--cache-dir",
                str(tmp_path / "cache")]
        for key, value in PHASE_PARAMS.items():
            args += ["--set", f"{key}={json.dumps(list(value))}"
                     if isinstance(value, tuple) else f"{key}={value}"]
        return args + list(extra)

    def test_run_observe_trace_export_and_timeline(self, tmp_path, capsys):
        out_file = tmp_path / "run.json"
        assert main(self.run_args(
            tmp_path, "--observe", "--trace", "--observe-period", "50",
            "-o", str(out_file))) == 0
        err = capsys.readouterr().err
        assert "observe: wrote" in err
        directory = observe_dir(tmp_path / "cache")
        rows = list_artifacts(directory)
        assert [row["layer"] for row in rows] == ["metrics", "trace"]
        digest = rows[0]["digest"]

        # trace list + export.
        assert main(["trace", "list", "--cache-dir",
                     str(tmp_path / "cache")]) == 0
        assert digest[:16] in capsys.readouterr().out
        exported = tmp_path / "trace.json"
        assert main(["trace", "export", "--digest", digest[:8],
                     "--cache-dir", str(tmp_path / "cache"),
                     "-o", str(exported)]) == 0
        chrome = json.loads(exported.read_text())
        validate_chrome_trace(chrome)
        assert chrome["traceEvents"]

        # timeline list and a concrete metric.
        assert main(["timeline", "list", "--digest", digest[:8],
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        listing = capsys.readouterr().out
        assert "machine/in_flight" in listing
        assert main(["timeline", "machine/in_flight",
                     "--digest", digest[:8],
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        assert "machine/in_flight" in capsys.readouterr().out

    def test_run_without_observe_writes_no_artifacts(self, tmp_path, capsys):
        assert main(self.run_args(tmp_path)) == 0
        capsys.readouterr()
        assert not observe_dir(tmp_path / "cache").exists()

    def test_trace_export_unknown_digest_fails_cleanly(self, tmp_path,
                                                       capsys):
        (tmp_path / "cache").mkdir()
        code = main(["trace", "export", "--digest", "ffff",
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 2
        assert "no trace artifact" in capsys.readouterr().err

    def test_cache_stats_json_round_trip(self, tmp_path, capsys):
        cache = ResultCache(tmp_path / "cache")
        cache.put("phase_loop", {"a": 1}, {"x": 1.0}, 0.1, version=2)
        cache.put("phase_loop", {"a": 2}, {"x": 2.0}, 0.1, version=2)
        cache.put("ghost", {"a": 1}, {"x": 1.0}, 0.1, version=1)
        assert main(["cache", "stats", "--json", "--cache-dir",
                     str(cache.root)]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_name = {row["experiment"]: row for row in payload["configs"]}
        assert by_name["phase_loop"]["entries"] == 2
        assert by_name["phase_loop"]["status"] == "current"
        assert by_name["ghost"]["status"] == "unregistered"
        assert payload["total"]["entries"] == 3
        stats = cache.stats_by_config()
        assert payload["total"]["bytes"] == \
            sum(bucket["bytes"] for bucket in stats.values())

    def test_cache_json_rejected_outside_stats(self, tmp_path, capsys):
        cache = ResultCache(tmp_path / "cache")
        cache.put("phase_loop", {"a": 1}, {"x": 1.0}, 0.1, version=2)
        with pytest.raises(SystemExit) as exit_info:
            main(["cache", "prune", "--json", "--cache-dir", str(cache.root)])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --json" in capsys.readouterr().err
