"""Tests for congestion forensics (repro.analysis.forensics).

Covers the pure-arithmetic analyses on hand-built payloads (per-hop
latency decomposition, backpressure attribution with downstream stall
charging, saturation trees, fence critical paths, topology heatmaps),
the diagnosis schema validator, the hotspot acceptance criterion (the
hotspot ejector is named the #1 root cause), byte identity of
``diagnose --json`` output across ``--jobs`` splits, and the ``repro-runner diagnose``
CLI plus its satellite surfaces (``trace export --packet``, ``ledger
list`` filters, ``cache stats`` ledger rollup).
"""

import json

import pytest

from repro.analysis.forensics import (
    backpressure_attribution,
    compare_diagnoses,
    diagnose_run,
    fence_critical_paths,
    hop_latency_decomposition,
    link_summaries,
    render_comparison,
    render_diagnosis,
    render_heatmap,
    topology_heatmaps,
)
from repro.observe import ObserveConfig
from repro.observe import context as observe_context
from repro.observe.artifacts import (
    find_artifact,
    list_artifacts,
    load_artifact,
    observe_dir,
)
from repro.observe.schema import (
    DIAGNOSIS_SCHEMA_ID,
    validate_diagnosis,
    validate_metrics,
)
from repro.runner import ParameterGrid, Sweep, run_sweep
from repro.runner.cli import main


@pytest.fixture(autouse=True)
def _clean_context():
    observe_context.deactivate()
    yield
    observe_context.deactivate()


# ---------------------------------------------------------------------------
# Hand-built payloads.
# ---------------------------------------------------------------------------


def span(trace_id, kind, start, end, **args):
    return {"trace_id": list(trace_id), "kind": kind,
            "start_ns": start, "end_ns": end, "args": args}


def trace_payload(spans):
    return {"schema": "repro.observe.trace/1", "end_ns": 1000.0,
            "trace_sample": 1.0, "trace_seed": 0, "spans": spans}


def metrics_payload(links=(), fences=(), dims=(2, 2, 1), **series):
    """A minimal metrics payload for the forensics readers.

    ``links`` rows are ``(name, src, dst, busy, vc_occupancies,
    vc_stalls)``; the gauge/counter series are synthesized from them.
    """
    gauges = {}
    counters = {}
    link_table = {}
    for name, src, dst, busy, occupancies, stalls in links:
        link_table[name] = {"src": src, "dst": dst,
                            "axis": 0, "sign": 1, "slice": 0}
        gauges[f"link/{name}/busy"] = [busy]
        total = 0
        for vc, occupancy in enumerate(occupancies):
            gauges[f"link/{name}/vc{vc}/occupancy"] = [occupancy]
            stall = stalls.get(vc, 0)
            counters[f"link/{name}/vc{vc}/stalls"] = stall
            total += stall
        counters[f"link/{name}/stalls"] = total
    return {
        "schema": "repro.observe.metrics/1",
        "end_ns": 1000.0, "period_ns": 1000.0, "slices": 1,
        "gauges": gauges, "counters": {},
        "stats": {"counters": counters, "summaries": {},
                  "histograms": {}, "series": {}},
        "topology": {"dims": list(dims)},
        "links": link_table,
        "fences": list(fences),
        **series,
    }


#: A 2x2x1 scenario: node 0 is the congestion root (two stalled
#: in-links, one saturated by busy, one by occupancy), node 1 feels
#: second-order pressure, and 0->3 is clean.
CONGESTED_LINKS = (
    ("a->0", 1, 0, 0.8, (0.5,), {0: 50}),      # saturated: busy
    ("b->0", 2, 0, 0.1, (3.0, 0.0), {0: 15, 1: 5}),  # saturated: occupancy
    ("c->1", 3, 1, 0.2, (0.5,), {0: 5}),       # stalled, not saturated
    ("d->3", 0, 3, 0.1, (0.2,), {}),           # clean
)


class TestHopLatencyDecomposition:
    def test_components_sum_to_end_to_end(self):
        spans = [
            span((0, 1), "inject", 0.0, 2.0),
            span((0, 1), "queue", 2.0, 7.0),
            span((0, 1), "transmit", 7.0, 17.0, ser_ns=6.0),
            span((0, 1), "eject", 90.0, 93.0),
            span((0, 1), "deliver", 100.0, 100.0, hops=2),
            # A second packet still in flight at end of run.
            span((0, 2), "inject", 50.0, 52.0),
            # A 1-hop packet whose transmit predates the ser_ns arg.
            span((1, 1), "inject", 0.0, 1.0),
            span((1, 1), "transmit", 1.0, 9.0),
            span((1, 1), "deliver", 20.0, 20.0, hops=1),
        ]
        latency = hop_latency_decomposition(trace_payload(spans))
        assert latency["packets"] == 2
        assert latency["in_flight"] == 1
        assert [row["hops"] for row in latency["classes"]] == [1, 2]
        two = latency["classes"][1]
        mean = two["mean_ns"]
        assert mean["inject"] == 2.0
        assert mean["queue"] == 5.0
        assert mean["serialization"] == 6.0
        assert mean["propagation"] == 4.0
        assert mean["eject"] == 3.0
        # Router is the remainder, so the components sum exactly.
        assert mean["router"] == 100.0 - (2.0 + 5.0 + 6.0 + 4.0 + 3.0)
        assert sum(mean.values()) == pytest.approx(two["end_to_end_ns"])
        # Pre-forensics transmit spans count wholly as serialization.
        one = latency["classes"][0]
        assert one["mean_ns"]["serialization"] == 8.0
        assert one["mean_ns"]["propagation"] == 0.0

    def test_empty_or_undelivered_trace_is_none(self):
        assert hop_latency_decomposition(trace_payload([])) is None
        only_in_flight = [span((0, 1), "inject", 0.0, 1.0)]
        assert hop_latency_decomposition(
            trace_payload(only_in_flight)) is None


class TestBackpressureAttribution:
    def test_link_summaries_classify_saturation(self):
        rows = {row["link"]: row
                for row in link_summaries(metrics_payload(CONGESTED_LINKS))}
        assert rows["a->0"]["saturated"] and rows["a->0"]["stalls"] == 50
        assert rows["b->0"]["saturated"]  # occupancy threshold
        assert rows["b->0"]["vc_stalls"] == {"0": 15, "1": 5}
        assert not rows["c->1"]["saturated"] and rows["c->1"]["stalls"] == 5
        assert not rows["d->3"]["saturated"] and not rows["d->3"]["stalls"]

    def test_stalls_charge_the_downstream_node(self):
        attribution = backpressure_attribution(metrics_payload(CONGESTED_LINKS))
        assert attribution["total_stalls"] == 75
        # Saturated/stalled rows sorted by stalls; the clean link absent.
        assert [row["link"] for row in attribution["saturated"]] == \
            ["a->0", "b->0", "c->1"]
        causes = attribution["root_causes"]
        assert causes[0]["node"] == 0
        assert causes[0]["inflow_stalls"] == 70
        assert causes[0]["saturated_in"] == ["a->0", "b->0"]
        assert causes[1]["node"] == 1 and causes[1]["inflow_stalls"] == 5

    def test_saturation_tree_grows_upstream(self):
        attribution = backpressure_attribution(metrics_payload(CONGESTED_LINKS))
        tree = attribution["trees"][0]
        assert tree["root"] == 0
        edges = {(edge["link"], edge["depth"]) for edge in tree["edges"]}
        # Depth 1: the stalled in-links of node 0; depth 2: pressure on
        # their upstream senders (c->1 feeds sender 1 of a->0).
        assert ("a->0", 1) in edges and ("b->0", 1) in edges
        assert ("c->1", 2) in edges
        assert "d->3" not in {link for link, _ in edges}

    def test_cyclic_backpressure_terminates(self):
        ring = (
            ("x->y", 0, 1, 0.9, (1.0,), {0: 10}),
            ("y->x", 1, 0, 0.9, (1.0,), {0: 10}),
        )
        attribution = backpressure_attribution(metrics_payload(ring))
        tree = attribution["trees"][0]
        # Each link appears at most once despite the cycle.
        links = [edge["link"] for edge in tree["edges"]]
        assert sorted(links) == ["x->y", "y->x"]


class TestFenceCriticalPath:
    def test_straggler_and_incident_congested_links(self):
        fences = [{"fence_id": 3, "straggler": 0, "start_ns": 10.0,
                   "first_ns": 20.0, "last_ns": 50.0, "completions": 4}]
        paths = fence_critical_paths(
            metrics_payload(CONGESTED_LINKS, fences=fences))
        assert paths["count"] == 1
        (path,) = paths["critical_paths"]
        assert path["fence_id"] == 3 and path["straggler"] == 0
        assert path["wait_ns"] == 40.0 and path["spread_ns"] == 30.0
        # Congested links incident to the straggler, busiest first; the
        # clean 0->3 link is excluded even though it touches node 0.
        assert path["congested_links"] == ["a->0", "b->0"]

    def test_no_fences(self):
        paths = fence_critical_paths(metrics_payload(CONGESTED_LINKS))
        assert paths == {"count": 0, "critical_paths": []}


class TestTopologyHeatmaps:
    def test_stalls_charge_dst_occupancy_charges_src(self):
        heatmaps = {h["metric"]: h
                    for h in topology_heatmaps(metrics_payload(CONGESTED_LINKS))}
        stalls = heatmaps["stalls"]["values"]
        assert stalls == [70.0, 5.0, 0.0, 0.0]
        occupancy = heatmaps["occupancy"]["values"]
        assert occupancy[0] == pytest.approx(0.2)  # 0->3 queues at node 0
        assert occupancy[1] == pytest.approx(0.5)  # a->0 queues at node 1
        assert occupancy[2] == pytest.approx(3.0)

    def test_missing_topology_section_yields_no_heatmaps(self):
        metrics = metrics_payload(CONGESTED_LINKS)
        del metrics["topology"]
        assert topology_heatmaps(metrics) == []

    def test_render_heatmap_marks_the_peak(self):
        (stalls, _) = topology_heatmaps(metrics_payload(CONGESTED_LINKS))
        text = render_heatmap(stalls)
        assert "peak 70" in text
        assert "z=0" in text
        grid = [line for line in text.splitlines()
                if line.startswith("    ")]
        assert len(grid) == 2  # y rows of the single z plane
        # The peak node renders the densest ramp character.
        assert "@" in grid[0]


# ---------------------------------------------------------------------------
# Whole-run diagnosis payloads, schema, rendering, comparison.
# ---------------------------------------------------------------------------


def synthetic_diagnosis():
    metrics = {"machines": [metrics_payload(CONGESTED_LINKS)]}
    trace = {"machines": [trace_payload([
        span((0, 1), "inject", 0.0, 2.0),
        span((0, 1), "transmit", 2.0, 12.0, ser_ns=6.0),
        span((0, 1), "deliver", 40.0, 40.0, hops=1),
    ])]}
    return diagnose_run(metrics, trace)


class TestDiagnoseRun:
    def test_payload_shape_and_schema(self):
        (machine,) = synthetic_diagnosis()
        assert machine["schema"] == DIAGNOSIS_SCHEMA_ID
        validate_diagnosis(machine)
        assert machine["latency"]["packets"] == 1
        assert machine["backpressure"]["root_causes"][0]["node"] == 0
        assert machine["heatmaps"][0]["metric"] == "stalls"

    def test_missing_trace_leaves_latency_null(self):
        (machine,) = diagnose_run(
            {"machines": [metrics_payload(CONGESTED_LINKS)]})
        assert machine["latency"] is None
        validate_diagnosis(machine)

    def test_render_diagnosis_names_the_root_cause(self):
        machines = synthetic_diagnosis()
        report = render_diagnosis("ab" * 32, machines)
        assert "backpressure attribution" in report
        assert "#1 node n0" in report
        assert "saturation tree rooted at n0" in report
        assert "per-hop latency decomposition" in report
        assert "stalls by torus coordinate" in report

    def test_validate_diagnosis_rejects_bad_payloads(self):
        (machine,) = synthetic_diagnosis()
        wrong_schema = dict(machine, schema="repro.observe.metrics/1")
        with pytest.raises(ValueError, match="diagnosis schema"):
            validate_diagnosis(wrong_schema)
        broken_sum = json.loads(json.dumps(machine))
        broken_sum["latency"]["classes"][0]["mean_ns"]["router"] += 1.0
        with pytest.raises(ValueError, match="sum to end_to_end_ns"):
            validate_diagnosis(broken_sum)
        short_heatmap = json.loads(json.dumps(machine))
        short_heatmap["heatmaps"][0]["values"].pop()
        with pytest.raises(ValueError, match="one value per node"):
            validate_diagnosis(short_heatmap)


class TestCompareDiagnoses:
    def test_diff_and_rendering(self):
        machines = synthetic_diagnosis()
        a = {"digest": "a" * 64, "machines": machines}
        quiet = metrics_payload(CONGESTED_LINKS[2:])  # only c->1 and d->3
        b = {"digest": "b" * 64,
             "machines": diagnose_run({"machines": [quiet]})}
        diff = compare_diagnoses(a, b)
        assert diff["stalls"] == {"a": 75, "b": 5}
        assert diff["saturated"]["only_a"] == ["a->0", "b->0"]
        assert diff["saturated"]["common"] == ["c->1"]
        assert diff["root_causes"]["a"][0] == 0
        (row,) = diff["latency"]
        assert row["hops"] == 1 and row["b_ns"] is None
        report = render_comparison(diff)
        assert "credit stalls: A=75 B=5 (delta -70)" in report
        assert "only in A: a->0" in report


# ---------------------------------------------------------------------------
# Acceptance: hotspot traffic names the hotspot ejector as root cause.
# ---------------------------------------------------------------------------

#: One observed hotspot load point past saturation: every node floods
#: the (0,0,0) ejector (node id 0).
HOTSPOT_PARAMS = {
    "dims": (2, 2, 2),
    "chip_cols": 6,
    "chip_rows": 6,
    "pattern": "hotspot",
    "offered_load": 0.9,
    "machine_seed": 7,
    "traffic_seed": 11,
    "warmup_ns": 400.0,
    "measure_ns": 1600.0,
}


@pytest.fixture(scope="module")
def hotspot_diagnosis(tmp_path_factory):
    directory = tmp_path_factory.mktemp("hotspot") / "observe"
    sweep = Sweep("route_ablation", ParameterGrid(HOTSPOT_PARAMS),
                  label="forensics-hotspot")
    run_sweep(sweep, observe=ObserveConfig(metrics=True, trace=True),
              artifact_dir=directory)
    (row,) = [r for r in list_artifacts(directory) if r["layer"] == "metrics"]
    metrics = load_artifact(row["path"])
    trace = load_artifact(
        find_artifact(directory, row["digest"], "trace"))
    return metrics, diagnose_run(metrics, trace)


class TestHotspotAcceptance:
    def test_metrics_artifact_carries_forensics_sections(
            self, hotspot_diagnosis):
        metrics, _ = hotspot_diagnosis
        (machine,) = metrics["machines"]
        validate_metrics(machine)
        assert machine["topology"]["dims"] == [2, 2, 2]
        assert machine["links"]  # endpoint table present

    def test_hotspot_ejector_is_top_root_cause(self, hotspot_diagnosis):
        _, machines = hotspot_diagnosis
        (machine,) = machines
        validate_diagnosis(machine)
        backpressure = machine["backpressure"]
        assert backpressure["total_stalls"] > 0
        top = backpressure["root_causes"][0]
        assert top["node"] == 0  # the hotspot ejector, node (0,0,0)
        assert top["inflow_stalls"] > 0
        # The heaviest saturated links all terminate at the hotspot.
        heavy = backpressure["saturated"][:3]
        assert all(row["dst"] == 0 for row in heavy)
        # And the stall heatmap peaks there too.
        stalls = [h for h in machine["heatmaps"]
                  if h["metric"] == "stalls"][0]
        assert max(stalls["values"]) == stalls["values"][0]

    def test_decomposition_sums_to_measured_latency(self, hotspot_diagnosis):
        _, machines = hotspot_diagnosis
        latency = machines[0]["latency"]
        assert latency is not None and latency["packets"] > 0
        for row in latency["classes"]:
            assert sum(row["mean_ns"].values()) == \
                pytest.approx(row["end_to_end_ns"])


# ---------------------------------------------------------------------------
# Determinism: diagnoses are byte-identical across --jobs.
# ---------------------------------------------------------------------------


class TestDiagnosisDeterminism:
    def test_diagnosis_byte_identical_across_jobs(self, tmp_path, capsys):
        grid = ParameterGrid({
            "dims": [(2, 1, 1)],
            "chip_cols": 6, "chip_rows": 6,
            "pattern": "uniform",
            "offered_load": [0.05, 0.2],
            "machine_seed": 7, "traffic_seed": 11,
            "warmup_ns": 200.0, "measure_ns": 600.0,
        })
        sweep = Sweep("route_ablation", grid, label="forensics-smoke")
        observe = ObserveConfig(metrics=True, trace=True, period_ns=50.0)
        digests = None
        for jobs in (1, 4):
            cache_root = tmp_path / f"jobs{jobs}"
            run_sweep(sweep, jobs=jobs, observe=observe,
                      artifact_dir=observe_dir(cache_root))
            rows = [r for r in list_artifacts(observe_dir(cache_root))
                    if r["layer"] == "metrics"]
            found = sorted(row["digest"] for row in rows)
            assert digests is None or found == digests
            digests = found
            for digest in digests:
                assert main(["diagnose", digest, "--json", "--cache-dir",
                             str(cache_root), "-o",
                             str(tmp_path / f"{digest}.jobs{jobs}.json")
                             ]) == 0
        capsys.readouterr()
        assert len(digests) == 2
        for digest in digests:
            blobs = [
                (tmp_path / f"{digest}.jobs{jobs}.json").read_bytes()
                for jobs in (1, 4)
            ]
            assert blobs[0] == blobs[1]
            for machine in json.loads(blobs[0])["machines"]:
                validate_diagnosis(machine)


# ---------------------------------------------------------------------------
# CLI surface: diagnose, trace --packet, ledger filters, cache stats.
# ---------------------------------------------------------------------------

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


class TestForensicsCLI:
    def run_args(self, tmp_path, *extra, **overrides):
        params = dict(PHASE_PARAMS, **overrides)
        args = ["run", "phase_loop", "--cache-dir",
                str(tmp_path / "cache")]
        for key, value in params.items():
            args += ["--set", f"{key}={json.dumps(list(value))}"
                     if isinstance(value, tuple) else f"{key}={value}"]
        return args + list(extra)

    def observed_digest(self, tmp_path, capsys, **overrides):
        before = {row["digest"]
                  for row in list_artifacts(observe_dir(tmp_path / "cache"))}
        assert main(self.run_args(
            tmp_path, "--observe", "--trace", "-o",
            str(tmp_path / "run.json"), **overrides)) == 0
        capsys.readouterr()
        fresh = {row["digest"]
                 for row in list_artifacts(observe_dir(tmp_path / "cache"))
                 if row["layer"] == "metrics"} - before
        (digest,) = fresh
        return digest

    def test_diagnose_writes_artifact_and_reports(self, tmp_path, capsys):
        digest = self.observed_digest(tmp_path, capsys)
        assert main(["diagnose", digest[:12], "--cache-dir",
                     str(tmp_path / "cache")]) == 0
        captured = capsys.readouterr()
        assert "backpressure attribution" in captured.out
        assert "per-hop latency decomposition" in captured.out
        # --json -o writes the diagnosis payload where it is asked to.
        path = tmp_path / "diagnosis.json"
        assert main(["diagnose", digest[:12], "--json", "-o", str(path),
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        assert f"wrote {path}" in capsys.readouterr().err
        artifact = load_artifact(path)
        assert artifact["layer"] == "diagnosis"
        for machine in artifact["machines"]:
            validate_diagnosis(machine)

    def test_diagnose_json_no_write(self, tmp_path, capsys):
        digest = self.observed_digest(tmp_path, capsys)
        assert main(["diagnose", digest[:12], "--json",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["digest"] == digest
        assert payload["layer"] == "diagnosis"
        # Nothing is stored beside the run's metrics/trace artifacts.
        layers = [row["layer"]
                  for row in list_artifacts(observe_dir(tmp_path / "cache"))]
        assert layers == ["metrics", "trace"]
        assert not list(observe_dir(tmp_path / "cache").glob("*diagnosis*"))

    def test_diagnose_unknown_digest_fails_cleanly(self, tmp_path, capsys):
        (tmp_path / "cache").mkdir()
        assert main(["diagnose", "ffff", "--cache-dir",
                     str(tmp_path / "cache")]) == 2
        err = capsys.readouterr().err
        assert "no metrics artifact" in err and "--observe" in err

    def test_diagnose_compare_two_runs(self, tmp_path, capsys):
        first = self.observed_digest(tmp_path, capsys)
        second = self.observed_digest(tmp_path, capsys,
                                      messages_per_node=8)
        assert first != second
        assert main(["diagnose", first[:12], "--compare", second[:12],
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert f"comparing {first[:16]}" in out
        assert "credit stalls: A=" in out

    def test_trace_export_packet_filter(self, tmp_path, capsys):
        digest = self.observed_digest(tmp_path, capsys)
        exported = tmp_path / "packet.json"
        assert main(["trace", "export", "--digest", digest[:12],
                     "--packet", "0,0", "--cache-dir",
                     str(tmp_path / "cache"), "-o", str(exported)]) == 0
        payload = json.loads(exported.read_text())
        names = {event["name"] for event in payload["traceEvents"]
                 if event["ph"] != "M"}
        assert names and names <= {
            "inject", "queue", "transmit", "eject", "deliver"}

    def test_trace_export_packet_no_match(self, tmp_path, capsys):
        digest = self.observed_digest(tmp_path, capsys)
        assert main(["trace", "export", "--digest", digest[:12],
                     "--packet", "999,999", "--cache-dir",
                     str(tmp_path / "cache")]) == 2
        assert "no spans for packet" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["1", "a,b", "-1,2", "1,2,3"])
    def test_trace_export_packet_bad_spec(self, tmp_path, capsys, spec):
        digest = self.observed_digest(tmp_path, capsys)
        assert main(["trace", "export", "--digest", digest[:12],
                     f"--packet={spec}", "--cache-dir",
                     str(tmp_path / "cache")]) == 2
        assert "--packet" in capsys.readouterr().err

    def test_cache_stats_reports_ledger(self, tmp_path, capsys):
        self.observed_digest(tmp_path, capsys)
        cache_dir = str(tmp_path / "cache")
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "ledger: 1 run records" in capsys.readouterr().out
        assert main(["cache", "stats", "--json",
                     "--cache-dir", cache_dir]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ledger"]["records"] == 1
        assert payload["ledger"]["status_events"] >= 1
        assert payload["ledger"]["bytes"] > 0

    def test_ledger_list_filters(self, tmp_path, capsys):
        self.observed_digest(tmp_path, capsys)
        cache_dir = str(tmp_path / "cache")
        assert main(["ledger", "list", "--experiment", "phase_loop",
                     "--cache-dir", cache_dir]) == 0
        assert "phase_loop" in capsys.readouterr().out
        assert main(["ledger", "list", "--experiment", "nope",
                     "--cache-dir", cache_dir]) == 0
        assert "no ledger records match" in capsys.readouterr().err
        assert main(["ledger", "list", "--sweep", "nope",
                     "--cache-dir", cache_dir]) == 0
        assert "no ledger records match" in capsys.readouterr().err

    def test_ledger_filters_rejected_outside_list(self, tmp_path, capsys):
        self.observed_digest(tmp_path, capsys)
        with pytest.raises(SystemExit) as exit_info:
            main(["ledger", "show", "abcd", "--experiment", "phase_loop",
                  "--cache-dir", str(tmp_path / "cache")])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --experiment" in \
            capsys.readouterr().err
