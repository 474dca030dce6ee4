"""Tests for cross-run observability (repro.observe.ledger / .status).

Covers the JSONL primitives (canonical lines, atomic concurrent-safe
appends), the determinism contract (ledger.jsonl byte-identical across
``--jobs`` splits; wall-clock telemetry segregated into status.jsonl),
the metrics rollup, ledger queries (list/show/diff), the live status
board, the orphaned-artifact sweep in ``cache prune``, per-VC timeline
expansion (``timeline ... --by vc``), and the CLI surface.
"""

import json
import multiprocessing

import pytest

from repro.observe import ObserveConfig
from repro.observe import context as observe_context
from repro.observe.ledger import (
    RunLedger,
    append_jsonl,
    canonical_line,
    diff_records,
    diff_table,
    flatten_numeric,
    latest_records,
    ledger_dir,
    ledger_table,
    metrics_rollup,
    read_jsonl,
    resolve_digest,
)
from repro.observe.schema import (
    validate_ledger_record,
    validate_status_event,
)
from repro.observe.status import (
    all_points_terminal,
    append_status,
    end_of_sweep_summary,
    fold_status,
    render_status_board,
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
# JSONL primitives.
# ---------------------------------------------------------------------------


def _append_many(args):
    """Worker for the concurrent-append test (module-level: picklable)."""
    path, writer, count = args
    for index in range(count):
        append_jsonl(path, {"writer": writer, "index": index})
    return writer


class TestJsonl:
    def test_canonical_line_is_sorted_compact_and_newline_terminated(self):
        line = canonical_line({"b": 2, "a": {"z": 1, "y": [1, 2]}})
        assert line == b'{"a":{"y":[1,2],"z":1},"b":2}\n'

    def test_append_read_roundtrip(self, tmp_path):
        path = tmp_path / "x.jsonl"
        append_jsonl(path, {"n": 1})
        append_jsonl(path, {"n": 2})
        assert read_jsonl(path) == [{"n": 1}, {"n": 2}]

    def test_read_missing_file_is_empty(self, tmp_path):
        assert read_jsonl(tmp_path / "absent.jsonl") == []

    def test_read_strict_raises_on_malformed_line(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"ok":1}\n{broken\n', encoding="utf-8")
        with pytest.raises(ValueError, match="malformed JSONL"):
            read_jsonl(path)
        assert read_jsonl(path, strict=False) == [{"ok": 1}]

    def test_concurrent_appends_never_tear_a_line(self, tmp_path):
        path = tmp_path / "shared.jsonl"
        writers, per_writer = 4, 50
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(writers) as pool:
            pool.map(
                _append_many,
                [(path, writer, per_writer) for writer in range(writers)],
            )
        records = read_jsonl(path)  # strict: any torn line would raise
        assert len(records) == writers * per_writer
        # Every (writer, index) pair arrived exactly once, and each
        # writer's own records kept their append order.
        seen = {(r["writer"], r["index"]) for r in records}
        assert len(seen) == writers * per_writer
        for writer in range(writers):
            ordered = [r["index"] for r in records if r["writer"] == writer]
            assert ordered == sorted(ordered)

    def test_flatten_numeric_skips_bools_and_sorts_keys(self):
        flat = flatten_numeric(
            {"b": {"y": 2, "x": True}, "a": 1.5, "s": "text"})
        assert flat == {"a": 1.5, "b.y": 2.0}


# ---------------------------------------------------------------------------
# Metrics rollup.
# ---------------------------------------------------------------------------


def fake_machine(injections=(3, 2), deliveries=(2, 3), stalls=(0, 1),
                 in_flight=(1.0, 3.0)):
    return {
        "end_ns": 100.0,
        "period_ns": 50.0,
        "counters": {
            "machine/injections": list(injections),
            "machine/deliveries": list(deliveries),
            "link/credit_stalls": list(stalls),
        },
        "gauges": {"machine/in_flight": list(in_flight)},
        "stats": {
            "histograms": {
                "packet_latency_ns": {
                    "lo": 0.0, "hi": 100.0, "counts": [4, 0, 0, 1],
                    "underflow": 0, "overflow": 0,
                },
            },
        },
    }


class TestMetricsRollup:
    def test_totals_and_percentiles(self):
        rollup = metrics_rollup([fake_machine(), fake_machine()])
        assert rollup["machines"] == 2
        assert rollup["injections"] == 10
        assert rollup["deliveries"] == 10
        assert rollup["credit_stalls"] == 2
        assert rollup["mean_in_flight"] == pytest.approx(2.0)
        # 8 of 10 samples land in [0, 25); the p99 crosses into the top
        # bin [75, 100).
        assert 0.0 < rollup["latency_p50_ns"] < 25.0
        assert 75.0 <= rollup["latency_p99_ns"] <= 100.0

    def test_empty_machines(self):
        rollup = metrics_rollup([])
        assert rollup["machines"] == 0
        assert rollup["mean_in_flight"] is None
        assert rollup["latency_p50_ns"] is None


# ---------------------------------------------------------------------------
# Sweep integration: determinism and the status stream.
# ---------------------------------------------------------------------------


class TestSweepLedger:
    def run_with_ledger(self, directory, jobs=1, observe=None, sweep=None):
        cache = ResultCache(directory / "cache")
        ledger = RunLedger(ledger_dir(cache.root), rev="testrev")
        result = run_sweep(
            sweep if sweep is not None else tiny_sweep(
                messages_per_node=[2, 4]),
            jobs=jobs,
            cache=cache,
            observe=observe,
            artifact_dir=directory / "cache" / "observe",
            ledger=ledger,
        )
        return result, cache, ledger

    def test_ledger_byte_identical_across_jobs(self, tmp_path):
        blobs = {}
        for jobs in (1, 4):
            __, __, ledger = self.run_with_ledger(
                tmp_path / f"jobs{jobs}", jobs=jobs)
            blobs[jobs] = ledger.record_path.read_bytes()
        assert blobs[1] == blobs[4]
        records = read_jsonl(
            (tmp_path / "jobs1" / "cache" / "ledger" / "ledger.jsonl"))
        assert [r["grid_index"] for r in records] == [0, 1]
        for record in records:
            validate_ledger_record(record)

    def test_status_stream_is_segregated_and_valid(self, tmp_path):
        __, __, ledger = self.run_with_ledger(tmp_path, jobs=4)
        events = ledger.status_events()
        for event in events:
            validate_status_event(event)
        by_state = {}
        for event in events:
            by_state.setdefault(event["state"], []).append(event["index"])
        assert sorted(by_state["queued"]) == [0, 1]
        assert sorted(by_state["running"]) == [0, 1]
        assert sorted(by_state["done"]) == [0, 1]
        assert all_points_terminal(events)

    def test_cache_hits_are_recorded(self, tmp_path):
        self.run_with_ledger(tmp_path)
        __, __, ledger = self.run_with_ledger(tmp_path)  # same cache
        records = ledger.records()
        assert [r["cached"] for r in records] == [False, False, True, True]
        hits = [e for e in ledger.status_events()
                if e["state"] == "cache-hit"]
        assert sorted(e["index"] for e in hits) == [0, 1]

    def test_observed_runs_carry_a_metrics_rollup(self, tmp_path):
        __, __, ledger = self.run_with_ledger(
            tmp_path, observe=ObserveConfig(metrics=True))
        for record in ledger.records():
            assert record["observed"] is True
            assert record["metrics"]["deliveries"] > 0
            validate_ledger_record(record)

    def test_ledger_off_leaves_results_and_cache_untouched(self, tmp_path):
        sweep = tiny_sweep(messages_per_node=[2, 4])
        plain_cache = ResultCache(tmp_path / "plain")
        plain = run_sweep(sweep, cache=plain_cache)
        ledgered, cache, ledger = self.run_with_ledger(
            tmp_path / "ledgered", sweep=sweep)
        assert ledgered.record() == plain.record()
        plain_keys = sorted(p.name for p in plain_cache.root.rglob("*.json"))
        ledgered_keys = sorted(
            p.name for p in cache.root.rglob("*.json")
            if "ledger" not in p.parts)
        assert plain_keys == ledgered_keys
        assert not ledger_dir(plain_cache.root).exists()

    def test_records_carry_no_wallclock_fields(self, tmp_path):
        __, __, ledger = self.run_with_ledger(tmp_path)
        for record in ledger.records():
            for forbidden in ("t", "worker", "elapsed_s", "wall_s"):
                assert forbidden not in record
        with pytest.raises(ValueError, match="status.jsonl"):
            validate_ledger_record(
                dict(ledger.records()[0], elapsed_s=1.0))


# ---------------------------------------------------------------------------
# Ledger queries.
# ---------------------------------------------------------------------------


def fake_record(digest, rev="aaa1111", params=None, result=None,
                metrics=None):
    return {
        "schema": "repro.observe.ledger/1",
        "rev": rev,
        "sweep": "s",
        "grid_index": 0,
        "experiment": "phase_loop",
        "version": 2,
        "digest": digest,
        "params": params or {"window": 2},
        "cached": False,
        "observed": metrics is not None,
        "result": result or {"mean_iteration_ns": 500.0},
        "metrics": metrics,
    }


class TestLedgerQueries:
    def test_latest_record_wins_per_digest(self):
        digest = "ab" * 32
        records = [
            fake_record(digest, rev="old1111"),
            fake_record(digest, rev="new2222"),
        ]
        assert latest_records(records)[digest]["rev"] == "new2222"

    def test_resolve_digest_prefix(self):
        records = [fake_record("aa" + "0" * 62),
                   fake_record("ab" + "0" * 62)]
        assert resolve_digest(records, "aa") == "aa" + "0" * 62
        with pytest.raises(KeyError):
            resolve_digest(records, "ff")
        with pytest.raises(ValueError, match="ambiguous"):
            resolve_digest(records, "a")

    def test_diff_self_is_identical(self):
        record = fake_record("cd" * 32)
        diff = diff_records(record, record)
        assert diff["identical"] is True
        assert "no deltas" in diff_table(diff)

    def test_diff_reports_param_result_and_metric_deltas(self):
        a = fake_record("aa" * 32, metrics={"deliveries": 100})
        b = fake_record(
            "bb" * 32, rev="bbb2222", params={"window": 4},
            result={"mean_iteration_ns": 1000.0},
            metrics={"deliveries": 150},
        )
        diff = diff_records(a, b)
        assert diff["identical"] is False
        assert diff["params"]["window"] == {"a": 2, "b": 4}
        assert diff["result"]["mean_iteration_ns"]["ratio"] == \
            pytest.approx(2.0)
        assert diff["metrics"]["deliveries"]["delta"] == 50
        text = diff_table(diff)
        assert "window: 2 -> 4" in text
        assert "2.000x" in text

    def test_ledger_table_lists_every_record(self):
        text = ledger_table(
            [fake_record("aa" * 32),
             fake_record("bb" * 32, metrics={"deliveries": 42})])
        assert "aaaaaaaaaaaaaaaa" in text
        assert "phase_loop" in text
        assert "42" in text


# ---------------------------------------------------------------------------
# The live status board.
# ---------------------------------------------------------------------------


def status_events(path):
    append_status(path, "s", 0, "queued", t=0.0)
    append_status(path, "s", 1, "queued", t=0.0)
    append_status(path, "s", 2, "queued", t=0.0)
    append_status(path, "s", 0, "running", t=1.0)
    append_status(path, "s", 0, "done", t=5.0, elapsed_s=4.0)
    append_status(path, "s", 1, "running", t=5.0)
    append_status(path, "s", 2, "cache-hit", t=0.5)
    return read_jsonl(path)


class TestStatusBoard:
    def test_append_rejects_unknown_state(self, tmp_path):
        with pytest.raises(ValueError, match="unknown status state"):
            append_status(tmp_path / "s.jsonl", "s", 0, "paused")

    def test_fold_keeps_latest_event_per_point(self, tmp_path):
        events = status_events(tmp_path / "s.jsonl")
        folded = fold_status(events)
        points = folded["sweeps"]["s"]["points"]
        assert points[0]["state"] == "done"
        assert points[1]["state"] == "running"
        assert points[2]["state"] == "cache-hit"
        assert not all_points_terminal(events)

    def test_board_shows_progress_bar_counts_and_eta(self, tmp_path):
        events = status_events(tmp_path / "s.jsonl")
        board = render_status_board(events, now=6.0)
        assert "s: 2/3 finished" in board
        assert "1 done, 1 cache-hit" in board
        assert "1 running" in board
        # 1 completed in 6s of activity -> 1 remaining ~6s out.
        assert "ETA 6s" in board
        assert "point #1 running on worker" in board

    def test_board_without_events(self):
        assert render_status_board([]) == "no sweep status recorded"

    def test_end_of_sweep_summary_flags_stragglers(self):
        runs = [(0, True, 0.0), (1, False, 1.0), (2, False, 1.1),
                (3, False, 5.0)]
        summary = end_of_sweep_summary("tiny", runs)
        assert "4 points, 1 cache hits (25% hit rate)" in summary
        assert "slowest: #3 5.00s" in summary
        assert "stragglers" in summary and "#3" in summary


# ---------------------------------------------------------------------------
# Cache hygiene: entry scans skip siblings; prune sweeps orphans.
# ---------------------------------------------------------------------------


class TestCacheArtifactHygiene:
    def seeded_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put("phase_loop", {"window": 2}, {"x": 1.0}, 0.1, version=2)
        return cache

    def test_sibling_files_are_not_entries(self, tmp_path):
        cache = self.seeded_cache(tmp_path)
        observe = cache.root / "observe"
        observe.mkdir()
        (observe / ("ff" * 32 + ".metrics.json")).write_text("{}")
        (cache.root / "ledger").mkdir()
        (cache.root / "ledger" / "ledger.jsonl").write_text("")
        assert len(cache) == 1
        stats = cache.stats_by_config()
        assert ("<corrupt>", 0) not in stats
        assert list(stats) == [("phase_loop", 2)]

    def test_prune_sweeps_orphaned_artifacts(self, tmp_path):
        cache = self.seeded_cache(tmp_path)
        from repro.runner.cache import config_digest

        live = config_digest("phase_loop", {"window": 2}, 2)
        observe = cache.root / "observe"
        observe.mkdir()
        (observe / f"{live}.metrics.json").write_text('{"layer":"metrics"}')
        orphan = observe / ("ee" * 32 + ".trace.json")
        orphan.write_text('{"layer":"trace"}')
        stats = cache.observe_stats()
        assert stats["artifacts"] == 2
        plan = cache.prune({"phase_loop": 2}, dry_run=True)
        assert plan["artifacts_removed"] == 1
        outcome = cache.prune({"phase_loop": 2})
        assert outcome["removed"] == 0 and outcome["kept"] == 1
        assert outcome["artifacts_removed"] == 1
        assert outcome["artifacts_freed_bytes"] > 0
        assert not orphan.exists()
        assert (observe / f"{live}.metrics.json").exists()

    def test_prune_of_stale_entry_orphans_its_artifact(self, tmp_path):
        cache = self.seeded_cache(tmp_path)
        from repro.runner.cache import config_digest

        digest = config_digest("phase_loop", {"window": 2}, 2)
        observe = cache.root / "observe"
        observe.mkdir()
        artifact = observe / f"{digest}.metrics.json"
        artifact.write_text('{"layer":"metrics"}')
        # A version bump strands both the entry and its artifact.
        outcome = cache.prune({"phase_loop": 3})
        assert outcome["removed"] == 1
        assert outcome["artifacts_removed"] == 1
        assert not artifact.exists()


# ---------------------------------------------------------------------------
# Per-VC timeline expansion.
# ---------------------------------------------------------------------------


def vc_artifact():
    machine = {
        "period_ns": 10.0,
        "gauges": {
            "link/host0.out/vc0/occupancy": [0.0, 1.0],
            "link/host0.out/vc1/occupancy": [2.0, 3.0],
            "machine/in_flight": [1.0, 1.0],
        },
        "counters": {},
    }
    return {"digest": "feedface" * 8, "layer": "metrics",
            "machines": [machine]}


class TestTimelineByVc:
    def test_family_expands_to_one_series_per_channel(self):
        from repro.analysis.timeline import timeline_points

        series = timeline_points(
            vc_artifact(), "link/host0.out/occupancy", by="vc")
        assert series == {
            "vc0": [(5.0, 0.0), (15.0, 1.0)],
            "vc1": [(5.0, 2.0), (15.0, 3.0)],
        }

    def test_unknown_family_lists_alternatives(self):
        from repro.analysis.timeline import timeline_points

        with pytest.raises(ValueError, match="--by vc"):
            timeline_points(vc_artifact(), "link/nope/occupancy", by="vc")
        with pytest.raises(ValueError, match="unsupported --by"):
            timeline_points(vc_artifact(), "machine/in_flight", by="node")

    def test_render_titles_the_expansion(self):
        from repro.analysis.timeline import render_timeline

        chart = render_timeline(
            vc_artifact(), "link/host0.out/occupancy", by="vc")
        assert "by vc" in chart
        assert "vc0" in chart and "vc1" in chart


# ---------------------------------------------------------------------------
# CLI surface.
# ---------------------------------------------------------------------------


class TestLedgerCli:
    def sweep_args(self, tmp_path, *extra):
        return [
            "run", "phase_loop",
            *[f"--set={k}={json.dumps(v)}" for k, v in PHASE_PARAMS.items()],
            "--cache-dir", str(tmp_path / "cache"),
            "--output", str(tmp_path / "out.json"),
            *extra,
        ]

    def test_run_records_and_ledger_list_show_diff(self, tmp_path, capsys):
        assert main(self.sweep_args(tmp_path)) == 0
        capsys.readouterr()
        cache_dir = str(tmp_path / "cache")
        assert main(["ledger", "list", "--cache-dir", cache_dir]) == 0
        listing = capsys.readouterr().out
        assert "phase_loop" in listing
        records = read_jsonl(tmp_path / "cache" / "ledger" / "ledger.jsonl")
        digest = records[0]["digest"]
        assert main(["ledger", "show", digest[:10],
                     "--cache-dir", cache_dir]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["digest"] == digest
        validate_ledger_record(shown)
        assert main(["ledger", "diff", digest[:10], digest[:10],
                     "--cache-dir", cache_dir]) == 0
        assert "no deltas" in capsys.readouterr().out

    def test_ledger_diff_json_self_compare_is_identical(
            self, tmp_path, capsys):
        assert main(self.sweep_args(tmp_path)) == 0
        capsys.readouterr()
        records = read_jsonl(tmp_path / "cache" / "ledger" / "ledger.jsonl")
        digest = records[0]["digest"]
        assert main(["ledger", "diff", digest, digest, "--json",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        diff = json.loads(capsys.readouterr().out)
        assert diff["identical"] is True
        assert diff["params"] == {} and diff["result"] == {}

    def test_status_board_after_run(self, tmp_path, capsys):
        assert main(self.sweep_args(tmp_path)) == 0
        capsys.readouterr()
        assert main(["status", "--cache-dir",
                     str(tmp_path / "cache")]) == 0
        board = capsys.readouterr().out
        assert "1/1 finished" in board
        assert "workers:" in board

    def test_no_ledger_flag_writes_nothing(self, tmp_path, capsys):
        assert main(self.sweep_args(tmp_path, "--no-ledger")) == 0
        assert not (tmp_path / "cache" / "ledger").exists()

    def test_empty_ledger_messages(self, tmp_path, capsys):
        (tmp_path / "cache").mkdir()
        cache_dir = str(tmp_path / "cache")
        assert main(["ledger", "list", "--cache-dir", cache_dir]) == 0
        assert main(["ledger", "show", "abcd",
                     "--cache-dir", cache_dir]) == 2
        assert "no ledger records" in capsys.readouterr().err

    def test_cache_stats_json_reports_observe_bytes(self, tmp_path, capsys):
        assert main(self.sweep_args(tmp_path, "--observe")) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--json",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["observe"]["artifacts"] == 1
        assert payload["observe"]["bytes"] > 0
        assert payload["observe"]["orphaned"] == 0

    def test_cli_timeline_by_vc(self, tmp_path, capsys):
        path = tmp_path / "artifact.json"
        path.write_text(json.dumps(vc_artifact()), encoding="utf-8")
        assert main(["timeline", "link/host0.out/occupancy",
                     "--by", "vc", "--artifact", str(path)]) == 0
        chart = capsys.readouterr().out
        assert "vc0" in chart and "vc1" in chart
