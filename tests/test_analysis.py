"""Tests for fits, the area model, activity traces, and report helpers."""

import numpy as np
import pytest

from repro.analysis import (
    ActivityTrace,
    AreaModel,
    Comparison,
    LinearFit,
    analyze_load_sweep,
    analyze_window_sweep,
    closed_vs_open_table,
    comparison_table,
    detect_knee,
    detect_saturation,
    fit_latency_vs_hops,
    format_table,
    grouped_percentile_table,
    grouped_percentiles,
    load_sweep_table,
    load_sweep_tables,
    percentile,
    phase_loop_table,
    render_ascii,
    summarize_values,
    trace_from_breakdowns,
    window_sweep_table,
    window_sweep_tables,
    within_band,
)
from repro.fullsim.timestep import TimestepBreakdown
from repro.fullsim.traffic import StepTraffic


class TestLinearFit:
    def test_exact_line_recovered(self):
        points = {h: 55.9 + 34.2 * h for h in range(1, 9)}
        fit = fit_latency_vs_hops(points)
        assert fit.fixed_ns == pytest.approx(55.9)
        assert fit.per_hop_ns == pytest.approx(34.2)
        assert fit.r_squared == pytest.approx(1.0)

    def test_zero_hop_excluded_by_default(self):
        points = {0: 20.0}
        points.update({h: 50.0 + 30.0 * h for h in range(1, 5)})
        fit = fit_latency_vs_hops(points)
        assert fit.fixed_ns == pytest.approx(50.0)

    def test_predict(self):
        fit = LinearFit(fixed_ns=10.0, per_hop_ns=5.0, r_squared=1.0)
        assert fit.predict(4) == 30.0

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_latency_vs_hops({1: 10.0})


class TestAreaModel:
    def test_table2_matches_paper(self):
        model = AreaModel()
        rows = {r.name: r for r in model.component_rows()}
        assert rows["Core Routers"].percent_of_die == pytest.approx(9.4)
        assert rows["Edge Routers"].percent_of_die == pytest.approx(1.4)
        assert rows["Channel Adapters"].percent_of_die == pytest.approx(2.8)
        assert rows["Row Adapters"].percent_of_die == pytest.approx(0.5)
        assert model.network_total_percent() == pytest.approx(14.1, abs=0.05)

    def test_table3_matches_paper(self):
        model = AreaModel()
        rows = {r.name: r for r in model.feature_rows()}
        assert rows["Particle Cache"].percent_of_die == pytest.approx(1.6)
        assert rows["Network Fence"].percent_of_die == pytest.approx(0.2)
        assert model.feature_total_percent() == pytest.approx(1.8, abs=0.01)

    def test_component_counts_match_paper(self):
        model = AreaModel()
        counts = {r.name: r.count for r in model.component_rows()}
        assert counts == {"Core Routers": 288, "Edge Routers": 72,
                          "Channel Adapters": 24, "Row Adapters": 72}

    def test_pcache_scaling(self):
        doubled = AreaModel(pcache_entries=2048)
        base = AreaModel()
        rows_d = {r.name: r for r in doubled.feature_rows()}
        rows_b = {r.name: r for r in base.feature_rows()}
        assert rows_d["Particle Cache"].percent_of_die == pytest.approx(
            2 * rows_b["Particle Cache"].percent_of_die)
        # CA area grows by the extra pcache SRAM.
        ca_d = {r.name: r for r in doubled.component_rows()}
        ca_b = {r.name: r for r in base.component_rows()}
        assert (ca_d["Channel Adapters"].area_mm2
                > ca_b["Channel Adapters"].area_mm2)

    def test_fence_counter_scaling(self):
        halved = AreaModel(fence_counters_per_edge_input=48)
        rows = {r.name: r for r in halved.feature_rows()}
        assert rows["Network Fence"].percent_of_die == pytest.approx(0.1)


class TestActivityTrace:
    def make_trace(self):
        trace = ActivityTrace(components=["a", "b"])
        trace.add("a", 0.0, 10.0)
        trace.add("b", 5.0, 15.0)
        return trace

    def test_utilization(self):
        trace = self.make_trace()
        assert trace.utilization("a", 0.0, 10.0) == pytest.approx(1.0)
        assert trace.utilization("a", 0.0, 20.0) == pytest.approx(0.5)
        assert trace.utilization("b", 0.0, 10.0) == pytest.approx(0.5)
        assert trace.utilization("a", 50.0, 60.0) == 0.0

    def test_validation(self):
        trace = self.make_trace()
        with pytest.raises(ValueError):
            trace.add("c", 0.0, 1.0)
        with pytest.raises(ValueError):
            trace.add("a", 5.0, 1.0)

    def test_trace_from_breakdowns(self):
        breakdown = TimestepBreakdown(
            channel_ns=100.0, ppim_ns=30.0, integration_ns=10.0,
            sync_ns=5.0, pipeline_fill_ns=2.0)
        traffic = StepTraffic(position_bits=600, force_bits=400)
        trace = trace_from_breakdowns([breakdown], [traffic])
        # Position window is 60% of the channel window.
        assert trace.utilization("channel:positions", 2.0, 62.0) == \
            pytest.approx(1.0)
        assert trace.utilization("channel:forces", 62.0, 102.0) == \
            pytest.approx(1.0)
        assert trace.end_ns == pytest.approx(breakdown.total_ns)

    def test_render_ascii_shape(self):
        trace = self.make_trace()
        text = render_ascii(trace, bins=10)
        lines = text.splitlines()
        assert len(lines) == 12  # header + rule + 10 bins
        assert "a" in lines[0] and "b" in lines[0]

    def test_render_validates_bins(self):
        with pytest.raises(ValueError):
            render_ascii(self.make_trace(), bins=0)


class TestPercentiles:
    def test_percentile_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 100.0) == 4.0
        assert percentile(values, 50.0) == pytest.approx(2.5)
        assert percentile([7.0], 99.0) == 7.0

    def test_percentile_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)

    def test_summarize_values_columns(self):
        summary = summarize_values([float(v) for v in range(1, 101)])
        assert summary["count"] == 100
        assert summary["mean"] == pytest.approx(50.5)
        assert summary["max"] == 100.0
        assert summary["p50"] == pytest.approx(50.5)
        assert summary["p95"] == pytest.approx(95.05)
        assert summary["p99"] == pytest.approx(99.01)

    def test_grouped_percentiles_by_sweep_key(self):
        runs = []
        for hops in (1, 2):
            for latency in (10.0 * hops, 20.0 * hops, 30.0 * hops):
                runs.append({"params": {"hops": hops},
                             "result": {"one_way_ns": latency}})
        groups = grouped_percentiles(runs, by="hops", value="one_way_ns")
        assert set(groups) == {1, 2}
        assert groups[1]["mean"] == pytest.approx(20.0)
        assert groups[2]["p50"] == pytest.approx(40.0)
        assert groups[1]["count"] == 3

    def test_grouped_percentiles_numeric_key_order(self):
        runs = [{"params": {"hops": h}, "result": {"ns": 1.0}}
                for h in (10, 2, 1)]
        groups = grouped_percentiles(runs, by="hops", value="ns")
        assert list(groups) == [1, 2, 10]

    def test_grouped_percentiles_nested_result_keys(self):
        runs = [{"params": {"load": 0.1},
                 "result": {"latency": {"mean": 5.0}}}]
        groups = grouped_percentiles(runs, by="load", value="latency.mean")
        assert groups[0.1]["count"] == 1

    def test_grouped_percentile_table_renders(self):
        runs = [{"params": {"hops": 1}, "result": {"ns": 10.0}}]
        text = grouped_percentile_table(runs, by="hops", value="ns",
                                        title="per hop")
        assert "per hop" in text and "p99" in text
        assert "(no samples)" in grouped_percentile_table(
            [], by="hops", value="ns")


def _load_run(load, mean_latency, accepted=None, pattern="uniform"):
    return {
        "params": {"offered_load": load},
        "result": {
            "offered_load": load,
            "pattern": pattern,
            "accepted_load": accepted if accepted is not None else load,
            "classes": {"request": {"latency_ns": {"mean": mean_latency}}},
        },
    }


class TestSaturation:
    def test_detect_interpolates_crossing(self):
        loads = [0.1, 0.5, 0.9]
        latencies = [100.0, 110.0, 500.0]
        # Threshold 300 crossed between 0.5 and 0.9.
        point = detect_saturation(loads, latencies, latency_multiple=3.0)
        assert point == pytest.approx(0.5 + 0.4 * (300 - 110) / (500 - 110))

    def test_detect_none_when_flat(self):
        assert detect_saturation([0.1, 0.5], [100.0, 120.0]) is None

    def test_detect_validation(self):
        with pytest.raises(ValueError):
            detect_saturation([0.5, 0.1], [1.0, 2.0])
        with pytest.raises(ValueError):
            detect_saturation([], [])
        with pytest.raises(ValueError):
            detect_saturation([0.1], [1.0], latency_multiple=1.0)

    def test_analyze_load_sweep_sorts_and_detects(self):
        runs = [_load_run(0.9, 400.0, accepted=0.6),
                _load_run(0.1, 100.0),
                _load_run(0.5, 110.0)]
        analysis = analyze_load_sweep(runs)
        assert analysis.pattern == "uniform"
        assert analysis.zero_load_latency_ns == 100.0
        assert [p[0] for p in analysis.points] == [0.1, 0.5, 0.9]
        assert analysis.saturated
        assert 0.5 < analysis.saturation_load < 0.9
        assert analysis.to_dict()["saturation_load"] == pytest.approx(
            analysis.saturation_load)

    def test_analyze_rejects_mixed_patterns_and_empty(self):
        with pytest.raises(ValueError):
            analyze_load_sweep([_load_run(0.1, 1.0, pattern="uniform"),
                                _load_run(0.2, 1.0, pattern="neighbor")])
        with pytest.raises(ValueError):
            analyze_load_sweep([{"params": {}, "result": {}}])

    def test_load_sweep_table_mentions_saturation(self):
        runs = [_load_run(0.1, 100.0), _load_run(0.9, 500.0, accepted=0.6)]
        text = load_sweep_table(runs, title="sweep")
        assert "sweep" in text
        assert "saturation at offered load" in text
        flat = load_sweep_table([_load_run(0.1, 100.0)])
        assert "no saturation" in flat


def _fault_run(faults, mean_latency, accepted, load=1.0):
    run = _load_run(load, mean_latency, accepted=accepted)
    run["params"]["num_faults"] = faults
    return run


class TestFaultDegradation:
    def test_fault_sweep_is_one_table_by_fault_count(self):
        runs = [_fault_run(4, 400.0, 0.6), _fault_run(0, 200.0, 0.8),
                _fault_run(12, 300.0, 0.4)]
        text = load_sweep_tables(runs, title="fault-sweep")
        lines = text.splitlines()
        assert lines[0] == "fault-sweep [uniform by fault count]"
        assert lines[1].split() == ["faults", "offered", "load", "mean",
                                    "latency", "ns", "accepted", "load"]
        assert [line.split() for line in lines[3:6]] == [
            ["0", "1.000", "200.0", "0.800"],
            ["4", "1.000", "400.0", "0.600"],
            ["12", "1.000", "300.0", "0.400"]]
        assert lines[6] == ("uniform: accepted load 0.800 at 0 faults "
                            "-> 0.400 at 12 faults")
        assert len(lines) == 7

    def test_healthy_curves_keep_their_tables(self):
        healthy = [_load_run(0.1, 100.0), _load_run(0.9, 500.0, accepted=0.6)]
        mixed = healthy + [_fault_run(0, 200.0, 0.8),
                           _fault_run(4, 400.0, 0.6)]
        alone = load_sweep_tables(healthy, title="t")
        assert alone == load_sweep_table(healthy, title="t [uniform]")
        text = load_sweep_tables(mixed, title="t")
        assert text.startswith(alone + "\n\n")
        assert "[uniform by fault count]" in text

    def test_faulted_load_sweeps_stay_curves(self):
        """Several offered loads per fault count are latency-vs-load
        curves, one table per fault count."""
        runs = [_fault_run(2, 100.0, 0.1, load=0.1),
                _fault_run(2, 500.0, 0.6, load=0.9)]
        text = load_sweep_tables(runs)
        assert text.splitlines()[0] == "uniform, 2 faults"
        assert "by fault count" not in text


class TestSaturationEdgeCases:
    """Degenerate curves the closed-loop comparison relies on."""

    def test_flat_curve_never_returns_spurious_crossing(self):
        # Long flat curves with small jitter must stay None, including
        # when every latency equals the zero-load latency exactly.
        loads = [0.05 * i for i in range(1, 11)]
        assert detect_saturation(loads, [100.0] * 10) is None
        jitter = [100.0, 101.0, 99.5, 100.2, 100.0,
                  99.8, 100.4, 100.1, 99.9, 100.3]
        assert detect_saturation(loads, jitter) is None
        # Exactly at the threshold is "not yet diverged" (strict cross).
        assert detect_saturation([0.1, 0.9], [100.0, 300.0],
                                 latency_multiple=3.0) is None
        analysis = analyze_load_sweep(
            [_load_run(load, 100.0) for load in loads])
        assert not analysis.saturated
        assert analysis.saturation_load is None

    def test_non_monotone_latency_interpolates_stably(self):
        # A dip just before the knee (measurement noise near saturation)
        # must not break the interpolation: the crossing lands between
        # the bracketing loads and stays deterministic.
        loads = [0.1, 0.3, 0.5, 0.7, 0.9]
        latencies = [100.0, 120.0, 95.0, 110.0, 900.0]
        point = detect_saturation(loads, latencies, latency_multiple=3.0)
        assert point is not None
        assert 0.7 < point < 0.9
        assert point == pytest.approx(
            0.7 + 0.2 * (300.0 - 110.0) / (900.0 - 110.0))
        assert detect_saturation(loads, latencies, 3.0) == point

    def test_non_monotone_dip_below_threshold_after_crossing(self):
        # The first crossing wins even when a later point dips back
        # under the threshold — saturation detection is first-passage,
        # not last-passage.
        loads = [0.1, 0.5, 0.9]
        latencies = [100.0, 400.0, 250.0]
        point = detect_saturation(loads, latencies, latency_multiple=3.0)
        assert point == pytest.approx(0.1 + 0.4 * (300.0 - 100.0) / 300.0)

    def test_single_point_curve(self):
        assert detect_saturation([0.1], [100.0]) is None
        # A single already-diverged point saturates at that load (the
        # zero-load latency is the point itself, so only possible via a
        # threshold below 1x — guarded by validation).
        analysis = analyze_load_sweep([_load_run(0.1, 100.0)])
        assert analysis.zero_load_latency_ns == 100.0
        assert not analysis.saturated


def _window_run(window, accepted, latency, pattern="uniform",
                routing="randomized-minimal"):
    return {
        "params": {"window": window},
        "result": {
            "window": window,
            "pattern": pattern,
            "routing": routing,
            "accepted_load": accepted,
            "transactions": {"latency_ns": {"mean": latency}},
        },
    }


class TestClosedLoopAnalysis:
    def test_detect_knee_finds_plateau_start(self):
        windows = [1, 2, 4, 8, 16]
        throughputs = [0.1, 0.19, 0.28, 0.31, 0.31]
        # Threshold 0.95 x 0.31 = 0.2945: window 4 (0.28) misses it,
        # window 8 reaches the plateau.
        assert detect_knee(windows, throughputs) == 8
        # A looser fraction moves the knee earlier.
        assert detect_knee(windows, throughputs, knee_fraction=0.9) == 4

    def test_detect_knee_degenerate_curves(self):
        # Flat curve (already saturated at window 1): knee at the start.
        assert detect_knee([1, 2, 4], [0.3, 0.3, 0.3]) == 1
        # All-zero curve must not crash or pick a spurious knee.
        assert detect_knee([1, 2, 4], [0.0, 0.0, 0.0]) == 1
        # Still rising at the end: knee at the largest swept window.
        assert detect_knee([1, 2, 4], [0.1, 0.2, 0.4]) == 4

    def test_detect_knee_validation(self):
        with pytest.raises(ValueError):
            detect_knee([], [])
        with pytest.raises(ValueError):
            detect_knee([2, 1], [0.1, 0.2])
        with pytest.raises(ValueError):
            detect_knee([1, 2], [0.1])
        with pytest.raises(ValueError):
            detect_knee([1, 2], [0.1, 0.2], knee_fraction=0.0)

    def test_analyze_window_sweep_sorts_and_rejects_mixes(self):
        runs = [_window_run(8, 0.30, 300.0),
                _window_run(1, 0.10, 60.0),
                _window_run(4, 0.29, 150.0)]
        analysis = analyze_window_sweep(runs)
        assert [p[0] for p in analysis.points] == [1, 4, 8]
        assert analysis.knee_window == 4
        assert analysis.plateau_accepted_load == pytest.approx(0.30)
        assert analysis.latency_at_knee_ns == pytest.approx(150.0)
        assert analysis.to_dict()["knee_window"] == 4
        with pytest.raises(ValueError):
            analyze_window_sweep([_window_run(1, 0.1, 60.0),
                                  _window_run(2, 0.1, 60.0,
                                              routing="valiant")])
        with pytest.raises(ValueError):
            analyze_window_sweep([{"params": {}, "result": {}}])

    def test_window_sweep_table_mentions_knee(self):
        runs = [_window_run(1, 0.1, 60.0), _window_run(4, 0.3, 150.0)]
        text = window_sweep_table(runs, title="sweep")
        assert "sweep" in text
        assert "knee at window" in text
        both = window_sweep_tables(
            runs + [_window_run(1, 0.08, 70.0, routing="valiant")])
        assert "uniform/randomized-minimal" in both
        assert "uniform/valiant" in both

    def test_closed_vs_open_table(self):
        window_analysis = analyze_window_sweep(
            [_window_run(1, 0.1, 110.0), _window_run(8, 0.55, 400.0)])
        open_runs = [_load_run(0.1, 100.0),
                     _load_run(0.6, 150.0, accepted=0.6),
                     _load_run(0.9, 900.0, accepted=0.6)]
        for run in open_runs:
            run["result"]["routing"] = "randomized-minimal"
        open_analysis = analyze_load_sweep(open_runs)
        text = closed_vs_open_table(window_analysis, open_analysis)
        assert "closed-loop plateau 0.550" in text
        assert "0.92x" in text  # 0.55 / 0.6
        # Mismatched curves are refused.
        other = analyze_window_sweep([_window_run(1, 0.1, 60.0,
                                                  pattern="tornado")])
        with pytest.raises(ValueError):
            closed_vs_open_table(other, open_analysis)

    def test_phase_loop_table(self):
        runs = [
            {"result": {"pattern": "halo", "routing": "valiant",
                        "window": 4, "messages_per_node": 12,
                        "iterations": [{}, {}],
                        "mean_iteration_ns": 900.0,
                        "mean_fence_wait_fraction": 0.4}},
            {"result": {"pattern": "halo", "routing": "fixed-xyz",
                        "window": 4, "messages_per_node": 12,
                        "iterations": [{}, {}],
                        "mean_iteration_ns": 1200.0,
                        "mean_fence_wait_fraction": 0.5}},
        ]
        text = phase_loop_table(runs, title="phase-loop-halo")
        assert "phase-loop-halo" in text
        assert text.index("fixed-xyz") < text.index("valiant")  # sorted
        with pytest.raises(ValueError):
            phase_loop_table([{"result": {}}])


class TestReportHelpers:
    def test_format_table_alignment(self):
        text = format_table(("x", "yy"), [(1, 2), (333, 4)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("x")

    def test_comparison(self):
        c = Comparison("latency", measured=55.0, published=55.9, unit="ns")
        assert c.ratio == pytest.approx(55.0 / 55.9)
        text = comparison_table([c], title="Fig 5")
        assert "Fig 5" in text and "latency" in text

    def test_within_band(self):
        assert within_band(0.35, (0.32, 0.40))
        assert not within_band(0.5, (0.32, 0.40))
        assert within_band(0.42, (0.32, 0.40), slack=0.05)
