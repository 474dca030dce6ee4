"""Tests for the regression sentinel (repro.runner.sentinel).

The inputs are transcripts shaped like the stdout of
``python3 perfbench/run.py``: one JSON line per operation, the metric
table a run of every workload prints, and the JSON result line.  Covers
noise-band fitting from pooled baseline samples, the verdicts
(PASS/REGRESSED/IMPROVED/NEW/MISSING) on ``run_s`` and the same verdicts
on ``setup_s`` and ``peak_rss_mb``, exact count gating, digest drift,
fail-closed loading of untrustworthy transcripts, and the
``repro-runner regress`` CLI.
"""

import json

import pytest

from repro.runner.cli import main
from repro.runner.sentinel import (
    DEFAULT_MIN_REL,
    evaluate,
    load_transcript,
    noise_bands,
    regress_table,
)

DIGESTS = {
    "openloop-uniform-128": "3cd98b5a" * 8,
    "phaseloop-adaptive-reads": "9f5fd66d" * 8,
    "water-compression": "5e6a1c04" * 8,
}
LAYERS = {
    "openloop-uniform-128": {"engine.events": 406931,
                             "netsim.link.sends": 197119},
    "phaseloop-adaptive-reads": {"engine.events": 344209,
                                 "netsim.link.sends": 159722},
    "water-compression": {"engine.events": 0, "md.pairs": 5340441},
}
QUIET = {name: [1.0, 1.0, 1.0] for name in DIGESTS}


def op_line(index, workload, run_s, seed=1, traced=False, failures=(),
            digest=None, peak_rss_mb=185.8, setup_s=0.5):
    line = {"op": index, "workload": workload, "seed": seed,
            "traced": traced, "setup_s": setup_s, "run_s": run_s,
            "peak_rss_mb": peak_rss_mb, "failures": list(failures),
            "digest": digest or DIGESTS[workload]}
    if traced:
        line["missing_entry_points"] = []
    line.update(steal_share=0.001, loadavg_1m=0.25)
    return json.dumps(line)


def transcript(runs, seed=1, trace=True, counts=None, digests=None,
               correct=True, rss=None, setup=None):
    """perfbench stdout for ``runs``: workload -> untraced ``run_s`` list.

    One workload gives the single-workload form (bare metric names);
    more give the all-workload form (``<workload>/`` names, a table).
    ``counts`` overrides per-layer counts by (prefixed) metric name;
    ``rss`` and ``setup`` set a workload's untraced ops' ``peak_rss_mb``
    and ``setup_s``.
    """
    lines, metrics = [], {}
    for workload, samples in runs.items():
        digest = (digests or {}).get(workload)
        for index, run_s in enumerate(samples):
            lines.append(op_line(index, workload, run_s, seed=seed,
                                 digest=digest,
                                 peak_rss_mb=(rss or {}).get(workload,
                                                             185.8),
                                 setup_s=(setup or {}).get(workload, 0.5)))
        if trace:
            lines.append(op_line(len(samples), workload, 3 * samples[0],
                                 seed=seed, traced=True, digest=digest))
            layer = {name: {"value": value, "unit": "count"}
                     for name, value in LAYERS[workload].items()}
            layer["engine.self_s"] = {"value": 2.5, "unit": "s"}
            layer["trace.overhead_ratio"] = {"value": 3.0, "unit": "ratio"}
        else:
            layer = {"setup_s": {"value": 0.5, "unit": "s"},
                     "run_s": {"value": sorted(samples)[len(samples) // 2],
                               "unit": "s"},
                     "peak_rss_mb": {"value": 185.8, "unit": "MB"}}
        for name, value in layer.items():
            key = name if len(runs) == 1 else f"{workload}/{name}"
            metrics[key] = value
    for name, value in (counts or {}).items():
        metrics[name] = {"value": value, "unit": "count"}
    if len(runs) > 1:
        lines += [f"{name:56s} {value['value']:>14.6g} {value['unit']}"
                  for name, value in metrics.items()]
    ops = sum(len(samples) + trace for samples in runs.values())
    lines.append(json.dumps({"correct": correct, "attempted": ops,
                             "failed": 0 if correct else 1,
                             "metrics": metrics}))
    return "\n".join(lines) + "\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def load(tmp_path, name, runs=QUIET, **kwargs):
    return load_transcript(
        write(tmp_path, name, transcript(runs, **kwargs)))


class TestNoiseBands:
    def test_quiet_case_gets_the_min_rel_floor(self, tmp_path):
        bands = noise_bands([load(tmp_path, "a.jsonl")])
        assert bands["water-compression"]["cv"] == 0.0
        assert bands["water-compression"]["threshold"] == DEFAULT_MIN_REL

    def test_jittery_case_earns_a_wider_band(self, tmp_path):
        bands = noise_bands([load(tmp_path, "a.jsonl",
                                  {"water-compression": [1.0, 1.3, 1.6]})])
        assert bands["water-compression"]["cv"] > 0.1
        assert bands["water-compression"]["threshold"] > DEFAULT_MIN_REL

    def test_samples_pool_across_baselines(self, tmp_path):
        bands = noise_bands([
            load(tmp_path, "a.jsonl", {"water-compression": [1.0, 1.1, 1.2]}),
            load(tmp_path, "b.jsonl", {"water-compression": [2.0, 2.1, 2.2]}),
        ])
        band = bands["water-compression"]
        assert len(band["samples"]) == 6  # the traced ops are not samples
        assert band["median"] == pytest.approx(1.6)

    def test_single_sample_falls_back_to_best(self, tmp_path):
        bands = noise_bands([load(tmp_path, "a.jsonl",
                                  {"water-compression": [2.0]})])
        assert bands["water-compression"]["median"] == 2.0
        assert bands["water-compression"]["threshold"] == DEFAULT_MIN_REL


class TestEvaluate:
    def test_self_compare_passes_with_exit_zero(self, tmp_path):
        base = load(tmp_path, "a.jsonl")
        report = evaluate(base, [base])
        assert report["verdict"] == "PASS"
        assert report["exit_code"] == 0
        assert list(report["fields"]) == ["setup_s", "run_s", "peak_rss_mb"]
        for rows in report["fields"].values():
            assert [row["verdict"] for row in rows] == ["PASS"] * 3
        assert len(report["counts"]) == 6
        assert all(row["verdict"] == "PASS" for row in report["counts"])
        assert report["failed"] == []

    def test_injected_2x_slowdown_regresses_with_exit_one(self, tmp_path):
        base = load(tmp_path, "a.jsonl")
        slow = load(tmp_path, "b.jsonl",
                    {**QUIET, "water-compression": [2.0, 2.0, 2.0]})
        report = evaluate(slow, [base], sigma=0.0)
        assert report["verdict"] == "FAIL"
        assert report["exit_code"] == 1
        assert report["failed"] == ["water-compression/run_s"]

    def test_injected_2x_setup_regresses_with_exit_one(self, tmp_path):
        base = load(tmp_path, "a.jsonl")
        slow = load(tmp_path, "b.jsonl", setup={"openloop-uniform-128": 1.0})
        assert slow["samples"]["setup_s"]["openloop-uniform-128"] == [1.0] * 3
        report = evaluate(slow, [base], sigma=0.0)
        assert report["failed"] == ["openloop-uniform-128/setup_s"]
        assert report["exit_code"] == 1
        # run_s and peak RSS are untouched.
        for field in ("run_s", "peak_rss_mb"):
            assert all(row["verdict"] == "PASS"
                       for row in report["fields"][field])
        assert "REGRESSED openloop-uniform-128: setup_s 1.000s vs 0.500s " \
               "(2.00x" in regress_table(report)

    def test_improvement_is_flagged_but_passes(self, tmp_path):
        base = load(tmp_path, "a.jsonl")
        fast = load(tmp_path, "b.jsonl",
                    {**QUIET, "openloop-uniform-128": [0.5, 0.5, 0.5]})
        report = evaluate(fast, [base])
        verdicts = {row["name"]: row["verdict"]
                    for row in report["fields"]["run_s"]}
        assert verdicts == {"openloop-uniform-128": "IMPROVED",
                            "phaseloop-adaptive-reads": "PASS",
                            "water-compression": "PASS"}
        assert report["exit_code"] == 0

    def test_noise_band_absorbs_jitter_beyond_the_floor(self, tmp_path):
        base = load(tmp_path, "a.jsonl", {"water-compression": [1.0, 1.4, 1.8]})
        current = load(tmp_path, "b.jsonl",
                       {"water-compression": [1.7, 1.7, 1.7]})
        report = evaluate(current, [base])
        # 21% slower than the baseline median, but the fitted band is
        # wider than the 10% floor, so this is jitter, not a regression.
        (row,) = report["fields"]["run_s"]
        assert row["threshold"] > 0.21
        assert report["verdict"] == "PASS"

    def test_new_and_missing_cases(self, tmp_path):
        base = load(tmp_path, "a.jsonl",
                    {"openloop-uniform-128": [1.0, 1.0, 1.0]})
        current = load(tmp_path, "b.jsonl",
                       {"water-compression": [1.0, 1.0, 1.0]})
        report = evaluate(current, [base])
        for rows in report["fields"].values():
            verdicts = {row["name"]: row["verdict"] for row in rows}
            assert verdicts == {"water-compression": "NEW",
                                "openloop-uniform-128": "MISSING"}
        assert report["digests"] == []
        assert {row["verdict"] for row in report["counts"]} == \
            {"NEW", "MISSING"}
        assert report["exit_code"] == 0

    def test_result_drift_rides_along(self, tmp_path):
        base = load(tmp_path, "a.jsonl")
        drifted = load(tmp_path, "b.jsonl",
                       digests={"water-compression": "ab" * 32})
        report = evaluate(drifted, [base])
        assert report["verdict"] == "PASS"  # digest drift is reported only
        row = {r["name"]: r for r in report["digests"]}["water-compression"]
        assert row["digest"] != row["baseline_digest"]
        assert "water-compression: digest changed: 5e6a1c045e6a1c04 -> " \
            "abababababababab" in regress_table(report)

    def test_rejects_empty_baselines_and_bad_knobs(self, tmp_path):
        base = load(tmp_path, "a.jsonl")
        with pytest.raises(ValueError, match="at least one baseline"):
            evaluate(base, [])
        with pytest.raises(ValueError, match="min_rel"):
            evaluate(base, [base], min_rel=-0.1)
        with pytest.raises(ValueError, match="sigma"):
            evaluate(base, [base], sigma=-1.0)

    def test_table_renders_every_verdict(self, tmp_path):
        base = load(tmp_path, "a.jsonl")
        slow = load(tmp_path, "b.jsonl",
                    {"openloop-uniform-128": [0.5, 0.5, 0.5],
                     "water-compression": [2.0, 2.0, 2.0]},
                    counts={"water-compression/md.pairs": 1})
        text = regress_table(evaluate(slow, [base]))
        assert "IMPROVED  openloop-uniform-128" in text
        assert "MISSING   phaseloop-adaptive-reads" in text
        assert "REGRESSED water-compression: run_s 2.000s vs 1.000s " \
               "(2.00x" in text
        assert "counts: 3 equal, 1 changed, 2 on one side only" in text
        assert "CHANGED   water-compression/md.pairs: 1 vs 5340441" in text
        assert text.endswith("verdict: FAIL")

    def test_one_count_drift_fails_at_any_band(self, tmp_path):
        base = load(tmp_path, "a.jsonl")
        drifted = load(tmp_path, "b.jsonl",
                       counts={"openloop-uniform-128/engine.events": 406932})
        report = evaluate(drifted, [base], min_rel=10.0)
        assert report["failed"] == ["openloop-uniform-128/engine.events"]
        assert report["exit_code"] == 1
        for rows in report["fields"].values():
            assert all(row["verdict"] == "PASS" for row in rows)

    def test_single_workload_counts_compare_with_all_workload_ones(
            self, tmp_path):
        every = load(tmp_path, "a.jsonl")
        water = load(tmp_path, "b.jsonl",
                     {"water-compression": [1.0, 1.0, 1.0]})
        assert sorted(water["counts"]) == ["water-compression/engine.events",
                                           "water-compression/md.pairs"]
        report = evaluate(water, [every])
        rows = {row["name"]: row["verdict"] for row in report["counts"]}
        assert rows["water-compression/md.pairs"] == "PASS"
        assert rows["openloop-uniform-128/engine.events"] == "MISSING"
        assert report["exit_code"] == 0

    def test_untraced_runs_carry_no_counts(self, tmp_path):
        plain = load(tmp_path, "a.jsonl", trace=False)
        assert plain["counts"] == {}
        assert evaluate(plain, [plain])["verdict"] == "PASS"

    def test_counts_anchor_on_the_newest_baseline(self, tmp_path):
        old = load(tmp_path, "a.jsonl",
                   counts={"openloop-uniform-128/engine.events": 5})
        new = load(tmp_path, "b.jsonl")
        report = evaluate(new, [old, new])
        assert report["failed"] == []
        assert evaluate(new, [new, old])["failed"] == \
            ["openloop-uniform-128/engine.events"]

    def test_doubled_peak_rss_regresses_with_exit_one(self, tmp_path):
        base = load(tmp_path, "a.jsonl")
        fat = load(tmp_path, "b.jsonl", rss={"water-compression": 371.6})
        assert fat["samples"]["peak_rss_mb"]["water-compression"] == \
            [371.6] * 3
        report = evaluate(fat, [base], min_rel=0.25)
        assert report["failed"] == ["water-compression/peak_rss_mb"]
        assert report["exit_code"] == 1
        # Time and counts are untouched.
        for field in ("setup_s", "run_s"):
            assert all(row["verdict"] == "PASS"
                       for row in report["fields"][field])
        verdicts = {row["name"]: row["verdict"]
                    for row in report["fields"]["peak_rss_mb"]}
        assert verdicts == {"openloop-uniform-128": "PASS",
                            "phaseloop-adaptive-reads": "PASS",
                            "water-compression": "REGRESSED"}
        assert "REGRESSED water-compression: peak_rss_mb 371.6 MB vs " \
               "185.8 MB (2.00x" in regress_table(report)

    def test_smaller_peak_rss_is_flagged_but_passes(self, tmp_path):
        base = load(tmp_path, "a.jsonl")
        lean = load(tmp_path, "b.jsonl", rss={"openloop-uniform-128": 134.6})
        report = evaluate(lean, [base])
        verdicts = {row["name"]: row["verdict"]
                    for row in report["fields"]["peak_rss_mb"]}
        assert verdicts["openloop-uniform-128"] == "IMPROVED"
        assert report["exit_code"] == 0

    def test_seed_mismatch_is_an_error(self, tmp_path):
        base = load(tmp_path, "a.jsonl", seed=2)
        current = load(tmp_path, "b.jsonl")
        with pytest.raises(ValueError, match=r"a\.jsonl: seed \[2\] differs"):
            evaluate(current, [base])


class TestLoadBench:
    def test_rejects_wrong_schema(self, tmp_path):
        path = write(tmp_path, "BENCH_abc.json", json.dumps(
            {"schema": "repro.bench/1", "cases": []}, indent=2))
        with pytest.raises(ValueError, match="no perfbench op lines"):
            load_transcript(path)

    def test_rejects_missing_cases(self, tmp_path):
        text = transcript(QUIET)
        path = write(tmp_path, "x.jsonl", "\n".join(
            line for line in text.splitlines() if '"op"' not in line))
        with pytest.raises(ValueError, match="no perfbench op lines"):
            load_transcript(path)

    def test_skips_table_lines(self, tmp_path):
        text = transcript(QUIET)
        assert sum(not line.startswith("{")
                   for line in text.splitlines()) == 12
        loaded = load_transcript(write(tmp_path, "x.jsonl", text))
        assert loaded["samples"]["run_s"]["water-compression"] == \
            [1.0, 1.0, 1.0]
        assert loaded["seeds"] == [1]
        assert len(loaded["counts"]) == 6

    def test_a_zero_run_s_never_reaches_a_verdict(self, tmp_path):
        # perfbench reads a metric no op reported as 0; a zero sample
        # must not classify as IMPROVED.
        path = write(tmp_path, "x.jsonl", transcript(
            {"water-compression": [1.0, 0.0, 1.0]}))
        with pytest.raises(ValueError, match="no positive run_s"):
            load_transcript(path)

    def test_a_zero_peak_rss_never_reaches_a_verdict(self, tmp_path):
        path = write(tmp_path, "x.jsonl", transcript(
            {"water-compression": [1.0, 1.0, 1.0]},
            rss={"water-compression": 0.0}))
        with pytest.raises(ValueError, match="no positive peak_rss_mb"):
            load_transcript(path)

    def test_a_zero_setup_s_never_reaches_a_verdict(self, tmp_path):
        path = write(tmp_path, "x.jsonl", transcript(
            {"water-compression": [1.0, 1.0, 1.0]},
            setup={"water-compression": 0.0}))
        with pytest.raises(ValueError, match="no positive setup_s"):
            load_transcript(path)

    def test_rejects_a_cut_transcript(self, tmp_path):
        text = transcript(QUIET)
        path = write(tmp_path, "x.jsonl", text.rsplit("\n", 2)[0])
        with pytest.raises(ValueError, match="no result line"):
            load_transcript(path)


def failed_op(tmp_path):
    text = transcript(QUIET).replace(
        op_line(1, "water-compression", 1.0),
        json.dumps({"op": 1, "workload": "water-compression", "seed": 1,
                    "traced": False,
                    "failures": ["exited with code 1"],
                    "steal_share": 0.0, "loadavg_1m": 0.2}))
    return write(tmp_path, "bad.jsonl", text), "failed: exited with code 1"


BAD_TRANSCRIPTS = {
    "no_op_lines": lambda tmp_path: (
        write(tmp_path, "bad.jsonl", ""), "no perfbench op lines"),
    "failed_op": failed_op,
    "incorrect_result": lambda tmp_path: (
        write(tmp_path, "bad.jsonl", transcript(QUIET, correct=False)),
        "correct: false"),
    "seed_mismatch": lambda tmp_path: (
        write(tmp_path, "bad.jsonl", transcript(QUIET, seed=2)),
        "differs from [1]"),
    "missing_file": lambda tmp_path: (
        str(tmp_path / "bad.jsonl"), "No such file or directory"),
}


class TestRegressCli:
    def test_self_compare_exits_zero(self, tmp_path, capsys):
        base = write(tmp_path, "base.jsonl", transcript(QUIET))
        rc = main(["regress", "--against", base, "--current", base])
        assert rc == 0
        assert "verdict: PASS" in capsys.readouterr().out

    def test_injected_slowdown_exits_one(self, tmp_path, capsys):
        base = write(tmp_path, "base.jsonl", transcript(QUIET))
        slow = write(tmp_path, "slow.jsonl", transcript(
            {name: [2.0, 2.0, 2.0] for name in QUIET}))
        rc = main(["regress", "--against", base, "--current", slow,
                   "--sigma", "0"])
        assert rc == 1
        assert capsys.readouterr().out.count("REGRESSED") == 3

    def test_doubled_peak_rss_exits_one(self, tmp_path, capsys):
        base = write(tmp_path, "base.jsonl", transcript(QUIET))
        fat = write(tmp_path, "fat.jsonl", transcript(
            QUIET, rss={name: 371.6 for name in QUIET}))
        rc = main(["regress", "--against", base, "--current", fat])
        assert rc == 1
        assert capsys.readouterr().out.count("REGRESSED") == 3

    def test_doubled_setup_s_exits_one(self, tmp_path, capsys):
        base = write(tmp_path, "base.jsonl", transcript(QUIET))
        slow = write(tmp_path, "slow.jsonl", transcript(
            QUIET, setup={name: 1.0 for name in QUIET}))
        rc = main(["regress", "--against", base, "--current", slow])
        assert rc == 1
        out = capsys.readouterr().out
        assert out.count("REGRESSED") == 3
        assert out.count(": setup_s ") == 3

    def test_count_drift_exits_one_at_any_band(self, tmp_path, capsys):
        base = write(tmp_path, "base.jsonl", transcript(QUIET))
        drifted = write(tmp_path, "drift.jsonl", transcript(
            QUIET, counts={"phaseloop-adaptive-reads/engine.events": 344210}))
        rc = main(["regress", "--against", base, "--current", drifted,
                   "--min-rel", "10"])
        assert rc == 1
        assert "CHANGED   phaseloop-adaptive-reads/engine.events" in \
            capsys.readouterr().out

    def test_json_report_and_pooled_baselines(self, tmp_path, capsys):
        a = write(tmp_path, "a.jsonl", transcript(QUIET))
        b = write(tmp_path, "b.jsonl", transcript(
            {"water-compression": [1.0, 1.0, 1.0]}))
        rc = main(["regress", "--against", a, "--against", b,
                   "--current", a, "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro.regress/3"
        assert report["baselines"] == [a, b]
        for rows in report["fields"].values():
            samples = {row["name"]: row["baseline_samples"] for row in rows}
            assert samples == {"openloop-uniform-128": 3,
                               "phaseloop-adaptive-reads": 3,
                               "water-compression": 6}

    def test_missing_baseline_file_is_a_clean_error(self, tmp_path, capsys):
        current = write(tmp_path, "current.jsonl", transcript(QUIET))
        rc = main(["regress", "--against", str(tmp_path / "absent.jsonl"),
                   "--current", current])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(BAD_TRANSCRIPTS))
    def test_bad_transcript_exits_two_with_one_line(self, tmp_path, capsys,
                                                    case):
        bad, cause = BAD_TRANSCRIPTS[case](tmp_path)
        good = write(tmp_path, "good.jsonl", transcript(QUIET))
        rc = main(["regress", "--against", bad, "--current", good])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        assert err.count("\n") == 1
        assert cause in err
