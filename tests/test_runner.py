"""Tests for the parallel experiment runner (repro.runner).

Covers grid expansion, seed derivation, cache hit/miss behavior,
deterministic results under ``--jobs 1`` vs ``--jobs 4``, and CLI
argument parsing / end-to-end invocation.
"""

import json

import pytest

from repro.engine import derive_seed
from repro.runner import (
    Experiment,
    ParameterGrid,
    ResultCache,
    Sweep,
    canonical_json,
    config_digest,
    get_experiment,
    list_experiments,
    run_experiment,
    run_sweep,
)
from repro.runner.cli import build_parser, main

# A tiny fig5 grid: two real flit-level runs, each well under a second.
TINY_GRID = ParameterGrid(
    {
        "dims": [(2, 2, 2)],
        "chip_cols": 6,
        "chip_rows": 6,
        "machine_seed": 42,
        "harness_seed": 17,
        "max_hops": 1,
        "samples_per_hop": [1, 2],
    }
)
TINY_SWEEP = Sweep("fig5_latency", TINY_GRID, label="tiny")


def assert_jobs_invariant(sweep, tmp_path, jobs=2):
    """Run ``sweep`` serially and in parallel, each on its own cold cache.

    Both executions must produce byte-identical records; a rerun on the
    parallel cache must then be served entirely from it, unchanged.
    Returns the serial result.
    """
    serial = run_sweep(sweep, jobs=1, cache=ResultCache(tmp_path / "serial"))
    parallel_cache = ResultCache(tmp_path / "parallel")
    parallel = run_sweep(sweep, jobs=jobs, cache=parallel_cache)
    assert serial.cache_misses == parallel.cache_misses == len(serial.runs)
    assert canonical_json(serial.record()) == canonical_json(parallel.record())
    rerun = run_sweep(sweep, jobs=jobs, cache=parallel_cache)
    assert rerun.cache_hits == len(rerun.runs)
    assert canonical_json(rerun.record()) == canonical_json(parallel.record())
    return serial


# ---------------------------------------------------------------------------
# Grid expansion.
# ---------------------------------------------------------------------------


class TestParameterGrid:
    def test_cross_product_order(self):
        grid = ParameterGrid({"b": [1, 2], "a": ["x", "y"]})
        assert list(grid) == [
            {"a": "x", "b": 1},
            {"a": "x", "b": 2},
            {"a": "y", "b": 1},
            {"a": "y", "b": 2},
        ]
        assert len(grid) == 4

    def test_scalars_and_tuples_are_single_values(self):
        grid = ParameterGrid({"dims": (4, 4, 8), "seed": 3})
        assert list(grid) == [{"dims": (4, 4, 8), "seed": 3}]

    def test_list_of_tuples_is_an_axis(self):
        grid = ParameterGrid({"dims": [(2, 2, 2), (4, 4, 8)]})
        assert len(grid) == 2

    def test_union_of_grids(self):
        grid = ParameterGrid([{"a": [1, 2]}, {"b": 3}])
        assert list(grid) == [{"a": 1}, {"a": 2}, {"b": 3}]

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            ParameterGrid({"a": []})

    def test_expansion_is_repeatable(self):
        grid = ParameterGrid({"a": [2, 1], "b": [True, False]})
        assert list(grid) == list(grid)


# ---------------------------------------------------------------------------
# Seed derivation (engine plumbing for parallel runs).
# ---------------------------------------------------------------------------


class TestSeeding:
    def test_derive_seed_is_stable_and_distinct(self):
        assert derive_seed(42, "machine") == derive_seed(42, "machine")
        assert derive_seed(42, "machine") != derive_seed(42, "harness")
        assert derive_seed(42, "machine") != derive_seed(43, "machine")

    def test_derive_seed_handles_structured_paths(self):
        # Coordinates and mixed labels derive stable, bounded seeds.
        seed = derive_seed(9, (0, 1, 2))
        assert seed == derive_seed(9, (0, 1, 2))
        assert 0 <= seed < 2**31

    def test_machines_with_equal_seeds_are_identical(self):
        from repro.netsim.surface import measure_latency_curve

        kwargs = dict(dims=(2, 2, 2), chip_cols=6, chip_rows=6,
                      max_hops=1, samples_per_hop=2)
        assert measure_latency_curve(**kwargs) == measure_latency_curve(**kwargs)


# ---------------------------------------------------------------------------
# Content addressing and the result cache.
# ---------------------------------------------------------------------------


class TestCache:
    def test_digest_ignores_key_order_and_tuple_vs_list(self):
        a = config_digest("e", {"x": 1, "dims": (2, 2, 2)})
        b = config_digest("e", {"dims": [2, 2, 2], "x": 1})
        assert a == b
        assert config_digest("e", {"x": 2}) != a
        assert config_digest("other", {"x": 1}) != config_digest("e", {"x": 1})

    def test_canonical_json_is_compact_and_sorted(self):
        assert canonical_json({"b": (1,), "a": 2}) == '{"a":2,"b":[1]}'

    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        params = {"n": 1}
        assert cache.get("exp", params) is None
        cache.put("exp", params, {"value": 3.5}, elapsed_s=0.1)
        entry = cache.get("exp", params)
        assert entry["result"] == {"value": 3.5}
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert len(cache) == 1

    def test_version_busts_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("exp", {"n": 1}, {"v": 1}, version=1)
        assert cache.get("exp", {"n": 1}, version=2) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("exp", {"n": 1}, {"v": 1})
        path.write_text("not json", encoding="utf-8")
        assert cache.get("exp", {"n": 1}) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("exp", {"n": 1}, {"v": 1})
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_interleaved_writers_never_tear_an_entry(self, tmp_path,
                                                     monkeypatch):
        # Two processes finishing the same config race their writes to
        # one digest path.  The tmp+rename protocol must leave a valid
        # entry (one writer's complete payload, never a byte mix) and
        # no stray tmp files.  Simulate the worst interleaving: writer B
        # completes an entire put between A's tmp write and A's rename.
        import os

        import repro.runner.cache as cache_mod

        root = tmp_path / "shared"
        writer_a = ResultCache(root)
        writer_b = ResultCache(root)
        params = {"n": 1}
        real_replace = os.replace

        def interleaving_replace(src, dst):
            monkeypatch.setattr(cache_mod.os, "replace", real_replace)
            writer_b.put("exp", params, {"winner": "b"})
            real_replace(src, dst)

        monkeypatch.setattr(cache_mod.os, "replace", interleaving_replace)
        path = writer_a.put("exp", params, {"winner": "a"})
        # The last rename wins wholesale; the file is valid JSON.
        entry = json.loads(path.read_text(encoding="utf-8"))
        assert entry["result"] == {"winner": "a"}
        assert writer_b.get("exp", params)["result"] == {"winner": "a"}
        assert not list(root.rglob("*.tmp"))
        assert len(writer_a) == 1


# ---------------------------------------------------------------------------
# The registry and sweep execution.
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_builtin_experiments_registered(self):
        names = {exp.name for exp in list_experiments()}
        assert {"fig5_latency", "fig9_water", "fig11_fence"} <= names

    def test_unknown_experiment_lists_known(self):
        with pytest.raises(KeyError, match="fig5_latency"):
            get_experiment("nope")

    def test_duplicate_registration_rejected(self):
        from repro.runner import register

        existing = get_experiment("fig11_fence")
        with pytest.raises(ValueError, match="already registered"):
            register(existing)
        assert register(existing, replace=True) is existing

    def test_run_experiment_inline(self):
        result = run_experiment(
            "fig11_fence",
            {"dims": (2, 2, 2), "chip_cols": 6, "chip_rows": 6, "max_hops": 0},
        )
        assert result["num_nodes"] == 8
        assert set(result["latencies"]) == {"0"}


class TestRunSweep:
    def test_cache_hit_miss_accounting(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_sweep(TINY_SWEEP, jobs=1, cache=cache)
        assert (first.cache_hits, first.cache_misses) == (0, 2)
        second = run_sweep(TINY_SWEEP, jobs=1, cache=cache)
        assert (second.cache_hits, second.cache_misses) == (2, 0)
        assert [r.result for r in second.runs] == [r.result for r in first.runs]

    def test_jobs_1_and_jobs_4_are_byte_identical(self, tmp_path):
        assert_jobs_invariant(TINY_SWEEP, tmp_path, jobs=4)

    def test_uncached_execution(self):
        sweep = Sweep(
            "fig11_fence",
            ParameterGrid(
                {"dims": [(2, 2, 2)], "chip_cols": 6, "chip_rows": 6, "max_hops": 0}
            ),
        )
        result = run_sweep(sweep, jobs=1, cache=None)
        assert result.cache_misses == 1
        assert result.runs[0].elapsed_s > 0

    def test_grid_defaults_to_experiment_grid(self):
        experiment = get_experiment("fig5_latency")
        result_grid = list(Sweep("fig5_latency").grid or experiment.grid)
        assert result_grid == list(experiment.grid)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(TINY_SWEEP, jobs=0)

    def test_task_is_self_contained_for_workers(self):
        # Tasks carry the Experiment itself, so a worker needs no
        # registry state (safe under fork and spawn alike).
        import pickle

        from repro.runner.execute import _execute_task

        experiment = get_experiment("fig11_fence")
        params = {"dims": [2, 2, 2], "chip_cols": 6, "chip_rows": 6,
                  "max_hops": 0}
        task = pickle.loads(pickle.dumps((experiment, params, None, None)))
        result, elapsed, artifacts = _execute_task(task)
        assert result["num_nodes"] == 8
        assert elapsed > 0
        assert artifacts is None

    def test_custom_registered_experiment(self, tmp_path):
        # Registration is additive.  With jobs > 1 the experiment is
        # pickled into the task, so a callable surface must then be
        # module-level.
        from repro.runner import register

        experiment = Experiment(
            name="test_echo",
            surface=lambda **params: {"echo": params},
            grid=ParameterGrid({"x": [1, 2]}),
        )
        try:
            register(experiment)
            result = run_sweep(Sweep("test_echo"), jobs=1)
            assert [r.result for r in result.runs] == [
                {"echo": {"x": 1}},
                {"echo": {"x": 2}},
            ]
        finally:
            from repro.runner.experiment import _REGISTRY

            _REGISTRY.pop("test_echo", None)


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------


class TestCli:
    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.command == "sweep"
        assert args.jobs == 1
        assert args.sweeps == []
        assert not args.smoke

    def test_sweep_flags(self):
        args = build_parser().parse_args(
            ["sweep", "fig5", "--smoke", "--jobs", "2", "--cache-dir", "/tmp/x",
             "--format", "csv", "--output", "out.csv"]
        )
        assert args.sweeps == ["fig5"]
        assert args.smoke and args.jobs == 2
        assert args.cache_dir == "/tmp/x"
        assert (args.format, args.output) == ("csv", "out.csv")

    def test_run_set_parsing(self):
        args = build_parser().parse_args(
            ["run", "fig11_fence", "--set", "max_hops=2", "--set", "dims=[2,2,2]"]
        )
        assert args.experiment == "fig11_fence"
        assert args.assignments == ["max_hops=2", "dims=[2,2,2]"]

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_malformed_set_exits_2(self, capsys):
        assert main(["run", "fig11_fence", "--set", "foo", "--no-cache"]) == 2
        assert "error: --set expects key=value" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["cache", "stats", "--dry-run"],
        ["cache", "prune", "--json"],
        ["cache"],
        ["ledger", "show", "a", "b"],
        ["ledger", "diff", "a"],
        ["ledger", "diff", "--experiment", "x", "a", "b"],
        ["ledger", "list", "abcd"],
        ["trace", "list", "--packet", "1,0"],
        ["trace", "export"],
        ["trace", "export", "--digest", "ab", "--input", "t.json"],
        ["report", "--by", "vc"],
        ["timeline", "machine/in_flight"],
        ["diagnose", "ab", "--no-write"],
    ])
    def test_wrong_flag_combinations_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_end_to_end_run_and_report(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        output = tmp_path / "out.json"
        code = main(
            ["run", "fig11_fence",
             "--set", "dims=[2,2,2]", "--set", "chip_cols=6",
             "--set", "chip_rows=6", "--set", "max_hops=1",
             "--cache-dir", str(cache_dir), "--output", str(output)]
        )
        assert code == 0
        payload = json.loads(output.read_text(encoding="utf-8"))
        (sweep,) = payload["sweeps"]
        assert sweep["experiment"] == "fig11_fence"
        assert set(sweep["runs"][0]["result"]["latencies"]) == {"0", "1"}
        capsys.readouterr()

        assert main(["report", "--input", str(output)]) == 0
        table = capsys.readouterr().out
        assert "latencies" in table and "run-fig11_fence" in table

    def test_report_grouped_percentiles(self, tmp_path, capsys):
        output = tmp_path / "out.json"
        payload = {
            "sweeps": [
                {
                    "label": "demo",
                    "experiment": "fig5_latency",
                    "runs": [
                        {"params": {"hops": h}, "result": {"ns": 10.0 * h + d}}
                        for h in (1, 2)
                        for d in (0.0, 2.0)
                    ],
                }
            ]
        }
        output.write_text(json.dumps(payload), encoding="utf-8")
        code = main(
            ["report", "--input", str(output), "--percentiles", "hops:ns"]
        )
        assert code == 0
        table = capsys.readouterr().out
        assert "demo" in table and "p99" in table and "hops" in table
        capsys.readouterr()

        assert main(["report", "--input", str(output), "--percentiles", "bad"]) == 2
        assert "BY:VALUE" in capsys.readouterr().err

        code = main(
            ["report", "--input", str(output), "--percentiles", "hops:ns",
             "--format", "csv"]
        )
        assert code == 2
        assert "--format csv" in capsys.readouterr().err

    def test_csv_output(self, tmp_path, capsys):
        code = main(
            ["run", "fig11_fence",
             "--set", "dims=[2,2,2]", "--set", "chip_cols=6",
             "--set", "chip_rows=6", "--set", "max_hops=0",
             "--no-cache", "--format", "csv"]
        )
        assert code == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0]
        assert "latencies.0" in header and "num_nodes" in header


# ---------------------------------------------------------------------------
# Routing ablations, --set validation, and report --plot.
# ---------------------------------------------------------------------------


class TestRouteAblation:
    def test_sweeps_registered_per_policy(self):
        from repro.routing import POLICY_NAMES
        from repro.runner.experiments import BUILTIN_SWEEPS, ROUTE_ABLATIONS

        for policy in POLICY_NAMES:
            name = f"route-ablation-{policy}"
            assert name in ROUTE_ABLATIONS
            assert name in BUILTIN_SWEEPS
            sweep = BUILTIN_SWEEPS[name]
            assert sweep.experiment == "route_ablation"
            assert all(p["routing"] == policy for p in sweep.grid)

    def test_grids_cover_the_adversarial_patterns(self):
        from repro.runner.experiments import (
            ROUTE_ABLATION_PATTERNS,
            ROUTE_ABLATIONS,
        )

        sweep = ROUTE_ABLATIONS["route-ablation-valiant"]
        patterns = {p["pattern"] for p in sweep.grid}
        assert patterns == set(ROUTE_ABLATION_PATTERNS)
        # Tornado rides its own ring-shaped torus; the rest share one.
        for params in sweep.grid:
            if params["pattern"] == "tornado":
                assert params["dims"][0] >= 3
            else:
                assert params["dims"] == (2, 2, 2)

    def test_smoke_grid_runs_and_caches(self, tmp_path):
        from repro.runner.experiments import ROUTE_ABLATION_SMOKE_GRID

        sweep = Sweep("route_ablation", ROUTE_ABLATION_SMOKE_GRID,
                      label="ablation-smoke")
        serial = assert_jobs_invariant(sweep, tmp_path)
        assert len(serial.runs) == len(ROUTE_ABLATION_SMOKE_GRID)
        routings = {r.record()["result"]["routing"] for r in serial.runs}
        assert routings == {"randomized-minimal", "valiant",
                            "adaptive-escape"}


class TestSetValidation:
    def test_unknown_set_key_rejected(self, capsys):
        code = main(
            ["run", "route_ablation", "--set", "offered_loud=0.2",
             "--no-cache"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "offered_loud" in err and "accepted:" in err

    def test_known_keys_accepted(self):
        experiment = get_experiment("route_ablation")
        experiment.validate_params({"routing": "valiant", "offered_load": 0.1})

    def test_experiments_without_declared_params_skip_validation(self):
        experiment = Experiment(
            name="anything", surface=lambda **kw: {}, grid=ParameterGrid({})
        )
        experiment.validate_params({"whatever": 1})


class TestReportPlot:
    @staticmethod
    def _payload(tmp_path):
        runs = []
        for routing, base in (("minimal", 100.0), ("valiant", 160.0)):
            for load in (0.1, 0.4, 0.8):
                runs.append(
                    {
                        "params": {"offered_load": load, "routing": routing},
                        "result": {
                            "routing": routing,
                            "classes": {
                                "request": {
                                    "latency_ns": {"mean": base + 900 * load}
                                }
                            },
                        },
                    }
                )
        payload = {
            "sweeps": [{"label": "demo", "experiment": "route_ablation",
                        "runs": runs}]
        }
        path = tmp_path / "out.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def test_plot_renders_to_stderr(self, tmp_path, capsys):
        path = self._payload(tmp_path)
        code = main(
            ["report", "--input", str(path),
             "--plot", "offered_load:classes.request.latency_ns.mean"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "demo" in captured.out  # the table still goes to stdout
        chart = captured.err
        assert "offered_load" in chart
        assert "classes.request.latency_ns.mean" in chart
        assert "*" in chart

    def test_plot_by_splits_series(self, tmp_path, capsys):
        path = self._payload(tmp_path)
        code = main(
            ["report", "--input", str(path),
             "--plot", "offered_load:classes.request.latency_ns.mean",
             "--plot-by", "routing"]
        )
        assert code == 0
        chart = capsys.readouterr().err
        assert "* minimal" in chart and "o valiant" in chart

    def test_malformed_plot_spec_errors(self, tmp_path, capsys):
        path = self._payload(tmp_path)
        assert main(["report", "--input", str(path), "--plot", "bad"]) == 2
        assert "X:Y" in capsys.readouterr().err

    def test_missing_columns_report_no_points(self, tmp_path, capsys):
        path = self._payload(tmp_path)
        code = main(
            ["report", "--input", str(path), "--plot", "nope:missing"]
        )
        assert code == 0
        assert "no plottable points" in capsys.readouterr().err

    def test_plot_by_single_group_still_renders_legend(self, tmp_path,
                                                       capsys):
        # Grouping that collapses to one series must keep its legend
        # line: the reader asked for series labels with --plot-by.
        runs = [
            {
                "params": {"offered_load": load, "routing": "minimal"},
                "result": {"lat": 100.0 + 900 * load},
            }
            for load in (0.1, 0.4, 0.8)
        ]
        payload = {"sweeps": [{"label": "solo", "runs": runs}]}
        path = tmp_path / "solo.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code = main(
            ["report", "--input", str(path),
             "--plot", "offered_load:lat", "--plot-by", "routing"]
        )
        assert code == 0
        assert "* minimal" in capsys.readouterr().err

    def test_force_legend_labels_a_single_unnamed_series(self):
        # The silently-omitted case: one series whose group label is
        # empty (e.g. --plot-by over a key that stringifies empty).
        from repro.analysis.plot import ascii_chart

        series = {"": [(0.1, 1.0), (0.4, 2.0)]}
        without = ascii_chart(series, width=16, height=4)
        forced = ascii_chart(series, width=16, height=4, force_legend=True)
        assert "* (all)" not in without
        assert "* (all)" in forced


# ---------------------------------------------------------------------------
# The auto-generated experiment catalog (list --markdown).
# ---------------------------------------------------------------------------


class TestExperimentCatalog:
    def test_catalog_covers_every_experiment_and_sweep(self):
        from repro.runner.catalog import catalog_markdown
        from repro.runner.experiments import BUILTIN_SWEEPS

        doc = catalog_markdown()
        for experiment in list_experiments():
            assert f"### `{experiment.name}` (v{experiment.version})" in doc
            if experiment.surface:
                assert f"`{experiment.surface}`" in doc
        for name in BUILTIN_SWEEPS:
            assert f"| `{name}` |" in doc

    def test_catalog_is_deterministic(self):
        from repro.runner.catalog import catalog_markdown

        assert catalog_markdown() == catalog_markdown()

    def test_declared_surfaces_resolve_to_callables(self):
        # The catalog documents Experiment.surface verbatim; make sure
        # every declared dotted path actually imports, so the committed
        # docs can never point readers at a nonexistent function.
        for experiment in list_experiments():
            assert isinstance(experiment.surface, str), experiment.name
            assert callable(experiment.resolve()), experiment.surface

    def test_catalog_marks_union_grid_swept_axes(self):
        # The route-ablation union grids sweep pattern/dims across their
        # members; the catalog must report them as swept, not constants.
        from repro.runner.catalog import catalog_markdown

        doc = catalog_markdown()
        line = next(
            row for row in doc.splitlines()
            if row.startswith("| `route-ablation-valiant` |")
        )
        assert "`pattern`" in line and "`offered_load`" in line

    def test_cli_list_markdown_emits_the_catalog(self, capsys):
        from repro.runner.catalog import catalog_markdown

        assert main(["list", "--markdown"]) == 0
        assert capsys.readouterr().out == catalog_markdown()

    def test_cli_plain_list_unchanged(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "experiments:" in out and "sweeps:" in out
        assert "route-ablation-adaptive-escape" in out

    def test_committed_catalog_is_fresh(self):
        # The doc-freshness gate, enforced in-tree as well as in CI: the
        # committed docs/experiments.md must match the registry.
        from pathlib import Path

        from repro.runner.catalog import catalog_markdown

        committed = Path(__file__).resolve().parent.parent / "docs" / \
            "experiments.md"
        assert committed.is_file(), "docs/experiments.md is missing"
        assert committed.read_text(encoding="utf-8") == catalog_markdown(), (
            "docs/experiments.md is stale; regenerate with "
            "`repro-runner list --markdown > docs/experiments.md`"
        )


# ---------------------------------------------------------------------------
# Run surfaces: one dotted path per experiment, parameters from the
# signature.
# ---------------------------------------------------------------------------


class TestRunSurfaces:
    def test_builtin_surfaces_registered_and_resolvable(self):
        surfaces = [experiment.surface for experiment in list_experiments()]
        # Each built-in experiment names its own surface.
        assert len(surfaces) == len(set(surfaces))
        assert "repro.traffic.surface.measure_load_point" in surfaces
        assert "repro.workload.surface.measure_phase_loop" in surfaces
        for experiment in list_experiments():
            assert callable(experiment.resolve()), experiment.surface

    def test_surface_rejects_undeclared_params(self):
        experiment = get_experiment("fig11_fence")
        with pytest.raises(ValueError, match="max_hopss"):
            experiment.run({"max_hopss": 2})

    def test_surface_call_runs_the_function(self):
        experiment = get_experiment("fig11_fence")
        result = experiment.run({"dims": (2, 2, 2), "chip_cols": 6,
                                 "chip_rows": 6, "max_hops": 0})
        assert result["num_nodes"] == 8

    def test_experiment_inherits_surface_param_names(self):
        import inspect

        from repro.traffic.surface import measure_load_point

        experiment = get_experiment("route_ablation")
        assert experiment.surface == \
            "repro.traffic.surface.measure_load_point"
        assert experiment.resolve() is measure_load_point
        assert experiment.param_names == tuple(
            inspect.signature(measure_load_point).parameters)

    def test_experiment_requires_surface_and_grid(self):
        with pytest.raises(TypeError, match="surface"):
            Experiment(name="bare", grid=ParameterGrid({}))
        with pytest.raises(TypeError, match="grid"):
            Experiment(name="gridless", surface=lambda **kw: {})

    def test_every_builtin_grid_point_is_a_valid_parameter_set(self):
        # A mistyped grid key fails here, not inside a worker.
        from repro.runner.experiments import BUILTIN_SWEEPS

        checked = 0
        for experiment in list_experiments():
            for grid in (experiment.grid, experiment.smoke_grid):
                for params in grid or ():
                    experiment.validate_params(params)
                    checked += 1
        for sweep in BUILTIN_SWEEPS.values():
            experiment = get_experiment(sweep.experiment)
            for params in sweep.grid:
                experiment.validate_params(params)
                checked += 1
        assert checked > 400


# ---------------------------------------------------------------------------
# Fault sweeps: degraded-mode experiments and their smoke grids.
# ---------------------------------------------------------------------------


class TestFaultSweeps:
    def test_sweeps_registered_per_policy(self):
        from repro.runner.experiments import (
            BUILTIN_SWEEPS,
            FAULT_PHASE_LOOP_SWEEPS,
            FAULT_SWEEP_POLICIES,
            FAULT_SWEEPS,
        )

        for policy in FAULT_SWEEP_POLICIES:
            name = f"fault-sweep-{policy}"
            assert name in FAULT_SWEEPS and name in BUILTIN_SWEEPS
            sweep = BUILTIN_SWEEPS[name]
            assert sweep.experiment == "route_ablation"
            assert all(p["routing"] == policy for p in sweep.grid)
            assert any(p["num_faults"] > 0 for p in sweep.grid)
            loop = BUILTIN_SWEEPS[f"fault-phase-loop-{policy}"]
            assert loop.experiment == "phase_loop"
        assert "fault-sweep-adaptive-escape" in BUILTIN_SWEEPS
        assert "fault-sweep-fixed-xyz" in BUILTIN_SWEEPS

    def test_zero_fault_grid_point_is_the_healthy_baseline(self):
        from repro.runner.experiments import FAULT_SWEEPS

        grid = FAULT_SWEEPS["fault-sweep-adaptive-escape"].grid
        assert any(p["num_faults"] == 0 for p in grid)

    def test_smoke_grid_runs_and_caches(self, tmp_path):
        from repro.runner.experiments import FAULT_SWEEP_SMOKE_GRID

        sweep = Sweep("route_ablation", FAULT_SWEEP_SMOKE_GRID,
                      label="fault-smoke")
        serial = assert_jobs_invariant(sweep, tmp_path)
        assert len(serial.runs) == len(FAULT_SWEEP_SMOKE_GRID)
        for run in serial.runs:
            # Healthy points keep the healthy record: no "faults" key.
            faults = run.result.get("faults", [])
            assert ("faults" in run.result) == bool(faults)
            assert len(faults) == run.params["num_faults"]
            # Traffic still flows around the dead cables: at 0.3 offered
            # every point accepts nearly all of it.
            assert run.result["accepted_load"] > 0.2

    def test_fault_phase_loop_smoke_grid_runs(self, tmp_path):
        from repro.runner.experiments import FAULT_PHASE_LOOP_SMOKE_GRID

        sweep = Sweep("phase_loop", FAULT_PHASE_LOOP_SMOKE_GRID,
                      label="fault-phase-smoke")
        result = assert_jobs_invariant(sweep, tmp_path)
        for run in result.runs:
            assert run.result["mean_iteration_ns"] > 0
            faults = run.result.get("faults", [])
            assert ("faults" in run.result) == bool(faults)
            assert len(faults) == run.params["num_faults"]


# ---------------------------------------------------------------------------
# Cache maintenance: stats and prune.
# ---------------------------------------------------------------------------


class TestCacheMaintenance:
    def _seeded_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put("fig11_fence", {"a": 1}, {"r": 1}, version=1)
        cache.put("fig11_fence", {"a": 2}, {"r": 2}, version=1)
        cache.put("fig5_latency", {"b": 1}, {"r": 3}, version=99)  # stale
        cache.put("gone_experiment", {"c": 1}, {"r": 4}, version=1)
        return cache

    def test_stats_by_config_counts_entries_and_bytes(self, tmp_path):
        cache = self._seeded_cache(tmp_path)
        stats = cache.stats_by_config()
        assert stats[("fig11_fence", 1)]["entries"] == 2
        assert stats[("fig5_latency", 99)]["entries"] == 1
        assert all(bucket["bytes"] > 0 for bucket in stats.values())

    def test_stats_groups_corrupt_entries(self, tmp_path):
        cache = self._seeded_cache(tmp_path)
        path = cache.put("fig11_fence", {"a": 3}, {"r": 5}, version=1)
        path.write_text("not json", encoding="utf-8")
        stats = cache.stats_by_config()
        assert stats[("<corrupt>", 0)]["entries"] == 1

    def test_prune_removes_unregistered_and_stale_versions(self, tmp_path):
        cache = self._seeded_cache(tmp_path)
        registered = {"fig11_fence": 1, "fig5_latency": 2}
        outcome = cache.prune(registered)
        assert outcome["removed"] == 2  # stale fig5 v99 + gone_experiment
        assert outcome["kept"] == 2
        assert outcome["freed_bytes"] > 0
        # The surviving entries are still servable.
        assert cache.get("fig11_fence", {"a": 1}, version=1) is not None
        assert cache.get("fig5_latency", {"b": 1}, version=99) is None

    def test_prune_keeps_only_the_bumped_version_mid_directory(
            self, tmp_path):
        # The adaptive-escape PR bumps experiment versions while their
        # old entries still sit in the same cache directory: prune must
        # remove exactly the old-version entries and keep the new.
        cache = ResultCache(tmp_path / "cache")
        for load in (0.1, 0.4, 0.8):
            cache.put("route_ablation", {"offered_load": load},
                      {"r": load}, version=1)
        cache.put("route_ablation", {"offered_load": 0.1},
                  {"r": 0.1, "routing": "adaptive-escape"}, version=2)
        cache.put("route_ablation", {"offered_load": 0.4},
                  {"r": 0.4, "routing": "adaptive-escape"}, version=2)
        outcome = cache.prune({"route_ablation": 2})
        assert outcome == {
            "removed": 3,
            "kept": 2,
            "freed_bytes": outcome["freed_bytes"],
            "artifacts_removed": 0,
            "artifacts_freed_bytes": 0,
        }
        assert outcome["freed_bytes"] > 0
        for load in (0.1, 0.4, 0.8):
            assert cache.get("route_ablation", {"offered_load": load},
                             version=1) is None
        assert cache.get("route_ablation", {"offered_load": 0.1},
                         version=2) is not None
        assert cache.get("route_ablation", {"offered_load": 0.4},
                         version=2) is not None

    def test_cli_cache_stats_and_prune(self, tmp_path, capsys):
        cache = self._seeded_cache(tmp_path)
        root = str(cache.root)
        assert main(["cache", "stats", "--cache-dir", root]) == 0
        out = capsys.readouterr().out
        assert "gone_experiment" in out and "unregistered" in out
        assert "stale" in out and "total: 4 entries" in out

        assert main(["cache", "prune", "--dry-run", "--cache-dir", root]) == 0
        assert "would remove 2 entries" in capsys.readouterr().out
        assert len(cache) == 4  # dry run deletes nothing

        assert main(["cache", "prune", "--cache-dir", root]) == 0
        assert "removed 2 entries" in capsys.readouterr().out
        assert len(cache) == 2
        # fig11_fence v1 matches the registered experiment and survives.
        assert cache.get("fig11_fence", {"a": 1}, version=1) is not None

    def test_cli_cache_missing_dir_fails_cleanly(self, tmp_path, capsys):
        code = main(["cache", "stats", "--cache-dir",
                     str(tmp_path / "nope")])
        assert code == 2
        assert "no cache" in capsys.readouterr().err

    def test_cli_cache_stats_rejects_dry_run(self, tmp_path, capsys):
        cache = self._seeded_cache(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["cache", "stats", "--dry-run", "--cache-dir",
                  str(cache.root)])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --dry-run" in capsys.readouterr().err

    def test_cli_prune_dry_run_reports_the_real_plan(self, tmp_path, capsys):
        # One stale entry with one metrics artifact: the dry run must
        # count the artifact the real prune sweeps after removing it.
        cache = ResultCache(tmp_path / "cache")
        cache.put("fig11_fence", {"a": 1}, {"r": 1}, version=1)
        stale = cache.put("fig11_fence", {"a": 2}, {"r": 2}, version=99)
        size = stale.stat().st_size
        observe = tmp_path / "cache" / "observe"
        observe.mkdir()
        (observe / f"{stale.stem}.metrics.json").write_text("{}")
        root = str(cache.root)

        assert main(["cache", "prune", "--dry-run", "--cache-dir", root]) == 0
        dry = capsys.readouterr().out.splitlines()
        assert len(cache) == 2 and len(list(observe.iterdir())) == 1
        assert main(["cache", "prune", "--cache-dir", root]) == 0
        real = capsys.readouterr().out.splitlines()
        assert len(cache) == 1 and not list(observe.iterdir())
        assert dry[0].startswith(f"would remove 1 entries ({size} bytes)")
        assert real[0].startswith(f"removed 1 entries ({size} bytes)")
        assert dry[1:] == ["would sweep 1 orphaned observe artifacts (2 bytes)"]
        assert real[1:] == ["swept 1 orphaned observe artifacts (2 bytes)"]

    def test_cli_stats_orphans_match_the_prune_dry_run(self, tmp_path, capsys):
        # The artifact of a stale entry is orphaned: prune removes the
        # entry first, then sweeps the artifact.  Stats must say so.
        cache = ResultCache(tmp_path / "cache")
        cache.put("fig11_fence", {"a": 1}, {"r": 1}, version=1)
        stale = cache.put("fig11_fence", {"a": 2}, {"r": 2}, version=99)
        observe = tmp_path / "cache" / "observe"
        observe.mkdir()
        (observe / f"{stale.stem}.metrics.json").write_text("{}")
        root = str(cache.root)

        assert main(["cache", "stats", "--cache-dir", root]) == 0
        stats = capsys.readouterr().out
        assert main(["cache", "stats", "--json", "--cache-dir", root]) == 0
        payload = json.loads(capsys.readouterr().out)["observe"]
        assert main(["cache", "prune", "--dry-run", "--cache-dir", root]) == 0
        dry = capsys.readouterr().out
        assert "would sweep 1 orphaned observe artifacts (2 bytes)" in dry
        assert "(1 orphaned, 2 bytes reclaimable by prune)" in stats
        assert payload == {"artifacts": 1, "bytes": 2, "orphaned": 1,
                           "orphaned_bytes": 2}


# ---------------------------------------------------------------------------
# Closed-loop workload sweeps.
# ---------------------------------------------------------------------------


class TestClosedLoopSweeps:
    def test_sweeps_registered_per_pattern(self):
        from repro.runner.experiments import (
            BUILTIN_SWEEPS,
            CLOSED_LOOP_PATTERNS,
            CLOSED_LOOP_SWEEPS,
            PHASE_LOOP_PATTERNS,
            PHASE_LOOP_SWEEPS,
        )

        for pattern in CLOSED_LOOP_PATTERNS:
            name = f"closed-loop-{pattern}"
            assert name in CLOSED_LOOP_SWEEPS and name in BUILTIN_SWEEPS
            sweep = BUILTIN_SWEEPS[name]
            assert sweep.experiment == "closed_loop"
            assert all(p["pattern"] == pattern for p in sweep.grid)
        for pattern in PHASE_LOOP_PATTERNS:
            name = f"phase-loop-{pattern}"
            assert name in PHASE_LOOP_SWEEPS and name in BUILTIN_SWEEPS
            assert BUILTIN_SWEEPS[name].experiment == "phase_loop"

    def test_smoke_grids_run_and_cache(self, tmp_path):
        from repro.runner.experiments import (
            CLOSED_LOOP_SMOKE_GRID,
            PHASE_LOOP_SMOKE_GRID,
        )

        window_sweep = Sweep("closed_loop", CLOSED_LOOP_SMOKE_GRID,
                             label="closed-smoke")
        serial = assert_jobs_invariant(window_sweep, tmp_path / "window")
        assert len(serial.runs) == len(CLOSED_LOOP_SMOKE_GRID)
        # Two routing policies, so the parallel side really fans out.
        (axes,) = PHASE_LOOP_SMOKE_GRID.subgrids()
        phase_grid = ParameterGrid(
            dict(axes, routing=["randomized-minimal", "adaptive-escape"]))
        phase_sweep = Sweep("phase_loop", phase_grid, label="phase-smoke")
        result = assert_jobs_invariant(phase_sweep, tmp_path / "phase")
        record = result.runs[0].record()["result"]
        assert record["mean_iteration_ns"] > 0
        assert 0 < record["mean_fence_wait_fraction"] < 1

    def test_set_validation_covers_workload_params(self):
        get_experiment("closed_loop").validate_params(
            {"window": 8, "routing": "valiant"})
        get_experiment("phase_loop").validate_params(
            {"messages_per_node": 6, "fence_hops": 2})
        with pytest.raises(ValueError):
            get_experiment("closed_loop").validate_params({"windoww": 8})
