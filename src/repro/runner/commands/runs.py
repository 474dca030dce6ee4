"""Run commands: ``list``, ``run``, ``sweep`` and ``report``.

* ``list [--markdown]`` — registered experiments and named sweeps, or
  the full experiment catalog as Markdown (the generator behind
  ``docs/experiments.md``).
* ``run EXPERIMENT [--set k=v ...]`` — one configuration, in-process.
* ``sweep [NAME ...] [--smoke] [--jobs N]`` — fan a grid out across
  worker processes, memoized through the on-disk result cache;
  ``route_ablation``, ``closed_loop`` and ``phase_loop`` sweeps also
  print their analysis tables (saturation points, window knees,
  phase-loop iteration times) to stderr.
* ``report [EXPERIMENT] [--input FILE]`` — sweep output (or the cache)
  as a table, CSV or per-group percentiles, with an optional ASCII
  chart on stderr.

``run``/``sweep`` accept ``--observe``/``--trace`` (repro.observe):
observed runs execute every configuration (no cache reads), write
metrics/trace artifacts beside the cache keyed by each run's config
digest, and still produce byte-identical results and cache entries.
With a cache they also append to the run ledger (``--no-ledger`` to
opt out); ledger writes never affect results or digests.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ...observe.artifacts import observe_dir
from ..cache import ResultCache
from ..cli import add_output, write_output
from ..execute import SweepResult, run_sweeps
from ..experiment import Sweep, get_experiment, list_experiments
from ..grid import ParameterGrid


def register(sub, cache_dir: argparse.ArgumentParser) -> None:
    list_parser = sub.add_parser("list", help="list experiments and named sweeps")
    list_parser.add_argument(
        "--markdown",
        action="store_true",
        help="emit the full experiment catalog as Markdown "
        "(the generator behind docs/experiments.md)",
    )
    list_parser.set_defaults(handler=_cmd_list)

    run_parser = sub.add_parser(
        "run", parents=[cache_dir], help="run one experiment configuration"
    )
    run_parser.add_argument("experiment", help="registered experiment name")
    run_parser.add_argument(
        "--set",
        dest="assignments",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a parameter (JSON values; repeatable)",
    )
    _add_execution(run_parser)
    run_parser.set_defaults(handler=_cmd_run)

    sweep_parser = sub.add_parser(
        "sweep", parents=[cache_dir], help="run one or more parameter sweeps"
    )
    sweep_parser.add_argument(
        "sweeps",
        nargs="*",
        metavar="SWEEP",
        help="named sweeps or experiment names (default: fig5 fig9 fig11)",
    )
    sweep_parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the tiny smoke grid of every experiment instead",
    )
    sweep_parser.add_argument(
        "--jobs", "-j", type=int, default=1, help="worker processes (default: 1)"
    )
    _add_execution(sweep_parser)
    sweep_parser.set_defaults(handler=_cmd_sweep)

    report_parser = sub.add_parser(
        "report", parents=[cache_dir], help="format sweep results"
    )
    report_parser.add_argument(
        "--input",
        "-i",
        default=None,
        help="runner JSON output to format (default: read the cache)",
    )
    report_parser.add_argument(
        "experiment",
        nargs="?",
        default=None,
        help="with no --input: cache entries of this experiment only",
    )
    report_parser.add_argument(
        "--format", choices=("table", "csv"), default="table", help="report format"
    )
    report_parser.add_argument(
        "--percentiles",
        metavar="BY:VALUE",
        default=None,
        help="instead of the flat table, group runs by parameter BY and "
        "summarize result column VALUE with count/mean/max/p50/p95/p99 "
        "(e.g. offered_load:classes.request.latency_ns.mean)",
    )
    report_parser.add_argument(
        "--plot",
        metavar="X:Y",
        default=None,
        help="also render an ASCII chart of result/parameter column Y vs "
        "X to stderr (e.g. "
        "offered_load:classes.request.latency_ns.mean for the "
        "latency-load curve)",
    )
    report_parser.add_argument(
        "--plot-by",
        metavar="KEY[,KEY...]",
        default=None,
        help="split --plot into one series per distinct value of these "
        "comma-separated columns (e.g. pattern,routing)",
    )
    report_parser.set_defaults(handler=_cmd_report)


def _add_execution(parser: argparse.ArgumentParser) -> None:
    """The cache, ledger, output and observability flags of run/sweep."""
    parser.add_argument(
        "--no-cache", action="store_true", help="do not read or write the cache"
    )
    parser.add_argument(
        "--no-ledger",
        action="store_true",
        help="do not record this execution in the run ledger "
        "(--no-cache implies this: the ledger lives beside the cache)",
    )
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )
    add_output(parser)
    parser.add_argument(
        "--observe",
        action="store_true",
        help="record deterministic metrics artifacts beside the cache "
        "(forces execution: observed runs skip cache reads)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="also record packet-lifecycle traces (implies --observe)",
    )
    parser.add_argument(
        "--observe-period",
        type=float,
        default=100.0,
        metavar="NS",
        help="metrics slice width in simulated ns (default: 100)",
    )
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        metavar="FRACTION",
        help="fraction of packets traced, selected by a deterministic "
        "hash of the packet identity (default: 1.0)",
    )
    parser.add_argument(
        "--trace-seed",
        type=int,
        default=0,
        help="seed of the trace sampling hash (default: 0)",
    )


def _cmd_list(args: argparse.Namespace) -> int:
    if args.markdown:
        from ..catalog import catalog_markdown

        sys.stdout.write(catalog_markdown())
        return 0
    from ..experiments import BUILTIN_SWEEPS

    print("experiments:")
    for experiment in list_experiments():
        grid_size = len(experiment.grid)
        print(
            f"  {experiment.name:24s} {grid_size:3d}-point grid  "
            f"{experiment.description}"
        )
    print("sweeps:")
    for name, sweep in sorted(BUILTIN_SWEEPS.items()):
        size = len(sweep.grid) if sweep.grid is not None else 0
        print(f"  {name:24s} {size:3d} runs of {sweep.experiment}")
    return 0


def _parse_set(assignments: Sequence[str]) -> Dict[str, object]:
    """Parse ``--set key=value`` overrides; values are JSON when valid."""
    params: Dict[str, object] = {}
    for assignment in assignments:
        key, sep, raw = assignment.partition("=")
        if not sep or not key:
            raise ValueError(f"--set expects key=value, got {assignment!r}")
        try:
            params[key] = json.loads(raw)
        except ValueError:
            params[key] = raw
    return params


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def _execute(
    args: argparse.Namespace, sweeps: Sequence[Sweep], jobs: int
) -> Tuple[List[SweepResult], Optional[ResultCache], object]:
    """Run ``sweeps`` as the flags ask and write the result payload.

    The ledger lives beside the cache, so ``--no-cache`` disables the
    ledger with it; ``--no-ledger`` opts out independently.  Returns
    the results, the cache and the ledger (either may be None).
    """
    cache = None if args.no_cache else ResultCache(Path(args.cache_dir))
    ledger = None
    if cache is not None and not args.no_ledger:
        from ...observe.ledger import RunLedger, ledger_dir

        ledger = RunLedger(ledger_dir(cache.root))
    observe = None
    if args.observe or args.trace:
        from ...observe.config import ObserveConfig

        observe = ObserveConfig(
            metrics=True,
            trace=args.trace,
            period_ns=args.observe_period,
            trace_sample=args.trace_sample,
            trace_seed=args.trace_seed,
        )
    results = run_sweeps(
        sweeps, jobs=jobs, cache=cache, progress=_progress, observe=observe,
        artifact_dir=observe_dir(Path(args.cache_dir)), ledger=ledger)
    records = [result.record() for result in results]
    if args.format == "csv":
        from ...analysis.aggregate import sweeps_to_csv

        text = sweeps_to_csv(records)
    else:
        text = json.dumps({"sweeps": records}, sort_keys=True, indent=2) + "\n"
    write_output(args, text)
    for result in results:
        for run in result.runs:
            for path in run.artifact_paths:
                print(f"observe: wrote {path}", file=sys.stderr)
    return results, cache, ledger


def _summarize(results: Sequence[SweepResult], cache: Optional[ResultCache]) -> None:
    for result in results:
        print(
            f"{result.label}: {len(result.runs)} runs, "
            f"{result.cache_hits} cached, {result.cache_misses} executed "
            f"({result.elapsed_s:.1f}s simulated work)",
            file=sys.stderr,
        )
    if cache is not None:
        stats = cache.stats
        print(
            f"cache {cache.root}: {stats.hits}/{stats.lookups} hits "
            f"({stats.hit_rate:.0%}), {stats.writes} new entries",
            file=sys.stderr,
        )


def _cmd_run(args: argparse.Namespace) -> int:
    experiment = get_experiment(args.experiment)
    overrides = _parse_set(args.assignments)
    # Fail fast on --set typos, before the cache lookup or any run.
    experiment.validate_params(overrides)
    grid = ParameterGrid({key: [value] for key, value in overrides.items()})
    sweep = Sweep(experiment.name, grid, label=f"run-{experiment.name}")
    results, cache, __ = _execute(args, [sweep], jobs=1)
    _summarize(results, cache)
    return 0


def _resolve_sweeps(names: Sequence[str], smoke: bool) -> List[Sweep]:
    from ..experiments import BUILTIN_SWEEPS, DEFAULT_SWEEP_NAMES, smoke_sweeps

    if smoke:
        if not names:
            return smoke_sweeps()
        # Honor the requested names: smoke only those experiments.
        wanted = {
            BUILTIN_SWEEPS[name].experiment if name in BUILTIN_SWEEPS else name
            for name in names
        }
        selected = [s for s in smoke_sweeps() if s.experiment in wanted]
        missing = wanted - {s.experiment for s in selected}
        if missing:
            raise KeyError(f"no smoke grid for: {', '.join(sorted(missing))}")
        return selected
    resolved = []
    for name in names or DEFAULT_SWEEP_NAMES:
        if name in BUILTIN_SWEEPS:
            resolved.append(BUILTIN_SWEEPS[name])
        else:
            experiment = get_experiment(name)  # KeyError lists known names
            resolved.append(Sweep(experiment.name, experiment.grid))
    return resolved


def _sweep_table_renderers() -> Dict[str, object]:
    """Experiment name -> the stderr table renderer of its sweeps.

    Each renderer takes the run records and a title: latency-vs-load
    tables with saturation points for ``route_ablation`` (one table per
    (pattern, routing, fault count) curve), throughput/latency-vs-window
    tables with the knee for ``closed_loop``, and the per-configuration
    iteration-time comparison for ``phase_loop`` (with a fault-count
    column on faulted sweeps).
    """
    from ...analysis.closedloop import phase_loop_table, window_sweep_tables
    from ...analysis.saturation import load_sweep_tables

    return {
        "route_ablation": load_sweep_tables,
        "closed_loop": window_sweep_tables,
        "phase_loop": phase_loop_table,
    }


def _cmd_sweep(args: argparse.Namespace) -> int:
    sweeps = _resolve_sweeps(args.sweeps, args.smoke)
    results, cache, ledger = _execute(args, sweeps, jobs=args.jobs)
    # Analysis tables go to stderr, so stdout stays byte-stable.
    renderers = _sweep_table_renderers()
    for result in results:
        render = renderers.get(result.experiment)
        if render is None:
            continue
        try:
            table = render([run.record() for run in result.runs], title=result.label)
        except ValueError:
            continue  # e.g. a grid whose points all failed to complete
        print(table, file=sys.stderr)
    if ledger is not None:
        from ...observe.status import end_of_sweep_summary

        for result in results:
            runs = [
                (index, run.cached, run.elapsed_s)
                for index, run in enumerate(result.runs)
            ]
            print(end_of_sweep_summary(result.label, runs), file=sys.stderr)
    _summarize(results, cache)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from ...analysis.aggregate import (
        grouped_percentile_table,
        load_payload,
        sweep_table,
        sweeps_to_csv,
    )

    # Validate the plot spec up front so a typo cannot emit the full
    # tables to stdout before failing (a partial-success state for
    # pipelines capturing stdout).
    plot_columns = _parse_plot_spec(args.plot) if args.plot is not None else None
    if args.input:
        text = (
            sys.stdin.read()
            if args.input == "-"
            else Path(args.input).read_text(encoding="utf-8")
        )
        sweeps = load_payload(text)
    else:
        cache = ResultCache(Path(args.cache_dir))
        entries = list(cache.iter_entries(args.experiment))
        label = args.experiment or "cache"
        sweeps = [{"label": label, "runs": entries}]
    if args.percentiles is not None:
        if args.format == "csv":
            raise ValueError("--percentiles renders a table; drop --format csv")
        by, sep, value = args.percentiles.partition(":")
        if not sep or not by or not value:
            raise ValueError(
                f"--percentiles expects BY:VALUE, got {args.percentiles!r}"
            )
        for sweep in sweeps:
            print(
                grouped_percentile_table(
                    sweep["runs"],
                    by=by,
                    value=value,
                    title=str(sweep.get("label", "")),
                )
            )
            print()
    elif args.format == "csv":
        sys.stdout.write(sweeps_to_csv(sweeps))
    else:
        for sweep in sweeps:
            print(sweep_table(sweep["runs"], title=str(sweep.get("label", ""))))
            print()
    if plot_columns is not None:
        _render_plots(sweeps, plot_columns, args.plot_by)
    return 0


def _parse_plot_spec(plot: str) -> Tuple[str, str]:
    x, sep, y = plot.partition(":")
    if not sep or not x or not y:
        raise ValueError(f"--plot expects X:Y column names, got {plot!r}")
    return x, y


def _render_plots(
    sweeps: Sequence[Dict[str, object]],
    plot_columns: Tuple[str, str],
    plot_by: Optional[str],
) -> None:
    """ASCII-chart one sweep column pair per sweep, to stderr.

    Keeps stdout machine-consumable: tables/CSV stay the primary output
    and the chart rides alongside on the diagnostic stream.
    """
    from ...analysis.plot import ascii_chart, series_from_runs

    x, y = plot_columns
    by = tuple(key for key in (plot_by or "").split(",") if key)
    for sweep in sweeps:
        label = str(sweep.get("label", ""))
        series = series_from_runs(sweep["runs"], x, y, by=by)
        if not series:
            print(
                f"{label or 'sweep'}: no plottable points for {x} vs {y}",
                file=sys.stderr,
            )
            continue
        chart = ascii_chart(
            series,
            x_label=x,
            y_label=y,
            title=label,
            # --plot-by always gets its legend line, even when the
            # grouping collapses to a single (possibly unnamed) series.
            force_legend=plot_by is not None,
        )
        print(chart, file=sys.stderr)
        print(file=sys.stderr)
