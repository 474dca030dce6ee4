"""Command-line interface: ``python -m repro.runner`` / ``repro-runner``.

Subcommands:

* ``list`` — registered experiments and named sweeps.
* ``run EXPERIMENT [--set k=v ...]`` — one configuration, in-process.
* ``sweep [NAME ...] [--smoke] [--jobs N]`` — fan a grid out across
  worker processes, memoized through the on-disk result cache.
* ``cache {stats,prune}`` — entry/byte counts per (experiment, version),
  and removal of entries no registered experiment can ever serve again.
* ``report`` — format sweep output (or the cache) as a table or CSV;
  ``--timeline`` renders sliced observability metrics as ASCII charts.
* ``trace {export,list}`` — Chrome/Perfetto export of recorded packet
  traces (``--packet NODE,SEQ`` for one packet's lifecycle), and the
  artifact inventory.
* ``diagnose DIGEST [--compare DIGEST]`` — automated root-cause
  forensics over an observed run's artifacts
  (:mod:`repro.analysis.forensics`): per-hop latency decomposition,
  backpressure attribution with saturation trees, fence critical
  paths, and topology heatmaps; stores a ``<digest>.diagnosis.json``
  artifact beside the metrics/trace layers.
* ``ledger {list,show,diff}`` — the persistent cross-run ledger beside
  the cache: every execution ever recorded, queryable and diffable by
  config digest across runs and revisions.
* ``status [--watch]`` — the live sweep progress board folded from the
  workers' heartbeat stream.
* ``regress --against A --current B`` — the regression gate over saved
  ``python3 perfbench/run.py`` output (:mod:`repro.runner.sentinel`):
  ``setup_s``, ``run_s`` and ``peak_rss_mb`` medians under a noise
  band, count metrics exactly; exits 1 on a regression or a changed count
  (CI-ready).

``run``/``sweep`` accept ``--observe``/``--trace`` (repro.observe):
observed runs execute every configuration (no cache reads), write
metrics/trace artifacts beside the cache keyed by each run's config
digest, and still produce byte-identical results and cache entries.
With a cache they also append to the run ledger (``--no-ledger`` to
opt out); ledger writes never affect results or digests.

Result payloads go to stdout (or ``--output``); progress and cache
statistics go to stderr, so stdout is always machine-consumable and
byte-stable for a given grid.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .cache import ResultCache
from .experiment import Sweep, get_experiment, list_experiments
from .execute import SweepResult, run_sweep, run_sweeps
from .grid import ParameterGrid

DEFAULT_CACHE_DIR = ".repro-cache"


def _parse_set(assignments: Sequence[str]) -> Dict[str, object]:
    """Parse ``--set key=value`` overrides; values are JSON when valid."""
    params: Dict[str, object] = {}
    for assignment in assignments:
        key, sep, raw = assignment.partition("=")
        if not sep or not key:
            raise SystemExit(f"--set expects key=value, got {assignment!r}")
        try:
            params[key] = json.loads(raw)
        except ValueError:
            params[key] = raw
    return params


def _open_cache(args: argparse.Namespace) -> Optional[ResultCache]:
    if getattr(args, "no_cache", False):
        return None
    return ResultCache(Path(args.cache_dir))


def _open_ledger(args: argparse.Namespace, cache: Optional[ResultCache]):
    """The RunLedger beside the cache, or None (--no-ledger / --no-cache).

    The ledger lives beside the cache, so disabling the cache disables
    the ledger with it; ``--no-ledger`` opts out independently.
    """
    if cache is None or getattr(args, "no_ledger", False):
        return None
    from ..observe.ledger import RunLedger, ledger_dir

    return RunLedger(ledger_dir(cache.root))


def _observe_config(args: argparse.Namespace):
    """The ObserveConfig the flags ask for, or None when off."""
    if not (getattr(args, "observe", False) or getattr(args, "trace", False)):
        return None
    from ..observe.config import ObserveConfig

    return ObserveConfig(
        metrics=True,
        trace=bool(args.trace),
        period_ns=args.observe_period,
        trace_sample=args.trace_sample,
        trace_seed=args.trace_seed,
    )


def _artifact_dir(args: argparse.Namespace) -> Path:
    from ..observe.artifacts import observe_dir

    return observe_dir(Path(args.cache_dir))


def _payload(results: Sequence[SweepResult]) -> dict:
    return {"sweeps": [result.record() for result in results]}


def _emit(args: argparse.Namespace, results: Sequence[SweepResult]) -> None:
    if args.format == "csv":
        from ..analysis.aggregate import sweeps_to_csv

        text = sweeps_to_csv([result.record() for result in results])
    else:
        text = json.dumps(_payload(results), sort_keys=True, indent=2) + "\n"
    if args.output and args.output != "-":
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)


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


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def _load_sweep_report(results: Sequence[SweepResult]) -> None:
    """Print latency-vs-load tables with saturation points (stderr).

    Only applies to ``route_ablation`` sweeps (the ``load-sweep-*``
    sweeps among them); stdout stays byte-stable for a given grid
    regardless.  Runs are grouped by ``(pattern, routing)``, so
    ablation sweeps that mix adversarial patterns on purpose render one
    table per curve.
    """
    from ..analysis.saturation import load_sweep_tables

    for result in results:
        if result.experiment != "route_ablation":
            continue
        try:
            tables = load_sweep_tables(
                [run.record() for run in result.runs], title=result.label
            )
        except ValueError:
            continue  # e.g. a grid whose points all failed to complete
        print(tables, file=sys.stderr)


def _closed_loop_report(results: Sequence[SweepResult]) -> None:
    """Print window-knee and phase-loop tables for closed-loop sweeps.

    The closed-loop analogue of :func:`_load_sweep_report`: window
    sweeps get one throughput/latency-vs-window table per (pattern,
    routing) curve with the detected knee, phase-loop sweeps get the
    per-configuration iteration-time comparison.  Stderr only; stdout
    stays byte-stable.
    """
    from ..analysis.closedloop import phase_loop_table, window_sweep_tables

    for result in results:
        try:
            if result.experiment == "closed_loop":
                print(
                    window_sweep_tables(
                        [run.record() for run in result.runs],
                        title=result.label,
                    ),
                    file=sys.stderr,
                )
            elif result.experiment == "phase_loop":
                print(
                    phase_loop_table(
                        [run.record() for run in result.runs],
                        title=result.label,
                    ),
                    file=sys.stderr,
                )
        except ValueError:
            continue  # e.g. a grid whose points all failed to complete


def _add_observe(parser: argparse.ArgumentParser) -> None:
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


def _add_common(parser: argparse.ArgumentParser) -> None:
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
    parser.add_argument(
        "--output", "-o", default="-", help="output path (default: stdout)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-runner",
        description="Parallel, cached experiment runner for the Anton 3 "
        "network reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # One --cache-dir for every subcommand that reads or writes the cache.
    cache_dir = argparse.ArgumentParser(add_help=False)
    cache_dir.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"result cache directory (default: {DEFAULT_CACHE_DIR})",
    )

    list_parser = sub.add_parser("list", help="list experiments and named sweeps")
    list_parser.add_argument(
        "--markdown",
        action="store_true",
        help="emit the full experiment catalog as Markdown "
        "(the generator behind docs/experiments.md)",
    )

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
    _add_common(run_parser)
    _add_observe(run_parser)

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
    _add_common(sweep_parser)
    _add_observe(sweep_parser)

    cache_parser = sub.add_parser(
        "cache", parents=[cache_dir], help="inspect or prune the result cache"
    )
    cache_parser.add_argument(
        "action",
        choices=("stats", "prune"),
        help="stats: entry/byte counts per (experiment, version); "
        "prune: delete entries whose (experiment, version) no longer "
        "matches a registered experiment",
    )
    cache_parser.add_argument(
        "--dry-run",
        action="store_true",
        help="with prune: report what would be removed without deleting",
    )
    cache_parser.add_argument(
        "--json",
        action="store_true",
        help="with stats: emit the statistics as JSON on stdout",
    )

    trace_parser = sub.add_parser(
        "trace", parents=[cache_dir],
        help="export or list recorded packet traces",
    )
    trace_parser.add_argument(
        "action",
        choices=("export", "list"),
        help="export: one trace artifact as Chrome/Perfetto JSON; "
        "list: every observability artifact beside the cache",
    )
    trace_parser.add_argument(
        "--digest",
        default=None,
        help="with export: config digest (or unique prefix) of the run",
    )
    trace_parser.add_argument(
        "--input",
        "-i",
        default=None,
        help="with export: read this trace artifact file instead of "
        "resolving --digest against the cache",
    )
    trace_parser.add_argument(
        "--packet",
        default=None,
        metavar="NODE,SEQ",
        help="with export: only this packet's lifecycle (its stable "
        "trace identity: injecting node id, per-chip sequence number)",
    )
    trace_parser.add_argument(
        "--output", "-o", default="-", help="output path (default: stdout)"
    )

    diagnose_parser = sub.add_parser(
        "diagnose", parents=[cache_dir],
        help="root-cause forensics over an observed run's artifacts",
    )
    diagnose_parser.add_argument(
        "digest",
        help="config digest (or unique prefix) of an observed run with "
        "a metrics artifact beside the cache",
    )
    diagnose_parser.add_argument(
        "--compare",
        default=None,
        metavar="DIGEST",
        help="diff the diagnosis against a second observed run "
        "(policy-ablation forensics)",
    )
    diagnose_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the diagnosis (or the comparison) as JSON on stdout",
    )
    diagnose_parser.add_argument(
        "--no-write",
        action="store_true",
        help="do not store <digest>.diagnosis.json beside the "
        "metrics/trace artifacts",
    )
    diagnose_parser.add_argument(
        "--output", "-o", default="-", help="output path (default: stdout)"
    )

    ledger_parser = sub.add_parser(
        "ledger", parents=[cache_dir],
        help="query the persistent cross-run ledger",
    )
    ledger_parser.add_argument(
        "action",
        choices=("list", "show", "diff"),
        help="list: one row per recorded execution; "
        "show: the latest record of one digest; "
        "diff: compare two digests' records (params/result/metrics)",
    )
    ledger_parser.add_argument(
        "digests",
        nargs="*",
        metavar="DIGEST",
        help="config digest (or unique prefix): one for show, two for diff",
    )
    ledger_parser.add_argument(
        "--experiment",
        default=None,
        help="with list: only records of this experiment",
    )
    ledger_parser.add_argument(
        "--sweep",
        default=None,
        help="with list: only records of this sweep label",
    )
    ledger_parser.add_argument(
        "--json",
        action="store_true",
        help="emit records / the diff as JSON on stdout",
    )

    status_parser = sub.add_parser(
        "status", parents=[cache_dir], help="show the live sweep progress board"
    )
    status_parser.add_argument(
        "--watch",
        action="store_true",
        help="re-render until every grid point reaches a terminal state",
    )
    status_parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="with --watch: seconds between renders (default: 2)",
    )

    regress_parser = sub.add_parser(
        "regress", help="gate one perfbench run against baseline runs"
    )
    regress_parser.add_argument(
        "--against",
        action="append",
        default=[],
        required=True,
        metavar="TRANSCRIPT",
        help="saved stdout of python3 perfbench/run.py (repeatable; the "
        "runs are pooled into each workload's noise band)",
    )
    regress_parser.add_argument(
        "--current",
        required=True,
        metavar="TRANSCRIPT",
        help="saved stdout of the perfbench run to classify",
    )
    regress_parser.add_argument(
        "--min-rel",
        type=float,
        default=None,
        metavar="FRACTION",
        help="relative slowdown (or growth in peak RSS) below which "
        "nothing is flagged (default: 0.10)",
    )
    regress_parser.add_argument(
        "--sigma",
        type=float,
        default=None,
        help="noise-band width in baseline coefficient-of-variation "
        "units (default: 4.0)",
    )
    regress_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the full report as JSON on stdout",
    )
    regress_parser.add_argument(
        "--output", "-o", default="-", help="output path (default: stdout)"
    )

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
    report_parser.add_argument(
        "--timeline",
        metavar="METRIC",
        default=None,
        help="instead of result tables, ASCII-chart this sliced metric "
        "of an observability metrics artifact (e.g. machine/in_flight; "
        "pass 'list' to enumerate the artifact's metrics)",
    )
    report_parser.add_argument(
        "--artifact",
        default=None,
        help="with --timeline: path of the metrics artifact to read",
    )
    report_parser.add_argument(
        "--by",
        choices=("vc",),
        default=None,
        help="with --timeline: expand the metric into one series per "
        "sub-resource (vc: per-virtual-channel, e.g. --timeline "
        "link/host0.out/occupancy --by vc charts every "
        "link/host0.out/vc<k>/occupancy)",
    )
    report_parser.add_argument(
        "--digest",
        default=None,
        help="with --timeline: resolve the artifact by config digest "
        "(or unique prefix) under <cache-dir>/observe instead",
    )
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    if args.markdown:
        from .catalog import catalog_markdown

        sys.stdout.write(catalog_markdown())
        return 0
    from .experiments import BUILTIN_SWEEPS

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


def _cmd_run(args: argparse.Namespace) -> int:
    experiment = get_experiment(args.experiment)
    overrides = _parse_set(args.assignments)
    # Fail fast on --set typos, before the cache lookup or any run.
    experiment.validate_params(overrides)
    grid = ParameterGrid({key: [value] for key, value in overrides.items()})
    sweep = Sweep(experiment.name, grid, label=f"run-{experiment.name}")
    cache = _open_cache(args)
    observe = _observe_config(args)
    ledger = _open_ledger(args, cache)
    result = run_sweep(
        sweep, jobs=1, cache=cache, progress=_progress,
        observe=observe, artifact_dir=_artifact_dir(args), ledger=ledger)
    _emit(args, [result])
    _report_artifacts([result])
    _summarize([result], cache)
    return 0


def _report_artifacts(results: Sequence[SweepResult]) -> None:
    """List written observability artifacts on stderr."""
    for result in results:
        for run in result.runs:
            for path in run.artifact_paths:
                print(f"observe: wrote {path}", file=sys.stderr)


def _resolve_sweeps(names: Sequence[str], smoke: bool) -> List[Sweep]:
    from .experiments import BUILTIN_SWEEPS, DEFAULT_SWEEP_NAMES, smoke_sweeps

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


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        sweeps = _resolve_sweeps(args.sweeps, args.smoke)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    cache = _open_cache(args)
    observe = _observe_config(args)
    ledger = _open_ledger(args, cache)
    results = run_sweeps(
        sweeps, jobs=args.jobs, cache=cache, progress=_progress,
        observe=observe, artifact_dir=_artifact_dir(args), ledger=ledger)
    _emit(args, results)
    _report_artifacts(results)
    _load_sweep_report(results)
    _closed_loop_report(results)
    if ledger is not None:
        from ..observe.status import end_of_sweep_summary

        for result in results:
            runs = [
                (index, run.cached, run.elapsed_s)
                for index, run in enumerate(result.runs)
            ]
            print(end_of_sweep_summary(result.label, runs), file=sys.stderr)
    _summarize(results, cache)
    return 0


def _registered_versions() -> Dict[str, int]:
    """Current ``{experiment: version}`` map — what prune keeps."""
    return {exp.name: exp.version for exp in list_experiments()}


def _cmd_cache(args: argparse.Namespace) -> int:
    from ..analysis.report import format_table

    if args.dry_run and args.action != "prune":
        print("error: --dry-run only applies to prune", file=sys.stderr)
        return 2
    if args.json and args.action != "stats":
        print("error: --json only applies to stats", file=sys.stderr)
        return 2
    root = Path(args.cache_dir)
    if not root.is_dir():
        print(f"error: no cache at {root}", file=sys.stderr)
        return 2
    cache = ResultCache(root)
    registered = _registered_versions()
    if args.action == "stats":
        stats = cache.stats_by_config()
        rows = []
        for (experiment, version), bucket in sorted(stats.items()):
            current = registered.get(experiment)
            if experiment == "<corrupt>":
                status = "corrupt"
            elif current is None:
                status = "unregistered"
            elif current != version:
                status = f"stale (now v{current})"
            else:
                status = "current"
            rows.append(
                [
                    experiment,
                    str(version),
                    str(bucket["entries"]),
                    str(bucket["bytes"]),
                    status,
                ]
            )
        total_entries = sum(bucket["entries"] for bucket in stats.values())
        total_bytes = sum(bucket["bytes"] for bucket in stats.values())
        observe = cache.observe_stats()
        ledger = cache.ledger_stats()
        if args.json:
            payload = {
                "root": str(cache.root),
                "configs": [
                    {
                        "experiment": experiment,
                        "version": version,
                        "entries": entries,
                        "bytes": size,
                        "status": status,
                    }
                    for experiment, version, entries, size, status in (
                        (row[0], int(row[1]), int(row[2]), int(row[3]),
                         row[4])
                        for row in rows
                    )
                ],
                "total": {"entries": total_entries, "bytes": total_bytes},
                "observe": observe,
                "ledger": ledger,
            }
            sys.stdout.write(
                json.dumps(payload, sort_keys=True, indent=2) + "\n")
            return 0
        print(
            format_table(
                ("experiment", "version", "entries", "bytes", "status"),
                rows,
            )
        )
        print(
            f"total: {total_entries} entries, {total_bytes} bytes "
            f"in {cache.root}"
        )
        if observe["artifacts"]:
            print(
                f"observe: {observe['artifacts']} artifacts, "
                f"{observe['bytes']} bytes "
                f"({observe['orphaned']} orphaned, "
                f"{observe['orphaned_bytes']} bytes reclaimable by prune)"
            )
        if ledger["records"] or ledger["status_events"]:
            print(
                f"ledger: {ledger['records']} run records, "
                f"{ledger['status_events']} status events, "
                f"{ledger['bytes']} bytes"
            )
        return 0
    # prune
    if args.dry_run:
        stats = cache.stats_by_config()
        removed = freed = 0
        for (experiment, version), bucket in stats.items():
            if registered.get(experiment) != version:
                removed += bucket["entries"]
                freed += bucket["bytes"]
        observe = cache.observe_stats()
        print(f"would remove {removed} entries ({freed} bytes) from {cache.root}")
        if observe["orphaned"]:
            print(
                f"would sweep {observe['orphaned']} orphaned observe "
                f"artifacts ({observe['orphaned_bytes']} bytes)"
            )
        return 0
    outcome = cache.prune(registered)
    print(
        f"removed {outcome['removed']} entries "
        f"({outcome['freed_bytes']} bytes), kept {outcome['kept']} "
        f"in {cache.root}"
    )
    if outcome["artifacts_removed"]:
        print(
            f"swept {outcome['artifacts_removed']} orphaned observe "
            f"artifacts ({outcome['artifacts_freed_bytes']} bytes)"
        )
    return 0


def _write_or_stdout(args: argparse.Namespace, text: str) -> None:
    if args.output and args.output != "-":
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _cmd_trace(args: argparse.Namespace) -> int:
    from ..observe.artifacts import find_artifact, list_artifacts, load_artifact
    from ..observe.trace import chrome_trace_events

    directory = _artifact_dir(args)
    if args.action == "list":
        from ..analysis.report import format_table

        rows = list_artifacts(directory)
        if not rows:
            print(f"no observability artifacts under {directory}",
                  file=sys.stderr)
            return 0
        print(format_table(
            ("digest", "layer", "bytes", "path"),
            [[row["digest"][:16], row["layer"], str(row["bytes"]),
              row["path"]] for row in rows]))
        return 0
    # export
    if args.input is not None:
        path = Path(args.input)
    elif args.digest is not None:
        path = find_artifact(directory, args.digest, "trace")
        if path is None:
            print(f"error: no trace artifact for digest {args.digest!r} "
                  f"under {directory}", file=sys.stderr)
            return 2
    else:
        print("error: trace export needs --digest or --input",
              file=sys.stderr)
        return 2
    artifact = load_artifact(path)
    if artifact.get("layer") != "trace":
        print(f"error: {path} is a {artifact.get('layer')!r} artifact, "
              "not a trace", file=sys.stderr)
        return 2
    machines = artifact["machines"]
    if args.packet is not None:
        packet_id = _parse_packet(args.packet)
        machines = [
            {**machine,
             "spans": [span for span in machine.get("spans", [])
                       if list(span.get("trace_id", [])) == packet_id]}
            for machine in machines
        ]
        if not any(machine["spans"] for machine in machines):
            print(f"error: no spans for packet {args.packet} in {path}",
                  file=sys.stderr)
            return 2
    events = []
    for pid, machine in enumerate(machines):
        events.extend(chrome_trace_events(machine, pid=pid))
    payload = {"traceEvents": events, "displayTimeUnit": "ns"}
    _write_or_stdout(
        args, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def _parse_packet(spec: str) -> List[int]:
    """Parse the ``--packet NODE,SEQ`` stable trace identity."""
    parts = spec.split(",")
    try:
        node, seq = (int(part) for part in parts)
    except ValueError:
        raise ValueError(
            f"--packet expects NODE,SEQ integers, got {spec!r}") from None
    if node < 0 or seq < 0:
        raise ValueError(f"--packet ids must be non-negative, got {spec!r}")
    return [node, seq]


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from ..analysis.forensics import (
        compare_diagnoses,
        diagnose_run,
        render_comparison,
        render_diagnosis,
    )
    from ..observe.artifacts import find_artifact, load_artifact, write_artifact

    directory = _artifact_dir(args)

    def diagnose_one(digest_prefix: str):
        metrics_path = find_artifact(directory, digest_prefix, "metrics")
        if metrics_path is None:
            raise ValueError(
                f"no metrics artifact for digest {digest_prefix!r} under "
                f"{directory}; run the configuration with --observe first")
        metrics = load_artifact(metrics_path)
        digest = str(metrics.get("digest")
                     or metrics_path.name.split(".")[0])
        trace_path = find_artifact(directory, digest, "trace")
        trace = load_artifact(trace_path) if trace_path is not None else None
        machines = diagnose_run(metrics, trace)
        if not args.no_write:
            path = write_artifact(directory, digest, "diagnosis", machines)
            print(f"diagnose: wrote {path}", file=sys.stderr)
        return {"digest": digest, "layer": "diagnosis",
                "machines": machines}

    diagnosis = diagnose_one(args.digest)
    if args.compare is not None:
        other = diagnose_one(args.compare)
        diff = compare_diagnoses(diagnosis, other)
        if args.json:
            text = json.dumps(diff, sort_keys=True, indent=2) + "\n"
        else:
            text = render_comparison(diff)
        _write_or_stdout(args, text)
        return 0
    if args.json:
        text = json.dumps(diagnosis, sort_keys=True, indent=2) + "\n"
    else:
        text = render_diagnosis(diagnosis["digest"], diagnosis["machines"])
    _write_or_stdout(args, text)
    return 0


def _cmd_ledger(args: argparse.Namespace) -> int:
    from ..observe.ledger import (
        diff_records,
        diff_table,
        latest_records,
        ledger_dir,
        ledger_table,
        resolve_digest,
        RunLedger,
    )

    ledger = RunLedger(ledger_dir(Path(args.cache_dir)))
    records = ledger.records(strict=False)
    if not records:
        print(f"no ledger records at {ledger.record_path}", file=sys.stderr)
        return 2 if args.action != "list" else 0
    if args.action != "list" and (args.experiment or args.sweep):
        print("error: --experiment/--sweep only apply to ledger list",
              file=sys.stderr)
        return 2
    if args.action == "list":
        if args.digests:
            print("error: ledger list takes no digest arguments",
                  file=sys.stderr)
            return 2
        if args.experiment is not None:
            records = [record for record in records
                       if record.get("experiment") == args.experiment]
        if args.sweep is not None:
            records = [record for record in records
                       if record.get("sweep") == args.sweep]
        if not records:
            print("no ledger records match the filters", file=sys.stderr)
            return 0
        if args.json:
            sys.stdout.write(
                json.dumps(records, sort_keys=True, indent=2) + "\n")
        else:
            print(ledger_table(records))
            print(f"{len(records)} records in {ledger.record_path}",
                  file=sys.stderr)
        return 0
    latest = latest_records(records)
    if args.action == "show":
        if len(args.digests) != 1:
            print("error: ledger show takes exactly one DIGEST",
                  file=sys.stderr)
            return 2
        digest = resolve_digest(records, args.digests[0])
        sys.stdout.write(
            json.dumps(latest[digest], sort_keys=True, indent=2) + "\n")
        return 0
    # diff
    if len(args.digests) != 2:
        print("error: ledger diff takes exactly two DIGESTs", file=sys.stderr)
        return 2
    a = latest[resolve_digest(records, args.digests[0])]
    b = latest[resolve_digest(records, args.digests[1])]
    diff = diff_records(a, b)
    if args.json:
        sys.stdout.write(json.dumps(diff, sort_keys=True, indent=2) + "\n")
    else:
        print(diff_table(diff))
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    import time

    from ..observe.ledger import ledger_dir, RunLedger
    from ..observe.status import all_points_terminal, render_status_board

    ledger = RunLedger(ledger_dir(Path(args.cache_dir)))
    while True:
        events = ledger.status_events()
        print(render_status_board(events))
        if not args.watch or all_points_terminal(events):
            return 0
        time.sleep(max(args.interval, 0.05))
        print()


def _cmd_regress(args: argparse.Namespace) -> int:
    from .sentinel import (
        DEFAULT_MIN_REL,
        DEFAULT_SIGMA,
        evaluate,
        load_transcript,
        regress_table,
    )

    baselines = [load_transcript(path) for path in args.against]
    current = load_transcript(args.current)
    report = evaluate(
        current,
        baselines,
        min_rel=args.min_rel if args.min_rel is not None else DEFAULT_MIN_REL,
        sigma=args.sigma if args.sigma is not None else DEFAULT_SIGMA,
    )
    if args.json:
        _write_or_stdout(
            args, json.dumps(report, sort_keys=True, indent=2) + "\n")
    else:
        _write_or_stdout(args, regress_table(report) + "\n")
    return int(report["exit_code"])


def _cmd_timeline(args: argparse.Namespace) -> int:
    from ..analysis.timeline import available_metrics, render_timeline
    from ..observe.artifacts import find_artifact, load_artifact

    if args.artifact is not None:
        path = Path(args.artifact)
    elif args.digest is not None:
        directory = _artifact_dir(args)
        path = find_artifact(directory, args.digest, "metrics")
        if path is None:
            print(f"error: no metrics artifact for digest {args.digest!r} "
                  f"under {directory}", file=sys.stderr)
            return 2
    else:
        print("error: --timeline needs --artifact or --digest",
              file=sys.stderr)
        return 2
    artifact = load_artifact(path)
    if args.timeline == "list":
        for kind, name in available_metrics(artifact):
            print(f"{kind:8s}{name}")
        return 0
    print(render_timeline(artifact, args.timeline, by=args.by))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.timeline is not None:
        return _cmd_timeline(args)
    from ..analysis.aggregate import (
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
    from ..analysis.plot import ascii_chart, series_from_runs

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


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "diagnose":
            return _cmd_diagnose(args)
        if args.command == "ledger":
            return _cmd_ledger(args)
        if args.command == "status":
            return _cmd_status(args)
        if args.command == "regress":
            return _cmd_regress(args)
    except (KeyError, TypeError, ValueError, OSError) as error:
        # Bad experiment/parameter names, malformed inputs, unreadable
        # paths: report cleanly instead of dumping a traceback.
        if isinstance(error, OSError):
            message = str(error)
        else:
            message = error.args[0] if error.args else error
        print(f"error: {message}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
