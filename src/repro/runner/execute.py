"""Sweep execution: cache lookup, process fan-out, ordered collection.

Runs are enumerated in the grid's canonical order; cached configs are
served from the :class:`~repro.runner.cache.ResultCache`, and the
remainder is executed either inline (``jobs == 1``) or on a
``concurrent.futures`` process pool.  Results are reassembled in grid
order regardless of completion order, and every result — fresh or
cached — is canonicalized through JSON, so a sweep's output is
byte-identical for any job count.

Observability (:mod:`repro.observe`) rides in the task tuple, never in
the parameter dict: an observed worker activates the ambient context,
runs the configuration exactly as an unobserved worker would, and ships
the collected per-machine artifacts back beside the result.  Cache
digests therefore never depend on observation, and observed runs bypass
cache *reads* (every config must actually execute to produce artifacts)
while still populating the cache with their — byte-identical — results.

Cross-run accounting (:mod:`repro.observe.ledger`) follows the same
discipline with a determinism split: workers heartbeat per-grid-point
state (queued/running/done/cache-hit/failed, wall times, pids) into the
non-deterministic ``status.jsonl``, while the coordinating process
appends one deterministic record per grid point — in grid order, with
no wall-clock fields — to ``ledger.jsonl``, which is therefore
byte-identical across ``--jobs`` splits.  Both writes happen strictly
outside simulation, so results and digests never depend on the ledger.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..observe import context as observe_context
from ..observe.artifacts import write_run_artifacts
from ..observe.config import ObserveConfig
from ..observe.ledger import RunLedger
from ..observe.status import append_status
from .cache import ResultCache, canonicalize, config_digest
from .experiment import Experiment, Sweep, get_experiment


@dataclass(frozen=True)
class RunResult:
    """One completed configuration of a sweep."""

    experiment: str
    params: Dict[str, object]
    result: dict
    cached: bool
    elapsed_s: float
    artifact_paths: Tuple[str, ...] = ()

    def record(self) -> Dict[str, object]:
        """The deterministic, emittable form of this run."""
        return {
            "experiment": self.experiment,
            "params": self.params,
            "result": self.result,
        }


@dataclass(frozen=True)
class SweepResult:
    """All runs of one sweep, in grid order."""

    label: str
    experiment: str
    runs: Tuple[RunResult, ...]

    @property
    def cache_hits(self) -> int:
        return sum(1 for run in self.runs if run.cached)

    @property
    def cache_misses(self) -> int:
        return len(self.runs) - self.cache_hits

    @property
    def elapsed_s(self) -> float:
        return sum(run.elapsed_s for run in self.runs if not run.cached)

    def record(self) -> Dict[str, object]:
        """The deterministic, emittable form of this sweep."""
        return {
            "label": self.label,
            "experiment": self.experiment,
            "runs": [run.record() for run in self.runs],
        }


#: Where a worker heartbeats one grid point: (status file path, sweep
#: label, grid index, config digest).  None disables status writes.
StatusRef = Optional[Tuple[str, str, int, str]]


def _execute_task(
    task: Tuple[Experiment, Dict[str, object], Optional[ObserveConfig],
                StatusRef],
) -> Tuple[dict, float, Optional[Dict[str, list]]]:
    """Worker entry point: run one configuration, canonicalize the result.

    The :class:`Experiment` itself travels in the task (its surface is a
    dotted path, or a module-level function picklable by reference), so
    workers need no registry state — custom-registered experiments work
    under any multiprocessing start method, fork or spawn.  The third
    element is the :class:`~repro.observe.config.ObserveConfig` (or
    ``None``): it is activated as the ambient context around the run,
    so any machine the experiment builds observes itself, and the
    collected artifacts travel back with the result.  The fourth is the
    status heartbeat target (or ``None``): lifecycle events are appended
    strictly before and after the simulation, never inside it.
    """
    experiment, params, observe, status = task
    if status is not None:
        path, sweep_label, index, digest = status
        append_status(Path(path), sweep_label, index, "running",
                      digest=digest)
    try:
        if observe is None:
            start = time.perf_counter()
            result = experiment.run(params)
            elapsed = time.perf_counter() - start
            artifacts = None
        else:
            observe_context.activate(observe)
            try:
                start = time.perf_counter()
                result = experiment.run(params)
                elapsed = time.perf_counter() - start
                artifacts = observe_context.collect()
            finally:
                observe_context.deactivate()
    except BaseException:
        if status is not None:
            append_status(Path(path), sweep_label, index, "failed",
                          digest=digest)
        raise
    if status is not None:
        append_status(Path(path), sweep_label, index, "done",
                      digest=digest, elapsed_s=elapsed)
    return canonicalize(result), elapsed, artifacts


def run_sweep(
    sweep: Sweep,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[Callable[[str], None]] = None,
    observe: Optional[ObserveConfig] = None,
    artifact_dir: Optional[Path] = None,
    ledger: Optional[RunLedger] = None,
) -> SweepResult:
    """Execute every configuration of ``sweep``.

    ``jobs`` bounds worker processes for the uncached remainder; results
    come back in grid order either way.  With a ``cache``, completed
    configs are reused and fresh ones are stored.

    With an enabled ``observe`` config every configuration executes (no
    cache reads — a cached result has no artifacts) and each run's
    collected artifacts are written under ``artifact_dir`` keyed by the
    run's cache digest; results still land in the cache, byte-identical
    to an unobserved run's.

    With a ``ledger``, workers heartbeat per-point status into the
    ledger's status file while the sweep runs, and one deterministic
    record per grid point is appended to the run ledger afterwards —
    in grid order, so ``ledger.jsonl`` is byte-identical for any job
    count.  Neither write can perturb results: both happen strictly
    outside simulation.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if observe is not None and not observe.enabled:
        observe = None
    experiment = get_experiment(sweep.experiment)
    grid = sweep.grid if sweep.grid is not None else experiment.grid
    param_sets: List[Dict[str, object]] = [canonicalize(p) for p in grid]
    digests: List[str] = [
        config_digest(experiment.name, params, experiment.version)
        for params in param_sets
    ]
    status_path = ledger.status_path if ledger is not None else None

    runs: List[Optional[RunResult]] = [None] * len(param_sets)
    metrics_by_index: Dict[int, list] = {}
    pending: List[int] = []
    for index, params in enumerate(param_sets):
        entry = (
            cache.get(experiment.name, params, experiment.version)
            if cache is not None and observe is None
            else None
        )
        if entry is not None:
            runs[index] = RunResult(
                experiment=experiment.name,
                params=params,
                result=entry["result"],
                cached=True,
                elapsed_s=float(entry.get("elapsed_s") or 0.0),
            )
            if status_path is not None:
                append_status(status_path, sweep.name, index, "cache-hit",
                              digest=digests[index])
        else:
            pending.append(index)
            if status_path is not None:
                append_status(status_path, sweep.name, index, "queued",
                              digest=digests[index])

    if progress is not None and param_sets:
        progress(
            f"{sweep.name}: {len(param_sets)} runs "
            f"({len(param_sets) - len(pending)} cached, {len(pending)} to run)"
        )

    tasks = [
        (
            experiment,
            param_sets[index],
            observe,
            (str(status_path), sweep.name, index, digests[index])
            if status_path is not None
            else None,
        )
        for index in pending
    ]
    if not tasks:
        outcomes: Iterable[Tuple[dict, float, Optional[Dict[str, list]]]] = ()
    elif jobs == 1 or len(tasks) == 1:
        outcomes = map(_execute_task, tasks)
    else:
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(tasks)))
        try:
            outcomes = list(pool.map(_execute_task, tasks))
        finally:
            pool.shutdown()

    for index, (result, elapsed, artifacts) in zip(pending, outcomes):
        params = param_sets[index]
        if cache is not None:
            cache.put(experiment.name, params, result, elapsed, experiment.version)
        artifact_paths: Tuple[str, ...] = ()
        if artifacts and artifact_dir is not None:
            written = write_run_artifacts(artifact_dir, digests[index],
                                          artifacts)
            artifact_paths = tuple(str(path) for path in written)
        if artifacts and ledger is not None:
            metrics_by_index[index] = artifacts.get("metrics") or []
        runs[index] = RunResult(
            experiment=experiment.name,
            params=params,
            result=result,
            cached=False,
            elapsed_s=elapsed,
            artifact_paths=artifact_paths,
        )
        if progress is not None:
            progress(f"{sweep.name}: finished run {index + 1}/{len(param_sets)}")

    if ledger is not None:
        # Deterministic records, appended by the coordinator in grid
        # order: no wall times, no worker ids, byte-identical --jobs 1/N.
        for index, run in enumerate(runs):
            if run is None:
                continue
            ledger.record_run(
                sweep=sweep.name,
                grid_index=index,
                experiment=experiment.name,
                version=experiment.version,
                digest=digests[index],
                params=run.params,
                result=run.result,
                cached=run.cached,
                observed=observe is not None,
                metrics_machines=metrics_by_index.get(index),
            )

    return SweepResult(
        label=sweep.name,
        experiment=experiment.name,
        runs=tuple(run for run in runs if run is not None),
    )


def run_sweeps(
    sweeps: Iterable[Sweep],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[Callable[[str], None]] = None,
    observe: Optional[ObserveConfig] = None,
    artifact_dir: Optional[Path] = None,
    ledger: Optional[RunLedger] = None,
) -> List[SweepResult]:
    """Run several sweeps sequentially (each fans out internally)."""
    return [
        run_sweep(s, jobs=jobs, cache=cache, progress=progress,
                  observe=observe, artifact_dir=artifact_dir, ledger=ledger)
        for s in sweeps
    ]
