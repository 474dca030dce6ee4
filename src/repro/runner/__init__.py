"""Parallel, cached experiment runner.

A declarative :class:`Experiment`/:class:`Sweep` API over the paper's
simulations: parameter grids expand deterministically, runs fan out
across worker processes, and completed runs are memoized in a
content-addressed on-disk cache so repeated sweeps are near-free.

Quick use::

    from repro.runner import ResultCache, run_sweep
    from repro.runner.experiments import FIG5_SWEEP

    result = run_sweep(FIG5_SWEEP, jobs=4, cache=ResultCache(".repro-cache"))
    points = result.runs[0].result["points"]

CLI: ``python -m repro.runner sweep fig5 --jobs 4`` (or ``repro-runner``
after ``pip install -e .``).
"""

from .cache import CacheStats, ResultCache, canonical_json, canonicalize, config_digest
from .execute import RunResult, SweepResult, run_sweep, run_sweeps
from .experiment import (
    Experiment,
    Sweep,
    ensure_builtin_experiments,
    get_experiment,
    list_experiments,
    register,
    run_experiment,
)
from .grid import ParameterGrid

__all__ = [
    "CacheStats",
    "ResultCache",
    "canonical_json",
    "canonicalize",
    "config_digest",
    "RunResult",
    "SweepResult",
    "run_sweep",
    "run_sweeps",
    "Experiment",
    "Sweep",
    "ensure_builtin_experiments",
    "get_experiment",
    "list_experiments",
    "register",
    "run_experiment",
    "ParameterGrid",
]
