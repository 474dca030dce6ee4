"""The declarative Experiment / Sweep API and the experiment registry.

An :class:`Experiment` names a pure run function (JSON-able params in,
JSON-able result out) plus its default parameter grid; a :class:`Sweep`
binds an experiment to a concrete grid.  Worker processes resolve
experiments by name through the module-level registry, so only the
``(name, params)`` pair ever crosses a process boundary.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from .grid import ParameterGrid

RunFn = Callable[..., dict]


@dataclass(frozen=True)
class Experiment:
    """A named, parameterized, cacheable unit of simulation work.

    ``surface`` names the run entry point once: the dotted path of a
    module-level pure function (the built-in experiments), or the
    function itself (custom registrations).  A dotted path is imported
    on first use, so the registry stays cheap to import and workers
    only load what they run.  The runner may execute the function in a
    worker process, so it must be free of process-local state (and
    picklable by reference when passed as a callable).  The accepted
    parameter names are the function's own keyword parameters.  Bump
    ``version`` when run semantics change so stale cache entries stop
    matching.
    """

    name: str
    surface: Union[str, RunFn]
    grid: ParameterGrid
    description: str = ""
    version: int = 1
    smoke_grid: Optional[ParameterGrid] = None

    def resolve(self) -> RunFn:
        """The entry-point function, importing its module if needed."""
        if callable(self.surface):
            return self.surface
        module_name, _, attr = self.surface.rpartition(".")
        return getattr(importlib.import_module(module_name), attr)

    @property
    def param_names(self) -> Optional[Tuple[str, ...]]:
        """The surface's parameter names, in signature order.

        ``None`` when the surface takes ``**kwargs``: it accepts any
        name, so there is nothing to validate against.
        """
        parameters = inspect.signature(self.resolve()).parameters.values()
        if any(p.kind is p.VAR_KEYWORD for p in parameters):
            return None
        return tuple(p.name for p in parameters)

    def run(self, params: Mapping[str, object]) -> dict:
        """Execute one configuration."""
        self.validate_params(params)
        return self.resolve()(**dict(params))

    def validate_params(self, params: Mapping[str, object]) -> None:
        """Reject parameter names the surface does not accept.

        Raises ``ValueError`` naming both the unknown and the accepted
        parameters, so a typo in ``--set`` or in a grid fails loudly
        instead of dying deep inside a worker.  A ``**kwargs`` surface
        accepts every name.
        """
        names = self.param_names
        if names is None:
            return
        unknown = sorted(set(params) - set(names))
        if unknown:
            raise ValueError(
                f"experiment {self.name!r} does not accept parameter(s) "
                f"{', '.join(unknown)}; accepted: {', '.join(sorted(names))}"
            )


@dataclass(frozen=True)
class Sweep:
    """An experiment bound to the parameter grid to fan out over."""

    experiment: str
    grid: Optional[ParameterGrid] = None
    label: str = ""

    @property
    def name(self) -> str:
        return self.label or self.experiment


_REGISTRY: Dict[str, Experiment] = {}
_builtins_loaded = False


def register(experiment: Experiment, replace: bool = False) -> Experiment:
    """Add an experiment to the registry (used at module import time)."""
    if not replace and experiment.name in _REGISTRY:
        raise ValueError(f"experiment {experiment.name!r} already registered")
    _REGISTRY[experiment.name] = experiment
    return experiment


def ensure_builtin_experiments() -> None:
    """Idempotently load the built-in experiment definitions.

    Called lazily (not at package import) so `repro.runner` can be
    imported without pulling in every simulation subsystem, and called
    again inside worker processes before resolving task names.
    """
    global _builtins_loaded
    if not _builtins_loaded:
        from . import experiments  # noqa: F401  (registers on import)

        _builtins_loaded = True


def get_experiment(name: str) -> Experiment:
    """Resolve a registered experiment by name."""
    ensure_builtin_experiments()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise KeyError(f"unknown experiment {name!r}; registered: {known}") from None


def list_experiments() -> List[Experiment]:
    """All registered experiments, sorted by name."""
    ensure_builtin_experiments()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def run_experiment(name: str, params: Optional[Mapping[str, object]] = None) -> dict:
    """Run one configuration of a registered experiment in-process."""
    return get_experiment(name).run(params or {})
