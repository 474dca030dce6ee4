"""The unified machine configuration: one frozen object, one entry point.

:class:`MachineConfig` gathers every knob a
:class:`~repro.netsim.machine.NetworkMachine` takes — topology dims,
latency parameters, chip grid, seed, routing policy, and the fault
schedule — into a single frozen dataclass.
``NetworkMachine(config=...)`` is the one way to build a machine.

Freezing the config keeps it safe to share across harnesses, embed in
experiment parameter dicts (via the fault schedule's ``to_jsonable``),
and compare in tests; it deliberately stores the routing policy *name*
so configs stay picklable for process-pool sweeps (an already-built
:class:`~repro.routing.policy.RoutingPolicy` is still accepted for
tests that need a custom instance).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..faults.schedule import FaultSchedule
from ..observe.config import ObserveConfig
from ..routing import DEFAULT_POLICY
from .params import DEFAULT_PARAMS, LatencyParams

__all__ = ["MachineConfig"]


@dataclass(frozen=True)
class MachineConfig:
    """Everything needed to build one simulated machine."""

    dims: Tuple[int, int, int] = (2, 2, 2)
    params: LatencyParams = DEFAULT_PARAMS
    chip_cols: int = 24
    chip_rows: int = 12
    seed: int = 0
    routing: object = DEFAULT_POLICY  # policy name (or a built policy)
    faults: Optional[FaultSchedule] = field(default=None)
    # Observability (repro.observe).  ``None`` means "defer to the
    # ambient context": a machine built inside an observed runner task
    # picks up the process-local ObserveConfig, while direct harness
    # use stays unobserved.  Deliberately NOT part of any experiment's
    # parameter dict, so cache digests never depend on observation.
    observe: Optional[ObserveConfig] = field(default=None)

    def __post_init__(self) -> None:
        if len(tuple(self.dims)) != 3:
            raise ValueError("dims must name a 3D torus")
        object.__setattr__(self, "dims", tuple(self.dims))
        if self.chip_cols < 1 or self.chip_rows < 1:
            raise ValueError("chip grid dimensions must be >= 1")
        if self.faults is not None and not isinstance(self.faults,
                                                      FaultSchedule):
            object.__setattr__(self, "faults",
                               FaultSchedule(tuple(self.faults)))
