"""Sequential MD driver producing the trajectories the network models eat.

:class:`MdEngine` couples a water-box system, the LJ force field, and the
velocity Verlet integrator, and emits per-step snapshots containing the
fixed-point positions and forces — exactly the word streams that cross
Anton 3's channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

from .fixedpoint import FixedPointCodec, ForceCodec
from .forces import ForceField
from .integrator import StepRecord, VelocityVerlet
from .system import ChemicalSystem, water_box


@dataclass
class Snapshot:
    """One time step's network-visible state."""

    step: int
    positions_fp: np.ndarray    # (N, 3) int32 fixed-point positions
    forces_fp: np.ndarray       # (N, 3) int32 fixed-point forces
    positions: np.ndarray       # (N, 3) float angstroms
    record: StepRecord
    #: Channel routes of this step's packets, filled in by the traffic
    #: models that price it (keyed by their routing setup) so that each
    #: compression config reuses them.
    routes: Dict[tuple, Any] = field(default_factory=dict, init=False,
                                     repr=False, compare=False)


@dataclass
class MdConfig:
    """Tunable parameters of the workload generator."""

    cutoff: float = 8.5             # angstroms (typical production cutoff)
    dt_fs: float = 2.5
    temperature: float = 300.0
    warmup_steps: int = 25          # settle the lattice before measuring
    position_codec: FixedPointCodec = field(default_factory=FixedPointCodec)
    force_codec: ForceCodec = field(default_factory=ForceCodec)


class MdEngine:
    """Runs MD on a chemical system and yields fixed-point snapshots."""

    def __init__(self, system: ChemicalSystem,
                 config: Optional[MdConfig] = None) -> None:
        self.config = config or MdConfig()
        self.system = system
        cutoff = min(self.config.cutoff, system.box / 2.000001)
        self.field = ForceField(epsilon=system.epsilon, sigma=system.sigma,
                                cutoff=cutoff)
        self.integrator = VelocityVerlet(
            system, self.field, dt_fs=self.config.dt_fs,
            thermostat_temperature=self.config.temperature)
        self._warmed_up = False

    @classmethod
    def water(cls, n_atoms: int, config: Optional[MdConfig] = None,
              seed: int = 0) -> "MdEngine":
        config = config or MdConfig()
        system = water_box(n_atoms, temperature=config.temperature,
                           seed=seed)
        return cls(system, config)

    def warmup(self) -> None:
        """Run the configured settling steps once (idempotent)."""
        if not self._warmed_up:
            self.integrator.run(self.config.warmup_steps)
            self._warmed_up = True

    def snapshot(self, record: StepRecord) -> Snapshot:
        positions = self.system.positions
        forces = self.integrator.last_forces.forces
        return Snapshot(
            step=record.step,
            positions_fp=self.config.position_codec.encode(positions),
            forces_fp=self.config.force_codec.encode(forces),
            positions=positions.copy(),
            record=record)

    def steps(self, n_steps: int) -> Iterator[Snapshot]:
        """Warm up, then yield ``n_steps`` measured snapshots."""
        self.warmup()
        for __ in range(n_steps):
            record = self.integrator.step()
            yield self.snapshot(record)

    def run(self, n_steps: int) -> List[Snapshot]:
        return list(self.steps(n_steps))
