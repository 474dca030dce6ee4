"""Shared fixtures for the benchmark harness.

Heavy artifacts (the 128-node flit-level machine, MD water runs) are
session-scoped and cached so each is built once per benchmark session.
"""

from __future__ import annotations

import pytest

from repro.md import Decomposition, MdEngine
from repro.netsim import MachineConfig, NetworkMachine
from repro.runner import ResultCache


@pytest.fixture(scope="session")
def runner_cache(tmp_path_factory):
    """A session-wide result cache for runner-driven benchmark sweeps.

    Sweeps declared by several benchmark modules (e.g. the Figure 9a and
    9b files share the water grid) are computed once and served from the
    cache afterwards.
    """
    return ResultCache(tmp_path_factory.mktemp("runner-cache"))


@pytest.fixture(scope="session")
def machine128():
    """The paper's 128-node (4 x 4 x 8) machine with full-size chips."""
    return NetworkMachine(config=MachineConfig(dims=(4, 4, 8), seed=42))


class WaterRuns:
    """Lazily computed, cached MD snapshot streams per atom count."""

    def __init__(self, steps: int = 7, seed: int = 1) -> None:
        self.steps = steps
        self.seed = seed
        self._cache = {}

    def get(self, n_atoms: int):
        if n_atoms not in self._cache:
            engine = MdEngine.water(n_atoms, seed=self.seed)
            snapshots = engine.run(self.steps)
            decomp = Decomposition(box=engine.system.box,
                                   node_dims=(2, 2, 2))
            self._cache[n_atoms] = (engine, snapshots, decomp)
        return self._cache[n_atoms]


@pytest.fixture(scope="session")
def water_runs():
    return WaterRuns()
