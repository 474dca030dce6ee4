"""Range-limited pairwise forces (Lennard-Jones with a shifted cutoff).

This is the computation the PPIMs accelerate on Anton 3 (Section II-B):
for every atom pair within the cutoff radius, evaluate the pair force and
accumulate it on both atoms.  The potential is cut-and-shifted so energy
is continuous at the cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .cells import minimum_image, neighbor_pairs


@dataclass
class ForceField:
    """Lennard-Jones force field with a hard cutoff.

    Attributes:
        epsilon: Well depth (internal energy units).
        sigma: Zero-crossing distance (angstroms).
        cutoff: Interaction cutoff radius (angstroms).
        min_distance: Pair distances are clamped here to keep forces
            finite for pathological (overlapping) initial conditions.
    """

    epsilon: float
    sigma: float
    cutoff: float
    min_distance: float = 0.5

    def __post_init__(self) -> None:
        if self.cutoff <= 0:
            raise ValueError("cutoff must be positive")
        sr6 = (self.sigma / self.cutoff) ** 6
        self._shift = 4.0 * self.epsilon * (sr6 * sr6 - sr6)

    def pair_terms(self, r2: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(force/r, pair energy) for squared distances ``r2``."""
        r2 = np.maximum(r2, self.min_distance ** 2)
        inv_r2 = 1.0 / r2
        sr2 = (self.sigma ** 2) * inv_r2
        sr6 = sr2 ** 3
        sr12 = sr6 ** 2
        f_over_r = 24.0 * self.epsilon * (2.0 * sr12 - sr6) * inv_r2
        energy = 4.0 * self.epsilon * (sr12 - sr6) - self._shift
        return f_over_r, energy


@dataclass
class ForceResult:
    """Forces plus bookkeeping the network model consumes."""

    forces: np.ndarray          # (N, 3)
    potential: float
    num_pairs: int              # range-limited interactions this step


def compute_forces(positions: np.ndarray, box: float,
                   field: ForceField,
                   pairs: Optional[Tuple[np.ndarray, np.ndarray]] = None,
                   ) -> ForceResult:
    """Evaluate LJ forces on all atoms (cell-list accelerated).

    Args:
        positions: (N, 3) atom positions in [0, box).
        box: Cubic box edge.
        field: Force-field parameters.
        pairs: Optional precomputed neighbor pairs (ii, jj).
    """
    positions = np.asarray(positions, dtype=np.float64)
    n_atoms = positions.shape[0]
    if pairs is None:
        pairs = neighbor_pairs(positions, box, field.cutoff)
    ii, jj = pairs
    forces = np.zeros_like(positions)
    if len(ii) == 0:
        return ForceResult(forces=forces, potential=0.0, num_pairs=0)

    delta = minimum_image(positions, ii, jj, box)
    r2 = np.einsum("ij,ij->i", delta, delta)
    # Re-filter to the true cutoff (pairs may come from a skinned list).
    keep = r2 <= field.cutoff * field.cutoff
    if not np.all(keep):
        kept = np.flatnonzero(keep)
        if len(kept) == 0:
            return ForceResult(forces=forces, potential=0.0, num_pairs=0)
        ii, jj, r2 = ii.take(kept), jj.take(kept), r2.take(kept)
        delta = delta.take(kept, axis=0)
    f_over_r, energy = field.pair_terms(r2)
    potential = float(np.sum(energy))
    # Scatter +f onto every i, then -f onto every j.  ``bincount`` adds
    # its weights in input order, so each atom's force is summed in the
    # same sequence (pair order, all i-terms before all j-terms) as two
    # ``np.add.at`` calls would sum it, and the result is bit-identical.
    n_pairs = len(ii)
    targets = np.concatenate((ii, jj))
    weights = np.empty(2 * n_pairs)
    for axis in range(3):
        np.multiply(delta[:, axis], f_over_r, out=weights[:n_pairs])
        np.negative(weights[:n_pairs], out=weights[n_pairs:])
        forces[:, axis] = np.bincount(targets, weights=weights,
                                      minlength=n_atoms)
    return ForceResult(forces=forces, potential=potential,
                       num_pairs=n_pairs)
