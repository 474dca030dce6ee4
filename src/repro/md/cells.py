"""Cell-list neighbor finding for range-limited pairwise interactions.

The range-limited pairwise computation (Section II-A) only involves atom
pairs within a cutoff radius.  The standard cell-list algorithm bins atoms
into cells of edge >= cutoff and enumerates candidate pairs from each cell
and its 13 forward neighbor cells (half stencil, periodic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

#: Half stencil: the 13 forward neighbor offsets plus handling of the
#: self cell inside :func:`neighbor_pairs`.
_HALF_STENCIL = [
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1),
    (0, 1, 1), (0, 1, -1),
    (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
]


@dataclass(frozen=True)
class CellGrid:
    """Geometry of the cell decomposition of a cubic box."""

    box: float
    cutoff: float
    cells_per_side: int

    @classmethod
    def for_box(cls, box: float, cutoff: float) -> "CellGrid":
        if cutoff <= 0 or box <= 0:
            raise ValueError("box and cutoff must be positive")
        if cutoff > box / 2:
            raise ValueError("cutoff must not exceed half the box")
        cells = max(1, int(np.floor(box / cutoff)))
        return cls(box=box, cutoff=cutoff, cells_per_side=cells)

    @property
    def cell_edge(self) -> float:
        return self.box / self.cells_per_side

    @property
    def num_cells(self) -> int:
        return self.cells_per_side ** 3

    def cell_index(self, positions: np.ndarray) -> np.ndarray:
        """Flat cell index for each position."""
        n = self.cells_per_side
        coords = np.floor(positions / self.cell_edge).astype(np.int64) % n
        return (coords[:, 0] * n + coords[:, 1]) * n + coords[:, 2]


def minimum_image(positions: np.ndarray, ii: np.ndarray, jj: np.ndarray,
                  box: float) -> np.ndarray:
    """(P, 3) minimum-image separations ``positions[ii] - positions[jj]``.

    Computed in place, with one temporary, to the same bits as
    ``d = positions[ii] - positions[jj]; d -= box * np.rint(d / box)``.
    """
    delta = np.take(positions, ii, axis=0)
    delta -= np.take(positions, jj, axis=0)
    shift = delta / box
    np.rint(shift, out=shift)
    shift *= box
    delta -= shift
    return delta


def neighbor_pairs(positions: np.ndarray, box: float,
                   cutoff: float) -> Tuple[np.ndarray, np.ndarray]:
    """All atom pairs within ``cutoff`` (minimum-image periodic distance).

    Returns two int64 index arrays ``(ii, jj)`` of equal length.  Each
    unordered pair appears exactly once; ``ii`` may exceed ``jj``.  The
    order is part of the contract, because force summation follows it:

    * With the cell list: first every self-cell pair, cell by cell in
      flat cell order, each cell's members ``a < b`` in ``np.triu_indices``
      order; then, for each of the 13 :data:`_HALF_STENCIL` offsets in
      turn, cell by cell, every member ``a`` of the cell (ascending)
      against every member ``b`` of the offset neighbor (ascending).
    * Below three cells per side (where the half stencil would double
      count) or below 64 atoms: the O(N^2) pairs ``i < j`` in
      ``np.triu_indices`` order.

    Candidate pairs are generated and cut to ``cutoff`` one stencil
    offset at a time, so only one offset's candidates are ever held.
    """
    positions = np.asarray(positions, dtype=np.float64) % box
    n_atoms = positions.shape[0]
    grid = CellGrid.for_box(box, cutoff)
    if grid.cells_per_side < 3 or n_atoms < 64:
        return _brute_force_pairs(positions, box, cutoff)

    n = grid.cells_per_side
    num_cells = n ** 3
    flat = grid.cell_index(positions)
    order = np.argsort(flat, kind="stable")
    sorted_cells = flat[order]
    counts = np.bincount(flat, minlength=num_cells)
    starts = np.cumsum(counts) - counts
    # Row c lists cell c's atoms in ascending order, padded with -1.
    members = np.full((num_cells, int(counts.max())), -1, dtype=np.int64)
    members[sorted_cells, np.arange(n_atoms) - starts[sorted_cells]] = order

    def block(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The pairs of one candidate block, padding dropped, in cutoff."""
        valid = (a >= 0) & (b >= 0)
        return _within_cutoff(positions, a[valid], b[valid], box, cutoff)

    width = members.shape[1]
    ta, tb = np.triu_indices(width, k=1)
    blocks = [block(members[:, ta], members[:, tb])]
    cells = np.arange(num_cells)
    cx, cy, cz = cells // (n * n), (cells // n) % n, cells % n
    shape = (num_cells, width, width)
    for dx, dy, dz in _HALF_STENCIL:
        other = (((cx + dx) % n) * n + (cy + dy) % n) * n + (cz + dz) % n
        blocks.append(block(
            np.broadcast_to(members[:, :, None], shape),
            np.broadcast_to(members[other][:, None, :], shape)))
    return (np.concatenate([ii for ii, __ in blocks]),
            np.concatenate([jj for __, jj in blocks]))


def _within_cutoff(positions: np.ndarray, ii: np.ndarray, jj: np.ndarray,
                   box: float, cutoff: float) -> Tuple[np.ndarray, np.ndarray]:
    delta = minimum_image(positions, ii, jj, box)
    keep = np.flatnonzero(
        np.einsum("ij,ij->i", delta, delta) <= cutoff * cutoff)
    return ii.take(keep), jj.take(keep)


def _brute_force_pairs(positions: np.ndarray, box: float,
                       cutoff: float) -> Tuple[np.ndarray, np.ndarray]:
    ii, jj = np.triu_indices(positions.shape[0], k=1)
    return _within_cutoff(positions, ii, jj, box, cutoff)


class NeighborList:
    """A Verlet neighbor list: cell-list pairs with a skin radius.

    Pairs are found within ``cutoff + skin`` and reused until any atom has
    moved more than ``skin / 2`` since the last rebuild, which bounds the
    error at exactly zero (no pair can cross the cutoff undetected).
    """

    def __init__(self, box: float, cutoff: float, skin: float = 1.0) -> None:
        if skin < 0:
            raise ValueError("skin must be non-negative")
        self.box = box
        self.cutoff = cutoff
        self.skin = skin
        self._pairs: Tuple[np.ndarray, np.ndarray] = (
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        self._reference: np.ndarray = np.empty((0, 3))
        self.rebuilds = 0

    def _needs_rebuild(self, positions: np.ndarray) -> bool:
        if self._reference.shape != positions.shape:
            return True
        delta = positions - self._reference
        delta -= self.box * np.rint(delta / self.box)
        max_sq = float(np.max(np.einsum("ij,ij->i", delta, delta)))
        return max_sq > (self.skin / 2.0) ** 2

    def pairs(self, positions: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Candidate pairs within cutoff+skin (callers re-filter to the
        true cutoff when computing forces)."""
        positions = np.asarray(positions, dtype=np.float64) % self.box
        if self._needs_rebuild(positions):
            reach = min(self.cutoff + self.skin, self.box / 2.000001)
            self._pairs = neighbor_pairs(positions, self.box, reach)
            self._reference = positions.copy()
            self.rebuilds += 1
        return self._pairs
