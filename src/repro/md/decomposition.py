"""Spatial decomposition onto the node torus — Section II-A/II-C.

The chemical system is partitioned into boxes; each box is assigned to a
Home Node that updates its atoms.  Because range-limited interactions need
positions from atoms within the cutoff of a node's box, every atom near a
box face must be *exported* to the neighboring nodes whose expanded boxes
contain it.  Anton 3 guarantees each pair is computed on a node holding at
least one of the two atoms; exports go to all nodes within the interaction
radius (in-network multicast, footnote 3 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from ..topology.torus import Torus3D

Coord = Tuple[int, int, int]
DirectedChannel = Tuple[Coord, Coord]  # (from_node, to_node), adjacent


@dataclass(frozen=True)
class Decomposition:
    """A cubic box split into a 3D grid of node home boxes.

    Attributes:
        box: Simulation box edge (angstroms).
        node_dims: Torus dimensions, e.g. (2, 2, 2) for 8 nodes.
    """

    box: float
    node_dims: Coord

    def __post_init__(self) -> None:
        if self.box <= 0:
            raise ValueError("box must be positive")
        if any(d < 1 for d in self.node_dims):
            raise ValueError("node dims must be >= 1")

    @cached_property
    def torus(self) -> Torus3D:
        return Torus3D(self.node_dims)

    @property
    def num_nodes(self) -> int:
        x, y, z = self.node_dims
        return x * y * z

    def box_edges(self) -> np.ndarray:
        """Home-box edge lengths per axis."""
        return self.box / np.array(self.node_dims, dtype=np.float64)

    def home_nodes(self, positions: np.ndarray) -> np.ndarray:
        """(N,) flat node id of each atom's home node."""
        positions = np.asarray(positions, dtype=np.float64) % self.box
        edges = self.box_edges()
        grid = np.floor(positions / edges).astype(np.int64)
        dims = np.array(self.node_dims)
        grid = np.minimum(grid, dims - 1)
        return (grid[:, 0] * dims[1] + grid[:, 1]) * dims[2] + grid[:, 2]

    def export_masks(self, positions: np.ndarray,
                     cutoff: float) -> np.ndarray:
        """(num_nodes, N) bool: row ``k`` marks the atoms node ``k`` imports.

        A node's import region is its home box expanded by the cutoff on
        every face (periodic).  Atoms homed on the node itself are
        excluded — they do not cross any channel.
        """
        wrapped = np.asarray(positions, dtype=np.float64) % self.box
        home = self.home_nodes(wrapped)
        edges = self.box_edges()
        masks = np.empty((self.num_nodes, len(wrapped)), dtype=bool)
        for node_id, node in enumerate(self.torus.nodes()):
            lo = np.array(node) * edges
            hi = lo + edges
            inside = home != node_id
            for axis in range(3):
                x = wrapped[:, axis]
                a = lo[axis] - cutoff
                b = hi[axis] + cutoff
                if b - a >= self.box:
                    continue  # the import region spans the whole axis
                aw = a % self.box
                bw = b % self.box
                if aw <= bw:
                    inside &= (x >= aw) & (x <= bw)
                else:  # interval wraps around the periodic boundary
                    inside &= (x >= aw) | (x <= bw)
            masks[node_id] = inside
        return masks

    def export_map(self, positions: np.ndarray,
                   cutoff: float) -> Dict[int, np.ndarray]:
        """For each node id, the atom indices it must import remotely."""
        return {node_id: np.nonzero(mask)[0] for node_id, mask
                in enumerate(self.export_masks(positions, cutoff))}


def multicast_tree(torus: Torus3D, src: Coord,
                   destinations: Sequence[Coord]) -> Set[DirectedChannel]:
    """Channels used to multicast one packet from ``src`` to all
    ``destinations`` (dimension-order paths; shared prefixes charged once,
    modeling the in-network multicast of footnote 3)."""
    channels: Set[DirectedChannel] = set()
    for dst in destinations:
        route = torus.dimension_order_route(src, dst, (0, 1, 2))
        for a, b in zip(route, route[1:]):
            channels.add((a, b))
    return channels


def unicast_path(torus: Torus3D, src: Coord,
                 dst: Coord) -> List[DirectedChannel]:
    """Channels on one dimension-order route (force returns)."""
    route = torus.dimension_order_route(src, dst, (0, 1, 2))
    return list(zip(route, route[1:]))
