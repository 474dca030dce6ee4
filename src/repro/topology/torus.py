"""3D torus topology used by the Anton 3 inter-node network.

Anton 3 machines connect up to 512 nodes in a 3D torus (Section II-B of the
paper).  Inter-node routing is minimal and oblivious: each packet follows a
dimension-order route using one of the six possible orders (XYZ, XZY, YXZ,
YZX, ZXY, ZYX), chosen randomly per packet independent of network load
(Section III-B2).  Response packets are restricted to XYZ order and treat
the torus as a mesh (no wraparound on the dateline) so a single response VC
suffices for deadlock freedom.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

Coord = Tuple[int, int, int]

#: The six minimal dimension orders of Section III-B2, as axis index tuples.
DIMENSION_ORDERS: Tuple[Tuple[int, int, int], ...] = tuple(
    itertools.permutations((0, 1, 2)))

AXIS_NAMES = ("X", "Y", "Z")

#: Directions: (axis, sign) for X+, X-, Y+, Y-, Z+, Z-.
DIRECTIONS: Tuple[Tuple[int, int], ...] = (
    (0, +1), (0, -1), (1, +1), (1, -1), (2, +1), (2, -1))


def direction_name(direction: Tuple[int, int]) -> str:
    axis, sign = direction
    return f"{AXIS_NAMES[axis]}{'+' if sign > 0 else '-'}"


@dataclass(frozen=True)
class TorusDims:
    """Dimensions of a 3D torus machine."""

    x: int
    y: int
    z: int

    def __post_init__(self) -> None:
        for value in (self.x, self.y, self.z):
            if value < 1:
                raise ValueError(f"torus dimension must be >= 1, got {value}")

    @classmethod
    def of(cls, dims: Sequence[int]) -> "TorusDims":
        if len(dims) != 3:
            raise ValueError("a 3D torus needs exactly three dimensions")
        return cls(*dims)

    def as_tuple(self) -> Coord:
        return (self.x, self.y, self.z)

    @property
    def num_nodes(self) -> int:
        return self.x * self.y * self.z

    @property
    def diameter(self) -> int:
        """Maximum minimal hop count between any node pair."""
        return sum(d // 2 for d in self.as_tuple())


class Torus3D:
    """A 3D torus with minimal-routing helpers.

    Node identity is the coordinate triple ``(x, y, z)``; a dense integer
    id is available for array-indexed bookkeeping.
    """

    def __init__(self, dims: Sequence[int]) -> None:
        self.dims = TorusDims.of(tuple(dims))

    # -- identity ------------------------------------------------------

    def nodes(self) -> Iterator[Coord]:
        dx, dy, dz = self.dims.as_tuple()
        for x in range(dx):
            for y in range(dy):
                for z in range(dz):
                    yield (x, y, z)

    def node_id(self, coord: Coord) -> int:
        x, y, z = self.normalize(coord)
        return (x * self.dims.y + y) * self.dims.z + z

    def coord_of(self, node_id: int) -> Coord:
        if not 0 <= node_id < self.dims.num_nodes:
            raise ValueError(f"node id {node_id} out of range")
        z = node_id % self.dims.z
        rest = node_id // self.dims.z
        y = rest % self.dims.y
        x = rest // self.dims.y
        return (x, y, z)

    def normalize(self, coord: Coord) -> Coord:
        dims = self.dims
        return (coord[0] % dims.x, coord[1] % dims.y, coord[2] % dims.z)

    # -- neighbors and distances ---------------------------------------

    def neighbor(self, coord: Coord, axis: int, sign: int) -> Coord:
        """The adjacent node in direction ``(axis, sign)``."""
        if axis not in (0, 1, 2) or sign not in (-1, 1):
            raise ValueError(f"bad direction ({axis}, {sign})")
        moved = list(self.normalize(coord))
        moved[axis] = (moved[axis] + sign) % self.dims.as_tuple()[axis]
        return tuple(moved)  # type: ignore[return-value]

    def neighbors(self, coord: Coord) -> List[Tuple[Tuple[int, int], Coord]]:
        """All six (direction, neighbor) pairs for ``coord``."""
        return [((axis, sign), self.neighbor(coord, axis, sign))
                for axis, sign in DIRECTIONS]

    def axis_offset(self, src: int, dst: int, axis: int) -> int:
        """Signed minimal offset along ``axis`` from src to dst coordinates.

        Ties (exactly half way around an even ring) resolve to the positive
        direction, matching a fixed hardware convention.
        """
        size = self.dims.as_tuple()[axis]
        delta = (dst - src) % size
        if delta > size // 2:
            return delta - size
        if delta == size - delta and delta != 0:
            return delta  # tie: go positive
        return delta

    def min_hops(self, a: Coord, b: Coord) -> int:
        """Minimal torus hop distance between two nodes."""
        a = self.normalize(a)
        b = self.normalize(b)
        return sum(abs(self.axis_offset(a[i], b[i], i)) for i in range(3))

    def mesh_hops(self, a: Coord, b: Coord) -> int:
        """Hop distance with wraparound links forbidden (response routes)."""
        a = self.normalize(a)
        b = self.normalize(b)
        return sum(abs(b[i] - a[i]) for i in range(3))

    def is_wrap_hop(self, coord: Coord, axis: int, sign: int) -> bool:
        """Whether one hop from ``coord`` in ``(axis, sign)`` crosses the
        wraparound link of its ring — the dateline of the VC discipline."""
        if axis not in (0, 1, 2) or sign not in (-1, 1):
            raise ValueError(f"bad direction ({axis}, {sign})")
        c = self.normalize(coord)[axis]
        size = self.dims.as_tuple()[axis]
        return (c == size - 1 and sign > 0) or (c == 0 and sign < 0)

    def offsets(self, src: Coord, dst: Coord) -> Coord:
        src = self.normalize(src)
        dst = self.normalize(dst)
        axis_offset = self.axis_offset
        return (axis_offset(src[0], dst[0], 0), axis_offset(src[1], dst[1], 1),
                axis_offset(src[2], dst[2], 2))

    # -- routes ----------------------------------------------------------

    def dimension_order_route(self, src: Coord, dst: Coord,
                              order: Sequence[int]) -> List[Coord]:
        """The node sequence of a minimal dimension-order route.

        ``order`` is a permutation of (0, 1, 2); e.g. (0, 1, 2) is XYZ.
        The returned list starts at ``src`` and ends at ``dst``.
        """
        if sorted(order) != [0, 1, 2]:
            raise ValueError(f"order must be a permutation of (0,1,2): {order}")
        src = self.normalize(src)
        dst = self.normalize(dst)
        offs = list(self.offsets(src, dst))
        path = [src]
        here = list(src)
        dims = self.dims.as_tuple()
        for axis in order:
            step = 1 if offs[axis] > 0 else -1
            for __ in range(abs(offs[axis])):
                here[axis] = (here[axis] + step) % dims[axis]
                path.append(tuple(here))  # type: ignore[arg-type]
        return path

    def all_minimal_routes(self, src: Coord, dst: Coord) -> List[List[Coord]]:
        """Routes for all six dimension orders (duplicates removed)."""
        seen = set()
        routes = []
        for order in DIMENSION_ORDERS:
            route = self.dimension_order_route(src, dst, order)
            key = tuple(route)
            if key not in seen:
                seen.add(key)
                routes.append(route)
        return routes

    def nodes_within(self, center: Coord, hops: int) -> List[Coord]:
        """All nodes with minimal distance <= hops from ``center``."""
        return [coord for coord in self.nodes()
                if self.min_hops(center, coord) <= hops]

    def response_route(self, src: Coord, dst: Coord) -> List[Coord]:
        """Route for response packets: fixed XYZ order, mesh-restricted.

        Section III-B2: responses follow XYZ order and treat the torus as a
        mesh, never crossing the wraparound link, so one VC is deadlock-free.
        """
        src = self.normalize(src)
        dst = self.normalize(dst)
        path = [src]
        here = list(src)
        for axis in (0, 1, 2):
            step = 1 if dst[axis] > here[axis] else -1
            while here[axis] != dst[axis]:
                here[axis] += step
                path.append(tuple(here))  # type: ignore[arg-type]
        return path
