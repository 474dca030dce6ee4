"""Synthetic traffic pattern library for the open-loop harness.

Interconnect evaluations characterize a fabric with a standard family of
spatial traffic patterns (Dally & Towles, ch. 3); this module provides
them over the Anton 3 node torus:

* ``uniform`` — every packet picks a destination uniformly at random
  among the other nodes.
* ``transpose`` — a fixed permutation: the mixed-radix digit rotation
  ``(x, y, z) -> (y, z, x)`` (generalized to non-cubic tori via node
  ranks), the classic adversary for dimension-order routing.
* ``bit-complement`` — per-axis coordinate complement
  ``c -> dim - 1 - c``, maximizing average distance.
* ``tornado`` — the half-way ring offset ``(x + ceil(X/2) - 1, y, z)``:
  every node sends nearly half-way around the X ring in the same
  rotational direction, so minimal routing loads only one direction of
  the ring while the other sits idle — the canonical pattern where
  minimal dimension-order routing collapses and Valiant's non-minimal
  spreading wins.
* ``neighbor`` — 3D nearest-neighbor exchange with the six face
  neighbors, the communication skeleton of a halo exchange.
* ``halo`` — the full MD halo exchange *matched to the domain
  decomposition*: destinations are exactly the nodes whose import
  region (home box expanded by the interaction cutoff, see
  :class:`repro.md.decomposition.Decomposition`) overlaps the source
  node's home box, i.e. face, edge and corner neighbors.
* ``hotspot`` — a fraction of packets converge on one hot node, the
  rest are uniform random.
* ``all-to-all`` — an all-to-all reduction: each node cycles round-robin
  over every other node with accumulating counted writes.

Patterns are destination generators: :meth:`TrafficPattern.next_destination`
maps a source node (plus the caller's RNG stream) to a destination node.
Permutation patterns also expose :meth:`permutation` so tests can assert
bijectivity, and set-based patterns expose :meth:`destinations`.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..topology.torus import Coord, Torus3D

__all__ = [
    "PATTERN_NAMES",
    "TrafficPattern",
    "UniformRandomPattern",
    "PermutationPattern",
    "TransposePattern",
    "BitComplementPattern",
    "TornadoPattern",
    "NeighborExchangePattern",
    "HotspotPattern",
    "AllToAllReductionPattern",
    "make_pattern",
]


class TrafficPattern:
    """Base class: a spatial traffic pattern over one torus."""

    #: Registry name (set per subclass instance).
    name: str = "pattern"

    #: Whether generated packets carry the accumulate flag (reductions).
    accumulate: bool = False

    def __init__(self, torus: Torus3D) -> None:
        self.torus = torus

    def sends_from(self, src: Coord) -> bool:
        """Whether ``src`` injects at all (permutation fixed points idle)."""
        return True

    def next_destination(self, src: Coord, rng: random.Random) -> Coord:
        """The destination of the next packet injected at ``src``."""
        raise NotImplementedError


class UniformRandomPattern(TrafficPattern):
    """Uniform random traffic over all nodes except the source."""

    name = "uniform"

    def __init__(self, torus: Torus3D) -> None:
        super().__init__(torus)
        self._nodes = list(torus.nodes())

    def sends_from(self, src: Coord) -> bool:
        return len(self._nodes) > 1

    def next_destination(self, src: Coord, rng: random.Random) -> Coord:
        while True:
            dst = self._nodes[rng.randrange(len(self._nodes))]
            if dst != src:
                return dst


class PermutationPattern(TrafficPattern):
    """A pattern defined by a fixed bijection over the nodes."""

    def permutation(self, src: Coord) -> Coord:
        raise NotImplementedError

    def sends_from(self, src: Coord) -> bool:
        return self.permutation(src) != self.torus.normalize(src)

    def next_destination(self, src: Coord, rng: random.Random) -> Coord:
        return self.permutation(src)


class TransposePattern(PermutationPattern):
    """Digit-rotation transpose: ``(x, y, z) -> (y, z, x)``.

    On a non-cubic torus the rotated coordinates are not valid directly,
    so the permutation maps through node ranks: the source's rank in the
    rotated-dims grid becomes the destination's node id.  On a cubic
    torus this reduces to the plain coordinate rotation.
    """

    name = "transpose"

    def permutation(self, src: Coord) -> Coord:
        x, y, z = self.torus.normalize(src)
        dx, dy, dz = self.torus.dims.as_tuple()
        # Rank of (y, z, x) in the lexicographic (dy, dz, dx) grid.
        rank = (y * dz + z) * dx + x
        return self.torus.coord_of(rank)


class BitComplementPattern(PermutationPattern):
    """Per-axis complement: ``c -> dim - 1 - c`` on every axis."""

    name = "bit-complement"

    def permutation(self, src: Coord) -> Coord:
        coord = self.torus.normalize(src)
        dims = self.torus.dims.as_tuple()
        return tuple(d - 1 - c for c, d in zip(coord, dims))  # type: ignore[return-value]


class TornadoPattern(PermutationPattern):
    """Half-way X-ring offset: ``(x, y, z) -> (x + ceil(X/2) - 1, y, z)``.

    The offset is the same for every node, so all traffic circulates the
    X rings in one rotational direction; with the tie-break convention
    (half-way offsets go positive) minimal routing never uses the X-
    links and saturates at ``1 / offset`` of channel capacity.  Needs
    ``X >= 3`` to be non-degenerate: on smaller rings the offset is zero
    and no node sends (``sends_from`` is false everywhere).
    """

    name = "tornado"

    def permutation(self, src: Coord) -> Coord:
        x, y, z = self.torus.normalize(src)
        dx = self.torus.dims.x
        return ((x + math.ceil(dx / 2) - 1) % dx, y, z)


class NeighborExchangePattern(TrafficPattern):
    """Nearest-neighbor / halo exchange on the torus.

    With ``diagonals=False`` the destination set of each node is its
    distinct face neighbors (the six ``(axis, +-1)`` nodes), the pure
    nearest-neighbor pattern.  With ``diagonals=True`` the set is every
    node within one box step on all three axes — the halo-exchange
    neighborhood an MD domain decomposition exports to when the cutoff
    is smaller than a home-box edge.  :meth:`from_decomposition` derives
    the set from an actual :class:`~repro.md.decomposition.Decomposition`
    and its cutoff, including multi-box reach for large cutoffs.
    """

    def __init__(self, torus: Torus3D, diagonals: bool = False,
                 reach: Optional[Sequence[int]] = None) -> None:
        super().__init__(torus)
        self.name = "halo" if diagonals or reach else "neighbor"
        self._dests: Dict[Coord, Tuple[Coord, ...]] = {}
        for src in torus.nodes():
            if reach is not None:
                dests = self._within_reach(src, reach)
            elif diagonals:
                dests = self._within_reach(src, (1, 1, 1))
            else:
                seen: List[Coord] = []
                for direction, neighbor in torus.neighbors(src):
                    if neighbor != src and neighbor not in seen:
                        seen.append(neighbor)
                dests = tuple(seen)
            self._dests[src] = dests

    @classmethod
    def from_decomposition(cls, decomposition,
                           cutoff: float) -> "NeighborExchangePattern":
        """The halo destinations implied by an MD decomposition.

        Node ``m`` is a destination of node ``n`` exactly when ``m``'s
        import region — its home box expanded by ``cutoff`` on every
        face, periodically — can contain atoms homed on ``n``; per axis
        that holds when the box-index ring distance ``g`` satisfies
        ``(g - 1) * edge < cutoff`` (adjacent boxes share a face, so
        ``g = 1`` always qualifies).
        """
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        torus = decomposition.torus
        edges = decomposition.box_edges()
        reach = []
        for axis, dim in enumerate(torus.dims.as_tuple()):
            edge = float(edges[axis])
            # Largest g with (g - 1) * edge < cutoff, i.e. ceil(cutoff /
            # edge): strict, so a cutoff of exactly one edge reaches only
            # the adjacent box, matching Decomposition.export_masks.
            steps = math.ceil(cutoff / edge)
            reach.append(min(max(steps, 1), dim))
        return cls(torus, reach=tuple(reach))

    def _within_reach(self, src: Coord,
                      reach: Sequence[int]) -> Tuple[Coord, ...]:
        torus = self.torus
        dests = []
        for dst in torus.nodes():
            if dst == src:
                continue
            offsets = torus.offsets(src, dst)
            if all(abs(off) <= r for off, r in zip(offsets, reach)):
                dests.append(dst)
        return tuple(dests)

    def destinations(self, src: Coord) -> Tuple[Coord, ...]:
        return self._dests[self.torus.normalize(src)]

    def sends_from(self, src: Coord) -> bool:
        return bool(self.destinations(src))

    def next_destination(self, src: Coord, rng: random.Random) -> Coord:
        dests = self.destinations(src)
        return dests[rng.randrange(len(dests))]


class HotspotPattern(TrafficPattern):
    """A fraction of packets target one hot node; the rest are uniform."""

    name = "hotspot"

    def __init__(self, torus: Torus3D, hot: Optional[Coord] = None,
                 fraction: float = 0.5) -> None:
        super().__init__(torus)
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("hotspot fraction must be in [0, 1]")
        self.hot = torus.normalize(hot) if hot is not None else (0, 0, 0)
        self.fraction = fraction
        self._uniform = UniformRandomPattern(torus)

    def sends_from(self, src: Coord) -> bool:
        return self._uniform.sends_from(src)

    def next_destination(self, src: Coord, rng: random.Random) -> Coord:
        src = self.torus.normalize(src)
        if src != self.hot and rng.random() < self.fraction:
            return self.hot
        return self._uniform.next_destination(src, rng)


class AllToAllReductionPattern(TrafficPattern):
    """All-to-all reduction: round-robin over every other node.

    Models the force-reduction phase of a global sum: each node streams
    accumulating counted writes to every other node in turn, so the
    per-source destination sequence is deterministic and balanced.
    """

    name = "all-to-all"
    accumulate = True

    def __init__(self, torus: Torus3D) -> None:
        super().__init__(torus)
        self._order: Dict[Coord, List[Coord]] = {}
        self._next: Dict[Coord, int] = {}
        nodes = list(torus.nodes())
        for src in nodes:
            others = [n for n in nodes if n != src]
            self._order[src] = others
            self._next[src] = 0

    def sends_from(self, src: Coord) -> bool:
        return bool(self._order[self.torus.normalize(src)])

    def next_destination(self, src: Coord, rng: random.Random) -> Coord:
        src = self.torus.normalize(src)
        order = self._order[src]
        index = self._next[src]
        self._next[src] = (index + 1) % len(order)
        return order[index]


#: Registry of pattern constructors by CLI/experiment name.
_FACTORIES = {
    "uniform": lambda torus, **kw: UniformRandomPattern(torus),
    "transpose": lambda torus, **kw: TransposePattern(torus),
    "bit-complement": lambda torus, **kw: BitComplementPattern(torus),
    "tornado": lambda torus, **kw: TornadoPattern(torus),
    "neighbor": lambda torus, **kw: NeighborExchangePattern(torus),
    "halo": lambda torus, **kw: NeighborExchangePattern(
        torus, diagonals=True),
    "hotspot": lambda torus, **kw: HotspotPattern(
        torus, hot=kw.get("hot"), fraction=kw.get("fraction", 0.5)),
    "all-to-all": lambda torus, **kw: AllToAllReductionPattern(torus),
}

PATTERN_NAMES = tuple(sorted(_FACTORIES))


def make_pattern(name: str, torus: Torus3D, **kwargs: object) -> TrafficPattern:
    """Construct a registered pattern by name."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        known = ", ".join(PATTERN_NAMES)
        raise KeyError(f"unknown traffic pattern {name!r}; "
                       f"known: {known}") from None
    return factory(torus, **kwargs)
