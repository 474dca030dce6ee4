"""Channel-traffic accounting with the real codecs — the Fig. 9a engine.

For every simulated MD time step this model reproduces the off-chip
traffic of a parallel Anton 3 run:

* **Position exports**: each atom near a home-box face is multicast to
  every node whose import region contains it, along dimension-order tree
  paths (shared prefixes charged once — the in-network position multicast
  of the paper's footnote 3).
* **Force returns**: every importing node streams the atom through its
  PPIM rows and returns the stream-set forces to the atom's home node.

Every packet is priced in one of three configurations:

* ``BASELINE`` — full 64-bit header + 16-byte payload per packet,
* ``INZ_ONLY`` — payloads INZ-encoded (actual byte counts from the codec),
* ``FULL`` — INZ plus the particle cache: position packets that hit send a
  3-byte compressed header and the INZ-encoded extrapolation residual.

The bit counts are exact evaluations of the codec definitions over real
simulated MD data — no analytic approximation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..compression import inz
from ..compression.extrapolation import ORDER_QUADRATIC
from ..compression.vector_cache import VectorParticleCache
from ..md.decomposition import Decomposition, DirectedChannel, multicast_tree
from ..md.engine import Snapshot

#: Wire-format byte costs (see repro.compression.frames.HEADER_BYTES).
DESCRIPTOR_BYTES = 1
FULL_HEADER_BYTES = 8
COMPRESSED_HEADER_BYTES = 3
RAW_PAYLOAD_BYTES = 16
MARKER_BYTES = 2  # descriptor + 1-byte marker header


@dataclass(frozen=True)
class CompressionConfig:
    """Which compression features are enabled (independently, as in HW)."""

    inz: bool
    pcache: bool

    @property
    def label(self) -> str:
        if self.pcache and self.inz:
            return "inz+pcache"
        if self.inz:
            return "inz"
        if self.pcache:
            return "pcache"
        return "baseline"


BASELINE = CompressionConfig(inz=False, pcache=False)
INZ_ONLY = CompressionConfig(inz=True, pcache=False)
FULL = CompressionConfig(inz=True, pcache=True)


@dataclass
class StepTraffic:
    """Bits that crossed the channels during one time step."""

    position_bits: int = 0
    force_bits: int = 0
    marker_bits: int = 0
    position_packets: int = 0
    force_packets: int = 0
    pcache_hits: int = 0
    pcache_misses: int = 0
    per_channel_bits: Dict[DirectedChannel, int] = field(default_factory=dict)

    @property
    def total_bits(self) -> int:
        return self.position_bits + self.force_bits + self.marker_bits

    @property
    def max_channel_bits(self) -> int:
        return max(self.per_channel_bits.values(), default=0)


#: (channel, atom ids) in channel order; the ids are in the order their
#: packets cross the channel.
ChannelStreams = List[Tuple[DirectedChannel, np.ndarray]]


@dataclass(frozen=True)
class StepRoutes:
    """Where one snapshot's packets go: every channel's position exports
    and force returns.  It does not depend on the compression config."""

    positions: ChannelStreams
    forces: ChannelStreams


def _group_atoms(masks: np.ndarray, home: np.ndarray,
                 ) -> List[Tuple[int, Tuple[int, ...], np.ndarray]]:
    """``(home node, marked nodes, atoms)`` for every distinct pair of an
    atom's home node and the set of nodes whose row of ``masks`` marks it.

    The order is the one that filling dicts node by node would give:
    atoms in order of first appearance (lowest marked node, then atom
    index), and groups in order of their first atom.
    """
    atoms = np.nonzero(masks.any(axis=0))[0]
    if len(atoms) == 0:
        return []
    marks = masks[:, atoms]
    order = np.lexsort((atoms, np.argmax(marks, axis=0)))
    atoms, marks = atoms[order], marks[:, order]
    keys = np.vstack((home[atoms], np.packbits(marks, axis=0))).T
    __, first, inverse = np.unique(keys, axis=0, return_index=True,
                                   return_inverse=True)
    # Number the groups by first appearance, then list each group's
    # atoms in their order of appearance.
    first_seen = np.argsort(first)
    rank = np.empty_like(first_seen)
    rank[first_seen] = np.arange(len(first_seen))
    group = rank[inverse.reshape(-1)]
    members = np.split(atoms[np.argsort(group, kind="stable")],
                       np.cumsum(np.bincount(group))[:-1])
    return [(int(home[atoms[column]]),
             tuple(int(node) for node in np.nonzero(marks[:, column])[0]),
             group_atoms)
            for column, group_atoms in zip(first[first_seen], members)]


def _by_channel(streams: Dict[DirectedChannel, List[np.ndarray]],
                ) -> ChannelStreams:
    return [(channel, np.concatenate(arrays))
            for channel, arrays in sorted(streams.items())]


def route_step(snapshot: Snapshot, decomposition: Decomposition,
               cutoff: float, force_reduction: bool) -> StepRoutes:
    """Route one snapshot's position exports and force returns.

    **Position exports**: atoms sharing a home node and a destination set
    share one multicast tree; each of its channels carries them.

    **Force returns**: by default the node that owned each pair
    computation unicasts the atom's forces back to its home node ("the
    node with the larger flat id computes the pair" convention —
    Section II-C guarantees each pair is computed on exactly one of its
    two nodes).  With ``force_reduction`` (the in-network force
    reduction of the paper's footnote 3), partial forces for the same
    atom merge at router joins, so each channel of the owners->home
    reduction tree carries only *one* force packet per atom.
    """
    torus = decomposition.torus
    positions = snapshot.positions
    home = decomposition.home_nodes(positions)
    exports = decomposition.export_masks(positions, cutoff)

    position_streams: Dict[DirectedChannel, List[np.ndarray]] = {}
    for home_id, dest_ids, atoms in _group_atoms(exports, home):
        tree = multicast_tree(torus, torus.coord_of(home_id),
                              [torus.coord_of(d) for d in dest_ids])
        for channel in tree:
            position_streams.setdefault(channel, []).append(atoms)

    # An importer owns the pairs of the atoms homed below it.
    owned = exports & (home[None, :] < np.arange(len(exports))[:, None])
    force_streams: Dict[DirectedChannel, List[np.ndarray]] = {}
    if not force_reduction:
        for node_id, mask in enumerate(owned):
            atom_indices = np.nonzero(mask)[0]
            if len(atom_indices) == 0:
                continue
            importer = torus.coord_of(node_id)
            atom_homes = home[atom_indices]
            for home_id in np.unique(atom_homes):
                atoms = atom_indices[atom_homes == home_id]
                route = torus.dimension_order_route(
                    importer, torus.coord_of(int(home_id)), (0, 1, 2))
                for a, b in zip(route, route[1:]):
                    force_streams.setdefault((a, b), []).append(atoms)
    else:
        # Group atoms by (home, owner set) and charge the reversed
        # multicast tree's channels once per atom.
        for home_id, owner_ids, atoms in _group_atoms(owned, home):
            tree = multicast_tree(torus, torus.coord_of(home_id),
                                  [torus.coord_of(o) for o in owner_ids])
            for (a, b) in tree:
                force_streams.setdefault((b, a), []).append(atoms)
    return StepRoutes(positions=_by_channel(position_streams),
                      forces=_by_channel(force_streams))


class TrafficModel:
    """Prices one compression configuration's traffic, step by step."""

    def __init__(self, decomposition: Decomposition,
                 config: CompressionConfig, cutoff: float,
                 pcache_entries: int = 1024, pcache_ways: int = 4,
                 pcache_order: int = ORDER_QUADRATIC,
                 pcache_evict_threshold: int = 1,
                 force_reduction: bool = False) -> None:
        self.decomposition = decomposition
        self.config = config
        self.cutoff = cutoff
        self.force_reduction = force_reduction
        self._caches: Dict[DirectedChannel, VectorParticleCache] = {}
        self._pcache_kwargs = dict(entries=pcache_entries, ways=pcache_ways,
                                   order=pcache_order,
                                   evict_threshold=pcache_evict_threshold)
        self.steps_processed = 0

    def _cache_for(self, channel: DirectedChannel) -> VectorParticleCache:
        if channel not in self._caches:
            self._caches[channel] = VectorParticleCache(**self._pcache_kwargs)
        return self._caches[channel]

    # ------------------------------------------------------------------
    # Packet pricing.
    # ------------------------------------------------------------------

    def _full_packet_bytes(self, payload_words: np.ndarray) -> np.ndarray:
        """Per-packet bytes for full (headered) packets."""
        count = len(payload_words)
        if self.config.inz:
            sizes = inz.encoded_sizes(payload_words)
        else:
            sizes = np.full(count, RAW_PAYLOAD_BYTES, dtype=np.int64)
        return DESCRIPTOR_BYTES + FULL_HEADER_BYTES + sizes

    def _position_channel_bits(self, channel: DirectedChannel,
                               atom_ids: np.ndarray,
                               positions_fp: np.ndarray,
                               traffic: StepTraffic) -> int:
        count = len(atom_ids)
        payload = np.zeros((count, 4), dtype=np.int64)
        payload[:, :3] = positions_fp
        if not self.config.pcache:
            return int(self._full_packet_bytes(payload).sum()) * 8

        cache = self._cache_for(channel)
        result = cache.process_batch(atom_ids, positions_fp)
        traffic.pcache_hits += result.hits
        traffic.pcache_misses += result.misses
        bytes_total = 0
        if result.hit.any():
            residual_payload = np.zeros((result.hits, 4), dtype=np.int64)
            residual_payload[:, :3] = result.residuals[result.hit]
            sizes = inz.encoded_sizes(residual_payload)
            bytes_total += int(
                (DESCRIPTOR_BYTES + COMPRESSED_HEADER_BYTES + sizes).sum())
        miss = ~result.hit
        if miss.any():
            bytes_total += int(self._full_packet_bytes(payload[miss]).sum())
        return bytes_total * 8

    # ------------------------------------------------------------------
    # Step processing.
    # ------------------------------------------------------------------

    def _routes(self, snapshot: Snapshot) -> StepRoutes:
        """The snapshot's routes, computed once per snapshot and routing
        setup and shared by every model that prices it."""
        decomp = self.decomposition
        key = (decomp.box, tuple(decomp.node_dims), self.cutoff,
               self.force_reduction)
        routes = snapshot.routes.get(key)
        if routes is None:
            routes = route_step(snapshot, decomp, self.cutoff,
                                self.force_reduction)
            snapshot.routes[key] = routes
        return routes

    def process_step(self, snapshot: Snapshot) -> StepTraffic:
        """Account all channel traffic for one MD time step."""
        routes = self._routes(snapshot)
        traffic = StepTraffic()
        per_channel = traffic.per_channel_bits

        for channel, atom_ids in routes.positions:
            pos_fp = snapshot.positions_fp[atom_ids].astype(np.int64)
            bits = self._position_channel_bits(channel, atom_ids, pos_fp,
                                               traffic)
            traffic.position_bits += bits
            traffic.position_packets += len(atom_ids)
            per_channel[channel] = per_channel.get(channel, 0) + bits

        for channel, atom_ids in routes.forces:
            payload = np.zeros((len(atom_ids), 4), dtype=np.int64)
            payload[:, :3] = snapshot.forces_fp[atom_ids].astype(np.int64)
            bits = int(self._full_packet_bytes(payload).sum()) * 8
            traffic.force_bits += bits
            traffic.force_packets += len(atom_ids)
            per_channel[channel] = per_channel.get(channel, 0) + bits

        # On 2-wide torus axes the + and - cables of a node both reach the
        # same neighbor, so software balances each logical channel across
        # two physical cables; record the per-cable load.
        dims = self.decomposition.node_dims
        for channel in list(per_channel):
            (a, b) = channel
            axis = next(i for i in range(3) if a[i] != b[i])
            if dims[axis] == 2:
                per_channel[channel] //= 2

        # End-of-step markers keep the particle caches paced.
        if self.config.pcache:
            for cache in self._caches.values():
                cache.end_of_step()
            n_channels = max(len(per_channel), 1)
            traffic.marker_bits = 8 * MARKER_BYTES * n_channels

        self.steps_processed += 1
        return traffic


@dataclass
class TrafficComparison:
    """Aggregate traffic of several configurations over the same steps."""

    atom_count: int
    steps: int
    bits: Dict[str, int]

    def reduction_vs_baseline(self, label: str) -> float:
        base = self.bits["baseline"]
        if base == 0:
            return 0.0
        return 1.0 - self.bits[label] / base


def compare_configurations(
        snapshots: Sequence[Snapshot], decomposition: Decomposition,
        cutoff: float,
        configs: Sequence[CompressionConfig] = (BASELINE, INZ_ONLY, FULL),
        pcache_warmup_steps: int = 3, **pcache_kwargs) -> TrafficComparison:
    """Price the same snapshot stream under several configurations.

    The first ``pcache_warmup_steps`` snapshots prime the particle caches
    (the predictor ramps constant -> linear -> quadratic) and are excluded
    from the reported totals, mirroring steady-state measurement.
    """
    models = [TrafficModel(decomposition, config, cutoff, **pcache_kwargs)
              for config in configs]
    bits = {config.label: 0 for config in configs}
    for i, snapshot in enumerate(snapshots):
        for config, model in zip(configs, models):
            traffic = model.process_step(snapshot)
            if i >= pcache_warmup_steps:
                bits[config.label] += traffic.total_bits
    measured = max(len(snapshots) - pcache_warmup_steps, 0)
    n_atoms = snapshots[0].positions_fp.shape[0] if snapshots else 0
    return TrafficComparison(atom_count=n_atoms, steps=measured, bits=bits)
