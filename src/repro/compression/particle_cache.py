"""The particle cache — Section IV-B of the paper.

Two synchronized caches sit at either end of an I/O channel inside the
Channel Adapters.  The send-side cache sees every position packet before it
crosses the channel; on a hit it transmits only the INZ-compressed residual
between the actual position and a quadratic extrapolation of the particle's
history, plus a cache index that replaces the packet's static fields.  The
receive-side cache holds the identical history, makes the identical
prediction, and reconstructs the exact original packet — the scheme is
lossless and fully transparent to software.

Key published parameters (reproduced here as defaults): 1024 entries,
4-way set associative, 12-bit D1/D2 difference storage, and software-paced
eviction driven by an end-of-time-step marker packet with a configurable
staleness threshold.

The two sides stay bit-identical because (a) the channel delivers packets
in order, (b) every state update is a deterministic function of the packet
stream, and (c) the receive side reconstructs positions exactly before
updating.  ``tests/test_particle_cache.py`` checks this mirror property
with randomized streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from . import inz
from .extrapolation import ORDER_QUADRATIC, PositionPredictor, wrap_i32

Position = Tuple[int, int, int]


@dataclass(frozen=True)
class PositionPacket:
    """An atom-position export packet.

    Attributes:
        particle_id: Globally unique particle identifier.
        position: (x, y, z) in 32-bit signed fixed point.
        static_field: Per-particle metadata (type/charge index) that never
            changes during a simulation; replaced by the cache index in
            compressed packets.
    """

    particle_id: int
    position: Position
    static_field: int = 0

    def payload_words(self) -> List[int]:
        """The four payload words of the uncompressed packet."""
        x, y, z = self.position
        return [inz.to_u32(x), inz.to_u32(y), inz.to_u32(z),
                inz.to_u32(self.static_field)]


@dataclass(frozen=True)
class FullPacket:
    """A position packet transmitted uncompressed (cache miss)."""

    packet: PositionPacket


@dataclass(frozen=True)
class CompressedPacket:
    """A cache-hit packet: cache index plus INZ-encoded residual."""

    set_index: int
    way: int
    residual: inz.InzEncoded


@dataclass(frozen=True)
class EndOfStepPacket:
    """Software-sent marker that advances the particle-cache step counter."""


TransmittedPacket = Union[FullPacket, CompressedPacket, EndOfStepPacket]


@dataclass
class CacheEntry:
    particle_id: int
    static_field: int
    predictor: PositionPredictor
    stamp: int


@dataclass
class CacheStats:
    """Counters exposed by each cache side (identical on both when synced)."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    allocations: int = 0
    evictions: int = 0
    alloc_failures: int = 0
    steps: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class _CacheCore:
    """State and deterministic policies shared by both cache sides."""

    def __init__(self, entries: int = 1024, ways: int = 4,
                 delta_bits: int = 12, order: int = ORDER_QUADRATIC,
                 evict_threshold: int = 1) -> None:
        if entries % ways:
            raise ValueError("entries must be a multiple of ways")
        if evict_threshold < 0:
            # A negative threshold would make an entry installed or hit
            # in the current step stale, so a packet could evict the
            # entry the previous packet of the same step just used.
            raise ValueError("evict_threshold must be non-negative")
        self.num_sets = entries // ways
        self.ways = ways
        self.delta_bits = delta_bits
        self.order = order
        self.evict_threshold = evict_threshold
        self.step = 0
        self.stats = CacheStats()
        self._sets: List[List[Optional[CacheEntry]]] = [
            [None] * ways for __ in range(self.num_sets)]

    # -- policies (must be identical on both sides) ---------------------

    def set_index(self, particle_id: int) -> int:
        # Multiplicative (Fibonacci) mix: particle ids arrive in spatially
        # correlated patterns (e.g. face-adjacent atoms with a common
        # stride), which would alias catastrophically under a plain
        # modulo.  Hardware derives the index from well-mixed address
        # bits; this reproduces that behavior deterministically.
        mixed = (particle_id * 0x9E3779B1) & 0xFFFF_FFFF
        mixed ^= mixed >> 16  # fold high bits down for power-of-two sets
        return mixed % self.num_sets

    def lookup(self, particle_id: int) -> Optional[int]:
        """Way holding ``particle_id`` in its set, or None."""
        ways = self._sets[self.set_index(particle_id)]
        for way, entry in enumerate(ways):
            if entry is not None and entry.particle_id == particle_id:
                return way
        return None

    def victim_way(self, set_index: int) -> Optional[int]:
        """Deterministic allocation choice for a missing particle.

        Prefers an invalid way; otherwise evicts the oldest entry whose
        stamp trails the step counter by more than the threshold
        (Section IV-B1).  Returns None when no way may be allocated.
        """
        ways = self._sets[set_index]
        for way, entry in enumerate(ways):
            if entry is None:
                return way
        best_way = None
        best_stamp = None
        for way, entry in enumerate(ways):
            assert entry is not None
            if self.step - entry.stamp > self.evict_threshold:
                if best_stamp is None or entry.stamp < best_stamp:
                    best_way, best_stamp = way, entry.stamp
        return best_way

    def allocate(self, particle_id: int, static_field: int,
                 position: Position) -> Optional[int]:
        """Try to install a fresh entry; returns the way or None."""
        set_index = self.set_index(particle_id)
        way = self.victim_way(set_index)
        if way is None:
            self.stats.alloc_failures += 1
            return None
        if self._sets[set_index][way] is not None:
            self.stats.evictions += 1
        self._sets[set_index][way] = CacheEntry(
            particle_id=particle_id,
            static_field=static_field,
            predictor=PositionPredictor.fresh(
                position, delta_bits=self.delta_bits, order=self.order),
            stamp=self.step,
        )
        self.stats.allocations += 1
        return way

    def entry(self, set_index: int, way: int) -> CacheEntry:
        entry = self._sets[set_index][way]
        if entry is None:
            raise LookupError(
                f"no entry at set {set_index} way {way}; caches out of sync")
        return entry

    def advance_step(self) -> None:
        self.step += 1
        self.stats.steps += 1

    # -- introspection ---------------------------------------------------

    def snapshot(self) -> Tuple:
        """Hashable deep snapshot used to verify the mirror property."""
        frozen = []
        for ways in self._sets:
            for entry in ways:
                if entry is None:
                    frozen.append(None)
                else:
                    frozen.append((entry.particle_id, entry.static_field,
                                   entry.predictor.state(), entry.stamp))
        return (self.step, tuple(frozen))

    @property
    def occupancy(self) -> int:
        return sum(1 for ways in self._sets for e in ways if e is not None)


class SendSideCache(_CacheCore):
    """The cache before the I/O channel: compresses outgoing packets."""

    def send(self, packet: PositionPacket) -> TransmittedPacket:
        """Transform one outgoing position packet for the channel."""
        self.stats.lookups += 1
        way = self.lookup(packet.particle_id)
        if way is None:
            self.stats.misses += 1
            self.allocate(packet.particle_id, packet.static_field,
                          packet.position)
            return FullPacket(packet)
        self.stats.hits += 1
        set_index = self.set_index(packet.particle_id)
        entry = self.entry(set_index, way)
        residual = entry.predictor.residual(packet.position)
        entry.predictor.update(packet.position)
        entry.stamp = self.step
        return CompressedPacket(set_index=set_index, way=way,
                                residual=inz.encode_signed(residual))

    def end_of_step(self) -> EndOfStepPacket:
        """Advance the local step counter and emit the marker packet."""
        self.advance_step()
        return EndOfStepPacket()


class ReceiveSideCache(_CacheCore):
    """The cache after the I/O channel: reconstructs original packets."""

    def receive(self, transmitted: TransmittedPacket) -> Optional[PositionPacket]:
        """Reconstruct the original packet (None for the step marker)."""
        if isinstance(transmitted, EndOfStepPacket):
            self.advance_step()
            return None
        if isinstance(transmitted, FullPacket):
            packet = transmitted.packet
            self.stats.lookups += 1
            self.stats.misses += 1
            self.allocate(packet.particle_id, packet.static_field,
                          packet.position)
            return packet
        if isinstance(transmitted, CompressedPacket):
            self.stats.lookups += 1
            self.stats.hits += 1
            entry = self.entry(transmitted.set_index, transmitted.way)
            residual = inz.decode_signed(transmitted.residual)[:3]
            predicted = entry.predictor.predict()
            position = tuple(wrap_i32(p + r)
                             for p, r in zip(predicted, residual))
            entry.predictor.update(position)
            entry.stamp = self.step
            return PositionPacket(particle_id=entry.particle_id,
                                  position=position,  # type: ignore[arg-type]
                                  static_field=entry.static_field)
        raise TypeError(f"unknown transmitted packet {transmitted!r}")


class ParticleCacheChannel:
    """A send/receive cache pair wired back-to-back for one channel.

    This is the unit deployed in each Channel Adapter.  It provides the
    whole-channel view used by the traffic accounting in ``repro.fullsim``
    and asserts losslessness on every packet.
    """

    def __init__(self, entries: int = 1024, ways: int = 4,
                 delta_bits: int = 12, order: int = ORDER_QUADRATIC,
                 evict_threshold: int = 1) -> None:
        kwargs = dict(entries=entries, ways=ways, delta_bits=delta_bits,
                      order=order, evict_threshold=evict_threshold)
        self.send_side = SendSideCache(**kwargs)
        self.receive_side = ReceiveSideCache(**kwargs)

    def transfer(self, packet: PositionPacket) -> Tuple[TransmittedPacket,
                                                        PositionPacket]:
        """Push one packet through the channel; returns (wire, delivered)."""
        transmitted = self.send_side.send(packet)
        delivered = self.receive_side.receive(transmitted)
        assert delivered is not None
        if delivered != packet:
            raise AssertionError(
                f"particle cache corrupted packet: sent {packet}, "
                f"delivered {delivered}")
        return transmitted, delivered

    def end_of_step(self) -> None:
        marker = self.send_side.end_of_step()
        self.receive_side.receive(marker)

    def in_sync(self) -> bool:
        """True when both sides hold bit-identical state."""
        return self.send_side.snapshot() == self.receive_side.snapshot()
