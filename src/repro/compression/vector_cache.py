"""Array-based particle cache for full-system traffic accounting.

:class:`VectorParticleCache` is a performance-oriented implementation of
the Section IV-B particle cache: identical organization (set-associative,
finite-difference quadratic extrapolation, step-stamped eviction) but
processed one *batch* per call with numpy, because the full-system traffic
model pushes hundreds of thousands of position packets per simulated time
step through each channel.

Semantics relative to the reference object model
(:class:`~repro.compression.particle_cache.ParticleCacheChannel`):

* Hit/predict/update behavior is bit-identical (same wrap and saturation
  arithmetic; cross-checked by tests).
* Within one batch, all hits are processed before the misses' allocations
  (hardware processes packets in stream order; the difference is only
  visible when a miss evicts an entry that is hit *later in the same
  step*, which the stamp-threshold policy makes impossible: entries hit
  or installed in the current step are never stale, because
  ``evict_threshold`` may not be negative).
* Misses are allocated all at once, with the same ways, evictions and
  allocation failures as taking them one by one in stream order (see
  :meth:`VectorParticleCache._allocate`).
* Only the byte counts of the transmitted residuals are produced — the
  send and receive sides are mirrors, so one array suffices for traffic
  accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .extrapolation import ORDER_QUADRATIC

_WRAP = np.int64(1) << 32
_HALF = np.int64(1) << 31


def _wrap_i32(values: np.ndarray) -> np.ndarray:
    return (values + _HALF) % _WRAP - _HALF


@dataclass
class BatchResult:
    """Outcome of one batch of position packets through the cache."""

    hit: np.ndarray          # (M,) bool
    residuals: np.ndarray    # (M, 3) int64, valid where hit
    allocated: np.ndarray    # (M,) bool (miss that installed an entry)

    @property
    def hits(self) -> int:
        return int(self.hit.sum())

    @property
    def misses(self) -> int:
        return int((~self.hit).sum())


class VectorParticleCache:
    """One channel's synchronized particle cache, batch-processed."""

    def __init__(self, entries: int = 1024, ways: int = 4,
                 delta_bits: int = 12, order: int = ORDER_QUADRATIC,
                 evict_threshold: int = 1) -> None:
        if entries % ways:
            raise ValueError("entries must be a multiple of ways")
        if evict_threshold < 0:
            raise ValueError("evict_threshold must be non-negative")
        self.num_sets = entries // ways
        self.ways = ways
        self.order = order
        self.evict_threshold = evict_threshold
        self._sat_lo = -(1 << (delta_bits - 1))
        self._sat_hi = (1 << (delta_bits - 1)) - 1
        self.step = 0
        self.tags = np.full((self.num_sets, ways), -1, dtype=np.int64)
        self.stamps = np.zeros((self.num_sets, ways), dtype=np.int64)
        self.d0 = np.zeros((self.num_sets, ways, 3), dtype=np.int64)
        self.d1 = np.zeros((self.num_sets, ways, 3), dtype=np.int64)
        self.d2 = np.zeros((self.num_sets, ways, 3), dtype=np.int64)
        self.total_hits = 0
        self.total_misses = 0
        self.total_evictions = 0

    def _saturate(self, values: np.ndarray) -> np.ndarray:
        return np.clip(values, self._sat_lo, self._sat_hi)

    def process_batch(self, particle_ids: np.ndarray,
                      positions: np.ndarray) -> BatchResult:
        """Run one step's position packets (unique ids) through the cache.

        Args:
            particle_ids: (M,) unique non-negative particle identifiers.
            positions: (M, 3) signed 32-bit fixed-point positions.
        """
        ids = np.asarray(particle_ids, dtype=np.int64)
        pos = _wrap_i32(np.asarray(positions, dtype=np.int64))
        m = len(ids)
        # Same multiplicative index mix as the reference cache (see
        # particle_cache._CacheCore.set_index).
        mixed = (ids * 0x9E3779B1) & 0xFFFF_FFFF
        mixed ^= mixed >> 16
        set_idx = mixed % self.num_sets

        # Way lookup: compare against all ways of each packet's set.
        candidate_tags = self.tags[set_idx]              # (M, ways)
        matches = candidate_tags == ids[:, None]
        hit = matches.any(axis=1)
        way = np.where(hit, np.argmax(matches, axis=1), 0)

        residuals = np.zeros((m, 3), dtype=np.int64)
        if hit.any():
            hs, hw = set_idx[hit], way[hit]
            predict = self.d0[hs, hw].copy()
            if self.order >= 1:
                predict += self.d1[hs, hw]
            if self.order >= 2:
                predict += self.d2[hs, hw]
            predict = _wrap_i32(predict)
            actual = pos[hit]
            residuals[hit] = _wrap_i32(actual - predict)
            prev_d0 = self.d0[hs, hw]
            prev_d1 = self.d1[hs, hw]
            new_d1 = self._saturate(_wrap_i32(actual - prev_d0))
            new_d2 = self._saturate(_wrap_i32(actual - prev_d0 - prev_d1))
            self.d0[hs, hw] = actual
            self.d1[hs, hw] = new_d1
            self.d2[hs, hw] = new_d2
            self.stamps[hs, hw] = self.step

        allocated = np.zeros(m, dtype=bool)
        miss = np.nonzero(~hit)[0]
        if len(miss):
            allocated[self._allocate(miss, set_idx[miss], ids, pos)] = True

        self.total_hits += int(hit.sum())
        self.total_misses += int((~hit).sum())
        return BatchResult(hit=hit, residuals=residuals, allocated=allocated)

    def _allocate(self, miss: np.ndarray, miss_sets: np.ndarray,
                  ids: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Install the batch's misses, all sets at once; returns the
        misses that got an entry.

        Taken one by one in stream order, a miss takes its set's first
        invalid way, else the stale way with the oldest stamp (lowest
        way on a tie).  The way it fills is fresh, so it is never taken
        again this step.  Hence the k-th miss of a set takes the set's
        k-th *candidate*: its invalid ways in way order, then its stale
        ways by (stamp, way).  A miss past the last candidate installs
        nothing (an allocation failure: the packet goes out full).
        """
        order = np.argsort(miss_sets, kind="stable")
        sets, starts, counts = np.unique(miss_sets[order], return_index=True,
                                         return_counts=True)
        # Each miss's set (as a row of ``sets``) and its rank among that
        # set's misses, in stream order.
        row = np.repeat(np.arange(len(sets)), counts)
        rank = np.arange(len(order)) - np.repeat(starts, counts)
        stamps = self.stamps[sets]
        free = self.tags[sets] < 0
        stale = self.step - stamps > self.evict_threshold
        # Invalid ways sort first, then stale ways by stamp, then the
        # rest; the stable sort breaks every tie by way.
        key = np.where(free, -1,
                       np.where(stale, stamps, np.iinfo(np.int64).max))
        candidates = np.argsort(key, axis=1, kind="stable")
        ok = rank < (free | stale).sum(axis=1)[row]
        row, m = row[ok], miss[order[ok]]
        w = candidates[row, rank[ok]]
        s = sets[row]
        self.total_evictions += int(np.count_nonzero(~free[row, w]))
        self.tags[s, w] = ids[m]
        self.stamps[s, w] = self.step
        self.d0[s, w] = pos[m]
        self.d1[s, w] = 0
        self.d2[s, w] = 0
        return m

    def end_of_step(self) -> None:
        self.step += 1

    @property
    def occupancy(self) -> int:
        return int((self.tags >= 0).sum())
