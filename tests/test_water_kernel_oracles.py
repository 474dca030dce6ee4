"""The water pipeline's vectorised kernels against the loops they replaced.

Each reference below is the earlier, loop-based implementation, kept
here as an oracle.  The kernels must reproduce it exactly
(``np.array_equal``, not approximately): the same pairs in the same
order, the same force bits, the same cache state, the same routes.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.compression.particle_cache import ParticleCacheChannel
from repro.compression.vector_cache import VectorParticleCache, _wrap_i32
from repro.fullsim.traffic import route_step
from repro.md import (
    Decomposition,
    ForceField,
    MdEngine,
    compute_forces,
    multicast_tree,
    neighbor_pairs,
)
from repro.md.cells import _HALF_STENCIL, CellGrid, NeighborList

# ----------------------------------------------------------------------
# Reference implementations (the loops the kernels replaced).
# ----------------------------------------------------------------------


def reference_neighbor_pairs(positions, box, cutoff):
    positions = np.asarray(positions, dtype=np.float64) % box
    n_atoms = positions.shape[0]
    grid = CellGrid.for_box(box, cutoff)
    if grid.cells_per_side < 3 or n_atoms < 64:
        ii, jj = np.triu_indices(n_atoms, k=1)
    else:
        n = grid.cells_per_side
        flat = grid.cell_index(positions)
        order = np.argsort(flat, kind="stable")
        sorted_cells = flat[order]
        starts = np.searchsorted(sorted_cells, np.arange(n ** 3), side="left")
        ends = np.searchsorted(sorted_cells, np.arange(n ** 3), side="right")
        members = [order[starts[c]:ends[c]] for c in range(n ** 3)]
        pair_i, pair_j = [], []
        for c in range(n ** 3):
            atoms = members[c]
            if len(atoms) > 1:
                ti, tj = np.triu_indices(len(atoms), k=1)
                pair_i.append(atoms[ti])
                pair_j.append(atoms[tj])
        cz = np.arange(n ** 3) % n
        cy = (np.arange(n ** 3) // n) % n
        cx = np.arange(n ** 3) // (n * n)
        for dx, dy, dz in _HALF_STENCIL:
            other = (((cx + dx) % n) * n + (cy + dy) % n) * n + (cz + dz) % n
            for c in range(n ** 3):
                a, b = members[c], members[other[c]]
                if len(a) and len(b):
                    pair_i.append(np.repeat(a, len(b)))
                    pair_j.append(np.tile(b, len(a)))
        if not pair_i:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        ii, jj = np.concatenate(pair_i), np.concatenate(pair_j)
    delta = positions[ii] - positions[jj]
    delta -= box * np.rint(delta / box)
    keep = np.einsum("ij,ij->i", delta, delta) <= cutoff * cutoff
    return ii[keep], jj[keep]


def reference_forces(positions, box, field, pairs):
    """(forces, potential, num_pairs) with the two ``np.add.at`` calls."""
    ii, jj = pairs
    forces = np.zeros_like(positions)
    delta = positions[ii] - positions[jj]
    delta -= box * np.rint(delta / box)
    r2 = np.einsum("ij,ij->i", delta, delta)
    keep = r2 <= field.cutoff * field.cutoff
    ii, jj, delta, r2 = ii[keep], jj[keep], delta[keep], r2[keep]
    f_over_r, energy = field.pair_terms(r2)
    pair_forces = delta * f_over_r[:, None]
    np.add.at(forces, ii, pair_forces)
    np.add.at(forces, jj, -pair_forces)
    return forces, float(np.sum(energy)), len(ii)


def reference_process_batch(cache, particle_ids, positions):
    """One batch through ``cache`` with the per-miss allocation loop."""
    ids = np.asarray(particle_ids, dtype=np.int64)
    pos = _wrap_i32(np.asarray(positions, dtype=np.int64))
    m = len(ids)
    mixed = (ids * 0x9E3779B1) & 0xFFFF_FFFF
    mixed ^= mixed >> 16
    set_idx = mixed % cache.num_sets
    matches = cache.tags[set_idx] == ids[:, None]
    hit = matches.any(axis=1)
    way = np.where(hit, np.argmax(matches, axis=1), 0)
    residuals = np.zeros((m, 3), dtype=np.int64)
    if hit.any():
        hs, hw = set_idx[hit], way[hit]
        predict = cache.d0[hs, hw].copy()
        if cache.order >= 1:
            predict += cache.d1[hs, hw]
        if cache.order >= 2:
            predict += cache.d2[hs, hw]
        predict = _wrap_i32(predict)
        actual = pos[hit]
        residuals[hit] = _wrap_i32(actual - predict)
        prev_d0 = cache.d0[hs, hw]
        prev_d1 = cache.d1[hs, hw]
        new_d1 = cache._saturate(_wrap_i32(actual - prev_d0))
        new_d2 = cache._saturate(_wrap_i32(actual - prev_d0 - prev_d1))
        cache.d0[hs, hw] = actual
        cache.d1[hs, hw] = new_d1
        cache.d2[hs, hw] = new_d2
        cache.stamps[hs, hw] = cache.step
    allocated = np.zeros(m, dtype=bool)
    for i in np.nonzero(~hit)[0]:
        s = set_idx[i]
        free = np.nonzero(cache.tags[s] < 0)[0]
        if len(free):
            w = free[0]
        else:
            stale = np.nonzero(
                cache.step - cache.stamps[s] > cache.evict_threshold)[0]
            if len(stale) == 0:
                continue
            w = stale[np.argmin(cache.stamps[s][stale])]
            cache.total_evictions += 1
        cache.tags[s, w] = ids[i]
        cache.stamps[s, w] = cache.step
        cache.d0[s, w] = pos[i]
        cache.d1[s, w] = 0
        cache.d2[s, w] = 0
        allocated[i] = True
    cache.total_hits += int(hit.sum())
    cache.total_misses += int((~hit).sum())
    return hit, residuals, allocated


def reference_export_mask(decomposition, positions, node, cutoff):
    """One node's imports, computed on their own."""
    box = decomposition.box
    positions = np.asarray(positions, dtype=np.float64) % box
    edges = decomposition.box_edges()
    lo = np.array(node) * edges
    hi = lo + edges
    inside = np.ones(len(positions), dtype=bool)
    for axis in range(3):
        x = positions[:, axis]
        a = lo[axis] - cutoff
        b = hi[axis] + cutoff
        if b - a >= box:
            continue
        aw = a % box
        bw = b % box
        if aw <= bw:
            inside &= (x >= aw) & (x <= bw)
        else:
            inside &= (x >= aw) | (x <= bw)
    home = decomposition.home_nodes(positions)
    return inside & (home != decomposition.torus.node_id(node))


def reference_routes(snapshot, decomposition, cutoff, force_reduction):
    """Position and force streams built with per-atom dict loops."""
    torus = decomposition.torus
    home = decomposition.home_nodes(snapshot.positions)
    exports: Dict[int, np.ndarray] = {}
    for node in torus.nodes():
        mask = reference_export_mask(decomposition, snapshot.positions, node,
                                     cutoff)
        exports[torus.node_id(node)] = np.nonzero(mask)[0]

    def grouped(lists):
        groups: Dict[Tuple[int, Tuple[int, ...]], List[int]] = {}
        for atom, nodes in lists.items():
            key = (int(home[atom]), tuple(sorted(nodes)))
            groups.setdefault(key, []).append(atom)
        return groups

    dest_lists: Dict[int, List[int]] = {}
    for node_id, atom_indices in exports.items():
        for a in atom_indices:
            dest_lists.setdefault(int(a), []).append(node_id)
    positions: Dict = {}
    for (home_id, dest_ids), atoms in grouped(dest_lists).items():
        tree = multicast_tree(torus, torus.coord_of(home_id),
                              [torus.coord_of(d) for d in dest_ids])
        for channel in tree:
            positions.setdefault(channel, []).append(
                np.array(atoms, dtype=np.int64))

    forces: Dict = {}
    if not force_reduction:
        for node_id, atom_indices in exports.items():
            if len(atom_indices) == 0:
                continue
            importer = torus.coord_of(node_id)
            atom_homes = home[atom_indices]
            owner_mask = atom_homes < node_id
            for home_id in np.unique(atom_homes[owner_mask]):
                atoms = atom_indices[owner_mask & (atom_homes == home_id)]
                route = torus.dimension_order_route(
                    importer, torus.coord_of(int(home_id)), (0, 1, 2))
                for a, b in zip(route, route[1:]):
                    forces.setdefault((a, b), []).append(atoms)
    else:
        owner_sets: Dict[int, List[int]] = {}
        for node_id, atom_indices in exports.items():
            for a in atom_indices[home[atom_indices] < node_id]:
                owner_sets.setdefault(int(a), []).append(node_id)
        for (home_id, owner_ids), atoms in grouped(owner_sets).items():
            tree = multicast_tree(torus, torus.coord_of(home_id),
                                  [torus.coord_of(o) for o in owner_ids])
            for (a, b) in tree:
                forces.setdefault((b, a), []).append(
                    np.array(atoms, dtype=np.int64))

    def by_channel(streams):
        return [(channel, np.concatenate(arrays))
                for channel, arrays in sorted(streams.items())]

    return by_channel(positions), by_channel(forces)


# ----------------------------------------------------------------------
# neighbor_pairs
# ----------------------------------------------------------------------


def _assert_same_pairs(positions, box, cutoff):
    ii, jj = neighbor_pairs(positions, box, cutoff)
    ri, rj = reference_neighbor_pairs(positions, box, cutoff)
    assert ii.dtype == ri.dtype == np.int64
    assert np.array_equal(ii, ri) and np.array_equal(jj, rj)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("box,cutoff", [
    (30.0, 10.0),   # exactly three cells per side
    (30.0, 9.9),    # three cells, cutoff below the cell edge
    (41.0, 8.0),    # five cells per side
])
def test_neighbor_pairs_match_reference(seed, box, cutoff):
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, box, size=(700, 3))
    _assert_same_pairs(positions, box, cutoff)


def test_neighbor_pairs_with_empty_cells():
    """Atoms packed into one corner leave most cells empty."""
    rng = np.random.default_rng(4)
    box, cutoff = 40.0, 8.0
    positions = rng.uniform(0.0, 12.0, size=(300, 3))
    positions[:40] = rng.uniform(30.0, 40.0, size=(40, 3))
    counts = np.bincount(CellGrid.for_box(box, cutoff).cell_index(positions),
                         minlength=125)
    assert (counts == 0).sum() > 100
    _assert_same_pairs(positions, box, cutoff)


def test_neighbor_pairs_brute_force_path():
    rng = np.random.default_rng(5)
    _assert_same_pairs(rng.uniform(0.0, 20.0, size=(200, 3)), 20.0, 8.0)
    _assert_same_pairs(rng.uniform(0.0, 40.0, size=(50, 3)), 40.0, 8.0)


def test_skinned_neighbor_list_matches_reference():
    """The Verlet list asks for pairs at cutoff + skin."""
    engine = MdEngine.water(1000, seed=3)
    positions = engine.system.positions
    neighbors = NeighborList(engine.system.box, engine.field.cutoff, skin=1.0)
    ii, jj = neighbors.pairs(positions)
    reach = min(engine.field.cutoff + 1.0, engine.system.box / 2.000001)
    assert CellGrid.for_box(engine.system.box, reach).cells_per_side == 3
    ri, rj = reference_neighbor_pairs(positions, engine.system.box, reach)
    assert np.array_equal(ii, ri) and np.array_equal(jj, rj)


# ----------------------------------------------------------------------
# compute_forces
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n_atoms", [512, 1000])
def test_forces_match_add_at_reference(n_atoms):
    engine = MdEngine.water(n_atoms, seed=2)
    system = engine.system
    field = engine.field
    pairs = NeighborList(system.box, field.cutoff, skin=1.0).pairs(
        system.positions)
    result = compute_forces(system.positions, system.box, field, pairs=pairs)
    forces, potential, num_pairs = reference_forces(
        system.positions, system.box, field, pairs)
    assert np.array_equal(result.forces, forces)
    assert np.array_equal(np.signbit(result.forces), np.signbit(forces))
    assert result.potential == potential
    assert result.num_pairs == num_pairs < len(pairs[0])


def test_forces_with_every_pair_inside_the_cutoff():
    rng = np.random.default_rng(6)
    positions = rng.uniform(0.0, 20.0, size=(120, 3))
    field = ForceField(epsilon=1e-4, sigma=3.0, cutoff=9.0)
    pairs = neighbor_pairs(positions, 20.0, 9.0)
    result = compute_forces(positions, 20.0, field, pairs=pairs)
    forces, potential, num_pairs = reference_forces(positions, 20.0, field,
                                                    pairs)
    assert np.array_equal(result.forces, forces)
    assert (result.potential, result.num_pairs) == (potential, num_pairs)


# ----------------------------------------------------------------------
# VectorParticleCache
# ----------------------------------------------------------------------


def _ids_in_set(cache, target, count, start=0):
    """``count`` particle ids that map to set ``target``."""
    out = []
    pid = start
    while len(out) < count:
        mixed = (pid * 0x9E3779B1) & 0xFFFF_FFFF
        mixed ^= mixed >> 16
        if mixed % cache.num_sets == target:
            out.append(pid)
        pid += 1
    return out


def _assert_same_state(vec, ref):
    for name in ("tags", "stamps", "d0", "d1", "d2"):
        assert np.array_equal(getattr(vec, name), getattr(ref, name)), name
    assert (vec.total_evictions, vec.total_hits, vec.total_misses) == (
        ref.total_evictions, ref.total_hits, ref.total_misses)


def _twin_batch(vec, ref, ids, positions):
    result = vec.process_batch(ids, positions)
    hit, residuals, allocated = reference_process_batch(ref, ids, positions)
    assert np.array_equal(result.hit, hit)
    assert np.array_equal(result.residuals, residuals)
    assert np.array_equal(result.allocated, allocated)
    _assert_same_state(vec, ref)
    return result


def test_cache_batch_with_free_stale_and_fresh_ways_in_one_set():
    kwargs = dict(entries=16, ways=4, evict_threshold=1)
    vec, ref = VectorParticleCache(**kwargs), VectorParticleCache(**kwargs)
    ids = _ids_in_set(vec, 2, 12)
    zeros = np.zeros((1, 3), dtype=np.int64)
    # Step 0: ways 0 and 1 filled.  Step 2: way 2 filled, way 0 refreshed.
    _twin_batch(vec, ref, np.array(ids[:2]), np.repeat(zeros, 2, axis=0))
    for cache in (vec, ref):
        cache.end_of_step()
        cache.end_of_step()
    _twin_batch(vec, ref, np.array([ids[0], ids[2]]),
                np.repeat(zeros + 5, 2, axis=0))
    for cache in (vec, ref):
        cache.end_of_step()
        cache.end_of_step()
    # Step 4: way 3 is free; way 1 (stamp 0) and ways 0, 2 (stamp 2) are
    # stale; a hit on ids[2] makes way 2 fresh.  Six misses of the set,
    # interleaved with misses of other sets, compete for the free way,
    # then the stale ways oldest first; the last ones fail.
    others = _ids_in_set(vec, 0, 2, start=10_000)
    batch = [ids[3], others[0], ids[2], ids[4], ids[5], others[1], ids[6],
             ids[7], ids[8]]
    positions = np.arange(3 * len(batch), dtype=np.int64).reshape(-1, 3)
    result = _twin_batch(vec, ref, np.array(batch), positions)
    assert result.hits == 1
    assert 0 < result.allocated.sum() < result.misses
    assert vec.total_evictions == 2


@pytest.mark.parametrize("threshold", [0, 1, 3])
@pytest.mark.parametrize("ways", [2, 4])
def test_cache_random_streams_match_loop(threshold, ways):
    rng = np.random.default_rng(threshold * 10 + ways)
    kwargs = dict(entries=8 * ways, ways=ways, evict_threshold=threshold)
    vec, ref = VectorParticleCache(**kwargs), VectorParticleCache(**kwargs)
    for __ in range(12):
        ids = rng.choice(120, size=rng.integers(1, 60), replace=False)
        positions = rng.integers(-(2**31), 2**31, size=(len(ids), 3))
        _twin_batch(vec, ref, ids, positions)
        for __ in range(rng.integers(0, 3)):
            vec.end_of_step()
            ref.end_of_step()
    assert vec.total_evictions > 0


@pytest.mark.parametrize("make", [
    lambda: VectorParticleCache(evict_threshold=-1),
    lambda: ParticleCacheChannel(evict_threshold=-1),
])
def test_caches_reject_negative_evict_threshold(make):
    with pytest.raises(ValueError, match="evict_threshold"):
        make()


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------


@pytest.mark.parametrize("node_dims", [(2, 2, 2), (3, 2, 2), (4, 3, 2)])
@pytest.mark.parametrize("force_reduction", [False, True])
def test_routes_match_dict_loops(node_dims, force_reduction):
    engine = MdEngine.water(1000, seed=1)
    snapshot = engine.run(1)[0]
    decomposition = Decomposition(box=engine.system.box, node_dims=node_dims)
    cutoff = engine.field.cutoff
    routes = route_step(snapshot, decomposition, cutoff, force_reduction)
    positions, forces = reference_routes(snapshot, decomposition, cutoff,
                                         force_reduction)
    for got, want in ((routes.positions, positions), (routes.forces, forces)):
        assert [channel for channel, __ in got] == [c for c, __ in want]
        for (__, atoms), (__, expected) in zip(got, want):
            assert np.array_equal(atoms, expected)
