"""Pattern-library correctness: bijections, halo sets, registry."""

import random

import numpy as np
import pytest

from repro.md.decomposition import Decomposition
from repro.topology.torus import Torus3D
from repro.traffic import (
    PATTERN_NAMES,
    AllToAllReductionPattern,
    BitComplementPattern,
    HotspotPattern,
    NeighborExchangePattern,
    TornadoPattern,
    TransposePattern,
    UniformRandomPattern,
    make_pattern,
)

SHAPES = [(2, 2, 2), (4, 4, 4), (2, 3, 4), (3, 1, 2)]


class TestPermutationPatterns:
    @pytest.mark.parametrize("dims", SHAPES)
    @pytest.mark.parametrize("cls", [TransposePattern, BitComplementPattern])
    def test_permutation_is_bijection(self, dims, cls):
        torus = Torus3D(dims)
        pattern = cls(torus)
        nodes = list(torus.nodes())
        images = [pattern.permutation(node) for node in nodes]
        assert all(image in set(nodes) for image in images)
        assert len(set(images)) == len(nodes)

    def test_transpose_is_rotation_on_cubic_torus(self):
        torus = Torus3D((3, 3, 3))
        pattern = TransposePattern(torus)
        assert pattern.permutation((1, 2, 0)) == (2, 0, 1)

    def test_bit_complement_axis_complement(self):
        torus = Torus3D((2, 3, 4))
        pattern = BitComplementPattern(torus)
        assert pattern.permutation((0, 0, 0)) == (1, 2, 3)
        assert pattern.permutation((1, 1, 2)) == (0, 1, 1)

    def test_fixed_points_do_not_send(self):
        torus = Torus3D((2, 2, 2))
        pattern = TransposePattern(torus)
        # x == y == z maps to itself under digit rotation.
        assert not pattern.sends_from((0, 0, 0))
        assert not pattern.sends_from((1, 1, 1))
        assert pattern.sends_from((0, 1, 0))


class TestTornado:
    @pytest.mark.parametrize("dims", [(8, 1, 1), (7, 1, 1), (4, 2, 2),
                                      (5, 3, 2)])
    def test_half_way_x_offset(self, dims):
        torus = Torus3D(dims)
        pattern = TornadoPattern(torus)
        offset = -(-dims[0] // 2) - 1  # ceil(X/2) - 1
        for src in torus.nodes():
            x, y, z = src
            assert pattern.permutation(src) == ((x + offset) % dims[0], y, z)

    @pytest.mark.parametrize("dims", SHAPES)
    def test_is_a_bijection(self, dims):
        torus = Torus3D(dims)
        pattern = TornadoPattern(torus)
        images = {pattern.permutation(node) for node in torus.nodes()}
        assert len(images) == torus.dims.num_nodes

    def test_degenerate_on_short_rings(self):
        """X <= 2 makes the offset zero: every node is a fixed point."""
        torus = Torus3D((2, 2, 2))
        pattern = TornadoPattern(torus)
        assert all(not pattern.sends_from(node) for node in torus.nodes())

    def test_all_traffic_circulates_one_direction(self):
        """With the positive tie-break, minimal routes of tornado traffic
        only ever use the X+ direction — the load collapse the routing
        ablation measures."""
        torus = Torus3D((8, 1, 1))
        pattern = TornadoPattern(torus)
        for src in torus.nodes():
            dst = pattern.permutation(src)
            offsets = torus.offsets(src, dst)
            assert offsets[0] > 0 and offsets[1] == offsets[2] == 0


class TestUniformAndHotspot:
    def test_uniform_never_self_and_covers_nodes(self):
        torus = Torus3D((2, 2, 2))
        pattern = UniformRandomPattern(torus)
        rng = random.Random(3)
        seen = set()
        for __ in range(400):
            dst = pattern.next_destination((0, 0, 0), rng)
            assert dst != (0, 0, 0)
            seen.add(dst)
        assert seen == set(torus.nodes()) - {(0, 0, 0)}

    def test_hotspot_fraction(self):
        torus = Torus3D((2, 2, 2))
        pattern = HotspotPattern(torus, hot=(1, 1, 1), fraction=0.5)
        rng = random.Random(5)
        draws = [pattern.next_destination((0, 0, 0), rng)
                 for __ in range(2000)]
        hot_share = sum(1 for d in draws if d == (1, 1, 1)) / len(draws)
        # 0.5 direct plus 1/7 of the uniform remainder ~= 0.57.
        assert hot_share == pytest.approx(0.5 + 0.5 / 7, abs=0.04)

    def test_hotspot_source_on_hot_node_is_uniform(self):
        torus = Torus3D((2, 2, 2))
        pattern = HotspotPattern(torus, hot=(0, 0, 0), fraction=1.0)
        rng = random.Random(6)
        for __ in range(50):
            assert pattern.next_destination((0, 0, 0), rng) != (0, 0, 0)


class TestAllToAll:
    def test_round_robin_covers_all_destinations(self):
        torus = Torus3D((2, 2, 2))
        pattern = AllToAllReductionPattern(torus)
        rng = random.Random(0)
        others = set(torus.nodes()) - {(0, 0, 0)}
        draws = [pattern.next_destination((0, 0, 0), rng)
                 for __ in range(len(others))]
        assert set(draws) == others
        # The cycle repeats deterministically.
        assert pattern.next_destination((0, 0, 0), rng) == draws[0]

    def test_reduction_sets_accumulate(self):
        assert AllToAllReductionPattern(Torus3D((2, 2, 2))).accumulate


class TestNeighborExchange:
    def test_face_neighbors_match_torus(self):
        torus = Torus3D((4, 4, 4))
        pattern = NeighborExchangePattern(torus)
        src = (1, 2, 3)
        expected = {neighbor for __, neighbor in torus.neighbors(src)}
        assert set(pattern.destinations(src)) == expected
        assert all(torus.min_hops(src, d) == 1
                   for d in pattern.destinations(src))

    def test_small_dims_deduplicate_neighbors(self):
        torus = Torus3D((2, 2, 2))
        pattern = NeighborExchangePattern(torus)
        # +1 and -1 reach the same node on a size-2 ring.
        assert len(pattern.destinations((0, 0, 0))) == 3

    @pytest.mark.parametrize("node_dims", [(2, 2, 2), (3, 2, 2)])
    def test_halo_matches_decomposition_exports(self, node_dims):
        """Halo destinations == nodes that import atoms homed on the source.

        The expected sets are computed independently through
        :meth:`Decomposition.export_map` with atoms placed densely near
        every box corner, so every geometrically reachable import
        relation is witnessed by at least one atom.
        """
        box = 24.0
        cutoff = 2.0
        decomp = Decomposition(box=box, node_dims=node_dims)
        pattern = NeighborExchangePattern.from_decomposition(decomp, cutoff)
        torus = decomp.torus

        edges = decomp.box_edges()
        positions = []
        for node in torus.nodes():
            lo = np.array(node) * edges
            for fx in (0.5, 0.5 * edges[0], edges[0] - 0.5):
                for fy in (0.5, 0.5 * edges[1], edges[1] - 0.5):
                    for fz in (0.5, 0.5 * edges[2], edges[2] - 0.5):
                        positions.append(lo + (fx, fy, fz))
        positions = np.array(positions)
        homes = decomp.home_nodes(positions)
        exports = decomp.export_map(positions, cutoff)

        for src in torus.nodes():
            src_id = torus.node_id(src)
            expected = {
                torus.coord_of(dst_id)
                for dst_id, atoms in exports.items()
                if np.any(homes[atoms] == src_id)
            }
            assert set(pattern.destinations(src)) == expected, src

    def test_large_cutoff_reaches_two_boxes(self):
        decomp = Decomposition(box=24.0, node_dims=(6, 2, 2))
        # cutoff > one x-edge (4.0): reach 2 boxes along x.
        pattern = NeighborExchangePattern.from_decomposition(decomp, 5.0)
        dests = pattern.destinations((0, 0, 0))
        assert (2, 0, 0) in dests
        assert (3, 0, 0) not in dests

    def test_cutoff_of_exactly_one_edge_stays_adjacent(self):
        """(g-1)*edge < cutoff is strict: cutoff == edge reaches g == 1.

        Matches Decomposition.export_masks, whose import region at a
        cutoff of exactly one box edge touches only the adjacent box's
        closed face, never interior atoms two boxes away.
        """
        decomp = Decomposition(box=24.0, node_dims=(6, 2, 2))
        pattern = NeighborExchangePattern.from_decomposition(decomp, 4.0)
        dests = pattern.destinations((0, 0, 0))
        assert (1, 0, 0) in dests
        assert (2, 0, 0) not in dests

    def test_rejects_nonpositive_cutoff(self):
        decomp = Decomposition(box=24.0, node_dims=(2, 2, 2))
        with pytest.raises(ValueError):
            NeighborExchangePattern.from_decomposition(decomp, 0.0)


class TestRegistry:
    def test_all_names_construct(self):
        torus = Torus3D((2, 2, 2))
        for name in PATTERN_NAMES:
            pattern = make_pattern(name, torus)
            rng = random.Random(1)
            src = (0, 1, 0)
            if pattern.sends_from(src):
                dst = pattern.next_destination(src, rng)
                assert dst in set(torus.nodes())

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown traffic pattern"):
            make_pattern("typo-pattern", Torus3D((2, 2, 2)))
