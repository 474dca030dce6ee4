"""Cross-module integration: an MD position exchange over the flit network.

This exercises the whole stack together the way a real Anton 3 time step
does: a small water system is spatially decomposed onto a 2-node machine,
every exported atom position travels as a real counted-write packet
through the simulated routers and channels, and a GC-to-ICB network fence
is issued after the last send — the fence must complete only after every
position packet has been delivered (light-load check of the one-way
barrier semantics the data flow relies on).
"""

import numpy as np
import pytest

from repro.fence import FenceEngine, FencePattern
from repro.md import Decomposition, FixedPointCodec, MdEngine
from repro.netsim import CoreAddress, MachineConfig, NetworkMachine


@pytest.fixture(scope="module")
def setup():
    md = MdEngine.water(128, seed=5)
    snapshots = md.run(1)
    machine = NetworkMachine(config=MachineConfig(
        dims=(2, 1, 1), chip_cols=6, chip_rows=6, seed=6))
    decomp = Decomposition(box=md.system.box, node_dims=(2, 1, 1))
    return md, snapshots[0], machine, decomp


def export_positions(machine, decomp, snapshot, cutoff):
    """Send every exported atom's position as a counted-write packet."""
    home = decomp.home_nodes(snapshot.positions)
    exports = decomp.export_map(snapshot.positions, cutoff)
    packets = []
    for node_id, atoms in exports.items():
        dst_node = decomp.torus.coord_of(node_id)
        for rank, atom in enumerate(atoms):
            src_node = decomp.torus.coord_of(int(home[atom]))
            x, y, z = (int(w) for w in snapshot.positions_fp[atom])
            packet = machine.send_counted_write(
                src_node, CoreAddress(0, int(atom) % 6, 0),
                dst_node, CoreAddress(int(atom) % 6, (int(atom) // 6) % 6, 0),
                quad_addr=int(atom) % 512,
                words=(x & 0xFFFFFFFF, y & 0xFFFFFFFF, z & 0xFFFFFFFF,
                       int(atom)))
            packets.append((int(atom), dst_node, packet))
    return packets


class TestTimestepOverFlitNetwork:
    def test_all_positions_delivered_intact(self, setup):
        md, snapshot, machine, decomp = setup
        packets = export_positions(machine, decomp, snapshot,
                                   md.field.cutoff)
        assert packets, "expected boundary atoms to be exported"
        machine.sim.run()
        codec = md.config.position_codec
        for atom, dst_node, packet in packets:
            assert packet.delivered_ns is not None
            gc = machine.gc(dst_node, packet.dst_core)
            words = gc.sram.read(atom % 512)
            assert words[3] == atom  # atom id survived
            # Reconstructed coordinates match the snapshot bit-exactly.
            sent = snapshot.positions_fp[atom].astype(np.int64) & 0xFFFFFFFF
            assert words[:3] == [int(w) for w in sent]

    def test_fence_queues_behind_channel_data(self, setup):
        """Fence packets ride the same channel links as data, so a fence
        issued while the channels are loaded completes later than on an
        idle machine — the link-level "fence follows data" behavior the
        one-way barrier builds on.

        (The engine models intra-node fence aggregation as a calibrated
        latency, so on-chip pursuit of not-yet-launched data is not
        simulated; see repro/fence/engine.py.)
        """
        md, snapshot, machine, decomp = setup
        engine = FenceEngine(machine)
        idle_latency = engine.barrier_latency(1, FencePattern.GC_TO_ICB)
        export_positions(machine, decomp, snapshot, md.field.cutoff)
        loaded_latency = engine.barrier_latency(1, FencePattern.GC_TO_ICB)
        assert loaded_latency >= idle_latency

    def test_exported_fraction_is_boundary_sized(self, setup):
        md, snapshot, machine, decomp = setup
        exports = decomp.export_map(snapshot.positions, md.field.cutoff)
        exported = sum(len(v) for v in exports.values())
        # Halving a box exports the cutoff shell: well under all atoms,
        # well over none.
        assert 0 < exported < 2 * 128

    def test_reconstructed_positions_within_resolution(self, setup):
        md, snapshot, machine, decomp = setup
        codec = md.config.position_codec
        decoded = codec.decode(snapshot.positions_fp)
        assert np.allclose(decoded, snapshot.positions,
                           atol=codec.resolution)
