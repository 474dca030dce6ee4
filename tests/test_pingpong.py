"""End-to-end latency anchors measured on the flit simulator (Figure 5).

These run on the paper's 128-node 4x4x8 machine with full-size chips; the
module-scoped fixture keeps the (few-second) build cost to one instance.
"""

import pytest

from repro.analysis import fit_latency_vs_hops
from repro.config import (
    PAPER_LATENCY_FIXED_NS,
    PAPER_LATENCY_PER_HOP_NS,
    PAPER_MIN_ONE_HOP_LATENCY_NS,
)
from repro.netsim import (
    CoreAddress,
    MachineConfig,
    NetworkMachine,
    PingPongHarness,
)


@pytest.fixture(scope="module")
def machine128():
    return NetworkMachine(config=MachineConfig(dims=(4, 4, 8), seed=5))


@pytest.fixture(scope="module")
def latency_curve(machine128):
    harness = PingPongHarness(machine128, seed=6)
    return harness.latency_vs_hops(max_hops=8, samples_per_hop=12)


class TestLatencyCurve:
    def test_monotone_in_hops(self, latency_curve):
        means = [latency_curve[h].mean for h in sorted(latency_curve)]
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_linear_fit_matches_paper(self, latency_curve):
        fit = fit_latency_vs_hops(
            {h: s.mean for h, s in latency_curve.items()})
        assert fit.per_hop_ns == pytest.approx(PAPER_LATENCY_PER_HOP_NS,
                                               rel=0.10)
        assert fit.fixed_ns == pytest.approx(PAPER_LATENCY_FIXED_NS,
                                             rel=0.15)
        assert fit.r_squared > 0.98

    def test_zero_hop_below_fit(self, latency_curve):
        """Intra-node traffic skips the Edge Network and channels, so the
        0-hop point sits well below the fit's fixed overhead."""
        fit = fit_latency_vs_hops(
            {h: s.mean for h, s in latency_curve.items()})
        assert latency_curve[0].mean < 0.7 * fit.fixed_ns

    def test_minimum_one_hop_near_55(self, machine128):
        harness = PingPongHarness(machine128, seed=7)
        minimum = harness.minimum_one_hop_latency(samples=30)
        assert minimum == pytest.approx(PAPER_MIN_ONE_HOP_LATENCY_NS,
                                        rel=0.08)

    def test_placement_affects_latency(self, machine128):
        """Intra-chip GC placement changes end-to-end latency (why the
        paper averages over all GC pairs)."""
        harness = PingPongHarness(machine128, seed=8)
        near = harness.measure_pair((0, 0, 0), CoreAddress(0, 4, 0),
                                    (1, 0, 0), CoreAddress(0, 4, 0))
        far = harness.measure_pair((0, 0, 0), CoreAddress(23, 11, 1),
                                   (1, 0, 0), CoreAddress(23, 0, 1))
        assert near.one_way_ns != far.one_way_ns


class TestAnalyticAgreement:
    def test_netsim_and_analytic_breakdown_agree(self, machine128):
        """The Figure 6 analytic model and the flit simulator agree on the
        best-case one-hop latency within a few ns."""
        from repro.machine import breakdown_total_ns
        harness = PingPongHarness(machine128, seed=9)
        measured = harness.minimum_one_hop_latency(samples=30)
        assert breakdown_total_ns() == pytest.approx(measured, abs=5.0)
