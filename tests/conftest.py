"""Shared test fixtures."""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest

from repro.netsim.fabric import Router


class HopRecorder:
    """The routers each packet was forwarded by, as ``name[in_port]``,
    with the VC it arrived on at each."""

    def __init__(self) -> None:
        self._hops: Dict[int, List[Tuple[str, int]]] = {}

    def record(self, router: Router, packet, in_port: str, vc: int) -> None:
        self._hops.setdefault(packet.pid, []).append(
            (f"{router.name}[{in_port}]", vc))

    def hops(self, packet) -> List[str]:
        return [hop for hop, __ in self._hops.get(packet.pid, [])]

    def arrivals(self, packet) -> List[Tuple[str, int]]:
        """``(hop, arrival VC)`` for each of the packet's hops."""
        return list(self._hops.get(packet.pid, []))


@pytest.fixture
def hop_recorder(monkeypatch) -> HopRecorder:
    """Records every packet's hops by wrapping the routers' forward step.

    The wrapper only observes, so a recorded run is identical to an
    unrecorded one.
    """
    recorder = HopRecorder()
    forward = Router._forward

    def recording_forward(router, packet, vc, in_port, from_link):
        recorder.record(router, packet, in_port, vc)
        forward(router, packet, vc, in_port, from_link)

    monkeypatch.setattr(Router, "_forward", recording_forward)
    return recorder
