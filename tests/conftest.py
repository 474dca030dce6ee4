"""Shared test fixtures."""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.netsim.fabric import Router


class HopRecorder:
    """The routers each packet was forwarded by, as ``name[in_port]``."""

    def __init__(self) -> None:
        self._hops: Dict[int, List[str]] = {}

    def record(self, router: Router, packet, in_port: str) -> None:
        self._hops.setdefault(packet.pid, []).append(
            f"{router.name}[{in_port}]")

    def hops(self, packet) -> List[str]:
        return self._hops.get(packet.pid, [])


@pytest.fixture
def hop_recorder(monkeypatch) -> HopRecorder:
    """Records every packet's hops by wrapping the routers' forward step.

    The wrapper only observes, so a recorded run is identical to an
    unrecorded one.
    """
    recorder = HopRecorder()
    forward = Router._forward

    def recording_forward(router, packet, vc, in_port, from_link):
        recorder.record(router, packet, in_port)
        forward(router, packet, vc, in_port, from_link)

    monkeypatch.setattr(Router, "_forward", recording_forward)
    return recorder
