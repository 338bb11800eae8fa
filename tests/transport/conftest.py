"""An in-loop live deployment for the transport tests."""

from __future__ import annotations

import gc
from typing import List, Optional

import pytest

from repro.transport import collector
from repro.transport.live import ReplicaHost, default_genesis
from repro.transport.tcp import TcpTransport

SECRET = b"in-loop-deployment"


async def _boot_hosts(
    system: str, n: int, serving: int, stores: Optional[List] = None
):
    """The first ``serving`` :class:`ReplicaHost`s of an ``n``-replica
    deployment, started and connected, and the load generator's
    transport (node ``n``); returns ``(hosts, loadgen, peer_map)``.

    ``stores[node_id]`` is bound as host ``node_id``'s store.  A replica
    that is not served is one that crashed before the test began.
    """
    genesis = default_genesis(n)
    hosts = [
        ReplicaHost(
            system, n, node_id, SECRET, genesis, 0,
            stores[node_id] if stores else None,
        )
        for node_id in range(serving)
    ]
    loadgen = TcpTransport(n, SECRET)
    peer_map = {n: ("127.0.0.1", await loadgen.start())}
    for node_id, host in enumerate(hosts):
        peer_map[node_id] = ("127.0.0.1", await host.start(0))
    for host in hosts:
        host.transport.connect(peer_map)
    loadgen.connect(peer_map)
    return hosts, loadgen, peer_map


@pytest.fixture
def boot_hosts():
    """``await boot_hosts(system, n, serving, stores)``, on the test's loop."""
    return _boot_hosts


@pytest.fixture(autouse=True)
def no_collector_hold_outlives_its_test():
    """Every started transport is closed: the pacer it held is gone from
    ``gc.callbacks`` and the thresholds are the ones the test found."""
    thresholds = gc.get_threshold()
    yield
    held = collector._holds
    if held:  # do not fail every later test for this one's leak
        collector._holds = 1
        collector.release()
    assert held == 0, f"{held} started TcpTransport(s) never closed"
    assert collector._on_collection not in gc.callbacks
    assert gc.get_threshold() == thresholds
