"""Shared test fixtures and helpers."""

from __future__ import annotations

import pytest

from repro.crypto import Keychain, replica_owner
from repro.sim import ConstantLatency, Network, Node, Simulator


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def network(sim: Simulator) -> Network:
    return Network(sim, latency=ConstantLatency(0.005))


@pytest.fixture
def keychain() -> Keychain:
    return Keychain(seed=1234)


#: Packed payment sequences (``core.payment.pack_payments`` forms,
#: ``(flat, extras)``) that no honest packer produces.
_MALFORMED_COLUMNS = {
    "flat-not-4k": (("a", 1, "b", 5, "a"), ()),
    "flat-not-a-tuple": (["a", 1, "b", 5], ()),
    "flat-a-number": (7, ()),
    "extras-not-a-tuple": (("a", 1, "b", 5), [(0, ())]),
    "extras-index-out-of-range": (("a", 1, "b", 5), ((1, ()),)),
    "extras-index-negative": (("a", 1, "b", 5), ((-1, ()),)),
    "extras-index-not-an-int": (("a", 1, "b", 5), (("0", ()),)),
    "extras-entry-too-short": (("a", 1, "b", 5), ((0,),)),
    # The three-field entry ``(index, deps, submitted_at)`` of older forms.
    "extras-entry-too-long": (("a", 1, "b", 5), ((0, (), 1.0),)),
    "extras-deps-not-a-tuple": (("a", 1, "b", 5), ((0, None),)),
    "seq-below-1": (("a", 0, "b", 5), ()),
    "seq-not-a-number": (("a", "1", "b", 5), ()),
    "negative-amount": (("a", 1, "b", -5), ()),
}


@pytest.fixture(
    params=_MALFORMED_COLUMNS.values(), ids=_MALFORMED_COLUMNS.keys()
)
def malformed_columns(request) -> tuple:
    return request.param


def make_nodes(sim: Simulator, network: Network, count: int) -> list:
    return [Node(sim, node_id, network) for node_id in range(count)]


def replica_keys(keychain: Keychain, count: int) -> list:
    return [keychain.generate(replica_owner(node_id)) for node_id in range(count)]
