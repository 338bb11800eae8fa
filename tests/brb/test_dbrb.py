"""Bracha's broadcast across views: DBRB (Appendix A-C).

``BrachaBroadcast.install_view`` restarts undelivered instances in the
new view and re-emits the endpoint's own undelivered broadcasts.
"""

from repro.brb.bracha import BrachaBroadcast, BrbReady
from repro.reconfig.views import View
from repro.sim import ConstantLatency, Network, Node, Simulator


def build(members=4, total=6):
    """``total`` endpoints on view 0 = ``range(members)``; the others
    wait outside it, as joiners do."""
    sim = Simulator()
    network = Network(sim, latency=ConstantLatency(0.005))
    view = View(0, range(members))
    nodes = [Node(sim, i, network) for i in range(total)]
    delivered = {i: [] for i in range(total)}
    layers = [
        BrachaBroadcast(
            nodes[i], sorted(view.members),
            (lambda i: lambda o, s, p: delivered[i].append((o, s, p)))(i),
        )
        for i in range(total)
    ]
    return sim, network, nodes, layers, delivered, view


def test_static_view_behaves_like_bracha():
    sim, network, nodes, layers, delivered, view = build()
    layers[0].broadcast(1, "hello", 100)
    sim.run_until_idle()
    for i in range(4):
        assert delivered[i] == [(0, 1, "hello")]
    assert delivered[4] == delivered[5] == []


def test_at_most_once_across_views():
    sim, network, nodes, layers, delivered, view = build()
    layers[0].broadcast(1, "x", 100)
    sim.run_until_idle()
    new_view = view.with_member(4)
    for layer in layers:
        layer.install_view(new_view)
    sim.run_until_idle()
    assert all(len(delivered[i]) <= 1 for i in range(6))
    assert layers[0]._own == {}


def test_broadcast_survives_view_change():
    """A broadcast started in view v completes in view v+1 and reaches
    the joiner too."""
    sim, network, nodes, layers, delivered, view = build()
    # Partition the broadcaster from everyone so the broadcast stalls.
    for dst in range(1, 6):
        network.block(0, dst)
    layers[0].broadcast(1, "survivor", 100)
    sim.run_until_idle()
    assert all(delivered[i] == [] for i in range(1, 6))
    # Install the successor view (join of node 4) everywhere and heal.
    new_view = view.with_member(4)
    network.heal()
    for layer in layers:
        layer.install_view(new_view)
    sim.run_until_idle()
    for member in new_view.members:
        assert delivered[member] == [(0, 1, "survivor")]
    assert delivered[5] == []
    assert all(layer._instances == {} for layer in layers)


def test_stale_view_messages_ignored():
    sim, network, nodes, layers, delivered, view = build()
    new_view = view.with_member(4)
    # Node 1 already moved on; node 0 broadcasts in the old view.
    layers[1].install_view(new_view)
    layers[0].broadcast(1, "stale", 100)
    sim.run_until_idle()
    assert delivered[1] == []  # old-view traffic does not count in view 1
    assert layers[1]._instances == {}


def test_delivered_count():
    sim, network, nodes, layers, delivered, view = build()
    layers[0].broadcast(1, "a", 100)
    layers[1].broadcast(1, "b", 100)
    sim.run_until_idle()
    assert layers[2].delivered_count == 2


def test_instance_complete_before_the_view_change_keeps_waiting_on_fifo():
    """Seq 2 completed at replica 1 but waits on seq 1 (FIFO).  The view
    change keeps it, and seq 1, re-emitted in the new view, releases
    both in order."""
    sim, network, nodes, layers, delivered, view = build()
    for dst in range(1, 6):
        network.block(0, dst)
    layers[0].broadcast(1, "first", 100)
    for src in (2, 3):
        network.send(src, 1, BrbReady(0, 2, "second", 148), size=148)
    sim.run_until_idle()
    assert delivered[1] == []
    assert layers[1]._instances[(0, 2)].delivered
    network.heal()
    new_view = view.with_member(4)
    for layer in layers:
        layer.install_view(new_view)
    sim.run_until_idle()
    assert delivered[1] == [(0, 1, "first"), (0, 2, "second")]
    for member in (0, 2, 3, 4):
        assert delivered[member] == [(0, 1, "first")]
