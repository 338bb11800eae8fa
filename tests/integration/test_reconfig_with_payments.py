"""Reconfiguration interacting with the payment layer (Appendix A).

The paper pauses payment processing while a new view is agreed and
resumes in the installed view.  These tests exercise the pause/resume
hooks together with a Bracha broadcast in flight across the view change
(DBRB, Appendix A-C).
"""

from repro.brb.bracha import BrachaBroadcast
from repro.crypto import Keychain, replica_owner
from repro.reconfig.membership import ReconfigReplica
from repro.reconfig.views import View
from repro.sim import ConstantLatency, Network, Simulator


def test_join_while_broadcast_in_flight_delivers_to_everyone():
    """A payment broadcast straddling a join reaches the joiner too."""
    sim = Simulator()
    network = Network(sim, latency=ConstantLatency(0.004))
    keychain = Keychain(seed=3)
    view = View(0, range(4))
    membership = {}
    broadcast = {}
    delivered = {i: [] for i in range(5)}
    for node_id in range(5):
        key = keychain.generate(replica_owner(node_id))
        replica = ReconfigReplica(
            sim, node_id, network, view, keychain, key, state_bytes=1_000
        )
        membership[node_id] = replica
        layer = BrachaBroadcast(
            replica, sorted(view.members),
            (lambda i: lambda o, s, p: delivered[i].append((o, s, p)))(node_id),
        )
        broadcast[node_id] = layer
        replica.on_resume = (
            lambda new_view, layer=layer: layer.install_view(new_view)
        )

    # Stall the broadcaster's traffic so the broadcast is pending when
    # the membership changes.
    for dst in range(1, 5):
        network.block(0, dst)
    broadcast[0].broadcast(1, ("pay", "alice", 1, "bob", 10), 100)
    membership[4].request_join()
    sim.run_until_idle()
    network.heal()
    # Reconnected: the broadcaster retransmits its pending instance in
    # the current (post-join) view.
    broadcast[0].retry_pending()
    sim.run_until_idle()

    final_view = membership[0].view
    assert final_view.n == 5
    for member in final_view.members:
        assert delivered[member] == [(0, 1, ("pay", "alice", 1, "bob", 10))]


def test_view_sequences_identical_across_members():
    sim = Simulator()
    network = Network(sim, latency=ConstantLatency(0.004))
    keychain = Keychain(seed=4)
    view = View(0, range(4))
    replicas = {}
    for node_id in range(7):
        key = keychain.generate(replica_owner(node_id))
        replicas[node_id] = ReconfigReplica(
            sim, node_id, network, view, keychain, key, state_bytes=1_000
        )
    current = view
    for joiner in (4, 5, 6):
        replicas[joiner].view = current
        replicas[joiner].request_join()
        sim.run_until_idle()
        current = replicas[joiner].view
    histories = {
        tuple(v.canonical() for v in replicas[i].installed_history if v.number > 0)
        for i in range(4)
    }
    assert len(histories) == 1, "members installed different view sequences"
