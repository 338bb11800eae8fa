"""Auditability: balances are re-derivable from the xlogs (§II).

The paper keeps full per-client logs — rather than just balances and
sequence numbers — "to enable auditability and support a system where
the set of replicas may change".  These tests perform that audit: replay
every xlog from genesis and check the result equals the replicated
balances.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.system import Astro1System, Astro2System

CLIENTS = ["u0", "u1", "u2", "u3"]

transfers = st.lists(
    st.tuples(
        st.sampled_from(CLIENTS), st.sampled_from(CLIENTS),
        st.integers(min_value=1, max_value=80),
    ),
    min_size=1,
    max_size=25,
)


def genesis():
    return {client: 200 for client in CLIENTS}


def audit_astro1(replica, initial):
    """Replay settle_full semantics from the logs."""
    balances = dict(initial)
    events = []
    for client, _, _, xlog in replica.state.accounts():
        for payment in xlog:
            events.append(payment)
    # Replay is order-insensitive for final balances: each payment is a
    # single (debit, credit) pair.
    for payment in events:
        balances[payment.spender] -= payment.amount
        balances[payment.beneficiary] = (
            balances.get(payment.beneficiary, 0) + payment.amount
        )
    return balances


def audit_astro2(replica, initial):
    """Replay spend-only semantics plus materialized dependencies."""
    balances = dict(initial)
    for client, _, _, xlog in replica.state.accounts():
        for payment in xlog:
            balances[payment.spender] -= payment.amount
    for client, used in replica._used_deps.items():
        # Each used dependency id corresponds to a settled crediting
        # payment; find its amount in the spender's xlog.
        for spender, seq in used:
            crediting = replica.state.xlog(spender)[seq - 1]
            balances[client] = balances.get(client, 0) + crediting.amount
    return balances


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(plan=transfers, seed=st.integers(0, 2**16))
def test_astro1_balances_auditable_from_xlogs(plan, seed):
    system = Astro1System(num_replicas=4, genesis=genesis(), seed=seed)
    for spender, beneficiary, amount in plan:
        if spender != beneficiary:
            system.submit(spender, beneficiary, amount)
    system.settle_all()
    replica = system.replica(0)
    audited = audit_astro1(replica, genesis())
    for client in CLIENTS:
        assert audited[client] == replica.state.balance(client)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(plan=transfers, seed=st.integers(0, 2**16))
def test_astro2_balances_auditable_from_xlogs_and_deps(plan, seed):
    system = Astro2System(num_replicas=4, genesis=genesis(), seed=seed)
    for spender, beneficiary, amount in plan:
        if spender != beneficiary:
            system.submit(spender, beneficiary, amount)
    system.settle_all()
    replica = system.replica(0)
    audited = audit_astro2(replica, genesis())
    for client in CLIENTS:
        assert audited[client] == replica.state.balance(client)


def test_audit_detects_tampering():
    """Sanity: the audit is not vacuous — a manipulated balance fails it."""
    system = Astro1System(num_replicas=4, genesis=genesis(), seed=3)
    system.submit("u0", "u1", 50)
    system.settle_all()
    replica = system.replica(0)
    replica.state.credit("u1", 7)  # corrupt
    audited = audit_astro1(replica, genesis())
    assert audited["u1"] != replica.state.balance("u1")
