"""Zipf and merchant workloads, the Workload registry, REPRO_WORKLOAD."""

import pytest

from repro.bench.runner import run_open_loop
from repro.bench.systems import build_astro2, client_ids_of
from repro.workloads import (
    MERCHANT_BALANCE,
    MerchantWorkload,
    UniformWorkload,
    Workload,
    ZipfWorkload,
    make_workload,
    merchant_genesis,
    merchant_split,
    resolve_workload_name,
    uniform_genesis,
    workload_genesis,
)

CLIENTS = [f"client-{i}" for i in range(20)]


class TestZipfWorkload:
    def test_deterministic_across_instances(self):
        a = ZipfWorkload(CLIENTS, seed=7)
        b = ZipfWorkload(CLIENTS, seed=7)
        assert [a.next() for _ in range(100)] == [
            b.next() for _ in range(100)
        ]

    def test_different_seeds_differ(self):
        a = ZipfWorkload(CLIENTS, seed=1)
        b = ZipfWorkload(CLIENTS, seed=2)
        assert [a.next() for _ in range(50)] != [b.next() for _ in range(50)]

    def test_skews_toward_low_ranks(self):
        workload = ZipfWorkload([f"c{i:03d}" for i in range(200)], seed=0)
        draws = [workload.next()[0] for _ in range(4000)]
        top_share = sum(1 for c in draws if c < "c010") / len(draws)
        uniform_share = 10 / 200
        assert top_share > 4 * uniform_share

    def test_never_self_transfer(self):
        workload = ZipfWorkload(["a", "b"], seed=3)
        for _ in range(100):
            spender, beneficiary, _ = workload.next()
            assert spender != beneficiary

    def test_amounts_in_range(self):
        workload = ZipfWorkload(CLIENTS, seed=4, min_amount=5, max_amount=9)
        for _ in range(100):
            assert 5 <= workload.next()[2] <= 9

    def test_next_for_fixed_spender(self):
        workload = ZipfWorkload(CLIENTS, seed=5)
        for _ in range(50):
            spender, beneficiary, _ = workload.next_for("client-3")
            assert spender == "client-3"
            assert beneficiary != "client-3"

    def test_guards(self):
        with pytest.raises(ValueError):
            ZipfWorkload(["solo"])
        with pytest.raises(ValueError):
            ZipfWorkload(CLIENTS, exponent=0.0)


class TestMerchantWorkload:
    def test_genesis_tight_merchants(self):
        genesis = merchant_genesis(100)
        merchants = {c for c in genesis if str(c).startswith("merchant-")}
        assert len(merchants) == 5
        assert all(genesis[m] == MERCHANT_BALANCE for m in merchants)
        assert all(
            genesis[c] == 10**9 for c in genesis if c not in merchants
        )

    def test_genesis_guards(self):
        with pytest.raises(ValueError):
            merchant_genesis(1)

    def test_split_by_prefix_and_fallback(self):
        genesis = merchant_genesis(40)
        consumers, merchants = merchant_split(sorted(genesis, key=repr))
        assert all(str(m).startswith("merchant-") for m in merchants)
        assert len(consumers) + len(merchants) == 40
        # Populations without merchant ids use their tail.
        plain = [f"c{i:04d}" for i in range(40)]
        consumers, merchants = merchant_split(plain)
        assert merchants == plain[-2:]

    def test_flows_touch_a_merchant(self):
        genesis = merchant_genesis(40)
        workload = MerchantWorkload(sorted(genesis, key=repr), seed=1)
        for _ in range(300):
            spender, beneficiary, amount = workload.next()
            assert spender != beneficiary
            assert str(spender).startswith("merchant-") or str(
                beneficiary
            ).startswith("merchant-")
            assert amount > 0
        assert workload.purchases > workload.payouts > 0

    def test_deterministic(self):
        population = sorted(merchant_genesis(30), key=repr)
        a = MerchantWorkload(population, seed=9)
        b = MerchantWorkload(population, seed=9)
        assert [a.next() for _ in range(80)] == [b.next() for _ in range(80)]

    def test_next_for_merchant_pays_out(self):
        population = sorted(merchant_genesis(30), key=repr)
        workload = MerchantWorkload(population, seed=2)
        merchant = workload.merchants[0]
        spender, beneficiary, amount = workload.next_for(merchant)
        assert spender == merchant
        assert not str(beneficiary).startswith("merchant-")
        assert amount >= workload.payout_min
        consumer = workload.consumers[0]
        _, beneficiary, _ = workload.next_for(consumer)
        assert str(beneficiary).startswith("merchant-")

    def test_guards(self):
        with pytest.raises(ValueError):
            MerchantWorkload(["solo"])
        with pytest.raises(ValueError):
            MerchantWorkload(CLIENTS, purchase_fraction=1.0)


class TestWorkloadKnob:
    def test_default_is_uniform(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKLOAD", raising=False)
        assert resolve_workload_name() == "uniform"
        monkeypatch.setenv("REPRO_WORKLOAD", "")
        assert resolve_workload_name() == "uniform"

    def test_env_resolution_and_explicit_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKLOAD", "zipf")
        assert resolve_workload_name() == "zipf"
        assert resolve_workload_name("merchant") == "merchant"

    def test_invalid_name_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKLOAD", "hotspot")
        with pytest.raises(ValueError, match="REPRO_WORKLOAD"):
            resolve_workload_name()
        with pytest.raises(ValueError):
            make_workload("hotspot", CLIENTS)
        with pytest.raises(ValueError):
            workload_genesis("hotspot", 10)

    def test_uniform_factory_matches_legacy_default(self):
        made = make_workload("uniform", CLIENTS, seed=5)
        legacy = UniformWorkload(CLIENTS, seed=5)
        assert [made.next() for _ in range(50)] == [
            legacy.next() for _ in range(50)
        ]

    def test_factories_satisfy_protocol(self):
        for name in ("uniform", "zipf", "merchant"):
            assert isinstance(make_workload(name, CLIENTS), Workload)

    def test_genesis_registry(self):
        assert workload_genesis("uniform", 8) == uniform_genesis(8)
        assert workload_genesis("zipf", 8) == uniform_genesis(8)
        merchant = workload_genesis("merchant", 8)
        assert any(str(c).startswith("merchant-") for c in merchant)


class TestUniformGuards:
    def test_genesis_rejects_empty_population(self):
        with pytest.raises(ValueError, match="at least one client"):
            uniform_genesis(0)
        with pytest.raises(ValueError):
            uniform_genesis(-4)
        with pytest.raises(ValueError, match="balance"):
            uniform_genesis(3, balance=-1)

    def test_next_raises_when_population_shrinks_to_one(self):
        workload = UniformWorkload(["a", "b"], seed=0)
        workload.clients.pop()
        with pytest.raises(ValueError, match="at least two clients"):
            workload.next()
        with pytest.raises(ValueError, match="at least two clients"):
            workload.next_for("a")


class TestMerchantEndToEnd:
    def test_tight_merchants_force_dependency_certificates(self, monkeypatch):
        """Credit-funded payouts settle end to end on Astro II."""
        monkeypatch.setenv("REPRO_WORKLOAD", "merchant")
        system = build_astro2(4, seed=0)
        merchants = [
            c for c in client_ids_of(system)
            if str(c).startswith("merchant-")
        ]
        assert merchants
        assert all(system.genesis[m] == MERCHANT_BALANCE for m in merchants)
        result = run_open_loop(system, rate=300, duration=2.0, warmup=0.5)
        system.settle_all()
        assert result.confirmed > 0
        minted = sum(
            r._collector.minted_subbatches for r in system.replicas
        )
        assert minted > 0
        deps_settled = sum(
            1
            for _, _, _, xlog in system.replicas[0].state.accounts()
            for payment in xlog
            if payment.deps
        )
        assert deps_settled > 0
        assert all(not r.rejected for r in system.replicas)
