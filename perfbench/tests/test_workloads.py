"""Tiny passes of every workload, and the merchant top-up epilogue.

Sizes here are a tenth of the benchmark's, so the numbers are marked
non-comparable; what is checked is that every metric is produced and the
correctness gate holds.
"""

import asyncio
import json
import os

import pytest

from perfbench import run as runner
from perfbench.live import Cluster, LoadGen, topup_payments
from repro.workloads import MerchantWorkload, merchant_genesis

BENCHMARK = runner.load_benchmark()
TINY_SECONDS = 2


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_untraced_pass(name):
    result = runner.run_once(name, seed=5, seconds=TINY_SECONDS, traced=False)
    assert result["problems"] == []
    assert result["failed"] == 0 and result["attempted"] > 0
    assert result["info"]["comparable"] is False
    for metric in BENCHMARK["end_to_end"]:
        assert result["values"][metric["name"]] > 0, metric["name"]


@pytest.mark.parametrize("name", ["live_merchant_wal", "sim_astro2_n32"])
def test_tiny_traced_pass_reconciles(name, capsys):
    result = runner.run_once(name, seed=5, seconds=TINY_SECONDS, traced=True)
    # Span counts matched the program's own counters (wire frames, WAL
    # records, settles), or ``problems`` would say which binding leaked.
    assert result["problems"] == []
    assert 0.0 < result["values"]["trace.coverage"] <= 1.0
    assert runner.emit(result, traced=True) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert os.path.exists(os.path.join(runner.OUT_DIR, f"trace_{name}.json"))


def test_every_per_layer_metric_is_measured_somewhere():
    """A name in BENCHMARK.json that no workload ever fills is a typo."""
    measured = set()
    for name in ("live_merchant_wal", "sim_astro2_n32", "sim_astro1_n32"):
        result = runner.run_once(name, seed=6, seconds=TINY_SECONDS, traced=True)
        measured |= set(result["values"])
    assert {m["name"] for m in BENCHMARK["per_layer"]} <= measured


def test_merchant_topup_releases_held_payouts(tmp_path):
    """Payouts a representative holds for lack of funds stay unconfirmed
    until the merchant is paid; the epilogue's top-up releases them all."""

    async def scenario():
        genesis = merchant_genesis(64)
        cluster = Cluster(4, genesis, seed=1, wal_dir=str(tmp_path))
        await cluster.start()
        workload = MerchantWorkload(sorted(genesis, key=repr), seed=1)
        loadgen = LoadGen(cluster, workload)
        try:
            now = 0.0
            for merchant in workload.merchants:
                # Far above the tight merchant balance: must be held.
                payout = loadgen.make_payment(merchant, workload.consumers[0], 5000)
                loadgen.submit(payout, now)
            assert not await loadgen.drain(timeout=0.5)
            assert len(loadgen.pending) == len(workload.merchants)
            topups = topup_payments(loadgen)
            assert [p.beneficiary for p in topups] == workload.merchants
            for payment in topups:
                loadgen.submit(payment, now)
            assert await loadgen.drain(timeout=10.0)
            await asyncio.sleep(0.2)
            assert cluster.check(loadgen.confirmed) == []
        finally:
            await cluster.close()

    asyncio.run(scenario())
