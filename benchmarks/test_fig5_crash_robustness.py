"""Fig. 5 — throughput robustness under crash-stop failures (§VI-D).

Regenerates the three timelines and asserts the paper's claims:

* crashing the consensus **leader** zeroes throughput until the view
  change completes, after which it recovers;
* crashing a **random** consensus replica leaves throughput essentially
  intact;
* crashing a random Astro replica costs only the share of clients it
  represented (~1 of 10 closed-loop clients).
"""

def test_fig5_crash_robustness(scale, robustness_suite):
    # Fig. 5's three timelines, measured by the one pooled Figs. 5-7
    # schedule (``run_robustness_suite``, see conftest).
    result, _fig6, _fig7 = robustness_suite
    print()
    print(result.table())
    print(result.series_dump())

    leader = result.timelines["Consensus-Leader"]
    random_bft = result.timelines["Consensus-Random"]
    broadcast = result.timelines["Broadcast-Random"]

    # Leader crash: throughput hits zero during the view change...
    assert leader.min_after_fault() == 0.0
    # ...then recovers to a meaningful share of the pre-fault level.
    recovery = leader.series[-3:]
    assert max(recovery) > 0.3 * leader.before_fault(), (
        f"no recovery after view change: {leader.series}"
    )

    # Random-replica crash: consensus keeps the quorum, no outage.
    assert random_bft.after_fault() > 0.6 * random_bft.before_fault()

    # Astro: loses about one client in ten; never stalls.
    assert broadcast.min_after_fault() > 0.0
    assert broadcast.after_fault() > 0.7 * broadcast.before_fault()
    assert broadcast.after_fault() < 1.05 * broadcast.before_fault()
