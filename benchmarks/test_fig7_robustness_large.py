"""Fig. 7 — robustness at large scale (§VI-D, paper N=100).

Both fault kinds hit the consensus leader / a random Astro replica.
Asserts the paper's claims: the leader crash stalls consensus through a
long view change; leader asynchrony causes persistent degradation; Astro
merely sheds the affected replica's clients in both cases.
"""

def test_fig7_robustness_large(scale, robustness_suite):
    # Fig. 7's four timelines, measured by the one pooled Figs. 5-7
    # schedule (``run_robustness_suite``, see conftest).
    _fig5, _fig6, result = robustness_suite
    print()
    print(result.table())
    print(result.series_dump())

    cons_fail = result.timelines["Consensus-Fail"]
    cons_async = result.timelines["Consensus-Async"]
    bcast_fail = result.timelines["Broadcast-Fail"]
    bcast_async = result.timelines["Broadcast-Async"]

    # Leader crash: a real outage window (zero throughput).
    assert cons_fail.min_after_fault() == 0.0

    # Leader asynchrony: degraded but nonzero.
    assert cons_async.after_fault() < 0.7 * cons_async.before_fault()

    # Astro sheds at most the failed replica's clients under both faults.
    for timeline in (bcast_fail, bcast_async):
        assert timeline.after_fault() > 0.7 * timeline.before_fault()
        assert timeline.min_after_fault() > 0.0
