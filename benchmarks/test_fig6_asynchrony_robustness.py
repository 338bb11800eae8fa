"""Fig. 6 — throughput robustness under asynchrony (§VI-D).

A 100 ms egress delay hits one replica mid-run.  Asserts the paper's
claims: a slowed consensus leader degrades the whole system (timeline A)
unless an aggressive timeout deposes it (timeline B, which recovers); a
slowed random replica barely matters; a slowed Astro replica affects only
its own clients.
"""

def test_fig6_asynchrony_robustness(scale, robustness_suite):
    # Fig. 6's four timelines, measured by the one pooled Figs. 5-7
    # schedule (``run_robustness_suite``, see conftest).
    _fig5, result, _fig7 = robustness_suite
    print()
    print(result.table())
    print(result.series_dump())

    patient = result.timelines["Consensus-Leader-A"]
    aggressive = result.timelines["Consensus-Leader-B"]
    random_bft = result.timelines["Consensus-Random"]
    broadcast = result.timelines["Broadcast-Random"]

    # Timeline A: the slowed leader stays; steady-state degradation.
    assert patient.after_fault() < 0.7 * patient.before_fault(), (
        f"slowed leader should degrade throughput: {patient.series}"
    )
    assert patient.after_fault() > 0.0  # degraded, not dead

    # Timeline B: view change deposes the slow leader; throughput
    # recovers above timeline A's degraded steady state.
    tail_b = sum(aggressive.series[-4:]) / 4
    tail_a = sum(patient.series[-4:]) / 4
    assert tail_b > tail_a, (
        f"view change should beat limping leader: B={aggressive.series} "
        f"A={patient.series}"
    )

    # A slowed random replica does not materially affect consensus.
    assert random_bft.after_fault() > 0.6 * random_bft.before_fault()

    # Astro under asynchrony behaves like Astro under crash: only the
    # affected replica's clients slow down.
    assert broadcast.after_fault() > 0.7 * broadcast.before_fault()
