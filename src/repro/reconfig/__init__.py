"""Asynchronous reconfiguration (Appendix A).

Consensusless membership changes for Astro (views, the join/leave
protocol, state transfer) and the consensus-based reconfiguration
baseline of Fig. 8.  Broadcast across views (DBRB) is Bracha's own:
:meth:`repro.brb.bracha.BrachaBroadcast.install_view`.
"""

from .consensus_reconfig import measure_consensus_join_latency
from .membership import JoinRequest, ReconfigReplica, ViewInstalled, ViewProposal
from .views import View

__all__ = [
    "measure_consensus_join_latency",
    "JoinRequest",
    "ReconfigReplica",
    "ViewInstalled",
    "ViewProposal",
    "View",
]
