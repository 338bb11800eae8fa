"""Consensusless membership reconfiguration (Appendix A).

Implements the join/leave protocol sketched in §A-A, adapting FreeStore's
consensus-free reconfiguration to the Byzantine model with quorum systems:

1. A joining (or leaving) replica broadcasts a JOIN/LEAVE request to the
   members of its current view estimate.
2. Each member signs and broadcasts a proposal for the successor view.
3. On a Byzantine quorum of matching proposals a member *installs* the new
   view, resumes payment processing in it, and sends the joiner a
   VIEW-INSTALLED notice together with a state snapshot (all xlogs — the
   paper's state-transfer protocol "simply consists of sending all xlogs
   to the joining replica").
4. The joiner becomes active on a quorum of VIEW-INSTALLED notices (so the
   new view is durable) plus at least one state snapshot.

The measured join latency — request send to active — is what Fig. 8
reports.  The protocol processes one reconfiguration at a time per view
(the paper measures sequential joins for the same reason); batched joins
are supported by re-requesting in the installed view.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..crypto import costs
from ..crypto.keys import Keychain, KeyPair, replica_owner
from ..crypto.signatures import Signature, sign, verify
from ..sim.events import Simulator
from ..sim.network import Network
from ..sim.node import Node
from .views import View

__all__ = ["ReconfigReplica", "JoinRequest", "ViewProposal", "ViewInstalled"]


class JoinRequest:
    __slots__ = ("joiner", "view_number")

    def __init__(self, joiner: int, view_number: int) -> None:
        self.joiner = joiner
        self.view_number = view_number


class LeaveRequest:
    __slots__ = ("leaver", "view_number")

    def __init__(self, leaver: int, view_number: int) -> None:
        self.leaver = leaver
        self.view_number = view_number


class ViewProposal:
    """A member's signed endorsement of a successor view."""

    __slots__ = ("view", "signature")

    def __init__(self, view: View, signature: Signature) -> None:
        self.view = view
        self.signature = signature


class ViewInstalled:
    """Notice to the joiner that a member installed the view; carries the
    state snapshot (sized by the xlog volume it transfers)."""

    __slots__ = ("view", "state_bytes")

    def __init__(self, view: View, state_bytes: int) -> None:
        self.view = view
        self.state_bytes = state_bytes


class ReconfigReplica(Node):
    """A replica participating in consensusless reconfiguration.

    Holds the current installed view, pauses processing while a newer view
    is being agreed (per §A-A), and serves state to joiners.  Payment-layer
    integration is intentionally decoupled: callers may register
    ``on_pause`` / ``on_resume`` / ``on_install`` hooks.
    """

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        network: Network,
        initial_view: View,
        keychain: Keychain,
        key: KeyPair,
        state_bytes: int = 10_000,
    ) -> None:
        super().__init__(sim, node_id, network)
        self.keychain = keychain
        self.key = key
        self.view = initial_view
        self.active = node_id in initial_view.members
        #: Size of the xlog state this replica would transfer to a joiner.
        self.state_bytes = state_bytes
        self.paused = False
        self.installed_history: List[View] = [initial_view] if self.active else []
        self._proposals: Dict[Tuple, Dict[int, Signature]] = {}
        self._installed_acks: Dict[Tuple, Set[int]] = {}
        self._pending_view: Optional[View] = None
        self._got_state = False
        self._join_started_at: Optional[float] = None
        self.join_latency: Optional[float] = None
        self.on_pause: Optional[Callable[[], None]] = None
        self.on_resume: Optional[Callable[[View], None]] = None
        self.on(JoinRequest, self._on_join_request)
        self.on(LeaveRequest, self._on_leave_request)
        self.on(ViewProposal, self._on_proposal)
        self.on(ViewInstalled, self._on_installed)

    # ------------------------------------------------------------------
    # Joining / leaving (called on the joining/leaving node)
    # ------------------------------------------------------------------
    def request_join(self) -> None:
        """Ask the current view to admit this replica."""
        if self.active:
            raise RuntimeError(f"node {self.node_id} is already a member")
        self._join_started_at = self.sim.now
        request = JoinRequest(self.node_id, self.view.number)
        # All membership fan-outs iterate members in sorted order: send
        # order must derive from the view's content, never from set
        # iteration (an artifact of hash-table internals).
        for member in sorted(self.view.members):
            self.send(
                member,
                request,
                size=costs.HEADER_BYTES + 16,
                recv_cost=costs.MESSAGE_OVERHEAD + costs.ECDSA_VERIFY,
            )

    def request_leave(self) -> None:
        if not self.active:
            raise RuntimeError(f"node {self.node_id} is not a member")
        request = LeaveRequest(self.node_id, self.view.number)
        for member in sorted(self.view.members):
            if member == self.node_id:
                continue
            self.send(
                member,
                request,
                size=costs.HEADER_BYTES + 16,
                recv_cost=costs.MESSAGE_OVERHEAD + costs.ECDSA_VERIFY,
            )
        self._propose(self.view.without_member(self.node_id))

    # ------------------------------------------------------------------
    # Member side
    # ------------------------------------------------------------------
    def _on_join_request(self, src: int, message: JoinRequest) -> None:
        if not self.active or message.view_number != self.view.number:
            return
        if message.joiner in self.view.members:
            return
        self._propose(self.view.with_member(message.joiner))

    def _on_leave_request(self, src: int, message: LeaveRequest) -> None:
        if not self.active or message.view_number != self.view.number:
            return
        if message.leaver not in self.view.members or message.leaver == self.node_id:
            return
        self._propose(self.view.without_member(message.leaver))

    def _propose(self, new_view: View) -> None:
        if new_view.number != self.view.number + 1:
            return
        if not self.paused:
            # Pause payment processing while the next view is agreed (§A-A).
            self.paused = True
            if self.on_pause is not None:
                self.on_pause()
        self.cpu.occupy(costs.ECDSA_SIGN)
        signature = sign(self.key, new_view.canonical())
        proposal = ViewProposal(new_view, signature)
        for member in sorted(self.view.members | new_view.members):
            if member == self.node_id:
                continue
            self.send(
                member,
                proposal,
                size=(costs.HEADER_BYTES + 32 + 8 * new_view.n
                      + costs.SIGNATURE_BYTES),
                recv_cost=costs.MESSAGE_OVERHEAD + costs.ECDSA_VERIFY,
            )
        self._record_proposal(self.node_id, proposal)

    def _on_proposal(self, src: int, message: ViewProposal) -> None:
        if not verify(self.keychain, message.signature, message.view.canonical()):
            return
        if message.signature.signer != replica_owner(src):
            return
        self._record_proposal(src, message)

    def _record_proposal(self, src: int, message: ViewProposal) -> None:
        new_view = message.view
        if new_view.number <= self.view.number and self.active:
            return
        key = new_view.canonical()
        bucket = self._proposals.setdefault(key, {})
        bucket[src] = message.signature
        # Quorum of the *previous* view must endorse the change.
        if len(bucket) < self.view.quorum:
            return
        if self.node_id in new_view.members and self.active:
            self._install(new_view)
        elif self.node_id in new_view.members and not self.active:
            # We are the joiner: remember endorsements; activation happens
            # on VIEW-INSTALLED notices (which carry the state).
            self._record_endorsed(new_view)
        elif self.active:
            # We are leaving: install to stay consistent, then retire.
            self._install(new_view)
            self.active = False

    def _install(self, new_view: View) -> None:
        if new_view.number <= self.view.number:
            return
        newcomers = new_view.members - self.view.members
        self.view = new_view
        self.installed_history.append(new_view)
        self.paused = False
        if self.on_resume is not None:
            self.on_resume(new_view)
        # Notify peers; newcomers additionally receive the state snapshot
        # (all xlogs, §A-A "Our state transfer protocol simply consists of
        # sending all xlogs to the joining replica").
        for member in sorted(new_view.members):
            if member == self.node_id:
                continue
            state = self.state_bytes if member in newcomers else 0
            notice = ViewInstalled(new_view, state)
            self.send(
                member,
                notice,
                size=costs.HEADER_BYTES + state,
                recv_cost=(
                    costs.MESSAGE_OVERHEAD + costs.PER_BYTE_CPU * state
                ),
            )

    # ------------------------------------------------------------------
    # Joiner side
    # ------------------------------------------------------------------
    def _record_endorsed(self, new_view: View) -> None:
        # Track which view we are waiting to have installed.
        self._pending_view = new_view

    def _on_installed(self, src: int, message: ViewInstalled) -> None:
        if self.active:
            # Already-active members use install notices only as catch-up.
            if message.view.number > self.view.number:
                self._install_from_notice(message.view)
            return
        if self.node_id not in message.view.members:
            return
        key = message.view.canonical()
        acks = self._installed_acks.setdefault(key, set())
        acks.add(src)
        self._got_state = True
        if len(acks) >= message.view.f + 1:
            self.view = message.view
            self.active = True
            self.paused = False
            self.installed_history.append(message.view)
            if self._join_started_at is not None:
                self.join_latency = self.sim.now - self._join_started_at
                self._join_started_at = None
            if self.on_resume is not None:
                self.on_resume(message.view)

    def _install_from_notice(self, new_view: View) -> None:
        self.view = new_view
        self.installed_history.append(new_view)
        self.paused = False
        if self.on_resume is not None:
            self.on_resume(new_view)
