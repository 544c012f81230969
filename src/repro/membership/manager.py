"""View manager: numbered membership epochs over a register deployment.

A :class:`View` is an immutable membership epoch — a sorted tuple of
replica roster indices plus its own
:class:`~repro.quorum.probabilistic.ProbabilisticQuorumSystem` sized to
the epoch (``k`` clamped to the member count).  The
:class:`ViewManager` turns a scripted
:class:`~repro.membership.schedule.MembershipSchedule` into a sequence
of views installed on the deployment's scheduler while client
operations are in flight:

* **join** — the deployment grows its roster on demand; before the new
  view activates, every joiner catches up by *state transfer*: it sends
  ``StateRequest`` to a read quorum sampled from the **old** view and
  merges the highest-timestamped replica entries from the replies.
  Transfers retry on a timer with resampled targets; after
  ``transfer_max_attempts`` the view activates anyway and the shortfall
  is counted (``state_transfers_incomplete``), never hidden.
* **leave** — when the new view activates, leavers learn it and start
  *draining*: for ``drain`` time units they keep answering operations
  stamped with older views (their replies carry the new view id, so
  clients refresh), then they retire and ignore all traffic (counted).

Activation is atomic across servers — every server learns the new view
id in the same scheduler event — while clients discover views lazily:
a ``StaleViewNack`` (or a reply stamped with a newer view) triggers a
refresh from the manager and a re-dispatch under the new view's quorum.

Determinism: every random choice comes from ``derive_seed`` streams
keyed by view id (transfer target sampling, per-view per-client quorum
streams), so membership runs are bit-reproducible from the root seed
and byte-identical across kernel backends — both of which carry view
traffic natively, since the view id is a field of the four ordinary
register messages (:mod:`repro.registers.messages`) and view 0 is the
static deployment.  Runs without membership events never construct any
of this and stay byte-identical to the membership-free code.
"""

from collections import deque
from typing import Any, Deque, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.membership.schedule import MembershipEvent, MembershipSchedule
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.registers.messages import StateRequest
from repro.sim.rng import derive_seed


class View:
    """One membership epoch: a numbered, immutable member set."""

    __slots__ = ("view_id", "members", "quorum_system")

    def __init__(
        self, view_id: int, members: Iterable[int], quorum_size: int
    ) -> None:
        self.view_id = view_id
        self.members: Tuple[int, ...] = tuple(sorted(members))
        if not self.members:
            raise ValueError(f"view {view_id} has no members")
        # Per-view access set: a fresh probabilistic quorum system over
        # *this* epoch's member count, with k clamped so a shrunken view
        # keeps sampling valid quorums.
        k = min(quorum_size, len(self.members))
        self.quorum_system = ProbabilisticQuorumSystem(len(self.members), k)

    def sample(self, rng: np.random.Generator) -> FrozenSet[int]:
        """Draw a quorum of *roster indices* from this view's members."""
        positions = self.quorum_system.quorum(rng)
        members = self.members
        return frozenset(members[p] for p in positions)

    def __contains__(self, index: int) -> bool:
        return index in self.members

    def __repr__(self) -> str:
        return (
            f"View(id={self.view_id}, n={len(self.members)}, "
            f"k={self.quorum_system.k})"
        )


class ServerViewState:
    """Per-server membership state, attached as ``server.view_state``."""

    __slots__ = (
        "manager", "index", "view_id", "retiring", "retired", "retire_view",
        "transfer_id",
    )

    def __init__(self, manager: "ViewManager", index: int, view_id: int) -> None:
        self.manager = manager
        self.index = index  # this server's roster index
        self.view_id = view_id
        self.retiring = False
        self.retired = False
        self.retire_view: Optional[int] = None
        # The id of this joiner's open state transfer, None when none is
        # open: a StateReply carrying another id is ignored, counted.
        self.transfer_id: Optional[int] = None

    def __repr__(self) -> str:
        phase = (
            "retired" if self.retired
            else "draining" if self.retiring
            else "member"
        )
        return f"ServerViewState(view={self.view_id}, {phase})"


class _Transfer:
    """Book-keeping for one joiner's state transfer."""

    __slots__ = (
        "transfer_id", "view_id", "joiner", "targets", "replies",
        "attempts", "retry_handle", "rng",
    )

    def __init__(
        self,
        transfer_id: int,
        view_id: int,
        joiner: int,
        targets: FrozenSet[int],
        rng: np.random.Generator,
    ) -> None:
        self.transfer_id = transfer_id
        self.view_id = view_id
        self.joiner = joiner  # roster index
        self.targets = targets  # roster indices of old-view members
        self.replies: Set[int] = set()  # roster indices that replied
        self.attempts = 0
        self.retry_handle = None
        self.rng = rng

    @property
    def complete(self) -> bool:
        return self.targets.issubset(self.replies)


class ViewManager:
    """Installs numbered views from a membership schedule.

    Constructed by
    :meth:`~repro.registers.deployment.RegisterDeployment.install_membership`;
    not meant to be built directly.
    """

    def __init__(
        self,
        deployment: Any,
        schedule: MembershipSchedule,
        drain: float = 8.0,
        transfer_retry: float = 4.0,
        transfer_max_attempts: int = 8,
    ) -> None:
        if drain < 0:
            raise ValueError(f"drain must be non-negative: {drain}")
        if transfer_retry <= 0:
            raise ValueError(
                f"transfer_retry must be positive: {transfer_retry}"
            )
        if transfer_max_attempts < 1:
            raise ValueError(
                f"transfer_max_attempts must be >= 1: {transfer_max_attempts}"
            )
        self.deployment = deployment
        self.schedule = schedule
        self.drain = drain
        self.transfer_retry = transfer_retry
        self.transfer_max_attempts = transfer_max_attempts
        self.seed = deployment.rng.seed
        self._quorum_size = deployment.quorum_system.quorum_size
        initial = View(
            0, range(len(deployment.servers)), self._quorum_size
        )
        self.views: List[View] = [initial]
        self.pending_view: Optional[View] = None
        self._event_queue: Deque[MembershipEvent] = deque()
        self._pending_transfers: Dict[int, _Transfer] = {}  # joiner -> xfer
        self._transfer_ids = 0
        # Degradation / accounting counters (collected post-run).
        self.views_installed = 0
        self.joins = 0
        self.leaves = 0
        self.state_transfers_completed = 0
        self.state_transfers_incomplete = 0
        self.state_transfer_retries = 0
        self.events_skipped = 0

    # -- wiring -------------------------------------------------------- #

    @property
    def current_view(self) -> View:
        """The newest *activated* view (pending ones are not visible)."""
        return self.views[-1]

    def client_view_rng(
        self, view_id: int, client_id: int, default: np.random.Generator
    ) -> np.random.Generator:
        """The quorum-choice stream a client uses under ``view_id``.

        View 0 keeps the client's original per-client stream — byte
        identity with membership-free sampling until the first change —
        and every later view gets an independent ``derive_seed`` stream,
        so quorum draws never depend on how many draws earlier views
        consumed.
        """
        if view_id == 0:
            return default
        return np.random.default_rng(
            derive_seed(self.seed, "view-quorum", view_id, client_id)
        )

    def install(self) -> None:
        """Schedule every membership event on the deployment's scheduler."""
        scheduler = self.deployment.scheduler
        for event in self.schedule.events:
            scheduler.schedule_at(event.time, self._on_event, event)

    # -- event application --------------------------------------------- #

    def _on_event(self, event: MembershipEvent) -> None:
        self._event_queue.append(event)
        if self.pending_view is None:
            self._advance()

    def _advance(self) -> None:
        """Apply queued events until one leaves a view pending transfer."""
        while self._event_queue and self.pending_view is None:
            event = self._event_queue.popleft()
            current = self.current_view
            members = set(current.members)
            joiners: List[int] = []
            if event.action == "join":
                joiners = [n for n in event.nodes if n not in members]
                if not joiners:
                    self.events_skipped += 1
                    continue
                members.update(joiners)
            else:  # leave
                leavers = [n for n in event.nodes if n in members]
                if not leavers or len(leavers) >= len(members):
                    # Never retire the last member: an empty view has no
                    # quorums at all.  Skipped, and counted.
                    self.events_skipped += 1
                    continue
                members.difference_update(leavers)
            view = View(current.view_id + 1, members, self._quorum_size)
            if joiners:
                self.pending_view = view
                for index in joiners:
                    self._begin_transfer(view, current, index)
            else:
                self._activate(view)

    def _begin_transfer(
        self, view: View, old_view: View, joiner: int
    ) -> None:
        """Start a joiner's catch-up from a read quorum of the old view."""
        server = self.deployment.ensure_server(joiner)
        state = server.view_state
        # A re-joining, previously-retired roster slot comes back to
        # life here so it can receive state replies.
        state.retiring = False
        state.retired = False
        state.retire_view = None
        self._transfer_ids += 1
        rng = np.random.default_rng(
            derive_seed(self.seed, "membership-transfer", view.view_id, joiner)
        )
        transfer = _Transfer(
            self._transfer_ids, view.view_id, joiner, old_view.sample(rng), rng
        )
        state.transfer_id = transfer.transfer_id
        self._pending_transfers[joiner] = transfer
        self._send_transfer_round(transfer)
        transfer.retry_handle = self.deployment.scheduler.schedule(
            self.transfer_retry, self._transfer_tick, joiner,
            transfer.transfer_id,
        )

    def _send_transfer_round(self, transfer: _Transfer) -> None:
        deployment = self.deployment
        joiner_node = deployment.server_ids[transfer.joiner]
        targets = [
            deployment.server_ids[index]
            for index in sorted(transfer.targets - transfer.replies)
        ]
        if targets:
            deployment.network.broadcast(
                joiner_node,
                targets,
                StateRequest(transfer.transfer_id, transfer.view_id),
            )

    def _transfer_tick(self, joiner: int, transfer_id: int) -> None:
        transfer = self._pending_transfers.get(joiner)
        if transfer is None or transfer.transfer_id != transfer_id:
            return
        transfer.attempts += 1
        if transfer.attempts >= self.transfer_max_attempts:
            # Give up waiting: activate with whatever arrived.  The gap
            # is counted, never silently absorbed.
            self.state_transfers_incomplete += 1
            self._finish_transfer(transfer)
            return
        self.state_transfer_retries += 1
        # Resample the target quorum from the old view: the original
        # draw may name crashed or unreachable members.
        old_view = self.current_view
        transfer.targets = transfer.replies | old_view.sample(transfer.rng)
        self._send_transfer_round(transfer)
        transfer.retry_handle = self.deployment.scheduler.schedule(
            self.transfer_retry, self._transfer_tick, joiner, transfer_id
        )

    def on_transfer_reply(self, joiner: int, src: int) -> None:
        """Called by the joiner server (roster index ``joiner``) when a
        StateReply of its open transfer lands from node ``src``."""
        transfer = self._pending_transfers[joiner]
        transfer.replies.add(self.deployment.server_index[src])
        if transfer.complete:
            self.state_transfers_completed += 1
            self._finish_transfer(transfer)

    def _finish_transfer(self, transfer: _Transfer) -> None:
        if transfer.retry_handle is not None:
            transfer.retry_handle.cancel()
        server = self.deployment.servers[transfer.joiner]
        server.view_state.transfer_id = None
        del self._pending_transfers[transfer.joiner]
        if not self._pending_transfers and self.pending_view is not None:
            view = self.pending_view
            self.pending_view = None
            self._activate(view)
            self._advance()

    def _activate(self, view: View) -> None:
        """Make ``view`` current: atomic across servers, lazy for clients."""
        deployment = self.deployment
        old = self.current_view
        self.views.append(view)
        self.views_installed += 1
        joined = set(view.members) - set(old.members)
        left = set(old.members) - set(view.members)
        self.joins += len(joined)
        self.leaves += len(left)
        now = deployment.scheduler.now
        for index in view.members:
            deployment.servers[index].view_state.view_id = view.view_id
        for index in left:
            state = deployment.servers[index].view_state
            state.view_id = view.view_id
            state.retiring = True
            state.retire_view = view.view_id
            if self.drain > 0:
                deployment.scheduler.schedule(
                    self.drain, self._retire, index, view.view_id
                )
            else:
                self._retire(index, view.view_id)
        monitor = deployment.spec_monitor
        if monitor is not None and hasattr(monitor, "on_view_change"):
            monitor.on_view_change(view.view_id, view.members, now)
        adversary = deployment.adversary
        if adversary is not None and hasattr(adversary, "on_view_installed"):
            adversary.on_view_installed(view.view_id, now)

    def _retire(self, index: int, view_id: int) -> None:
        state = self.deployment.servers[index].view_state
        if state.retiring and state.retire_view == view_id:
            state.retiring = False
            state.retired = True

    # -- accounting ---------------------------------------------------- #

    def metric_counters(self) -> Dict[str, int]:
        """Manager counters, keyed for the metrics collectors."""
        return {
            "views_installed": self.views_installed,
            "joins": self.joins,
            "leaves": self.leaves,
            "state_transfers_completed": self.state_transfers_completed,
            "state_transfers_incomplete": self.state_transfers_incomplete,
            "state_transfer_retries": self.state_transfer_retries,
            "membership_events_skipped": self.events_skipped,
        }

    def view_sizes(self) -> List[List[int]]:
        """[view_id, n, k] per installed view — the per-view [R3] sweep.

        Lists, not tuples: the rows land in result payloads, which must
        compare equal to their own JSON round trip through the run cache.
        """
        return [
            [v.view_id, len(v.members), v.quorum_system.k] for v in self.views
        ]

    def summary(self) -> Dict[str, Any]:
        """The run's membership record: the manager counters, the
        per-view sizes and the clients' stale-view nacks and refreshes —
        what a worker payload and ``ServiceResult.membership`` carry."""
        return {
            **self.metric_counters(),
            "views": self.view_sizes(),
            "stale_nacks": self.deployment.total_stale_nacks,
            "view_refreshes": self.deployment.total_view_refreshes,
        }

    def __repr__(self) -> str:
        return (
            f"ViewManager(view={self.current_view.view_id}, "
            f"n={len(self.current_view.members)}, "
            f"installed={self.views_installed})"
        )
