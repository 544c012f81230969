"""Deployment builder: replicated registers over a simulated network.

``RegisterDeployment`` assembles the full stack for an experiment in one
call: scheduler, delay model, network, ``n`` replica servers, ``p`` client
subsystems (one per application process), a quorum system, and the
register namespace — with every random choice drawn from named streams of
a single root-seeded :class:`~repro.sim.rng.RngRegistry`.

Fault-tolerance knobs ride along: a :class:`~repro.registers.client.RetryPolicy`
governs client retries and per-operation deadlines, ``loss_rate`` turns on probabilistic message
loss, and :meth:`install_schedule` scripts a
:class:`~repro.sim.failures.FailureSchedule` of timed crash/recover/
partition/heal events addressed by server index.
"""

import gc
from contextlib import contextmanager
from typing import Any, Iterator, List, Optional

from repro.obs.core import Observability
from repro.quorum.base import QuorumSystem
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.registers.client import (
    QuorumRegisterClient,
    RegisterHandle,
    RetryPolicy,
)
from repro.registers.server import ReplicaServer
from repro.registers.space import RegisterSpace
from repro.sim import kernel
from repro.sim.delays import ConstantDelay, DelayModel
from repro.sim.failures import FailureInjector, FailureSchedule
from repro.sim.network import Network
from repro.sim.rng import RngRegistry


#: The instance attributes through which a node or the network reaches
#: its C core, which holds the node or network in turn; deleting them
#: leaves the class's Python methods.
_CORE_ATTRIBUTES = (
    "on_message", "send", "broadcast", "_deliver", *kernel.CLIENT_ISSUE_METHODS
)


@contextmanager
def collector_held() -> Iterator[None]:
    """Automatic cyclic garbage collection off inside the block, and the
    caller's setting restored on exit, also when the block raises: the
    objects of a run are freed by reference counting (DESIGN §7), so a
    pass would only traverse and promote the ones still in use."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class RegisterDeployment:
    """A complete simulated deployment of quorum-replicated registers."""

    def __init__(
        self,
        quorum_system: QuorumSystem,
        num_clients: int,
        delay_model: Optional[DelayModel] = None,
        monotone: bool = False,
        seed: int = 0,
        retry_policy: Optional[RetryPolicy] = None,
        loss_rate: float = 0.0,
        client_class: type = QuorumRegisterClient,
        record_history: bool = True,
        detailed_stats: bool = False,
        observability: Optional[Observability] = None,
        spec_monitor: Optional[Any] = None,
        adversary: Optional[Any] = None,
    ) -> None:
        if num_clients < 1:
            raise ValueError(f"need at least one client, got {num_clients}")
        if spec_monitor is not None and not record_history:
            raise ValueError(
                "spec_monitor needs record_history=True: the [R2] online "
                "check resolves timestamps against the register history"
            )
        self.quorum_system = quorum_system
        self.monotone = monotone
        self.record_history = record_history
        self.spec_monitor = spec_monitor
        self.observability = (
            observability if observability is not None else Observability()
        )
        self.scheduler = kernel.make_scheduler()
        self.rng = RngRegistry(seed)
        self.delay_model = delay_model or ConstantDelay(1.0)
        self.failures = FailureInjector()
        self.network = Network(
            self.scheduler,
            self.delay_model,
            self.rng.stream("delays"),
            failures=self.failures,
            loss_rate=loss_rate,
            loss_rng=self.rng.stream("loss") if loss_rate > 0.0 else None,
            detailed_stats=detailed_stats,
            adversary=adversary,
        )
        self.space = RegisterSpace(record_history=record_history)
        self.retry_policy = retry_policy

        self.servers: List[ReplicaServer] = []
        for _ in range(quorum_system.n):
            server = ReplicaServer(self.space)
            self.network.add_node(server)
            self.servers.append(server)
        self.server_ids = [server.node_id for server in self.servers]
        # Reverse map node id -> roster index.  Roster indices are stable
        # for the life of the deployment: the initial servers occupy
        # 0..n-1 and dynamic membership (install_membership) appends.
        self.server_index = {
            node_id: index for index, node_id in enumerate(self.server_ids)
        }
        # Dynamic membership; stays None unless install_membership is
        # handed a non-empty schedule — a static deployment is view 0
        # with no manager, no server view state and no view gate.
        self.membership: Optional[Any] = None

        self.clients: List[QuorumRegisterClient] = []
        for client_id in range(num_clients):
            client = client_class(
                client_id,
                self.space,
                quorum_system,
                self.server_ids,
                self.rng.stream(f"quorum-choice/client-{client_id}"),
                monotone=monotone,
                retry_policy=retry_policy,
                retry_rng=(
                    self.rng.stream(f"retry/client-{client_id}")
                    if retry_policy is not None
                    else None
                ),
                observability=self.observability,
                spec_monitor=spec_monitor,
            )
            self.network.add_node(client)
            self.clients.append(client)

        # The network holds the adversary from its construction (None
        # keeps broadcast's batched branch); it attaches last, observing a
        # fully-built topology (server ids, injector, scheduler), before
        # the first message is sent.
        self.adversary = adversary
        if adversary is not None:
            adversary.attach(self)

        # Native protocol fast path: C transcriptions of the server
        # handler, the client message handler and the client issue path
        # and retry timer (read, write, _retry), installed as instance
        # attributes (the same pattern as the network core's
        # send/broadcast/_deliver), each wired once, here.  The factories
        # return None on the pure-python backend, for node classes that
        # override a handler (a client class that only declares round
        # plans gets its core), for a client with span tracing on or a
        # retry policy that is not an exact RetryPolicy, and for every
        # node of a network that got no core (detailed stats, a derived
        # injector): an object runs wholly in C or wholly in Python.  A
        # message that is not an exact protocol type goes to the Python
        # handler; an adversary, loss, faults and taps are the network
        # core's business, not theirs.
        for server in self.servers:
            core = kernel.make_server_core(server)
            if core is not None:
                server.on_message = core
        cores = kernel.make_client_cores(self.clients)
        for client, core in zip(self.clients, cores):
            if core is not None:
                client.on_message = core
                for name in kernel.CLIENT_ISSUE_METHODS:
                    setattr(client, name, getattr(core, name))
        # Native quorum sampling: bit-identical to rng.choice by
        # contract (verified property tests), so installing it is pure
        # speed.  Class-level on ProbabilisticQuorumSystem — the draw is
        # backend-independent, so a system reused under the python
        # backend keeps producing the same stream.
        sampler = kernel.native_quorum_sampler()
        if sampler is not None and isinstance(
            quorum_system, ProbabilisticQuorumSystem
        ):
            ProbabilisticQuorumSystem._native_sampler = staticmethod(sampler)

    @property
    def num_servers(self) -> int:
        """Number of replica servers in the roster.

        Equals the quorum system's ``n`` on static deployments; under
        dynamic membership the roster grows as joiners are materialised.
        """
        return len(self.servers)

    @property
    def num_clients(self) -> int:
        """Number of application processes (the paper's p)."""
        return len(self.clients)

    def declare_register(
        self, name: str, writer: Optional[int], initial_value: Any = None
    ) -> None:
        """Create a register.  ``writer`` names the single client allowed
        to write it; None declares a multi-writer register (for use with
        :class:`repro.registers.atomic.MultiWriterClient`)."""
        if writer is not None and not 0 <= writer < len(self.clients):
            raise ValueError(
                f"writer {writer} out of range [0, {len(self.clients)})"
            )
        self.space.declare(name, writer=writer, initial_value=initial_value)

    def handle(self, client_id: int, register: str) -> RegisterHandle:
        """A register handle bound to one client's subsystem."""
        return self.clients[client_id].handle(register)

    def crash_server(self, index: int) -> None:
        """Crash the index-th replica server (fail-stop)."""
        self.failures.crash(self.server_ids[index])

    def recover_server(self, index: int) -> None:
        """Recover the index-th replica server."""
        self.failures.recover_many((self.server_ids[index],))

    def install_schedule(self, schedule: FailureSchedule) -> list:
        """Install a failure timeline whose nodes are server *indices*.

        Returns the cancellable handles of the scheduled events.
        """
        return schedule.install(
            self.scheduler,
            self.failures,
            resolve=lambda index: self.server_ids[index % self.num_servers],
        )

    # -- dynamic membership (repro.membership) ------------------------- #

    def install_membership(
        self,
        schedule: Any,
        drain: float = 8.0,
        transfer_retry: float = 4.0,
        transfer_max_attempts: int = 8,
    ) -> Optional[Any]:
        """Install a membership timeline; returns the ViewManager.

        An **empty** schedule returns None and touches nothing — the
        deployment stays static (view 0 forever), byte-identical to one
        that never heard of membership.  Otherwise every server gets a
        view state (arming its view gate), every client starts sampling
        quorums from the manager's views and stamping requests with the
        view id it dispatched under, and the manager's events are
        scheduled.  The messages are the same four either way.  Imported
        lazily so static deployments never load the membership package.
        """
        if len(schedule) == 0:
            return None
        if self.membership is not None:
            raise ValueError("membership schedule already installed")
        from repro.membership.manager import ServerViewState, ViewManager

        manager = ViewManager(
            self,
            schedule,
            drain=drain,
            transfer_retry=transfer_retry,
            transfer_max_attempts=transfer_max_attempts,
        )
        self.membership = manager
        for index, server in enumerate(self.servers):
            server.view_state = ServerViewState(manager, index, 0)
        for client in self.clients:
            client.attach_membership(manager)
        manager.install()
        return manager

    def ensure_server(self, index: int) -> ReplicaServer:
        """Grow the roster until roster index ``index`` exists.

        New servers join the network immediately (reachable, not yet view
        members); clients learn the extended id/index maps at once, so a
        quorum sampled from a view containing the index can address it.
        """
        from repro.membership.manager import ServerViewState

        while len(self.servers) <= index:
            roster_index = len(self.servers)
            server = ReplicaServer(self.space)
            self.network.add_node(server)
            if self.membership is not None:
                server.view_state = ServerViewState(
                    self.membership,
                    roster_index,
                    self.membership.current_view.view_id,
                )
            core = kernel.make_server_core(server)
            if core is not None:
                server.on_message = core
            self.servers.append(server)
            self.server_ids.append(server.node_id)
            self.server_index[server.node_id] = roster_index
            for client in self.clients:
                client._roster_extended(server.node_id)
        return self.servers[index]

    # -- degradation accounting (aggregated over all clients) ---------- #

    @property
    def total_retries(self) -> int:
        """Quorum resamples performed across every client."""
        return sum(client.retries for client in self.clients)

    @property
    def total_timeouts(self) -> int:
        """Operations rejected with OperationTimeout across every client."""
        return sum(client.timeouts for client in self.clients)

    @property
    def total_ops_under_failure(self) -> int:
        """Operations completed while a crash or partition was active."""
        return sum(
            client.ops_completed_under_failure for client in self.clients
        )

    @property
    def total_unreachable(self) -> int:
        """Operations abandoned with QuorumUnreachable across every client."""
        return sum(client.unreachable for client in self.clients)

    @property
    def total_stale_nacks(self) -> int:
        """StaleViewNack replies received across every client."""
        return sum(client.stale_nacks for client in self.clients)

    @property
    def total_view_refreshes(self) -> int:
        """View refreshes performed across every client."""
        return sum(client.view_refreshes for client in self.clients)

    @property
    def pending_ops(self) -> int:
        """Operations still in flight across every client."""
        return sum(client.pending_ops for client in self.clients)

    @property
    def hung_ops(self) -> int:
        """Operations with no settlement path left.

        Once the scheduler has drained its heap, every operation still
        pending: no event is left that could settle it.  Otherwise only
        the operations past an armed deadline (:attr:`overdue_ops`), which
        the deadline event should have rejected.  An operation cut off
        because the run was stopped with events still queued (Alg. 1
        halts at convergence or at its round budget; a time cap ends a
        stalled run) is neither.
        """
        if self.scheduler.pending == 0:
            return self.pending_ops
        return self.overdue_ops

    @property
    def overdue_ops(self) -> int:
        """Operations past an armed deadline (see client.overdue_ops)."""
        return sum(client.overdue_ops for client in self.clients)

    # -- the run's lifecycle -------------------------------------------- #

    def run(self, **kwargs) -> float:
        """Run the underlying scheduler; see :meth:`Scheduler.run`.

        The cyclic collector is held off while it runs
        (:func:`collector_held`): events create no cyclic garbage, and a
        collection pass would only traverse and promote the operations in
        flight, round after round.
        """
        with collector_held():
            return self.scheduler.run(**kwargs)

    def close(self) -> None:
        """Hand the finished run to reference counting.  Idempotent.

        Drops the queued events, abandons the operations still in flight
        (and what waits on them), deletes the attributes that tie the nodes, the network
        and their C cores into reference cycles and empties the
        deployment itself, so that everything the run built is freed as
        soon as its owner lets go of it, with no pass of the cyclic
        garbage collector.  Call it once the results are read: a closed
        deployment holds nothing.
        """
        if not vars(self):
            return
        self.scheduler.clear()
        for client in self.clients:
            for op in client._pending.values():
                op.future.discard()
            client._pending.clear()
        network = self.network
        for node in network._nodes.values():
            for name in _CORE_ATTRIBUTES:
                node.__dict__.pop(name, None)
        network._nodes.clear()
        for name in _CORE_ATTRIBUTES:
            network.__dict__.pop(name, None)
        # The adversary and the view manager hold this deployment, which
        # holds them: it lets go of everything it holds.
        vars(self).clear()

    def __repr__(self) -> str:
        mode = "monotone" if self.monotone else "plain"
        return (
            f"RegisterDeployment({self.quorum_system!r}, "
            f"clients={len(self.clients)}, {mode})"
        )
