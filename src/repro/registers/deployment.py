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

from typing import Any, List, Optional

from repro.obs.core import DISABLED, Observability
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
from repro.sim.scheduler import Scheduler


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
        scheduler: Optional[Scheduler] = None,
        rng_registry: Optional[RngRegistry] = None,
        client_class: type = QuorumRegisterClient,
        record_history: bool = True,
        detailed_stats: bool = True,
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
            observability if observability is not None else DISABLED
        )
        self.scheduler = scheduler or kernel.make_scheduler()
        self.rng = rng_registry or RngRegistry(seed)
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

        # The adversary attaches last: it observes a fully-built topology
        # (server ids, injector, scheduler) and starts intercepting from
        # the first message.  None keeps broadcast's batched branch.
        self.adversary = adversary
        if adversary is not None:
            adversary.attach(self)
            self.network.set_adversary(adversary)

        # Native protocol fast path: C transcriptions of the server
        # handler, the client message handler and the client issue path
        # and retry timer (read, write, _begin, _send_round, _retry),
        # installed as instance attributes (the same pattern as the
        # network core's send/broadcast/_deliver) so trace taps keep
        # working.  The factories return None on the pure-python backend
        # and for node classes that override a handler (a client class
        # that only declares round plans gets its core); the cores
        # re-check what a handler reads — span tracing, the exact message
        # type — per delivery / per operation and fall back to the Python
        # methods.
        # An adversary, loss, faults, taps and detailed stats are the
        # network core's business, not theirs.
        for server in self.servers:
            core = kernel.make_server_core(server)
            if core is not None:
                server.on_message = core
        for client in self.clients:
            core = kernel.make_client_core(client)
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
        self.failures.recover(self.server_ids[index])

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
        """Operations with no settlement path left (see client.hung_ops)."""
        return sum(client.hung_ops for client in self.clients)

    def run(self, **kwargs) -> float:
        """Run the underlying scheduler; see :meth:`Scheduler.run`."""
        return self.scheduler.run(**kwargs)

    def __repr__(self) -> str:
        mode = "monotone" if self.monotone else "plain"
        return (
            f"RegisterDeployment({self.quorum_system!r}, "
            f"clients={len(self.clients)}, {mode})"
        )
