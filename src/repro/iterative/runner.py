"""Alg. 1: asynchronous iteration over shared random registers.

The paper's algorithm (Section 5): responsibility for the m components is
partitioned among p processes; component j lives in random register X_j.
Each process loops forever: read every X_j, apply F to the vector read,
write the X_j it owns.  The runner executes this over a simulated
:class:`~repro.registers.deployment.RegisterDeployment`, with the round
accounting and convergence detection of the paper's Section 7 simulation.
"""

from typing import Any, Dict, List, Optional

from repro.core.spec import (
    check_r2_reads_from_some_write,
    check_r4_monotone_reads,
)
from repro.iterative.aco import ACO
from repro.iterative.convergence import ConvergenceMonitor
from repro.iterative.partition import block_partition
from repro.iterative.rounds import RoundTracker
from repro.obs.collect import collect_alg1
from repro.obs.core import DISABLED, Observability
from repro.quorum.base import QuorumSystem
from repro.registers.client import OperationTimeout, RetryPolicy
from repro.registers.deployment import RegisterDeployment
from repro.sim.coroutines import spawn
from repro.sim.delays import DelayModel
from repro.sim.futures import gather


class Alg1Result:
    """Outcome of one Alg. 1 execution.

    Beyond the paper's round/iteration/message accounting, the result
    carries the degradation metrics of the fault-tolerance layer: quorum
    resamples (``retries``), deadline rejections (``timeouts``), messages
    destroyed by crashes/partitions/loss (``messages_dropped``) and
    operations that completed while failures were active
    (``ops_under_failure``).
    """

    def __init__(
        self,
        converged: bool,
        rounds: int,
        total_iterations: int,
        sim_time: float,
        messages: int,
        regressions: int,
        cache_hits: int,
        iterations_by_process: Dict[int, int],
        rounds_completed: int,
        retries: int = 0,
        timeouts: int = 0,
        messages_dropped: int = 0,
        ops_under_failure: int = 0,
    ) -> None:
        self.converged = converged
        self.rounds = rounds
        self.total_iterations = total_iterations
        self.sim_time = sim_time
        self.messages = messages
        self.regressions = regressions
        self.cache_hits = cache_hits
        self.iterations_by_process = iterations_by_process
        self.rounds_completed = rounds_completed
        self.retries = retries
        self.timeouts = timeouts
        self.messages_dropped = messages_dropped
        self.ops_under_failure = ops_under_failure

    def messages_per_round(self) -> float:
        """Average messages sent per round (compare with Eqns 1-2)."""
        if self.rounds == 0:
            return 0.0
        return self.messages / self.rounds

    def __repr__(self) -> str:
        state = "converged" if self.converged else "NOT converged"
        return (
            f"Alg1Result({state}, rounds={self.rounds}, "
            f"iterations={self.total_iterations}, messages={self.messages})"
        )


class Alg1Runner:
    """Executes an ACO with Alg. 1 over quorum-replicated registers."""

    def __init__(
        self,
        aco: ACO,
        quorum_system: QuorumSystem,
        num_processes: Optional[int] = None,
        monotone: bool = False,
        delay_model: Optional[DelayModel] = None,
        seed: int = 0,
        max_rounds: int = 1000,
        register_prefix: str = "X",
        retry_policy: Optional[RetryPolicy] = None,
        loss_rate: float = 0.0,
        max_sim_time: Optional[float] = None,
        record_history: bool = True,
        observability: Optional[Observability] = None,
        spec_monitor: Optional[Any] = None,
        adversary: Optional[Any] = None,
        client_class: Optional[type] = None,
        detailed_stats: bool = False,
    ) -> None:
        if max_rounds < 1:
            raise ValueError(f"max_rounds must be positive, got {max_rounds}")
        if max_sim_time is not None and max_sim_time <= 0:
            raise ValueError(
                f"max_sim_time must be positive, got {max_sim_time}"
            )
        self.aco = aco
        self.max_rounds = max_rounds
        # With failure injection and retries a stalled process stops rounds
        # from closing, so the max_rounds cap alone cannot guarantee
        # termination; max_sim_time is the hard stop for such runs.  With
        # retries enabled and no explicit cap, a generous default is
        # derived from the round budget so simulations always terminate.
        if max_sim_time is None and retry_policy is not None:
            max_sim_time = 100.0 * max_rounds
        self.max_sim_time = max_sim_time
        self.observability = (
            observability if observability is not None else DISABLED
        )
        self.spec_monitor = spec_monitor
        p = num_processes if num_processes is not None else aco.m
        self.blocks = block_partition(aco.m, p)
        deployment_kwargs: Dict[str, Any] = {}
        if client_class is not None:
            deployment_kwargs["client_class"] = client_class
        self.deployment = RegisterDeployment(
            quorum_system,
            num_clients=p,
            delay_model=delay_model,
            monotone=monotone,
            seed=seed,
            retry_policy=retry_policy,
            loss_rate=loss_rate,
            record_history=record_history,
            detailed_stats=detailed_stats,
            observability=self.observability,
            spec_monitor=spec_monitor,
            adversary=adversary,
            **deployment_kwargs,
        )
        self.register_names = [f"{register_prefix}{j}" for j in range(aco.m)]
        initial = aco.initial()
        owners = {
            j: proc for proc, block in enumerate(self.blocks) for j in block
        }
        for j, name in enumerate(self.register_names):
            self.deployment.declare_register(
                name, writer=owners[j], initial_value=initial[j]
            )
        self.tracker = RoundTracker(p)
        self.monitor = ConvergenceMonitor(aco, self.blocks)
        self._stop = False
        self._result_converged = False

    # ------------------------------------------------------------------ #

    def _process_loop(self, process: int):
        """One process's infinite loop of Alg. 1 (a simulation coroutine)."""
        client = self.deployment.clients[process]
        block = self.blocks[process]
        scheduler = self.deployment.scheduler
        while not self._stop:
            # Read every register (concurrently; one query round-trip each).
            # A deadline rejection surfaces here as OperationTimeout; the
            # iteration is abandoned and restarted — Alg. 1 is idempotent,
            # so a re-read/re-write of the same components is always safe.
            try:
                read_futures = [
                    client.read(name) for name in self.register_names
                ]
                vector: List[Any] = yield gather(read_futures)
            except OperationTimeout:
                continue
            # Apply F for the components this process owns.
            new_values = {j: self.aco.apply(j, vector) for j in block}
            # Write the owned registers.
            try:
                write_futures = [
                    client.write(self.register_names[j], new_values[j])
                    for j in block
                ]
                if write_futures:
                    yield gather(write_futures)
            except OperationTimeout:
                continue
            # End of one loop iteration: report for round accounting and
            # convergence detection, exactly as in the paper's simulation.
            now = scheduler.now
            closed_round = self.tracker.report_iteration(process, now)
            all_correct = self.monitor.report(process, new_values, now)
            if closed_round:
                self.monitor.mark_round(self.tracker.rounds_completed)
            if all_correct:
                self._result_converged = True
                self._halt()
                return
            if closed_round and self.tracker.rounds_completed >= self.max_rounds:
                self._halt()
                return

    def _halt(self) -> None:
        self._stop = True
        self.deployment.scheduler.stop()

    # ------------------------------------------------------------------ #

    def run(self, check_spec: bool = True) -> Alg1Result:
        """Execute until convergence or ``max_rounds``; return the result.

        With ``check_spec`` the safety conditions [R2] (and [R4] when
        monotone) are verified on every register history after the run —
        every experiment therefore doubles as a specification audit.
        """
        if check_spec and not self.deployment.record_history:
            raise ValueError(
                "check_spec=True requires record_history=True: the spec "
                "audit reads the register histories after the run"
            )
        scheduler = self.deployment.scheduler
        for process in range(len(self.blocks)):
            spawn(scheduler, self._process_loop(process), label=f"proc-{process}")
        scheduler.run(until=self.max_sim_time)
        if not self._stop:
            # Hit the simulated-time cap (e.g. stalled by crashes): tear
            # the process loops down so the run reports honestly.
            self._halt()
        if self.spec_monitor is not None:
            # Online monitoring raised at the violating event during the
            # run; finalize adds the end-of-run liveness check ([R1]).
            self.spec_monitor.finalize(self.deployment)
        if check_spec:
            for name in self.register_names:
                history = self.deployment.space.history(name)
                check_r2_reads_from_some_write(history)
                if self.deployment.monotone:
                    check_r4_monotone_reads(history)
        rounds = self.tracker.rounds_completed
        # A detection that happens mid-round counts the partial round, per
        # the paper's "rounds until every process computes the APSP".
        if self._result_converged and self.tracker._seen_this_round:  # noqa: SLF001
            rounds += 1
        cache_hits = sum(c.cache_hits for c in self.deployment.clients)
        result = Alg1Result(
            converged=self._result_converged,
            rounds=rounds,
            total_iterations=self.tracker.total_iterations,
            sim_time=scheduler.now,
            messages=self.deployment.network.stats.sent,
            regressions=self.monitor.regressions,
            cache_hits=cache_hits,
            iterations_by_process=dict(self.tracker.iterations),
            rounds_completed=self.tracker.rounds_completed,
            retries=self.deployment.total_retries,
            timeouts=self.deployment.total_timeouts,
            messages_dropped=self.deployment.network.stats.dropped,
            ops_under_failure=self.deployment.total_ops_under_failure,
        )
        if self.observability.metrics.enabled:
            collect_alg1(self.observability.metrics, self, result)
        return result
