"""Assemble and run one service-mode simulation.

:func:`run_service` is the one-call entry point used by the ``serve``
CLI subcommand, the service benchmark and the tests: build a register
deployment, shard a keyspace onto it, attach the open-loop driver, run
the scheduler to quiescence and fold everything the run measured into a
:class:`ServiceResult`.

Determinism contract: every number in the result's metrics snapshot is a
function of the config alone — simulated time, seeded RNG streams and
event order; wall-clock only ever appears in ``wall_seconds`` on the
result object, never in the registry.  Two runs of the same config
therefore produce **byte-identical** ``snapshot_bytes``, which the
regression tests assert.
"""

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro import specs
from repro.adversary import strategies
from repro.membership import schedule as membership_schedule
from repro.obs import runtime as obs_runtime
from repro.obs.collect import collect_deployment
from repro.obs.core import Observability
from repro.obs.quantiles import StreamingQuantiles
from repro.obs.registry import MetricsRegistry
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.registers.atomic import MultiWriterClient
from repro.registers.client import QuorumRegisterClient, RetryPolicy
from repro.registers.deployment import RegisterDeployment
from repro.registers.sharding import ShardedKeyspace, ZipfKeys
from repro.service.frontend import KeyValueFrontend
from repro.service.traffic import OpenLoopDriver
from repro.sim import arrivals, delays

#: The quantiles reported in the SLO table, as (label, q) pairs.
SLO_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.5), ("p99", 0.99), ("p999", 0.999),
)


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a service-mode run depends on, as plain data."""

    seed: int = 0
    num_servers: int = 16
    quorum_size: int = 5
    num_clients: int = 4
    num_registers: int = 32
    num_keys: int = 1000
    zipf_exponent: float = 1.1
    read_fraction: float = 0.9
    #: Arrival process spec (:data:`repro.sim.arrivals.KINDS`).
    arrivals: Dict[str, Any] = field(
        default_factory=lambda: {"kind": "poisson", "rate": 2.0}
    )
    duration: float = 500.0
    max_in_flight: int = 64
    write_mode: str = "owner"
    #: A delay kind (:data:`repro.sim.delays.KINDS`) that takes a ``mean``.
    delay_model: str = "exponential"
    delay_mean: float = 1.0
    loss_rate: float = 0.0
    retry_interval: float = 4.0
    operation_deadline: Optional[float] = 60.0
    #: Bounded give-up: after this many dispatch attempts an operation
    #: fails with :class:`~repro.registers.client.QuorumUnreachable`
    #: (None keeps retrying until the deadline).
    max_attempts: Optional[int] = None
    #: Membership timeline spec (:data:`repro.membership.schedule.KINDS`),
    #: expanded up to ``duration`` — e.g. ``{"kind": "churn", "period":
    #: 60.0, "batch": 1}``.  None (the default) keeps the deployment on
    #: the static fast path, and the run's metrics snapshot stays
    #: byte-identical to pre-membership builds.
    membership: Optional[Dict[str, Any]] = None
    #: Adversary strategy spec (:data:`repro.adversary.strategies.KINDS`;
    #: None: no adversary).
    adversary: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        # Reject a malformed knob or spec here, as a ValueError a caller
        # can report, not as a traceback out of a half-assembled
        # deployment.  Arrival processes carry state, so each run builds
        # its own.
        ProbabilisticQuorumSystem(self.num_servers, self.quorum_size)
        self.build("delay")
        self.build("arrivals")
        self.build("membership")
        self.build("adversary")

    def build(self, family: str) -> Any:
        """The object this config's ``family`` spec describes (None when
        the optional membership or adversary spec is unset)."""
        spec, kinds = {
            "delay": (
                {"kind": self.delay_model, "mean": self.delay_mean},
                delays.KINDS,
            ),
            "arrivals": (self.arrivals, arrivals.KINDS),
            "membership": (self.membership, membership_schedule.KINDS),
            "adversary": (self.adversary, strategies.KINDS),
        }[family]
        if spec is None:
            return None
        return specs.build(
            family, kinds, spec,
            num_servers=self.num_servers, horizon=self.duration,
        )


@dataclass
class ServiceResult:
    """Counters, SLO estimates and the deterministic metrics snapshot.

    ``streaming`` holds the :data:`SLO_QUANTILES` of the read and write
    latency sketches and of their merge (``"all"``), each within relative
    error :data:`repro.obs.quantiles.ALPHA` of the exact sample quantile.
    """

    config: ServiceConfig
    offered: int
    counters: Dict[str, Any]
    streaming: Dict[str, Dict[float, float]]
    retries: int
    timeouts: int
    hung_ops: int
    sim_time: float
    events: int
    snapshot: Dict[str, Any]
    snapshot_bytes: bytes
    wall_seconds: float
    #: Operations abandoned as permanently unreachable (bounded retries).
    unreachable: int = 0
    #: View-manager summary (installs, transfers, per-view sizes, client
    #: refresh/nack counts) — None on a static run.
    membership: Optional[Dict[str, Any]] = None
    #: Adversary summary (drops, delays, strategy knobs) — None when the
    #: run had no adversary.
    adversary: Optional[Dict[str, Any]] = None

    @property
    def completed(self) -> int:
        return sum(self.counters["completed"].values())

    @property
    def shed(self) -> int:
        return sum(self.counters["shed"].values())

    @property
    def shed_fraction(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    @property
    def completed_rate(self) -> float:
        """Sustained throughput: completed operations per simulated time."""
        return self.completed / self.config.duration

    def quantile(self, kind: str, q: float) -> float:
        """The sketch's latency quantile for ``kind`` ('all' included)."""
        return self.streaming[kind][q]

    def slo_table(self) -> str:
        """The human-readable SLO summary the CLI prints."""
        lines = [
            "service SLO summary "
            f"(simulated time units; duration={self.config.duration:g})",
            f"  offered {self.offered} ops "
            f"({self.offered / self.config.duration:.3f}/t), "
            f"completed {self.completed} ({self.completed_rate:.3f}/t), "
            f"shed {self.shed} ({self.shed_fraction:.2%}), "
            f"timeouts {self.timeouts}"
            + (f", unreachable {self.unreachable}" if self.unreachable else ""),
            f"  in flight: peak {self.counters['peak_in_flight']} "
            f"/ limit {self.config.max_in_flight}; "
            f"still pending at horizon: {self.counters['in_flight']}; "
            f"retries {self.retries}",
        ]
        if self.membership is not None:
            m = self.membership
            lines.append(
                f"  membership: {m['views_installed']} views installed, "
                f"transfers {m['state_transfers_completed']} done / "
                f"{m['state_transfers_incomplete']} incomplete, "
                f"{m['stale_nacks']} stale nacks, "
                f"{m['view_refreshes']} view refreshes"
            )
        lines.append("  latency       p50       p99      p999")
        for kind in ("read", "write", "all"):
            cells = "  ".join(
                f"{self.streaming[kind][q]:8.3f}" for _, q in SLO_QUANTILES
            )
            lines.append(f"  {kind:<5}    {cells}")
        return "\n".join(lines)


def run_service(config: ServiceConfig) -> ServiceResult:
    """Run one service-mode simulation to quiescence."""
    started = time.perf_counter()
    # Like an Alg. 1 task: a fresh registry per run, but the span
    # recorder of the active session (``--trace-spans``), if any.
    active = obs_runtime.active()
    observability = Observability(
        MetricsRegistry(), active.spans if active is not None else None
    )
    retry_policy = RetryPolicy(
        interval=config.retry_interval,
        backoff=2.0,
        max_interval=4.0 * config.retry_interval,
        jitter=0.1,
        deadline=config.operation_deadline,
        max_attempts=config.max_attempts,
    )
    two_phase = config.write_mode == "two_phase"
    adversary = config.build("adversary")
    deployment = RegisterDeployment(
        ProbabilisticQuorumSystem(config.num_servers, config.quorum_size),
        num_clients=config.num_clients,
        delay_model=config.build("delay"),
        seed=config.seed,
        retry_policy=retry_policy,
        loss_rate=config.loss_rate,
        client_class=MultiWriterClient if two_phase else QuorumRegisterClient,
        # Heavy traffic: a history record per op would dominate memory.
        record_history=False,
        observability=observability,
        adversary=adversary,
    )
    keyspace = ShardedKeyspace(config.num_registers)
    for shard, name in enumerate(keyspace.register_names):
        deployment.declare_register(
            name,
            writer=None if two_phase else shard % config.num_clients,
            initial_value=0,
        )
    # Churn expands up to the arrival horizon: reconfiguring after the
    # last arrival would only churn an idle deployment.
    schedule = config.build("membership")
    manager = (
        deployment.install_membership(schedule)
        if schedule is not None
        else None
    )
    keys = ZipfKeys(config.num_keys, config.zipf_exponent)
    frontend = KeyValueFrontend(
        deployment,
        keyspace,
        keys.names,
        max_in_flight=config.max_in_flight,
        write_mode=config.write_mode,
    )
    driver = OpenLoopDriver(
        frontend,
        config.build("arrivals"),
        keys,
        arrival_rng=deployment.rng.stream("service-arrivals"),
        key_rng=deployment.rng.stream("service-keys"),
        op_rng=deployment.rng.stream("service-ops"),
        duration=config.duration,
        read_fraction=config.read_fraction,
    )
    driver.start()
    deployment.run()

    metrics = observability.metrics
    collect_deployment(metrics, deployment)
    # Every front-end operation is one register-client operation started
    # at the same instant, so the clients' per-kind sketch is the service
    # latency, bucket for bucket and in ``sum``.  The combined stream is
    # the merge of the per-kind sketches: counts add, so this equals a
    # third sketch fed every settled operation.
    latency = metrics.histogram(
        "repro_service_latency",
        "Service operation latency in simulated time units, by kind.",
        labelnames=("kind",),
    )
    sketches = {}
    for kind in ("read", "write"):
        sketches[kind] = latency.labels(kind)
        sketches[kind].merge_snapshot(
            metrics.sample("repro_op_latency", (kind,)).snapshot()
        )
    sketches["all"] = sketches["read"].merged(sketches["write"])
    _collect_service(metrics, driver, frontend, sketches)

    snapshot = metrics.snapshot()
    result = ServiceResult(
        config=config,
        offered=driver.offered,
        counters=frontend.counters(),
        streaming={kind: sketch.values() for kind, sketch in sketches.items()},
        retries=deployment.total_retries,
        timeouts=deployment.total_timeouts,
        hung_ops=deployment.hung_ops,
        sim_time=deployment.scheduler.now,
        events=deployment.scheduler.events_processed,
        snapshot=snapshot,
        snapshot_bytes=metrics.snapshot_bytes(),
        wall_seconds=time.perf_counter() - started,
        unreachable=deployment.total_unreachable,
        membership=None if manager is None else manager.summary(),
        adversary=adversary.summary() if adversary is not None else None,
    )
    deployment.close()
    return result


def _collect_service(metrics: Any, driver: OpenLoopDriver,
                     frontend: KeyValueFrontend,
                     sketches: Dict[str, StreamingQuantiles]) -> None:
    """Service-level counters and SLO gauges into the registry.

    Offered/admitted/shed/completed/timeout counters by kind, the
    backpressure high-water mark, and the latency sketches' quantiles as
    gauges — everything a dashboard needs to plot the SLO, all derived
    from simulated state only (byte-deterministic per seed).
    """
    metrics.counter(
        "repro_service_offered_total",
        "Requests generated by the open-loop arrival process.",
    ).inc(driver.offered)
    by_kind = (
        ("repro_service_admitted_total",
         "Requests past admission control, by kind.", frontend.admitted),
        ("repro_service_shed_total",
         "Requests shed by admission control (load shedding), by kind.",
         frontend.shed),
        ("repro_service_completed_total",
         "Requests completed successfully, by kind.", frontend.completed),
        ("repro_service_timeouts_total",
         "Requests rejected by the per-operation deadline, by kind.",
         frontend.timed_out),
    )
    for name, help_text, counters in by_kind:
        family = metrics.counter(name, help_text, labelnames=("kind",))
        for kind in sorted(counters):
            family.labels(kind).inc(counters[kind])
    # Gated like the deployment-level membership families: a static run's
    # snapshot keeps its exact pre-membership shape.
    if getattr(frontend.deployment, "membership", None) is not None:
        family = metrics.counter(
            "repro_service_unreachable_total",
            "Requests abandoned as permanently unreachable, by kind.",
            labelnames=("kind",),
        )
        for kind in sorted(frontend.unreachable):
            family.labels(kind).inc(frontend.unreachable[kind])
    metrics.gauge(
        "repro_service_in_flight",
        "Operations still in flight at collection time.",
    ).set(frontend.in_flight)
    metrics.gauge(
        "repro_service_peak_in_flight",
        "High-water mark of concurrent in-flight operations.",
    ).set(frontend.peak_in_flight)
    quantile_gauge = metrics.gauge(
        "repro_service_latency_quantile",
        "Streaming (log-bucket sketch) latency quantile estimates, by kind.",
        labelnames=("kind", "quantile"),
    )
    for kind in sorted(sketches):
        sketch = sketches[kind]
        if sketch.count == 0:
            continue  # a NaN gauge tells a dashboard less than no gauge
        for label, q in SLO_QUANTILES:
            quantile_gauge.labels(kind, label).set(sketch.value(q))
