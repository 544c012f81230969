"""The key-value front end: sharded registers behind get/put.

:class:`KeyValueFrontend` is the service's request path.  Each operation:

1. maps the key to its backing register via the sharded keyspace,
2. passes admission control — at most ``max_in_flight`` operations may
   be outstanding at once; beyond that the request is *shed* (counted,
   never issued), which is the backpressure that keeps an overloaded
   open-loop run from accumulating unbounded in-flight state,
3. routes to one of the deployment's clients — reads round-robin; writes
   according to ``write_mode`` (see below),
4. on settlement, records the operation's simulated latency once, into
   that kind's log-bucket sketch (see :mod:`repro.obs.quantiles` for its
   accuracy contract) — the ``repro_service_latency`` histogram series
   when metrics are on — and bumps the outcome counters.

Write routing.  Any client accepts a put for any key (the front end is
multi-writer); what differs is which register subsystem executes it:

* ``"owner"`` (default) — each shard has one owning client
  (``shard % num_clients``) and every put is forwarded to it, the
  primary-per-shard layout of real sharded stores.  Writes then run the
  plain Section 4 protocol: one quorum round.
* ``"two_phase"`` — puts round-robin across clients and run the
  Attiya-Bar-Noy-Dolev two-phase multi-writer protocol
  (:class:`~repro.registers.atomic.MultiWriterClient`): a query round
  for the highest timestamp, then an update round that exceeds it.

Either way a put is one pending operation of the register client, with
the full fault-tolerance layer — resampling retries with backoff, a
per-operation deadline, view stamps — so a saturated, lossy or churned
deployment rejects writes with ``OperationTimeout`` instead of hanging
them, and no admission slot stays pinned past the deadline.

Timed-out operations count separately and do **not** feed the latency
distributions: a timeout's "latency" is just the deadline, and folding a
constant into the tail would mask exactly the overload signal the
sketches exist to surface.
"""

from typing import Any, Dict, Optional

from repro.obs.core import DISABLED, Observability
from repro.obs.quantiles import StreamingQuantiles
from repro.registers.client import QuorumUnreachable
from repro.registers.sharding import ShardedKeyspace
from repro.sim.futures import Future


class KeyValueFrontend:
    """Get/put over a sharded register deployment, with admission control."""

    def __init__(
        self,
        deployment: Any,
        keyspace: ShardedKeyspace,
        max_in_flight: int,
        observability: Optional[Observability] = None,
        write_mode: str = "owner",
    ) -> None:
        if max_in_flight < 1:
            raise ValueError(
                f"max_in_flight must be >= 1, got {max_in_flight}"
            )
        if write_mode not in ("owner", "two_phase"):
            raise ValueError(
                f"write_mode must be 'owner' or 'two_phase', got {write_mode!r}"
            )
        self.deployment = deployment
        self.keyspace = keyspace
        self.max_in_flight = max_in_flight
        self.write_mode = write_mode
        self.observability = (
            observability if observability is not None else DISABLED
        )
        self._clients = deployment.clients
        self._scheduler = deployment.scheduler
        self._register_names = keyspace.register_names
        self._next_client = 0

        self.in_flight = 0
        #: Peak concurrent in-flight operations (queue-depth high-water).
        self.peak_in_flight = 0
        #: Per-kind outcome counters (admitted = completed + timed_out +
        #: still in flight; shed requests are never admitted).
        self.admitted: Dict[str, int] = {"read": 0, "write": 0}
        self.shed: Dict[str, int] = {"read": 0, "write": 0}
        self.completed: Dict[str, int] = {"read": 0, "write": 0}
        self.timed_out: Dict[str, int] = {"read": 0, "write": 0}
        #: Operations abandoned as permanently unreachable (the bounded
        #: ``max_attempts`` give-up) — counted apart from deadline
        #: timeouts so a churn run can tell "slow" from "gave up".
        self.unreachable: Dict[str, int] = {"read": 0, "write": 0}

        #: Latency sketch per kind — the registry's own series when
        #: metrics are on; the combined stream is their merge (the runner
        #: derives it at collection time).
        metrics = self.observability.metrics
        if metrics.enabled:
            latency = metrics.histogram(
                "repro_service_latency",
                "Service operation latency in simulated time units, by kind.",
                labelnames=("kind",),
            )
            self.stream_quantiles: Dict[str, StreamingQuantiles] = {
                "read": latency.labels("read"),
                "write": latency.labels("write"),
            }
        else:
            self.stream_quantiles = {
                "read": StreamingQuantiles(),
                "write": StreamingQuantiles(),
            }

    @property
    def total_admitted(self) -> int:
        return sum(self.admitted.values())

    @property
    def total_shed(self) -> int:
        return sum(self.shed.values())

    @property
    def total_completed(self) -> int:
        return sum(self.completed.values())

    @property
    def total_timed_out(self) -> int:
        return sum(self.timed_out.values())

    @property
    def total_unreachable(self) -> int:
        return sum(self.unreachable.values())

    # ------------------------------------------------------------------ #

    def get(self, key: str) -> Optional[Future]:
        """Read ``key``; returns None when admission control sheds it."""
        return self._submit("read", key, None)

    def put(self, key: str, value: Any) -> Optional[Future]:
        """Write ``key``; returns None when admission control sheds it."""
        return self._submit("write", key, value)

    def _submit(self, kind: str, key: str, value: Any) -> Optional[Future]:
        if self.in_flight >= self.max_in_flight:
            self.shed[kind] += 1
            return None
        shard = self.keyspace.shard_of(key)
        register = self._register_names[shard]
        if kind == "write" and self.write_mode == "owner":
            client = self._clients[shard % len(self._clients)]
        else:
            client = self._clients[self._next_client]
            self._next_client = (self._next_client + 1) % len(self._clients)
        self.admitted[kind] += 1
        self.in_flight += 1
        if self.in_flight > self.peak_in_flight:
            self.peak_in_flight = self.in_flight
        started = self._scheduler.now
        if kind == "read":
            future = client.read(register)
        else:
            future = client.write(register, value)
        future.add_callback(
            lambda fut, kind=kind, started=started: self._settled(
                kind, started, fut
            )
        )
        return future

    def _settled(self, kind: str, started: float, future: Future) -> None:
        self.in_flight -= 1
        if future.failed:
            if isinstance(future.exception, QuorumUnreachable):
                self.unreachable[kind] += 1
            else:
                self.timed_out[kind] += 1
            return
        elapsed = self._scheduler.now - started
        self.completed[kind] += 1
        self.stream_quantiles[kind].observe(elapsed)

    def counters(self) -> Dict[str, Any]:
        """All backpressure/outcome counters as plain data."""
        return {
            "admitted": dict(self.admitted),
            "shed": dict(self.shed),
            "completed": dict(self.completed),
            "timed_out": dict(self.timed_out),
            "unreachable": dict(self.unreachable),
            "in_flight": self.in_flight,
            "peak_in_flight": self.peak_in_flight,
        }

    def __repr__(self) -> str:
        return (
            f"KeyValueFrontend({self.keyspace!r}, "
            f"in_flight={self.in_flight}/{self.max_in_flight}, "
            f"admitted={self.total_admitted}, shed={self.total_shed})"
        )
