"""The key-value front end: sharded registers behind one submit path.

:class:`KeyValueFrontend` is the service's request path.  Each operation:

1. names its key by index into the key universe; the key's backing
   register (and, for owner writes, its owning client) comes from a
   route table the front end builds once, hashing each key through the
   sharded keyspace at construction,
2. passes admission control — at most ``max_in_flight`` operations may
   be outstanding at once; beyond that the request is *shed* (counted,
   never issued), which is the backpressure that keeps an overloaded
   open-loop run from accumulating unbounded in-flight state,
3. routes to one of the deployment's clients — reads round-robin; writes
   according to ``write_mode`` (see below),
4. on settlement, bumps the outcome counters.  Its latency is recorded
   once, by the register client that ran it, into the client's
   ``repro_op_latency`` sketch: every front-end operation is exactly one
   client operation started at the same instant, so
   :func:`~repro.service.runner.run_service` copies those sketches into
   the ``repro_service_latency`` series at collection time (see
   :mod:`repro.obs.quantiles` for their accuracy contract).

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
distributions (the client records completions only): a timeout's
"latency" is just the deadline, and folding a constant into the tail
would mask exactly the overload signal the sketches exist to surface.
"""

from functools import partial
from itertools import cycle
from typing import Any, Dict, Optional, Sequence

from repro.registers.client import QuorumUnreachable
from repro.registers.sharding import ShardedKeyspace
from repro.sim.futures import Future


class KeyValueFrontend:
    """Get/put over a sharded register deployment, with admission control."""

    def __init__(
        self,
        deployment: Any,
        keyspace: ShardedKeyspace,
        keys: Sequence[str],
        max_in_flight: int,
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
        self._scheduler = deployment.scheduler
        clients = deployment.clients
        #: Reads, and two-phase writes, go to the next client in turn.
        self._round_robin = cycle(clients)
        #: Key index -> (register name, owning client; None when writes
        #: round-robin too).
        names = keyspace.register_names
        owned = write_mode == "owner"
        self._routes = [
            (names[shard], clients[shard % len(clients)] if owned else None)
            for shard in map(keyspace.shard_of, keys)
        ]

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

    # ------------------------------------------------------------------ #

    def submit(self, kind: str, key: int, value: Any) -> Optional[Future]:
        """Issue a ``"read"`` or a ``"write"`` of ``value`` to key index
        ``key``; returns None when admission control sheds it."""
        if self.in_flight >= self.max_in_flight:
            self.shed[kind] += 1
            return None
        self.admitted[kind] += 1
        self.in_flight += 1
        if self.in_flight > self.peak_in_flight:
            self.peak_in_flight = self.in_flight
        register, owner = self._routes[key]
        if kind == "read":
            future = next(self._round_robin).read(register)
        else:
            if owner is None:
                owner = next(self._round_robin)
            future = owner.write(register, value)
        future.add_callback(partial(self._settled, kind))
        return future

    def _settled(self, kind: str, future: Future) -> None:
        self.in_flight -= 1
        if not future.failed:
            self.completed[kind] += 1
        elif isinstance(future.exception, QuorumUnreachable):
            self.unreachable[kind] += 1
        else:
            self.timed_out[kind] += 1

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
            f"admitted={sum(self.admitted.values())}, "
            f"shed={sum(self.shed.values())})"
        )
