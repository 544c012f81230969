"""Probabilistic masking quorums: tolerating Byzantine replica servers.

The probabilistic quorum paper this library builds on (Malkhi, Reiter and
Wright) introduces *masking* quorums for Byzantine-faulty servers: if at
most ``b`` servers can lie, a reader must only accept a (value,
timestamp) pair vouched for by at least ``b + 1`` members of its quorum —
a lie fabricated by the faulty servers then never survives, and choosing
the quorum size so that read/write quorums intersect in at least
``2b + 1`` servers with high probability keeps fresh values flowing.

This module provides

* :class:`ByzantineReplicaServer` — a replica that answers read queries
  with a fabricated value carrying an enormous timestamp (the strongest
  attack against a highest-timestamp-wins reader);
* :class:`MaskingClient` — a client whose reads return the highest
  timestamp vouched by at least ``b + 1`` quorum members, falling back to
  its last accepted value when no candidate qualifies.  The flavour is a
  read plan — one query round with the ``VOUCHED`` decision
  (:meth:`MaskingClient._vouched`) — plus
  the state that decision keeps; rounds, retries, deadlines, view stamps
  and the completion path (counters, latency, span, history, monitor)
  are the base client's, on both kernels.
"""

from typing import Any, Dict, Tuple

from repro.core.timestamps import Timestamp
from repro.registers.client import QUERY, VOUCHED, QuorumRegisterClient
from repro.registers.messages import ReadQuery, ReadReply, WriteAck, WriteUpdate
from repro.registers.server import ReplicaServer
from repro.registers.space import RegisterSpace


class ByzantineReplicaServer(ReplicaServer):
    """A lying replica: fabricates values with sky-high timestamps.

    Writes are acknowledged but silently dropped, and every read query is
    answered with ``POISON_VALUE`` at a timestamp far above any honest
    one — the worst case for a reader that trusts the maximum timestamp.
    """

    POISON_SEQ = 10**12
    POISON_VALUE = "POISON"

    def __init__(self, space: RegisterSpace) -> None:
        super().__init__(space)
        self.lies_told = 0

    def on_message(self, src: int, message: Any) -> None:
        # Byzantine is not a licence to ignore fail-stop faults: a crashed
        # replica tells no lies.  The guard matters when messages are
        # injected directly (tests, adversaries) rather than arriving via
        # Network._deliver, which screens crashed destinations itself.
        if self.network.failures.is_crashed(self.node_id):
            return
        # Replies below go through network.send — the same delivery path
        # (crash/partition checks, loss, delay, adversary) as the honest
        # ReplicaServer — so a lying replica gets no magic channel: its
        # poison is droppable and delayable like any other reply.
        if isinstance(message, ReadQuery):
            self.lies_told += 1
            self.network.send(
                self.node_id,
                src,
                ReadReply(
                    message.register,
                    message.op_id,
                    self.POISON_VALUE,
                    Timestamp(self.POISON_SEQ + self.lies_told, 999),
                ),
            )
        elif isinstance(message, WriteUpdate):
            # Acknowledge but never store: the writer cannot tell the
            # replica is faulty, yet the data is gone.
            self.network.send(
                self.node_id, src, WriteAck(message.register, message.op_id)
            )


class MaskingClient(QuorumRegisterClient):
    """Reads accept only values vouched by at least b+1 quorum members."""

    READ_PLAN = ((QUERY, VOUCHED, None),)

    def __init__(self, *args, byzantine_bound: int = 1, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if byzantine_bound < 0:
            raise ValueError(
                f"byzantine bound must be non-negative, got {byzantine_bound}"
            )
        self.byzantine_bound = byzantine_bound
        # Last accepted (timestamp, value) per register: the fallback when
        # a read quorum yields no sufficiently vouched candidate.
        self._accepted: Dict[str, Tuple[Timestamp, Any]] = {}
        self.masked_reads = 0
        self.fallback_reads = 0

    def _vouched(self, op) -> Tuple[Timestamp, Any]:
        """The VOUCHED decision (the native core calls it too): the
        highest (timestamp, value) pair vouched for by at least b+1 quorum
        members, else the last accepted pair; never older than that."""
        vouch: Dict[Tuple[Timestamp, Any], int] = {}
        for reply in self._quorum_read_replies(op):
            key = (reply.timestamp, reply.value)
            vouch[key] = vouch.get(key, 0) + 1
        candidates = [
            key for key, count in vouch.items()
            if count >= self.byzantine_bound + 1
        ]
        if candidates:
            timestamp, value = max(candidates, key=lambda key: key[0])
            self.masked_reads += 1
        else:
            timestamp, value = self._accepted.get(
                op.register,
                (Timestamp.ZERO, self.space.info(op.register).initial_value),
            )
            self.fallback_reads += 1
        previous = self._accepted.get(op.register)
        if previous is None or timestamp > previous[0]:
            self._accepted[op.register] = (timestamp, value)
        else:
            timestamp, value = previous
        return timestamp, value


def replace_with_byzantine(deployment, indices):
    """Swap the given replica servers of a deployment for Byzantine ones.

    Must be called before any traffic flows.  Returns the new servers.
    """
    byzantine = []
    for index in indices:
        old = deployment.servers[index]
        node_id = old.node_id
        bad = ByzantineReplicaServer(deployment.space)
        bad.node_id = node_id
        bad.network = deployment.network
        deployment.network._nodes[node_id] = bad  # noqa: SLF001 - test/deploy hook
        deployment.servers[index] = bad
        byzantine.append(bad)
    return byzantine
