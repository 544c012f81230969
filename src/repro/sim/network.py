"""Reliable asynchronous message passing.

Matches the model assumed by the probabilistic quorum algorithm (Section 4
of the paper): "every message sent is eventually received, and every message
received was previously sent but not yet delivered" — unless failure
injection is explicitly enabled, in which case crashed nodes drop traffic
(the fail-stop availability model of Section 4's analysis).

Delivery order between a pair of nodes follows sampled delays, so messages
may be reordered — the protocols above must tolerate that, and timestamps
make them do so.

A probabilistic message-loss mode (``loss_rate``) weakens the reliability
assumption: each message is independently destroyed with the given
probability, drawn from a dedicated RNG stream so enabling loss never
perturbs delay sampling.  Retrying clients must then tolerate losing any
individual query, reply, update or ack — the regime of the
Mostéfaoui–Raynal crash-prone register constructions.

Hot path: :meth:`Network.send` is the one definition of what happens to
a message — one stats update, the taps, one loss draw (when loss is on),
one fault check, the adversary, one delay draw and one scheduler push.
:meth:`Network.broadcast` has exactly two branches: on a healthy network
(no taps, no active fault, no loss, no adversary) it batches the stats
update and the delay draws with :meth:`DelayModel.sample_batch`, so a
k-member quorum round pays one vectorized Generator call instead of k
scalar ones; in every other configuration it *is* a loop of ``send``.
Either way the streams are consumed exactly as by k individual sends.
"""

from typing import Any, Callable, Dict, Optional, Sequence

import numpy as np

from repro.sim import kernel
from repro.sim.delays import DelayModel
from repro.sim.failures import FailureInjector
from repro.sim.metrics import MessageStats
from repro.sim.rng import derive_seed
from repro.sim.scheduler import Scheduler


def _kind_of(message: Any) -> str:
    """The stats label of a message: its ``kind`` or its class name.

    Protocol messages precompute ``kind`` as a class attribute, so the
    common case is a single attribute load; arbitrary payloads (tests send
    strings) fall back to the type name.
    """
    try:
        kind = message.kind
    except AttributeError:
        return message.__class__.__name__
    return kind if kind else message.__class__.__name__


def _default_loss_rng(rng: np.random.Generator) -> np.random.Generator:
    """An independent loss stream derived from the delay stream's identity.

    The loss stream must never share state with the delay stream — loss
    draws advancing the delay stream would make ``loss_rate > 0`` perturb
    every delay in the run.  We derive a child seed from the delay
    stream's originating ``SeedSequence`` (entropy + spawn key) via
    :func:`derive_seed`, so the default is deterministic per deployment
    seed yet statistically independent of the delay draws.
    """
    seed_seq = getattr(rng.bit_generator, "seed_seq", None)
    entropy = getattr(seed_seq, "entropy", None)
    base = int(entropy) if isinstance(entropy, (int, np.integer)) else 0
    spawn_key = tuple(getattr(seed_seq, "spawn_key", ()) or ())
    return np.random.default_rng(
        derive_seed(base, "network-loss", *[int(k) for k in spawn_key])
    )


class Node:
    """Base class for anything addressable on the network.

    Subclasses override :meth:`on_message`.  A node is registered under a
    unique integer id by :meth:`Network.add_node`.
    """

    def __init__(self) -> None:
        self.node_id: Optional[int] = None
        self.network: Optional["Network"] = None

    def on_message(self, src: int, message: Any) -> None:
        """Handle a delivered message.  Default: ignore."""

    def send(self, dst: int, message: Any) -> None:
        """Convenience wrapper around :meth:`Network.send`."""
        if self.network is None or self.node_id is None:
            raise RuntimeError("node is not attached to a network")
        self.network.send(self.node_id, dst, message)


class Network:
    """Point-to-point message delivery with a pluggable delay model."""

    def __init__(
        self,
        scheduler: Scheduler,
        delay_model: DelayModel,
        rng: np.random.Generator,
        failures: Optional[FailureInjector] = None,
        loss_rate: float = 0.0,
        loss_rng: Optional[np.random.Generator] = None,
        detailed_stats: bool = False,
        adversary: Optional[Any] = None,
    ) -> None:
        """A network's configuration is fixed here, for its whole life.

        ``adversary`` (repro.adversary), when given, is consulted per
        message *after* the loss draw and fault check, so it never
        perturbs the loss or delay streams of messages it passes through,
        and its drop budget is spent only on otherwise-deliverable
        traffic: its ``intercept(src, dst, message, kind, now)`` returns
        None to pass a message through, the string ``"drop"`` to destroy
        it (recorded with drop reason ``"adversary"``), or a non-negative
        float of *extra* delay added on top of the sampled one.
        """
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.scheduler = scheduler
        self.delay_model = delay_model
        self.rng = rng
        self.failures = failures or FailureInjector()
        self.stats = MessageStats(detailed=detailed_stats)
        self.loss_rate = loss_rate
        # Loss draws come from their own stream so that turning loss on
        # (or off) leaves the delay sequence bit-identical.  The default
        # is an independent child stream, never the delay rng itself.
        self._loss_rng = loss_rng if loss_rng is not None else _default_loss_rng(rng)
        self._nodes: Dict[int, Node] = {}
        self._next_id = 0
        self._taps: list = []
        self._adversary = adversary
        # Native kernel backend: one C core stands in for the three
        # per-message methods below (same semantics, no interpreter frame
        # per message).  It binds the configuration above once, here; its
        # entry points are installed as *instance attributes*, so trace
        # taps that wrap ``network._deliver`` keep working unchanged.
        core = kernel.make_network_core(self)
        if core is not None:
            self.send = core.send
            self.broadcast = core.broadcast
            self._deliver = core._deliver

    def add_node(self, node: Node, node_id: Optional[int] = None) -> int:
        """Register ``node`` and return its id.

        Ids are assigned sequentially unless an explicit id is given.
        """
        if node_id is None:
            node_id = self._next_id
        if node_id in self._nodes:
            raise ValueError(f"node id {node_id} already registered")
        self._next_id = max(self._next_id, node_id + 1)
        self._nodes[node_id] = node
        node.node_id = node_id
        node.network = self
        return node_id

    def node(self, node_id: int) -> Node:
        """Look up a node by id."""
        return self._nodes[node_id]

    @property
    def node_ids(self) -> list:
        """All registered node ids, sorted."""
        return sorted(self._nodes)

    def add_tap(self, tap: Callable[[int, int, Any], None]) -> None:
        """Register an observer called as ``tap(src, dst, message)`` on send."""
        self._taps.append(tap)

    def send(self, src: int, dst: int, message: Any) -> None:
        """Send ``message`` from ``src`` to ``dst`` with a sampled delay."""
        if dst not in self._nodes:
            raise KeyError(f"unknown destination node {dst}")
        kind = _kind_of(message)
        self.stats.record_send(src, dst, kind)
        if self._taps:
            for tap in self._taps:
                tap(src, dst, message)
        # One loss draw per send whenever loss is on, before any fault
        # check, so the loss stream advances identically however many
        # nodes happen to be crashed.
        lost = self.loss_rate > 0.0 and self._loss_rng.random() < self.loss_rate
        failures = self.failures
        if failures.active and not failures.can_deliver(src, dst):
            self.stats.record_drop(src, dst, kind, reason="fault")
            return
        if lost:
            self.stats.record_drop(src, dst, kind, reason="loss")
            return
        extra = 0.0
        adversary = self._adversary
        if adversary is not None:
            action = adversary.intercept(
                src, dst, message, kind, self.scheduler.now
            )
            if action == "drop":
                self.stats.record_drop(src, dst, kind, reason="adversary")
                return
            if action is not None:
                extra = action
        delay = self.delay_model.sample(self.rng, src, dst)
        if delay <= 0:
            raise ValueError(f"delay model produced non-positive delay {delay}")
        # Deliveries are never cancelled (in-flight crashes are checked at
        # delivery time), so skip the EventHandle allocation entirely.
        self.scheduler.schedule_uncancellable(
            delay + extra, self._deliver, src, dst, message, kind
        )

    def _deliver(self, src: int, dst: int, message: Any, kind: str) -> None:
        # A node that crashed while the message was in flight drops it.
        failures = self.failures
        if failures.active and not failures.can_deliver(src, dst):
            self.stats.record_drop(src, dst, kind, reason="fault")
            return
        self.stats.record_delivery(src, dst, kind)
        self._nodes[dst].on_message(src, message)

    def broadcast(self, src: int, dsts: Sequence[int], message: Any) -> None:
        """Send the same message to every destination in ``dsts``.

        Exactly a loop of :meth:`send` calls — same stats, same drops,
        same RNG stream consumption, same delivery events — except that
        every destination is validated before anything is recorded, and
        that a healthy network takes the batched branch: one stats update
        and one :meth:`DelayModel.sample_batch` call for the whole list.
        """
        if not dsts:
            return
        nodes = self._nodes
        for dst in dsts:
            if dst not in nodes:
                raise KeyError(f"unknown destination node {dst}")
        if (
            self._taps
            or self.failures.active
            or self.loss_rate > 0.0
            or self._adversary is not None
        ):
            for dst in dsts:
                self.send(src, dst, message)
            return
        # Healthy, loss-free, untapped network — the overwhelmingly
        # common case: every destination is deliverable.
        kind = _kind_of(message)
        self.stats.record_sends(src, len(dsts), kind)
        delays = self.delay_model.sample_batch(self.rng, src, dsts)
        deliver = self._deliver
        schedule = self.scheduler.schedule_uncancellable
        for dst, delay in zip(dsts, delays):
            if delay <= 0:
                raise ValueError(
                    f"delay model produced non-positive delay {delay}"
                )
            schedule(delay, deliver, src, dst, message, kind)

    def __repr__(self) -> str:
        return (
            f"Network({len(self._nodes)} nodes, delay={self.delay_model!r}, "
            f"{self.stats!r})"
        )
