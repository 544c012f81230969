"""Adversary strategy layer: adaptive, protocol-aware fault scheduling.

Random loss and scripted failure timelines exercise the *average* case;
the paper's probabilistic guarantees (Theorem 1's write-survival bound,
the monotone register's [R4]/[R5]) are claims about what an adversary
*cannot* do better than.  An :class:`Adversary` closes that gap: it sits
on the network's delivery path (the ``adversary`` of
:class:`repro.sim.network.Network`, fixed when the network is built),
observes every in-flight protocol message, and adaptively chooses drops,
extra delays, crash targets and partition timing based on the protocol
state it has seen — e.g. which servers hold the freshest write.

Determinism: every adversary draws randomness from its own named stream
of the deployment's :class:`~repro.sim.rng.RngRegistry`
(``adversary/<name>``), derived via the same BLAKE2b seed derivation as
every other stream, so an adversarial run is exactly as reproducible as a
benign one, and attaching an adversary never perturbs the delay, loss,
quorum or retry streams.

Budget discipline: adversaries act only on otherwise-deliverable messages
(the network consults them *after* its loss draw and fault check), so an
adversary's ``drops`` counter is comparable across strategies — the basis
for the stale-favoring vs random-hostile effectiveness comparison in
``benchmarks/bench_adversary.py``.
"""

from typing import Any, Dict, Optional

DROP = "drop"


class Adversary:
    """Base message-level adversary: observes everything, does nothing.

    Subclasses override :meth:`intercept` (per-message decisions) and/or
    :meth:`attach` (scheduler-driven actions like timed partitions or
    targeted crashes).  ``intercept`` returns ``None`` to pass a message
    through, :data:`DROP` to destroy it, or a non-negative float of extra
    delay.
    """

    name = "oblivious"

    def __init__(self) -> None:
        self.deployment: Optional[Any] = None
        self.rng = None
        self.messages_seen = 0
        self.drops = 0
        self.delays_added = 0
        self.crashes = 0
        self.partitions = 0

    def attach(self, deployment: Any) -> None:
        """Bind to a fully-built deployment (called once, before traffic)."""
        self.deployment = deployment
        self.rng = deployment.rng.stream(f"adversary/{self.name}")

    def intercept(
        self, src: int, dst: int, message: Any, kind: str, now: float
    ) -> Optional[Any]:
        """Decide the fate of one otherwise-deliverable message."""
        self.messages_seen += 1
        return None

    def summary(self) -> Dict[str, Any]:
        """JSON-able account of what the adversary did (for repro.obs)."""
        return {
            "name": self.name,
            "messages_seen": self.messages_seen,
            "drops": self.drops,
            "delays_added": self.delays_added,
            "crashes": self.crashes,
            "partitions": self.partitions,
        }

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__name__}(seen={self.messages_seen}, "
            f"drops={self.drops}, crashes={self.crashes})"
        )
