"""Concrete adversary strategies.

Four strategies spanning the attack surface the paper's analysis is
implicitly quantified over:

* :class:`StaleFavoringAdversary` — watches WriteUpdates to learn which
  servers hold the freshest timestamp per register, then drops (and
  optionally delays) exactly the read replies carrying that freshest
  value.  This is the adaptive adversary Theorem 1's write-survival bound
  must withstand: old values survive as long as the adversary can keep
  fresh replies out of read quorums.
* :class:`PartitionOscillatorAdversary` — oscillates a network partition
  timed against the client :class:`~repro.registers.client.RetryPolicy`:
  the partition window covers the retry backoff window, so retries fire
  into the same partition that stalled the original round.
* :class:`CrashTargeterAdversary` — periodically crashes the ``k``
  replicas observed to hold the newest timestamp (recovering its previous
  victims first, so at most ``k`` of its targets are ever down at once):
  the worst-case instantiation of the paper's fail-stop model, where
  crashes hit exactly the servers whose loss hurts freshness most.
* :class:`RandomHostileAdversary` — the oblivious baseline: drops the
  same message class (read replies) with the same budget as the
  stale-favoring strategy, but chooses victims by coin flip.  The
  effectiveness gap between the two, at equal budgets, is what
  ``tests/test_adversary.py`` measures.

All state updates happen inside :meth:`intercept` (every strategy sees
every deliverable message) or in scheduler callbacks on the deployment's
own clock, so runs stay bit-deterministic per root seed.
"""

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.adversary.base import DROP, Adversary
from repro.core.timestamps import Timestamp


class StaleFavoringAdversary(Adversary):
    """Suppress the freshest write's replies to maximise staleness.

    ``drop_budget`` bounds total drops; ``fresh_write_delay`` optionally
    slows the propagation of fresh WriteUpdates by a fixed extra delay
    (no budget: delaying keeps the message, so liveness is preserved).
    """

    name = "stale_favoring"

    def __init__(
        self, drop_budget: int = 50, fresh_write_delay: float = 0.0
    ) -> None:
        super().__init__()
        if drop_budget < 0:
            raise ValueError(f"drop_budget must be >= 0, got {drop_budget}")
        if fresh_write_delay < 0:
            raise ValueError(
                f"fresh_write_delay must be >= 0, got {fresh_write_delay}"
            )
        self.drop_budget = drop_budget
        self.fresh_write_delay = fresh_write_delay
        # register -> (freshest timestamp seen, server node ids it was
        # sent to): the protocol state the strategy adapts to.
        self._freshest: Dict[str, Tuple[Timestamp, Set[int]]] = {}

    def freshest_holders(self, register: str) -> Set[int]:
        """Server node ids observed receiving the freshest write (tests)."""
        entry = self._freshest.get(register)
        return set(entry[1]) if entry is not None else set()

    def intercept(
        self, src: int, dst: int, message: Any, kind: str, now: float
    ) -> Optional[Any]:
        self.messages_seen += 1
        if kind == "write_update":
            entry = self._freshest.get(message.register)
            if entry is None or message.timestamp > entry[0]:
                self._freshest[message.register] = (message.timestamp, {dst})
            elif message.timestamp == entry[0]:
                entry[1].add(dst)
            if self.fresh_write_delay > 0.0 and (
                message.timestamp >= self._freshest[message.register][0]
            ):
                self.delays_added += 1
                return self.fresh_write_delay
        elif kind == "read_reply" and self.drops < self.drop_budget:
            entry = self._freshest.get(message.register)
            if entry is not None and message.timestamp >= entry[0]:
                self.drops += 1
                return DROP
        return None

    def summary(self) -> Dict[str, Any]:
        data = super().summary()
        data["drop_budget"] = self.drop_budget
        return data


class RandomHostileAdversary(Adversary):
    """Oblivious baseline: same budget and message class, random victims.

    Drops each read reply with probability ``drop_rate`` (from the
    strategy's own RNG stream) until ``drop_budget`` is spent.  Holding
    the budget and target class equal to :class:`StaleFavoringAdversary`
    isolates the value of *adaptivity* in the bench comparison.
    """

    name = "random_hostile"

    def __init__(self, drop_budget: int = 50, drop_rate: float = 0.25) -> None:
        super().__init__()
        if drop_budget < 0:
            raise ValueError(f"drop_budget must be >= 0, got {drop_budget}")
        if not 0.0 <= drop_rate <= 1.0:
            raise ValueError(f"drop_rate must be in [0, 1], got {drop_rate}")
        self.drop_budget = drop_budget
        self.drop_rate = drop_rate

    def intercept(
        self, src: int, dst: int, message: Any, kind: str, now: float
    ) -> Optional[Any]:
        self.messages_seen += 1
        if kind == "read_reply" and self.drops < self.drop_budget:
            if self.rng.random() < self.drop_rate:
                self.drops += 1
                return DROP
        return None

    def summary(self) -> Dict[str, Any]:
        data = super().summary()
        data["drop_budget"] = self.drop_budget
        return data


class PartitionOscillatorAdversary(Adversary):
    """Oscillate a partition timed against the client retry policy.

    Each cycle of length ``period`` opens a partition separating the
    clients (plus the first half of the servers) from the remaining
    servers for ``duty`` of the cycle, then heals.  With ``period`` unset
    it is derived from the deployment's retry policy — twice the base
    retry interval, so the partition window covers the first retry — the
    timing that maximally frustrates retry-based fault tolerance.
    ``horizon`` bounds the oscillation in simulated time (the repeating
    chain stops itself, keeping the event queue drainable).
    """

    name = "partition_oscillator"

    def __init__(
        self,
        period: Optional[float] = None,
        duty: float = 0.5,
        horizon: Optional[float] = None,
    ) -> None:
        super().__init__()
        if period is not None and period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if not 0.0 < duty < 1.0:
            raise ValueError(f"duty must be in (0, 1), got {duty}")
        self.period = period
        self.duty = duty
        self.horizon = horizon

    def attach(self, deployment: Any) -> None:
        super().attach(deployment)
        if self.period is None:
            policy = deployment.retry_policy
            self.period = 2.0 * policy.interval if policy is not None else 2.0
        server_ids = deployment.server_ids
        half = max(1, len(server_ids) // 2)
        client_ids = [client.node_id for client in deployment.clients]
        self._near = frozenset(client_ids + server_ids[:half])
        self._far = frozenset(server_ids[half:])
        deployment.scheduler.schedule_repeating(
            self.period,
            self._split,
            first_delay=self.period,
            until=self.horizon,
        )

    def _split(self) -> None:
        injector = self.deployment.failures
        injector.partition([self._near, self._far])
        self.partitions += 1
        self.deployment.scheduler.schedule(
            self.duty * self.period, injector.heal_partition
        )

    def summary(self) -> Dict[str, Any]:
        data = super().summary()
        data["period"] = self.period
        data["duty"] = self.duty
        return data


class CrashTargeterAdversary(Adversary):
    """Periodically crash the k replicas holding the newest timestamp.

    Victims are chosen from the servers observed (via WriteUpdate
    interception) to hold the globally freshest write; previous victims
    are recovered first, so at most ``k`` servers are ever down due to
    this adversary — a fixed crash budget per strike, matching the
    paper's "up to some number of crashed servers" availability model.
    """

    name = "crash_targeter"

    def __init__(
        self,
        k: int = 1,
        period: float = 5.0,
        horizon: Optional[float] = None,
    ) -> None:
        super().__init__()
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.k = k
        self.period = period
        self.horizon = horizon
        self._freshest_ts = Timestamp.ZERO
        self._holders: Set[int] = set()
        self._down: List[int] = []

    def attach(self, deployment: Any) -> None:
        super().attach(deployment)
        deployment.scheduler.schedule_repeating(
            self.period,
            self._strike,
            first_delay=self.period,
            until=self.horizon,
        )

    def intercept(
        self, src: int, dst: int, message: Any, kind: str, now: float
    ) -> Optional[Any]:
        self.messages_seen += 1
        if kind == "write_update":
            if message.timestamp > self._freshest_ts:
                self._freshest_ts = message.timestamp
                self._holders = {dst}
            elif message.timestamp == self._freshest_ts:
                self._holders.add(dst)
        return None

    def _strike(self) -> None:
        injector = self.deployment.failures
        if self._down:
            injector.recover_many(self._down)
            self._down = []
        targets = sorted(self._holders)[: self.k]
        if not targets:
            return
        injector.crash_many(targets)
        self._down = targets
        self.crashes += len(targets)

    def summary(self) -> Dict[str, Any]:
        data = super().summary()
        data["k"] = self.k
        data["period"] = self.period
        return data


class ViewChangeRacerAdversary(Adversary):
    """Concentrate drops in the window right after each view install.

    Reconfiguration is the protocol's most delicate moment: clients hold
    operations stamped with the old view, leavers are draining, joiners
    have just caught up.  This strategy does nothing until the deployment's
    :class:`~repro.membership.manager.ViewManager` reports an install
    (via the ``on_view_installed`` hook), then for ``window`` time units
    drops replies — including ``StaleViewNack`` (so clients must fall
    back to retry-time view refresh) and ``StateReply`` (so a chained
    join's transfer must resample) — until ``drop_budget`` is spent.

    On a static deployment the hook never fires and the strategy is
    inert, making it an honest control at equal budget.
    """

    name = "view_change_racer"

    _RACED_KINDS = frozenset(
        ("read_reply", "write_ack", "stale_view_nack", "state_reply")
    )

    def __init__(self, drop_budget: int = 40, window: float = 6.0) -> None:
        super().__init__()
        if drop_budget < 0:
            raise ValueError(f"drop_budget must be >= 0, got {drop_budget}")
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.drop_budget = drop_budget
        self.window = window
        self.views_raced = 0
        self._window_until = float("-inf")

    def on_view_installed(self, view_id: int, now: float) -> None:
        """ViewManager hook: a new view just activated."""
        self.views_raced += 1
        self._window_until = now + self.window

    def intercept(
        self, src: int, dst: int, message: Any, kind: str, now: float
    ) -> Optional[Any]:
        self.messages_seen += 1
        if (
            now <= self._window_until
            and self.drops < self.drop_budget
            and kind in self._RACED_KINDS
        ):
            self.drops += 1
            return DROP
        return None

    def summary(self) -> Dict[str, Any]:
        data = super().summary()
        data["drop_budget"] = self.drop_budget
        data["window"] = self.window
        data["views_raced"] = self.views_raced
        return data


#: Adversary spec kinds, built by :func:`repro.specs.build`; the run's
#: ``horizon`` reaches the two time-driven strategies, which take one.
KINDS = {
    "stale_favoring": StaleFavoringAdversary,
    "random_hostile": RandomHostileAdversary,
    "partition_oscillator": PartitionOscillatorAdversary,
    "crash_targeter": CrashTargeterAdversary,
    "view_change_racer": ViewChangeRacerAdversary,
}
