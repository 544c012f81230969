"""Chaos campaigns: randomized adversarial runs with spec checking.

A campaign draws ``runs`` randomized configurations — fault timelines,
adversary strategies, loss rates, retry policies — from a seeded RNG,
executes each as an online-monitored Alg. 1 run through the parallel
execution engine, and reports every :class:`~repro.core.spec.SpecViolation`
found.  On violation, the offending configuration is shrunk
(:func:`repro.chaos.shrink.shrink_violation`) to a minimal plain-data
repro document that replays the violation deterministically.

Determinism end to end: configuration ``i`` of campaign seed ``s`` is a
pure function of ``derive_seed(s, "chaos-config", i)``; each run's
simulation seed is ``derive_seed(s, "chaos-run", i)``; results are
independent of the worker count; and the repro document serialises with
sorted keys, so the same campaign seed always yields byte-identical
minimal repro files.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.chaos.shrink import shrink_violation
from repro.exec.engine import run_many
from repro.exec.task import RunTask, execute_task
from repro.exec.workers import alg1_task
from repro.sim.rng import derive_seed

#: Bump when the repro document layout changes.
REPRO_FORMAT = 1


@dataclass
class CampaignConfig:
    """Knobs of one chaos campaign."""

    runs: int = 20
    seed: int = 0
    jobs: Optional[int] = None
    max_rounds: int = 20
    max_sim_time: float = 150.0
    #: Optional deliberately-broken client spec (repro.chaos.broken),
    #: injected into every run — used by smoke tests to prove the
    #: violation pipeline fires.
    broken_client: Optional[Dict[str, Any]] = None
    #: Candidate-simulation budget for shrinking each violation.
    shrink_budget: int = 120

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError(f"runs must be positive, got {self.runs}")


@dataclass
class CampaignResult:
    """Outcome of a campaign: per-run records plus shrunken repros."""

    config: CampaignConfig
    records: List[Dict[str, Any]] = field(default_factory=list)
    #: (run index, violation payload) for every violating run.
    violations: List[Tuple[int, Dict[str, Any]]] = field(default_factory=list)
    #: Shrunken repro document for the first violation (None when clean).
    repro: Optional[Dict[str, Any]] = None

    @property
    def passed(self) -> int:
        return len(self.records) - len(self.violations)

    @property
    def failed(self) -> int:
        return len(self.violations)

    def __repr__(self) -> str:
        return (
            f"CampaignResult(runs={len(self.records)}, "
            f"violations={self.failed})"
        )


# --------------------------------------------------------------------- #
# Randomized configuration generation
# --------------------------------------------------------------------- #


def _random_faults(
    rng: np.random.Generator, num_servers: int, horizon: float
) -> Optional[Dict[str, Any]]:
    """A randomized explicit fault timeline (always kind "schedule").

    Scripting faults as explicit events (rather than canned churn specs)
    keeps the whole fault surface ddmin-shrinkable event by event.
    """
    events: List[Dict[str, Any]] = []
    for _ in range(int(rng.integers(0, 4))):
        start = round(float(rng.uniform(2.0, horizon * 0.5)), 3)
        duration = round(float(rng.uniform(3.0, 15.0)), 3)
        count = int(rng.integers(1, max(2, num_servers // 2)))
        nodes = sorted(
            int(n) for n in rng.choice(num_servers, size=count, replace=False)
        )
        events.append({"time": start, "action": "crash", "nodes": nodes})
        events.append(
            {"time": round(start + duration, 3), "action": "recover",
             "nodes": nodes}
        )
    if rng.random() < 0.4:
        split = max(1, num_servers // 2)
        start = round(float(rng.uniform(2.0, horizon * 0.4)), 3)
        events.append(
            {
                "time": start,
                "action": "partition",
                "groups": [
                    list(range(split)), list(range(split, num_servers))
                ],
            }
        )
        events.append(
            {"time": round(start + float(rng.uniform(3.0, 12.0)), 3),
             "action": "heal"}
        )
    if not events:
        return None
    events.sort(key=lambda event: (event["time"], event["action"]))
    return {"kind": "schedule", "events": events}


def _random_membership(
    rng: np.random.Generator, num_servers: int, horizon: float
) -> Optional[Dict[str, Any]]:
    """A randomized explicit membership timeline (always kind "schedule").

    Like faults, membership is scripted as explicit join/leave events so
    the whole reconfiguration surface stays ddmin-shrinkable event by
    event; joiners take fresh roster indices, leavers are drawn from the
    initial roster (a leave naming an already-gone member is a no-op by
    schedule semantics, which keeps every shrunken sublist valid).
    """
    events: List[Dict[str, Any]] = []
    next_join = num_servers
    for _ in range(int(rng.integers(0, 3))):
        time = round(float(rng.uniform(5.0, horizon * 0.6)), 3)
        if rng.random() < 0.6:
            count = int(rng.integers(1, 3))
            nodes = list(range(next_join, next_join + count))
            next_join += count
            events.append({"time": time, "action": "join", "nodes": nodes})
        else:
            nodes = sorted(
                int(n)
                for n in rng.choice(
                    num_servers, size=int(rng.integers(1, 3)), replace=False
                )
            )
            events.append({"time": time, "action": "leave", "nodes": nodes})
    if not events:
        return None
    events.sort(key=lambda event: (event["time"], event["action"]))
    return {"kind": "schedule", "events": events}


def _random_adversary(rng: np.random.Generator) -> Optional[Dict[str, Any]]:
    choice = int(rng.integers(0, 5))
    if choice == 0:
        return None
    if choice == 1:
        return {
            "kind": "stale_favoring",
            "drop_budget": int(rng.integers(20, 61)),
        }
    if choice == 2:
        return {
            "kind": "random_hostile",
            "drop_budget": int(rng.integers(20, 61)),
            "drop_rate": round(float(rng.uniform(0.1, 0.4)), 3),
        }
    if choice == 3:
        return {
            "kind": "partition_oscillator",
            "duty": round(float(rng.uniform(0.3, 0.6)), 3),
        }
    return {
        "kind": "crash_targeter",
        "k": int(rng.integers(1, 3)),
        "period": round(float(rng.uniform(4.0, 10.0)), 3),
    }


def generate_task(config: CampaignConfig, index: int) -> RunTask:
    """The ``index``-th randomized task of the campaign (pure function)."""
    rng = np.random.default_rng(
        derive_seed(config.seed, "chaos-config", index)
    )
    num_servers = int(rng.integers(5, 9))
    # Draw order is the campaign's identity: graph, quorum, delay, retry,
    # loss, faults, adversary — then membership from its own stream.
    spec: Dict[str, Any] = {
        "graph": {"kind": "chain", "n": int(rng.integers(4, 7))},
        "quorum": {
            "kind": "probabilistic",
            "n": num_servers,
            "k": int(rng.integers(2, 4)),
        },
        "delay": {
            "kind": "exponential",
            "mean": round(float(rng.uniform(0.5, 1.5)), 3),
        },
        "retry": {
            "interval": round(float(rng.uniform(0.5, 2.0)), 3),
            "backoff": 2.0,
            "jitter": 0.1,
            "deadline": round(float(rng.uniform(20.0, 40.0)), 3),
        },
    }
    if rng.random() < 0.5:
        spec["loss_rate"] = round(float(rng.uniform(0.02, 0.15)), 3)
    spec["faults"] = _random_faults(rng, num_servers, config.max_sim_time)
    spec["adversary"] = _random_adversary(rng)
    # Membership draws come from their own derived stream, NOT from the
    # config rng: every draw above stays identical to pre-membership
    # campaigns for the same campaign seed, so existing repro documents
    # and pinned campaign expectations keep meaning the same runs.
    membership_rng = np.random.default_rng(
        derive_seed(config.seed, "chaos-membership", index)
    )
    spec["membership"] = _random_membership(
        membership_rng, num_servers, config.max_sim_time
    )
    if (
        spec["membership"] is not None
        and spec["adversary"] is None
        and membership_rng.random() < 0.5
    ):
        # Race the reconfiguration itself (drawn from the membership
        # stream so the base adversary draw above stays untouched).
        spec["adversary"] = {
            "kind": "view_change_racer",
            "drop_budget": int(membership_rng.integers(10, 41)),
            "window": round(float(membership_rng.uniform(3.0, 8.0)), 3),
        }
    if config.broken_client is not None:
        spec["broken_client"] = dict(config.broken_client)
    return alg1_task(
        (config.seed, "chaos-run", index),
        monotone=True,
        max_rounds=config.max_rounds,
        max_sim_time=config.max_sim_time,
        check_spec_online=True,
        **spec,
    )


# --------------------------------------------------------------------- #
# Campaign execution
# --------------------------------------------------------------------- #


def run_campaign(
    config: CampaignConfig, shrink: bool = True
) -> CampaignResult:
    """Execute the campaign; shrink the first violation when asked."""
    tasks = [generate_task(config, index) for index in range(config.runs)]
    payloads = run_many(tasks, jobs=config.jobs)
    result = CampaignResult(config=config)
    for index, payload in enumerate(payloads):
        record = {
            "index": index,
            "converged": payload.get("converged"),
            "retries": payload.get("retries", 0),
            "timeouts": payload.get("timeouts", 0),
            "messages_dropped": payload.get("messages_dropped", 0),
            "hung_ops": payload.get("hung_ops", 0),
            "faults_injected": payload.get("faults_injected"),
            "adversary": (payload.get("adversary") or {}).get("name"),
            "views_installed": (
                (payload.get("membership") or {}).get("views_installed", 0)
            ),
            "spec_violation": payload.get("spec_violation"),
        }
        result.records.append(record)
        if payload.get("spec_violation") is not None:
            result.violations.append((index, payload["spec_violation"]))
    if shrink and result.violations:
        index, _ = result.violations[0]
        shrunk = shrink_violation(
            tasks[index], max_runs=config.shrink_budget
        )
        result.repro = {
            "format": REPRO_FORMAT,
            "campaign_seed": config.seed,
            "run_index": index,
            **shrunk,
        }
    return result


# --------------------------------------------------------------------- #
# Repro files: byte-stable serialisation and replay
# --------------------------------------------------------------------- #


def repro_to_bytes(doc: Dict[str, Any]) -> bytes:
    """Canonical byte encoding: sorted keys, fixed indent, trailing \\n."""
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


def write_repro(doc: Dict[str, Any], path: Union[str, Path]) -> Path:
    """Write a repro document in its canonical byte form."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(repro_to_bytes(doc))
    return path


def replay_repro(
    source: Union[str, Path, Dict[str, Any]]
) -> Tuple[bool, Dict[str, Any]]:
    """Re-execute a repro document's minimal task.

    Returns ``(reproduced, payload)``: ``reproduced`` is True when the
    replay produced a spec violation again (simulations are pure
    functions of their task, so a genuine repro always reproduces).
    """
    payload = execute_task(load_repro(source))
    return payload.get("spec_violation") is not None, payload


def load_repro(source: Union[str, Path, Dict[str, Any]]) -> RunTask:
    """The minimal task of a repro document (a dict, or a path to one).

    Raises OSError / ValueError on an unreadable or malformed document,
    before anything is simulated.
    """
    doc = (
        source
        if isinstance(source, dict)
        else json.loads(Path(source).read_text())
    )
    try:
        spec = doc["task"]
        return RunTask(
            kind=spec["kind"], params=spec["params"], seed=spec["seed"]
        )
    except (TypeError, KeyError) as error:
        raise ValueError(f"malformed repro document: {error}") from None
