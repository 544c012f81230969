"""The retry timer waits for the client's own round trips (RFC 6298).

Every retry is armed at ``max(policy.delay(attempt), RTO)``, where RTO =
SRTT + 4·RTTVAR is the client's estimate from the latencies of the
operations it settled on their first attempt.  The estimator is the same
double arithmetic on both kernels, so each test here runs on both.
"""

import itertools

import numpy as np
import pytest

from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.registers.client import QuorumRegisterClient, RetryPolicy
from repro.registers.deployment import RegisterDeployment
from repro.service.runner import ServiceConfig, run_service
from repro.sim import kernel
from repro.sim.coroutines import spawn
from repro.sim.delays import ConstantDelay, DelayModel


class ScriptedDelay(DelayModel):
    """Each message takes the next delay of a fixed script, cycled."""

    def __init__(self, delays):
        self._delays = itertools.cycle(delays)

    def sample(self, rng, src, dst):
        return next(self._delays)

    def sample_batch(self, rng, src, dsts):
        return [next(self._delays) for _ in dsts]


#: Round trips of 2, 4, 1 and 3: one query and one reply per read over a
#: one-member quorum.  Every value is dyadic, so the clock, the samples
#: and the estimator below are exact.
SCRIPT = (1.0, 1.0, 2.0, 2.0, 0.5, 0.5, 1.5, 1.5)

#: (SRTT, RTTVAR) after each sample, worked by hand from RFC 6298.
ESTIMATES = (
    (2.0, 1.0),
    (2.25, 1.25),  # RTTVAR 3/4·1 + 1/4·|2 - 4|, SRTT 7/8·2 + 1/8·4
    (2.09375, 1.25),
    (2.20703125, 1.1640625),
)


def sequential_reads(policy, delay_model, reads, n=1):
    """``reads`` reads, one after another, by the one client; returns the
    client, the delay each read's retry timer was armed with, and the
    (SRTT, RTTVAR) after each read."""
    deployment = RegisterDeployment(
        ProbabilisticQuorumSystem(n, 1), num_clients=1,
        delay_model=delay_model, seed=5, retry_policy=policy,
    )
    deployment.declare_register("X", writer=0, initial_value=0)
    client = deployment.clients[0]
    armed, estimates = [], []

    def reader():
        for _ in range(reads):
            future = client.read("X")
            op, = client._pending.values()
            armed.append(op.retry_handle.time - op.started)
            yield future
            estimates.append((client._srtt, client._rttvar))

    spawn(deployment.scheduler, reader())
    deployment.run()
    assert deployment.pending_ops == 0
    return client, armed, estimates


class DerivedPolicy(RetryPolicy):
    """Not exactly a RetryPolicy: its client gets no native core and runs
    the Python reference on both kernels."""


@pytest.mark.parametrize("policy_type", [RetryPolicy, DerivedPolicy])
def test_a_fixed_sample_sequence_gives_the_rfc_estimates(
    kernel_backend, policy_type
):
    client, armed, estimates = sequential_reads(
        policy_type.fixed(5.0), ScriptedDelay(SCRIPT), reads=5
    )
    assert client.retries == 0
    assert estimates[:4] == list(ESTIMATES)
    # The first read waits the policy's 5.0; each later one the larger
    # of that and the RTO its predecessors gave.
    rtos = [srtt + 4.0 * rttvar for srtt, rttvar in ESTIMATES]
    assert rtos == [6.0, 7.25, 7.09375, 6.86328125]
    assert armed == [5.0, *rtos]


def test_the_floor_only_ever_lengthens_a_delay(kernel_backend):
    # A policy delay above every RTO is armed as it is.
    _, armed, estimates = sequential_reads(
        RetryPolicy.fixed(10.0), ScriptedDelay(SCRIPT), reads=5
    )
    assert estimates[:4] == list(ESTIMATES)
    assert armed == [10.0] * 5


def test_a_retried_op_is_not_a_sample(kernel_backend):
    # Every round trip is 4, past the 3.0 timer: each read retries once
    # and settles on its second attempt (Karn's rule), so the estimator
    # never gets a sample and the timer stays the policy's.
    client, armed, estimates = sequential_reads(
        RetryPolicy.fixed(3.0), ConstantDelay(2.0), reads=4
    )
    assert client.retries == 4
    assert estimates == [(None, None)] * 4
    assert armed == [3.0] * 4


def test_the_jitter_stream_advances_once_per_arm(kernel_backend):
    policy = RetryPolicy(interval=5.0, backoff=2.0, jitter=0.25)
    client, armed, estimates = sequential_reads(
        policy, ScriptedDelay(SCRIPT), reads=5
    )
    assert client.retries == 0 and estimates[:4] == list(ESTIMATES)
    # Replay the five arms on a fresh copy of the stream: one draw each,
    # floored or not, and the stream ends where the client's did.
    replay = np.random.default_rng(0)
    replay.bit_generator.state = RegisterDeployment(
        ProbabilisticQuorumSystem(1, 1), num_clients=1,
        delay_model=ScriptedDelay(SCRIPT), seed=5, retry_policy=policy,
    ).clients[0]._retry_rng.bit_generator.state
    floors = [None, 6.0, 7.25, 7.09375, 6.86328125]
    for delay, rto in zip(armed, floors, strict=True):
        jittered = 5.0 * (1.0 + 0.25 * (2.0 * replay.random() - 1.0))
        assert delay == (jittered if rto is None else max(jittered, rto))
    assert (replay.bit_generator.state
            == client._retry_rng.bit_generator.state)


# --- the claim: a loss-free serve run retries only for a reason -------------

#: The ledger's calm ``serve`` shape (benchmarks/e2e/workloads.py: the
#: ServiceConfig defaults, Poisson rate 8, seed 0) at a shorter duration.
CALM = dict(seed=0, duration=600.0, arrivals={"kind": "poisson", "rate": 8.0})


def retries_per_op(result):
    return result.retries / result.completed


def test_a_calm_serve_run_retries_for_a_reason(kernel_backend, monkeypatch):
    adaptive = run_service(ServiceConfig(**CALM))
    assert adaptive.hung_ops == 0
    assert retries_per_op(adaptive) <= 0.05
    # Must-fail control: without the estimator update the timer stays the
    # fixed 4.0 inside the round-trip tail, and retries a third of the
    # operations for nothing — at a longer read tail.
    monkeypatch.setattr(
        QuorumRegisterClient, "_sample_rtt", lambda self, sample: None
    )
    with kernel.use_backend("python"):
        fixed = run_service(ServiceConfig(**CALM))
    assert retries_per_op(fixed) > 0.3
    assert adaptive.quantile("read", 0.99) <= fixed.quantile("read", 0.99)
    assert adaptive.offered == fixed.offered
