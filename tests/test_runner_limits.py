"""Edge-case tests for Alg. 1 runner limits and failure handling."""

import pytest

from repro.apps.apsp import ApspACO
from repro.apps.graphs import chain_graph
from repro.iterative.runner import Alg1Runner
from repro.quorum.grid import GridQuorumSystem
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.registers.client import RetryPolicy
from repro.sim.delays import ConstantDelay


def test_max_sim_time_validation():
    aco = ApspACO(chain_graph(4))
    with pytest.raises(ValueError):
        Alg1Runner(aco, ProbabilisticQuorumSystem(4, 2), max_sim_time=0.0)
    with pytest.raises(ValueError):
        Alg1Runner(aco, ProbabilisticQuorumSystem(4, 2), max_sim_time=-5.0)


def test_retry_enables_default_time_cap():
    aco = ApspACO(chain_graph(4))
    runner = Alg1Runner(
        aco, ProbabilisticQuorumSystem(4, 2),
        retry_policy=RetryPolicy(interval=2.0), max_rounds=50,
    )
    assert runner.max_sim_time == 100.0 * 50


def test_no_retry_means_no_default_cap():
    aco = ApspACO(chain_graph(4))
    runner = Alg1Runner(aco, ProbabilisticQuorumSystem(4, 2))
    assert runner.max_sim_time is None


def test_stalled_run_terminates_at_time_cap():
    # Crash an entire grid row before the run starts: with fixed strict
    # quorums every operation stalls forever; the time cap must stop the
    # simulation and report non-convergence.
    aco = ApspACO(chain_graph(4))
    runner = Alg1Runner(
        aco, GridQuorumSystem(2, 2), retry_policy=RetryPolicy(interval=3.0),
        delay_model=ConstantDelay(1.0), max_sim_time=200.0, seed=1,
    )
    runner.deployment.crash_server(0)
    runner.deployment.crash_server(1)  # the full top row
    result = runner.run(check_spec=False)
    assert not result.converged
    assert result.sim_time <= 200.0


def test_healthy_run_unaffected_by_generous_cap():
    aco = ApspACO(chain_graph(6))
    capped = Alg1Runner(
        aco, ProbabilisticQuorumSystem(6, 3), monotone=True, seed=2,
        max_sim_time=100_000.0,
    ).run(check_spec=False)
    uncapped = Alg1Runner(
        aco, ProbabilisticQuorumSystem(6, 3), monotone=True, seed=2,
    ).run(check_spec=False)
    assert capped.converged and uncapped.converged
    assert capped.rounds == uncapped.rounds
    assert capped.messages == uncapped.messages


def test_crash_before_start_with_retry_still_converges():
    # One crashed replica out of 8 with k=2: retries route around it.
    aco = ApspACO(chain_graph(5))
    runner = Alg1Runner(
        aco, ProbabilisticQuorumSystem(8, 2), monotone=True, seed=3,
        retry_policy=RetryPolicy(interval=5.0), max_rounds=300,
    )
    runner.deployment.crash_server(0)
    result = runner.run(check_spec=False)
    assert result.converged
