"""Tests for the Alg. 1 runner (Theorem 3 territory)."""

import itertools

import pytest

from repro.analysis.messages import messages_per_round
from repro.apps.apsp import ApspACO
from repro.apps.graphs import chain_graph, ring_graph
from repro.iterative.runner import Alg1Runner
from repro.quorum.majority import MajorityQuorumSystem
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.sim import kernel
from repro.sim.delays import ConstantDelay, ExponentialDelay


@pytest.fixture
def aco():
    return ApspACO(chain_graph(8))


def test_converges_with_monotone_registers(aco):
    runner = Alg1Runner(
        aco, ProbabilisticQuorumSystem(8, 3), monotone=True, seed=1
    )
    result = runner.run()
    assert result.converged
    assert result.rounds >= aco.contraction_depth()


def test_converges_with_strict_registers_near_optimal(aco):
    runner = Alg1Runner(aco, MajorityQuorumSystem(8), seed=2)
    result = runner.run()
    assert result.converged
    # A strict system needs one round per pseudocycle (+1 to observe).
    assert result.rounds <= aco.contraction_depth() + 2


def test_final_register_state_is_fixed_point(aco):
    runner = Alg1Runner(aco, MajorityQuorumSystem(8), seed=3)
    runner.run()
    # Read back the replicas: the latest written value per register must be
    # the fixed point row.
    fp = aco.fixed_point()
    for j, name in enumerate(runner.register_names):
        history = runner.deployment.space.history(name)
        latest = max(history.writes, key=lambda w: w.timestamp)
        assert latest.value == fp[j]


def test_each_register_owned_by_its_block_owner(aco):
    runner = Alg1Runner(aco, MajorityQuorumSystem(8), num_processes=3, seed=4)
    for j, name in enumerate(runner.register_names):
        owner = runner.deployment.space.info(name).writer
        assert j in runner.blocks[owner]


def test_fewer_processes_than_components(aco):
    runner = Alg1Runner(
        aco, ProbabilisticQuorumSystem(8, 4), num_processes=3,
        monotone=True, seed=5,
    )
    result = runner.run()
    assert result.converged
    assert set(result.iterations_by_process) == {0, 1, 2}


def test_message_count_matches_formula_per_round(aco):
    # Eqns 1-2 count 2k messages per register operation (k requests, k
    # replies), so a round of Alg. 1 sends exactly 2pmk + 2mk.  Once the
    # operations still in flight when the run stops are drained, the
    # count holds exactly, on both kernels, synchronous or not.  (The
    # inputs are looped over, not parametrized, to keep this test's id.)
    p = m = 8
    backends = ["python"] + (["native"] if kernel.native_available() else [])
    for backend, system, delay in itertools.product(
        backends,
        (MajorityQuorumSystem(8), ProbabilisticQuorumSystem(8, 3)),
        (ConstantDelay(1.0), ExponentialDelay(1.0)),
    ):
        with kernel.use_backend(backend):
            runner = Alg1Runner(aco, system, delay_model=delay, seed=6)
            result = runner.run()
        deployment = runner.deployment
        while deployment.pending_ops:
            deployment.run()
        ops = sum(
            client.reads_performed + client.writes_performed
            for client in deployment.clients
        )
        k = system.quorum_size
        assert deployment.network.stats.sent == 2 * k * ops
        # Every completed round issued its p*m reads and m writes.
        assert result.messages >= result.rounds * messages_per_round(p, m, k)


def test_max_rounds_cap_reports_non_convergence():
    aco = ApspACO(chain_graph(12))
    runner = Alg1Runner(
        aco, ProbabilisticQuorumSystem(12, 1), monotone=False, seed=7,
        max_rounds=3,
    )
    result = runner.run(check_spec=False)
    assert not result.converged
    assert result.rounds_completed == 3


def test_async_delays_converge(aco):
    runner = Alg1Runner(
        aco, ProbabilisticQuorumSystem(8, 3), monotone=True,
        delay_model=ExponentialDelay(1.0), seed=8,
    )
    result = runner.run()
    assert result.converged
    # Asynchrony lets fast processes run extra iterations inside a round.
    assert result.total_iterations >= result.rounds_completed * 8


def test_same_seed_reproducible(aco):
    def run():
        return Alg1Runner(
            aco, ProbabilisticQuorumSystem(8, 2), monotone=True,
            delay_model=ExponentialDelay(1.0), seed=99,
        ).run(check_spec=False)

    a, b = run(), run()
    assert a.rounds == b.rounds
    assert a.messages == b.messages
    assert a.sim_time == b.sim_time


def test_different_seeds_vary(aco):
    results = {
        Alg1Runner(
            aco, ProbabilisticQuorumSystem(8, 2), monotone=True,
            delay_model=ExponentialDelay(1.0), seed=seed,
        ).run(check_spec=False).sim_time
        for seed in range(4)
    }
    assert len(results) > 1


def test_spec_check_runs_by_default(aco):
    # check_spec=True must not raise on a healthy monotone run.
    runner = Alg1Runner(
        aco, ProbabilisticQuorumSystem(8, 3), monotone=True, seed=10
    )
    runner.run(check_spec=True)


def test_ring_topology(aco):
    ring = ApspACO(ring_graph(6))
    runner = Alg1Runner(ring, ProbabilisticQuorumSystem(6, 3), monotone=True, seed=11)
    result = runner.run()
    assert result.converged


def test_monotone_beats_plain_at_tiny_quorums():
    aco = ApspACO(chain_graph(16))
    rounds = {}
    for monotone in (True, False):
        totals = []
        for seed in range(3):
            result = Alg1Runner(
                aco, ProbabilisticQuorumSystem(16, 1), monotone=monotone,
                seed=seed, max_rounds=400,
            ).run(check_spec=False)
            totals.append(result.rounds)
        rounds[monotone] = sum(totals) / len(totals)
    assert rounds[True] < rounds[False]


def test_invalid_max_rounds():
    aco = ApspACO(chain_graph(4))
    with pytest.raises(ValueError):
        Alg1Runner(aco, MajorityQuorumSystem(4), max_rounds=0)


def test_cache_hits_only_when_monotone(aco):
    plain = Alg1Runner(
        aco, ProbabilisticQuorumSystem(8, 2), monotone=False, seed=12,
        max_rounds=60,
    ).run(check_spec=False)
    mono = Alg1Runner(
        aco, ProbabilisticQuorumSystem(8, 2), monotone=True, seed=12,
        max_rounds=60,
    ).run(check_spec=False)
    assert plain.cache_hits == 0
    assert mono.cache_hits > 0
