"""End-to-end integration tests spanning all layers.

Each test exercises the full stack — ACO application, Alg. 1 runner,
register clients, quorum system, replica servers, network, scheduler —
and checks both the computed answer and cross-layer invariants (history
audits, message accounting, load distribution).
"""

import math

import pytest

from repro.analysis.theory import corollary6_rounds_bound, q_lower_bound
from repro.apps.apsp import ApspACO
from repro.apps.graphs import chain_graph, grid_graph, random_graph
from repro.apps.sssp import SsspACO
from repro.core.spec import (
    check_r2_reads_from_some_write,
    check_r4_monotone_reads,
    staleness_distribution,
)
from repro.iterative.runner import Alg1Runner
from repro.quorum.grid import GridQuorumSystem
from repro.quorum.majority import MajorityQuorumSystem
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.sim.delays import ExponentialDelay, LogNormalDelay
from repro.sim.rng import RngRegistry


def test_paper_headline_scenario_chain34():
    """The paper's exact configuration at one quorum size (k=4)."""
    aco = ApspACO(chain_graph(34))
    runner = Alg1Runner(
        aco, ProbabilisticQuorumSystem(34, 4), monotone=True, seed=2001,
        max_rounds=200,
    )
    result = runner.run(check_spec=True)
    assert result.converged
    # Shape check against the paper: small monotone quorums converge in
    # roughly the strict system's round count (single digits to low tens),
    # far below the k=1 Corollary 7 bound of 204.
    assert result.rounds <= 25
    bound = corollary6_rounds_bound(6, q_lower_bound(34, 4))
    assert result.rounds <= bound * 2.5  # bound is on the expectation


def test_full_stack_audit_every_register():
    aco = ApspACO(chain_graph(10))
    runner = Alg1Runner(
        aco, ProbabilisticQuorumSystem(10, 3), monotone=True, seed=5,
        delay_model=ExponentialDelay(1.0),
    )
    result = runner.run(check_spec=False)
    assert result.converged
    for name in runner.register_names:
        history = runner.deployment.space.history(name)
        check_r2_reads_from_some_write(history)
        check_r4_monotone_reads(history)
        # Every read in a monotone history has a timestamp and source.
        for read in history.reads:
            if not read.pending:
                assert history.reads_from(read) is not None


def test_server_load_roughly_uniform():
    """Random quorum choice spreads load evenly over replicas."""
    aco = ApspACO(chain_graph(8))
    runner = Alg1Runner(
        aco, ProbabilisticQuorumSystem(16, 4), monotone=True, seed=6,
    )
    runner.run(check_spec=False)
    # A server's load: the requests it answered (Section 4).
    served = [
        server.reads_served + server.writes_applied
        + server.stale_updates_ignored
        for server in runner.deployment.servers
    ]
    assert all(served)  # every server participated
    mean = sum(served) / len(served)
    for count in served:
        assert 0.5 * mean <= count <= 1.7 * mean


def test_heavy_tailed_delays_still_converge_and_stay_monotone():
    aco = ApspACO(chain_graph(8))
    runner = Alg1Runner(
        aco, ProbabilisticQuorumSystem(8, 2), monotone=True, seed=7,
        delay_model=LogNormalDelay(1.0, sigma=1.5), max_rounds=400,
    )
    result = runner.run(check_spec=True)
    assert result.converged


def test_sssp_and_apsp_agree_on_random_graph():
    rng = RngRegistry(11).stream("graph")
    graph = random_graph(12, 0.25, rng, min_weight=1.0, max_weight=4.0)
    apsp = Alg1Runner(
        ApspACO(graph), ProbabilisticQuorumSystem(12, 4), monotone=True,
        seed=8, max_rounds=300,
    ).run(check_spec=False)
    sssp = Alg1Runner(
        SsspACO(graph, source=3), ProbabilisticQuorumSystem(12, 4),
        monotone=True, seed=9, max_rounds=300,
    ).run(check_spec=False)
    assert apsp.converged and sssp.converged
    # Both converged to ground truth by construction of the monitors;
    # additionally the reference algorithms agree with each other.
    assert graph.dijkstra(3) == pytest.approx(graph.floyd_warshall()[3])


def test_strict_and_probabilistic_compute_identical_answers():
    graph = grid_graph(3, 3)
    aco = ApspACO(graph)
    for system in (MajorityQuorumSystem(9), GridQuorumSystem(3, 3),
                   ProbabilisticQuorumSystem(9, 3)):
        result = Alg1Runner(
            aco, system, monotone=True, seed=10, max_rounds=200
        ).run(check_spec=False)
        assert result.converged, system


def test_staleness_observed_then_overcome():
    """Non-monotone small-quorum run: stale reads demonstrably occur, and
    the iteration still converges (Theorem 3's point)."""
    aco = ApspACO(chain_graph(8))
    runner = Alg1Runner(
        aco, ProbabilisticQuorumSystem(8, 2), monotone=False, seed=12,
        max_rounds=400,
    )
    result = runner.run(check_spec=False)
    assert result.converged
    stale_reads = 0
    for name in runner.register_names:
        dist = staleness_distribution(runner.deployment.space.history(name))
        stale_reads += sum(count for s, count in dist.items() if s >= 1)
    assert stale_reads > 0


def test_message_totals_scale_linearly_with_quorum_size():
    aco = ApspACO(chain_graph(6))
    per_round = {}
    for k in (1, 2, 4):
        result = Alg1Runner(
            aco, ProbabilisticQuorumSystem(12, k), monotone=True, seed=13,
        ).run(check_spec=False)
        per_round[k] = result.messages_per_round()
    assert per_round[2] == pytest.approx(2 * per_round[1], rel=0.3)
    assert per_round[4] == pytest.approx(4 * per_round[1], rel=0.3)


def test_deterministic_end_to_end():
    """The entire stack is reproducible from the root seed."""
    def run():
        aco = ApspACO(chain_graph(9))
        return Alg1Runner(
            aco, ProbabilisticQuorumSystem(9, 2), monotone=True, seed=99,
            delay_model=ExponentialDelay(1.0),
        ).run(check_spec=False)

    a, b = run(), run()
    assert (a.rounds, a.messages, a.sim_time, a.total_iterations) == (
        b.rounds, b.messages, b.sim_time, b.total_iterations
    )
