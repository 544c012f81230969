"""Property-based tests (hypothesis) on core data structures and
invariants: quorum systems, timestamps, partitions, update sequences,
histories and ACOs."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.apsp import ApspACO
from repro.apps.graphs import chain_graph, random_graph
from repro.apps.transitive_closure import TransitiveClosureACO
from repro.core.history import RegisterHistory
from repro.core.spec import check_r2_reads_from_some_write, check_r4_monotone_reads
from repro.core.timestamps import Timestamp
from repro.iterative.partition import block_partition
from repro.iterative.update_sequence import (
    extract_pseudocycles,
    iterate_update_sequence,
    make_bounded_stale_view,
    synchronous_change,
)
from repro.quorum.grid import GridQuorumSystem
from repro.quorum.majority import MajorityQuorumSystem
from repro.quorum.probabilistic import ProbabilisticQuorumSystem

# ----------------------------------------------------------------------- #
# Timestamps
# ----------------------------------------------------------------------- #

timestamps = st.builds(
    Timestamp,
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=100),
)


@given(timestamps, timestamps)
def test_timestamp_ordering_total(a, b):
    assert (a < b) + (a == b) + (a > b) == 1


@given(timestamps, timestamps, timestamps)
def test_timestamp_ordering_transitive(a, b, c):
    if a <= b and b <= c:
        assert a <= c


@given(timestamps)
def test_timestamp_next_is_greater(ts):
    assert ts.next() > ts
    assert ts.next().seq == ts.seq + 1


# ----------------------------------------------------------------------- #
# Partitions
# ----------------------------------------------------------------------- #


@given(st.integers(0, 200), st.integers(1, 50))
def test_block_partition_covers_exactly(m, p):
    blocks = block_partition(m, p)
    assert len(blocks) == p
    flat = [c for block in blocks for c in block]
    assert sorted(flat) == list(range(m))
    sizes = [len(block) for block in blocks]
    assert max(sizes) - min(sizes) <= 1


# ----------------------------------------------------------------------- #
# Quorum systems
# ----------------------------------------------------------------------- #


@given(
    st.integers(2, 40).flatmap(
        lambda n: st.tuples(
            st.just(n), st.integers(1, n), st.integers(0, 2**31 - 1)
        )
    )
)
def test_probabilistic_quorum_size_and_range(params):
    n, k, seed = params
    system = ProbabilisticQuorumSystem(n, k)
    quorum = system.quorum(np.random.default_rng(seed))
    assert len(quorum) == k
    assert all(0 <= member < n for member in quorum)


@given(st.integers(2, 30), st.integers(0, 2**31 - 1))
def test_majority_quorums_always_intersect(n, seed):
    system = MajorityQuorumSystem(n)
    rng = np.random.default_rng(seed)
    assert system.quorum(rng) & system.quorum(rng)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_grid_quorums_always_intersect(rows, cols, seed):
    system = GridQuorumSystem(rows, cols)
    rng = np.random.default_rng(seed)
    assert system.quorum(rng) & system.quorum(rng)


@given(
    st.integers(2, 60).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, n))
    )
)
def test_intersection_probability_in_unit_interval_and_monotone(params):
    n, k = params
    system = ProbabilisticQuorumSystem(n, k)
    p = system.intersection_probability()
    assert 0.0 <= p <= 1.0
    if k < n:
        assert (
            ProbabilisticQuorumSystem(n, k + 1).intersection_probability()
            >= p - 1e-12
        )


# ----------------------------------------------------------------------- #
# Histories
# ----------------------------------------------------------------------- #


@st.composite
def history_strategy(draw):
    """Random well-formed single-writer histories with monotone reads."""
    history = RegisterHistory("H", initial_value=0)
    num_writes = draw(st.integers(0, 8))
    time = 1.0
    for seq in range(1, num_writes + 1):
        write = history.begin_write(0, time, seq * 10, Timestamp(seq, 0))
        write.respond(time + 0.5)
        time += 1.0
    num_reads = draw(st.integers(0, 8))
    last_seq = {1: 0, 2: 0}
    for _ in range(num_reads):
        process = draw(st.sampled_from([1, 2]))
        seq = draw(st.integers(last_seq[process], num_writes))
        last_seq[process] = seq
        read = history.begin_read(process, time)
        value = 0 if seq == 0 else seq * 10
        read.complete(time + 0.5, value, Timestamp(seq, 0))
        time += 1.0
    return history


@given(history_strategy())
def test_wellformed_histories_satisfy_r2_r4(history):
    check_r2_reads_from_some_write(history)
    check_r4_monotone_reads(history)


@given(history_strategy())
def test_staleness_nonnegative_and_bounded(history):
    total_writes = len(history.writes) - 1
    for read in history.reads:
        staleness = history.staleness(read)
        if staleness is not None:
            assert 0 <= staleness <= total_writes


# ----------------------------------------------------------------------- #
# Update sequences and Theorem 2
# ----------------------------------------------------------------------- #


@given(
    st.integers(3, 10),
    st.lists(st.integers(0, 3), min_size=30, max_size=30),
)
@settings(max_examples=25, deadline=None)
def test_apsp_converges_under_arbitrary_bounded_staleness(n, lags):
    """Theorem 2 instantiated: any bounded-staleness synchronous schedule
    drives APSP to the fixed point."""
    aco = ApspACO(chain_graph(n))
    steps = len(lags)
    staleness = [[lag] * aco.m for lag in lags]
    history = iterate_update_sequence(
        aco,
        steps=steps,
        change=synchronous_change(aco.m),
        view=make_bounded_stale_view(staleness),
    )
    assert history[-1] == aco.fixed_point()


@given(
    st.integers(2, 5),
    st.lists(st.integers(0, 4), min_size=10, max_size=40),
)
@settings(max_examples=30, deadline=None)
def test_pseudocycle_boundaries_wellformed(m, lags):
    steps = len(lags)
    staleness = [[lag] * m for lag in lags]
    view = make_bounded_stale_view(staleness)
    change = synchronous_change(m)
    boundaries = extract_pseudocycles(m, change, view, steps)
    assert all(1 < b <= steps + 1 for b in boundaries)
    assert boundaries == sorted(set(boundaries))


@given(st.integers(3, 9), st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_transitive_closure_rows_bounded_by_truth(n, seed):
    rng = np.random.default_rng(seed)
    graph = random_graph(n, 0.3, rng)
    aco = TransitiveClosureACO(graph)
    fp = aco.fixed_point()
    x = aco.initial()
    for _ in range(4):
        x = aco.apply_all(x)
        for i in range(n):
            assert x[i] <= fp[i]


@given(st.integers(2, 12), st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_apsp_apply_never_undershoots_truth(n, seed):
    rng = np.random.default_rng(seed)
    graph = random_graph(n, 0.25, rng, min_weight=1.0, max_weight=3.0)
    aco = ApspACO(graph)
    fp = aco.fixed_point()
    x = aco.apply_all(aco.initial())
    for i in range(n):
        for j in range(n):
            assert x[i][j] >= fp[i][j] - 1e-9
