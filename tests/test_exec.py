"""Tests for the parallel experiment execution engine (repro.exec)."""

import json
import os

import pytest

from repro.exec.cache import CACHE_FORMAT, MISS, RunCache
from repro.exec.engine import default_jobs, resolve_jobs, run_many
from repro.exec.task import (
    RunTask,
    UnknownTaskKind,
    execute_task,
    resolve_worker,
    task_key,
)
from repro.experiments.figure2 import Figure2Config, run_figure2
from repro.experiments.survival import MC_SHARD_TRIALS, _mc_shards


TINY_PARAMS = {
    "graph": {"kind": "chain", "n": 5},
    "quorum": {"kind": "probabilistic", "n": 6, "k": 2},
    "delay": {"kind": "constant", "mean": 1.0},
    "monotone": True,
    "max_rounds": 60,
}


def tiny_figure2_config() -> Figure2Config:
    return Figure2Config(
        num_vertices=6,
        num_servers=6,
        quorum_sizes=(1, 3),
        runs_per_point=2,
        max_rounds=80,
        variants=(("monotone/sync", True, True),
                  ("non-monotone/async", False, False)),
    )


# --- task descriptors and keys ---------------------------------------------


def test_task_key_stable_across_param_order():
    a = RunTask(kind="alg1", params={"x": 1, "y": {"a": 2, "b": 3}}, seed=9)
    b = RunTask(kind="alg1", params={"y": {"b": 3, "a": 2}, "x": 1}, seed=9)
    assert task_key(a) == task_key(b)


def test_task_key_differs_on_any_field():
    base = RunTask(kind="alg1", params={"x": 1}, seed=9)
    assert task_key(base) != task_key(RunTask("alg1", {"x": 2}, 9))
    assert task_key(base) != task_key(RunTask("alg1", {"x": 1}, 10))
    assert task_key(base) != task_key(RunTask("latency", {"x": 1}, 9))


def test_task_rejects_non_json_params():
    task = RunTask(kind="alg1", params={"bad": object()}, seed=0)
    with pytest.raises(TypeError):
        task.canonical()


def test_unknown_kind_raises():
    with pytest.raises(UnknownTaskKind):
        resolve_worker("no-such-kind")
    with pytest.raises(UnknownTaskKind):
        execute_task(RunTask(kind="no-such-kind", params={}, seed=0))


def test_execute_task_runs_alg1():
    result = execute_task(RunTask(kind="alg1", params=TINY_PARAMS, seed=17))
    assert result["converged"] is True
    assert result["rounds"] >= 1
    assert result["messages"] > 0


# --- job resolution --------------------------------------------------------


def test_default_jobs_at_least_one():
    assert default_jobs() >= 1
    assert default_jobs(cap=2) <= 2


def test_resolve_jobs_explicit_wins_over_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "7")
    assert resolve_jobs(3) == 3


def test_resolve_jobs_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs(None, default=2) == 5


def test_resolve_jobs_default(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(None, default=2) == 2


def test_resolve_jobs_bad_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "many")
    with pytest.raises(ValueError):
        resolve_jobs(None)


def test_resolve_jobs_floors_at_one():
    assert resolve_jobs(0) == 1
    assert resolve_jobs(-4) == 1


# --- parallel == serial ----------------------------------------------------


def test_parallel_results_identical_to_serial():
    """The tentpole guarantee: fan-out must not change a single number."""
    config = tiny_figure2_config()
    serial = run_figure2(config, jobs=1)
    parallel = run_figure2(config, jobs=4)
    assert len(serial) == len(parallel) > 0
    for s, p in zip(serial, parallel):
        assert s.variant == p.variant
        assert s.quorum_size == p.quorum_size
        assert s.rounds == p.rounds
        assert s.converged == p.converged


def test_run_many_preserves_task_order():
    tasks = [
        RunTask(kind="alg1", params=dict(TINY_PARAMS), seed=seed)
        for seed in (3, 1, 2)
    ]
    serial = run_many(tasks, jobs=1)
    parallel = run_many(tasks, jobs=3)
    assert serial == parallel


def test_run_many_progress_in_task_order():
    tasks = [
        RunTask(kind="alg1", params=dict(TINY_PARAMS), seed=seed)
        for seed in (5, 6, 7)
    ]
    seen = []
    run_many(tasks, jobs=2, progress=lambda i, t, r: seen.append(i))
    assert seen == [0, 1, 2]


# --- the on-disk run cache -------------------------------------------------


CHURNED_PARAMS = {
    **TINY_PARAMS,
    "retry": {"interval": 1.0, "jitter": 0.0, "deadline": 30.0},
    "membership": {"kind": "churn", "period": 8.0, "batch": 1},
}


def test_cache_roundtrip(tmp_path):
    """A hit compares ``==`` to the fresh payload, not merely equal as
    canonical JSON: payloads (membership views included) carry lists."""
    cache = RunCache(root=str(tmp_path))
    for params in (TINY_PARAMS, CHURNED_PARAMS):
        task = RunTask(kind="alg1", params=params, seed=17)
        assert cache.get(task) is MISS
        result = execute_task(task)
        cache.put(task, result)
        assert cache.get(task) == result
    assert len(cache) == 2


def test_cache_entries_keep_their_bytes(tmp_path):
    """An entry is written with the one-shot C encoder but holds the bytes
    the streaming ``json.dump`` wrote, so a cache populated before the
    switch is served entirely as hits."""
    tasks = [
        RunTask(kind="alg1", params=params, seed=17)
        for params in (TINY_PARAMS, CHURNED_PARAMS)
    ]
    results = [execute_task(task) for task in tasks]
    fresh, legacy = tmp_path / "fresh", tmp_path / "legacy"
    cache = RunCache(root=str(fresh))
    for task, result in zip(tasks, results):
        cache.put(task, result)
        # What the streaming writer put in the same file.
        path = legacy / task.kind / f"{task_key(task)}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"format": CACHE_FORMAT, "task": task.descriptor(),
                       "result": result}, handle)
        assert (fresh / task.kind / path.name).read_bytes() \
            == path.read_bytes()
    reader = RunCache(root=str(legacy))
    assert [reader.get(task) for task in tasks] == results
    assert (reader.hits, reader.misses) == (len(tasks), 0)


def test_second_invocation_executes_zero_new_runs(tmp_path):
    config = tiny_figure2_config()
    first = RunCache(root=str(tmp_path))
    cold = run_figure2(config, jobs=1, cache=first)
    assert first.misses > 0 and first.hits == 0

    second = RunCache(root=str(tmp_path))
    warm = run_figure2(config, jobs=1, cache=second)
    assert second.misses == 0
    assert second.hits == first.misses
    assert [(p.variant, p.quorum_size, p.rounds, p.converged)
            for p in cold] == \
           [(p.variant, p.quorum_size, p.rounds, p.converged)
            for p in warm]


def test_cache_ignores_corrupt_entry(tmp_path):
    cache = RunCache(root=str(tmp_path))
    task = RunTask(kind="alg1", params=TINY_PARAMS, seed=17)
    cache.put(task, {"rounds": 3})
    path, = [os.path.join(root, name)
             for root, _, names in os.walk(tmp_path) for name in names]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{ not json")
    assert cache.get(task) is MISS


def test_cache_rejects_format_mismatch(tmp_path):
    cache = RunCache(root=str(tmp_path))
    task = RunTask(kind="alg1", params=TINY_PARAMS, seed=17)
    cache.put(task, {"rounds": 3})
    path, = [os.path.join(root, name)
             for root, _, names in os.walk(tmp_path) for name in names]
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["format"] = CACHE_FORMAT + 1
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    assert cache.get(task) is MISS


def test_cache_clear(tmp_path):
    cache = RunCache(root=str(tmp_path))
    cache.put(RunTask(kind="alg1", params=TINY_PARAMS, seed=1), {"r": 1})
    assert len(cache) == 1
    cache.clear()
    assert len(cache) == 0


# --- Monte Carlo sharding --------------------------------------------------


def test_mc_shards_cover_all_trials():
    for trials in (1, 100, MC_SHARD_TRIALS, MC_SHARD_TRIALS + 1,
                   3 * MC_SHARD_TRIALS + 7):
        shards = _mc_shards(trials)
        assert sum(shards) == trials
        assert all(s > 0 for s in shards)


def test_mc_sharding_independent_of_job_count():
    """Shard layout (and hence every seed) never depends on parallelism."""
    from repro.experiments.survival import SurvivalConfig, survival_mc_tasks
    config = SurvivalConfig.scaled_down()
    tasks = survival_mc_tasks(config)
    assert [task_key(t) for t in tasks] == \
           [task_key(t) for t in survival_mc_tasks(config)]
