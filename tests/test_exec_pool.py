"""Warm worker pool lifecycle, crash recovery, and backend re-sync.

Everything here goes through the public ``run_many`` API using the
engine's self-test task kinds (``exec_probe`` / ``exec_crash``,
:mod:`repro.exec.testing`), so the guarantees are asserted exactly as an
experiment sweep would observe them.
"""

import json
import os

import pytest

from repro.exec import pool as exec_pool
from repro.exec.cache import RunCache
from repro.exec.engine import run_many
from repro.exec.task import RunTask, execute_task
from repro.obs import runtime as obs_runtime
from repro.obs.core import Observability
from repro.obs.registry import MetricsRegistry
from repro.sim import kernel


@pytest.fixture(autouse=True)
def fresh_pool():
    """Each test starts and ends without a warm pool."""
    exec_pool.shutdown_pool()
    yield
    exec_pool.shutdown_pool()


def probe_tasks(n, spin=0):
    return [RunTask("exec_probe", {"spin": spin}, seed=seed) for seed in range(n)]


# --- warm reuse ------------------------------------------------------------ #


def test_pool_persists_across_run_many_calls():
    first = run_many(probe_tasks(8), jobs=2)
    info_after_first = exec_pool.pool_info()
    second = run_many(probe_tasks(8), jobs=2)
    info_after_second = exec_pool.pool_info()

    assert info_after_first["alive"] and info_after_second["alive"]
    # Same executor (no recycle), and no worker beyond the original two
    # ever appears: every pooled task ran in a warm, reused process.
    assert info_after_first["generation"] == info_after_second["generation"]
    pids = {r["pid"] for r in first} | {r["pid"] for r in second}
    assert len(pids) <= 2
    assert all(r["pool_worker"] for r in first + second)
    assert os.getpid() not in pids


def test_pool_resizes_on_jobs_change():
    run_many(probe_tasks(4), jobs=2)
    gen_two = exec_pool.pool_info()["generation"]
    run_many(probe_tasks(6), jobs=3)
    info = exec_pool.pool_info()
    assert info["workers"] == 3
    assert info["generation"] == gen_two + 1


def test_serial_jobs_never_spins_up_a_pool():
    results = run_many(probe_tasks(3), jobs=1)
    assert not exec_pool.pool_info()["alive"]
    assert all(r["pid"] == os.getpid() for r in results)
    assert not any(r["pool_worker"] for r in results)


def test_shutdown_pool_is_idempotent_and_explicit():
    run_many(probe_tasks(4), jobs=2)
    assert exec_pool.pool_info()["alive"]
    exec_pool.shutdown_pool()
    assert not exec_pool.pool_info()["alive"]
    exec_pool.shutdown_pool()  # second call is a no-op
    assert not exec_pool.pool_info()["alive"]


# --- kernel-backend re-sync ------------------------------------------------ #


def test_warm_workers_resync_backend_without_recycle():
    """A --kernel change after pool creation must reach warm workers."""
    # Pin the starting backend explicitly: the suite may itself run
    # under REPRO_KERNEL=native (the CI native-kernel job does), and the
    # probes report the *requested* backend, so the test must not assume
    # the environment's default.
    try:
        kernel.select_backend("python")
        before = run_many(probe_tasks(4), jobs=2)
        generation = exec_pool.pool_info()["generation"]
        assert {r["backend"] for r in before} == {"python"}

        kernel.select_backend("native")
        after = run_many(probe_tasks(4), jobs=2)
    finally:
        kernel.select_backend(None)

    # Same pool (no recycle), but every task saw the new backend.
    assert exec_pool.pool_info()["generation"] == generation
    assert {r["backend"] for r in after} == {"native"}
    assert all(r["pool_worker"] for r in after)


def test_sync_worker_backend_reports_changes():
    try:
        kernel.select_backend("python")
        assert kernel.sync_worker_backend("python") is False
        assert kernel.sync_worker_backend("native") is True
        assert kernel.requested_backend() == "native"
        assert kernel.sync_worker_backend("native") is False
    finally:
        kernel.select_backend(None)


# --- crash recovery -------------------------------------------------------- #


def crash_sweep_tasks(n=8, crash_seeds=(3,)):
    return [
        RunTask("exec_crash", {"crash_seeds": list(crash_seeds)}, seed=seed)
        for seed in range(n)
    ]


def test_worker_crash_recovery(capsys):
    """A mid-sweep worker death loses no results and still completes.

    The pooled run must return exactly what a serial run returns: the
    crashing task is re-executed in-process (where it completes
    normally), every other task's pooled result is kept.
    """
    tasks = crash_sweep_tasks()
    serial = run_many(tasks, jobs=1)
    pooled = run_many(tasks, jobs=2)

    err = capsys.readouterr().err
    assert "worker process died mid-sweep" in err
    assert len(pooled) == len(serial) == 8
    # Bit-identical payloads modulo the placement fields the probe
    # deliberately reports (pid / pool membership).
    for s, p in zip(serial, pooled):
        assert s["seed"] == p["seed"]
        assert s["metrics"] == p["metrics"]
    # The crashed task really did fall back to the parent process.
    assert pooled[3]["pid"] == os.getpid()
    assert pooled[3]["pool_worker"] is False
    # The broken pool was discarded; the next sweep gets a fresh one.
    assert not exec_pool.pool_info()["alive"]
    healthy = run_many(probe_tasks(4), jobs=2)
    assert all(r["pool_worker"] for r in healthy)


def test_worker_crash_keeps_completed_cache_entries(tmp_path, capsys):
    """Completed results are cache-written before the crash is handled."""
    tasks = crash_sweep_tasks(n=10, crash_seeds=(9,))
    cache = RunCache(root=str(tmp_path))
    pooled = run_many(tasks, jobs=2, cache=cache)
    assert "re-running" in capsys.readouterr().err
    assert cache.writes == 10
    assert len(cache) == 10

    # A rerun is fully cache-served — nothing executes, nothing crashes.
    second = RunCache(root=str(tmp_path))
    replay = run_many(tasks, jobs=2, cache=second)
    assert second.hits == 10 and second.misses == 0
    assert replay == pooled
    assert capsys.readouterr().err == ""


def test_crash_task_completes_when_run_serially():
    result = execute_task(crash_sweep_tasks(n=1, crash_seeds=(0,))[0])
    assert result["pool_worker"] is False


# --- streaming cache writes ------------------------------------------------ #


def test_pooled_cache_writes_are_incremental(tmp_path, monkeypatch):
    """Every completed task is cached before the sweep finishes.

    Intercept RunCache.put to record how many results were already
    cached when the *last* write happened: with the old all-or-nothing
    barrier this was always "all at once at the end"; streaming means
    the first write happens while other tasks are still outstanding.
    """
    cache = RunCache(root=str(tmp_path))
    order = []
    real_put = RunCache.put

    def recording_put(self, task, result):
        order.append(task.seed)
        return real_put(self, task, result)

    monkeypatch.setattr(RunCache, "put", recording_put)
    run_many(probe_tasks(8), jobs=2, cache=cache)
    assert sorted(order) == list(range(8))
    # Streaming consumption: completion order, not necessarily task
    # order, and every single task got its own immediate write.
    assert len(order) == 8


def test_cache_prune_tmp(tmp_path):
    cache = RunCache(root=str(tmp_path))
    cache.put(RunTask("exec_probe", {}, seed=1), {"ok": True})
    kind_dir = next(tmp_path.iterdir())
    stale = kind_dir / "deadbeef.tmp"
    stale.write_text("{ torn")
    old = os.stat(stale)
    os.utime(stale, (old.st_atime - 7200, old.st_mtime - 7200))
    fresh = kind_dir / "cafef00d.tmp"
    fresh.write_text("{ in-flight")

    assert cache.prune_tmp() == 1
    assert not stale.exists()
    assert fresh.exists()  # younger than the age guard: left alone
    assert len(cache) == 1


# --- metrics transport ----------------------------------------------------- #


def test_pooled_results_keep_metrics_key(tmp_path):
    """Pooled payloads come home whole: metrics in results and cache."""
    cache = RunCache(root=str(tmp_path))
    results = run_many(probe_tasks(6), jobs=2, cache=cache)
    assert all("metrics" in r for r in results)
    # The cached payloads embed the same snapshots (format unchanged).
    entry_files = list(tmp_path.glob("*/*.json"))
    assert len(entry_files) == 6
    payload = json.loads(entry_files[0].read_text())
    assert "metrics" in payload["result"]


ALG1_PARAMS = {
    "graph": {"kind": "chain", "n": 5},
    "quorum": {"kind": "probabilistic", "n": 6, "k": 2},
    "delay": {"kind": "exponential", "mean": 1.0},
    "monotone": True,
    "max_rounds": 60,
}


def _aggregate(tasks, jobs):
    """The sweep's results and its merged metrics registry, as bytes."""
    session = Observability(MetricsRegistry())
    with obs_runtime.session(session):
        results = run_many(tasks, jobs=jobs)
    return results, session.metrics.snapshot_bytes()


@pytest.mark.parametrize("kind,params", [
    ("alg1", ALG1_PARAMS),
    ("exec_probe", {"spin": 100}),
])
def test_pooled_metrics_byte_identical_to_serial(kind, params):
    """The pool's metrics guarantee, asserted at the byte level.

    Histogram float sums make this non-trivial: only task-order folding
    reproduces serial rounding, which is what the engine does with the
    snapshots the payloads bring home.
    """
    tasks = [RunTask(kind, dict(params), seed=seed) for seed in range(6)]
    serial_results, serial_bytes = _aggregate(tasks, jobs=1)
    pooled_results, pooled_bytes = _aggregate(tasks, jobs=3)
    if kind == "alg1":
        assert serial_results == pooled_results
    assert serial_bytes == pooled_bytes
    assert b"instruments" in serial_bytes


def test_pooled_metrics_byte_identical_for_large_snapshots():
    """Snapshots over 16 KiB (the old shared-memory slot) come home
    whole and merge exactly as serial ones do."""
    tasks = [
        RunTask("exec_probe", {"series": 1200}, seed=seed) for seed in range(4)
    ]
    serial_results, serial_bytes = _aggregate(tasks, jobs=1)
    pooled_results, pooled_bytes = _aggregate(tasks, jobs=2)
    sizes = [
        len(json.dumps(r["metrics"], separators=(",", ":")))
        for r in pooled_results
    ]
    assert min(sizes) > 16 * 1024
    assert [r["metrics"] for r in pooled_results] == \
        [r["metrics"] for r in serial_results]
    assert serial_bytes == pooled_bytes


def test_crashed_sweep_merges_metrics_in_task_order(capsys):
    """A sweep that loses a worker mid-way still folds every snapshot in
    task order: its merged registry is byte-identical to serial."""
    tasks = crash_sweep_tasks()
    _, serial_bytes = _aggregate(tasks, jobs=1)
    pooled, pooled_bytes = _aggregate(tasks, jobs=2)
    assert "worker process died mid-sweep" in capsys.readouterr().err
    assert pooled[3]["pool_worker"] is False
    assert serial_bytes == pooled_bytes
    assert b"repro_exec_selftest_seed" in pooled_bytes
