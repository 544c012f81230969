"""Layer probes: untraced timed loops straight into each layer's public API.

Workload-independent.  Each probe is one tight loop over one layer's
entry point, reported as operations per host second (median of
``REPEATS`` runs), so a change to a single layer shows here before it
shows — diluted by that layer's share — in an end-to-end number.  Probes
named with a ``{backend}`` suffix run under both kernel backends; the
rest never reach the kernel and run once.
"""

import gc
import statistics
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict

import numpy as np

from repro.exec import RunCache, RunTask, run_many
from repro.obs.quantiles import StreamingQuantiles
from repro.obs.registry import MetricsRegistry
from repro.obs.shm import SnapshotArena
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.registers.deployment import RegisterDeployment
from repro.registers.messages import ReadQuery
from repro.service.runner import ServiceConfig, run_service
from repro.sim import kernel
from repro.sim.delays import ExponentialDelay
from repro.sim.futures import Future
from repro.sim.network import Network, Node

REPEATS = 5
BACKENDS = ("python", "native")
#: Where the cache probes write: inside the checkout, ignored by git.
SCRATCH = Path(__file__).resolve().parent / "output"

#: The serve workloads' deployment shape.
NUM_SERVERS, QUORUM_SIZE, NUM_CLIENTS = 16, 5, 4


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise RuntimeError(f"layer probe failed its own check: {message}")


def _rate(count: int, body: Callable[[], None]) -> float:
    started = time.perf_counter()
    body()
    return count / (time.perf_counter() - started)


def scheduler_events(n: int) -> float:
    """Schedule/cancel/run churn: 64 self-rescheduling chains, every
    third firing also schedules and cancels a decoy (the retry timer)."""
    scheduler = kernel.make_scheduler()
    delays = (np.random.default_rng(1234).random(1024) * 2.0 + 0.01).tolist()
    fired = [0]

    def fire() -> None:
        count = fired[0]
        if count >= n:
            return
        fired[0] = count + 1
        scheduler.schedule(delays[count % 1024], fire)
        if count % 3 == 0:
            scheduler.schedule(delays[(count + 7) % 1024], fire).cancel()

    def body() -> None:
        for _ in range(64):
            fire()
        scheduler.run()

    rate = _rate(n, body)
    _expect(scheduler.events_processed >= n, "scheduler probe lost events")
    return rate


def network_broadcast(n: int) -> float:
    """k=5 of 16 broadcasts to null nodes, drained every 100 broadcasts."""
    scheduler = kernel.make_scheduler()
    network = Network(
        scheduler, ExponentialDelay(1.0), np.random.default_rng(7),
        detailed_stats=False,
    )
    source = network.add_node(Node())
    servers = [network.add_node(Node()) for _ in range(NUM_SERVERS)]
    quorums = [
        [servers[(start + step) % NUM_SERVERS] for step in range(QUORUM_SIZE)]
        for start in range(NUM_SERVERS)
    ]
    message = ReadQuery("r0", 1)

    def body() -> None:
        for index in range(n):
            network.broadcast(source, quorums[index % NUM_SERVERS], message)
            if index % 100 == 99:
                scheduler.run()
        scheduler.run()

    rate = _rate(n * QUORUM_SIZE, body)
    _expect(network.stats.delivered == n * QUORUM_SIZE,
            "broadcast probe lost deliveries")
    return rate


def _deployment() -> RegisterDeployment:
    deployment = RegisterDeployment(
        ProbabilisticQuorumSystem(NUM_SERVERS, QUORUM_SIZE),
        num_clients=NUM_CLIENTS,
        delay_model=ExponentialDelay(1.0),
        seed=7,
        record_history=False,
        detailed_stats=False,
    )
    for client_id in range(NUM_CLIENTS):
        deployment.declare_register(f"r{client_id}", writer=client_id)
    return deployment


def quorum_samples(n: int) -> float:
    """One probe, not one per backend: the first native deployment
    installs the C sampler on the class, and from then on the python
    backend draws through it too (README, findings)."""
    with kernel.use_backend("native"):
        system = _deployment().quorum_system
    rng = np.random.default_rng(11)

    def body() -> None:
        for _ in range(n):
            system.quorum(rng)

    return _rate(n, body)


def _register_rounds(n: int, write: bool) -> float:
    """Closed loop: each client keeps one operation in flight."""
    deployment = _deployment()
    started = [0]

    def issue(client_id: int) -> None:
        count = started[0]
        if count >= n:
            return
        started[0] = count + 1
        client = deployment.clients[client_id]
        register = f"r{client_id}"
        future = client.write(register, count) if write else client.read(register)
        future.add_callback(lambda _future: issue(client_id))

    def body() -> None:
        for client_id in range(NUM_CLIENTS):
            issue(client_id)
        deployment.run()

    rate = _rate(n, body)
    _expect(sum(client.ops_completed for client in deployment.clients) == n,
            "register probe left operations unfinished")
    return rate


def register_reads(n: int) -> float:
    return _register_rounds(n, write=False)


def register_writes(n: int) -> float:
    return _register_rounds(n, write=True)


def delay_draws(n: int) -> float:
    model = ExponentialDelay(1.0)
    rng = np.random.default_rng(3)
    dsts = list(range(1, QUORUM_SIZE + 1))

    def body() -> None:
        for _ in range(n):
            model.sample_batch(rng, 0, dsts)

    return _rate(n * QUORUM_SIZE, body)


def future_resolves(n: int) -> float:
    sink = []

    def body() -> None:
        for index in range(n):
            future = Future()
            future.add_callback(sink.append)
            future.resolve(index)

    rate = _rate(n, body)
    _expect(len(sink) == n, "future probe lost callbacks")
    return rate


def _latencies(n: int) -> list:
    return np.random.default_rng(5).exponential(4.0, n).tolist()


def quantile_observes(n: int) -> float:
    stream = StreamingQuantiles()
    values = _latencies(n)

    def body() -> None:
        for value in values:
            stream.observe(value)

    return _rate(n, body)


def histogram_observes(n: int) -> float:
    series = MetricsRegistry().histogram(
        "probe_latency", "probe", labelnames=("kind",)
    ).labels("read")
    values = _latencies(n)

    def body() -> None:
        for value in values:
            series.observe(value)

    return _rate(n, body)


def snapshot_bytes(n: int) -> float:
    """Canonical snapshot encoding of a real (short serve run) registry."""
    registry = MetricsRegistry()
    registry.merge_snapshot(run_service(ServiceConfig(duration=20.0)).snapshot)
    size = len(registry.snapshot_bytes())

    def body() -> None:
        for _ in range(n):
            registry.snapshot_bytes()

    return _rate(n * size, body)


def shm_roundtrips(n: int) -> float:
    arena = SnapshotArena.create(64)
    data = bytes(2048)
    try:
        def body() -> None:
            for index in range(n):
                slot = index % 64
                arena.write(slot, data)
                arena.read(slot)

        return _rate(n, body)
    finally:
        arena.close()
        arena.unlink()


def _tiny_tasks(n: int) -> list:
    return [RunTask("exec_probe", {}, seed=index) for index in range(n)]


def engine_serial(n: int) -> float:
    tasks = _tiny_tasks(n)
    return _rate(n, lambda: run_many(tasks, jobs=1, cache=None))


def engine_pooled(n: int) -> float:
    tasks = _tiny_tasks(n)
    run_many(tasks[:8], jobs=2, cache=None)  # the pool is warm before timing
    return _rate(n, lambda: run_many(tasks, jobs=2, cache=None))


def _cache_probe(n: int, time_hits: bool) -> float:
    tasks = _tiny_tasks(n)
    payloads = run_many(tasks, jobs=1, cache=None)
    with tempfile.TemporaryDirectory(prefix="probe-cache-", dir=SCRATCH) as root:
        cache = RunCache(root)

        def puts() -> None:
            for task, payload in zip(tasks, payloads):
                cache.put(task, payload)

        def gets() -> None:
            for task in tasks:
                cache.get(task)

        if not time_hits:
            return _rate(n, puts)
        puts()
        rate = _rate(n, gets)
        _expect(cache.hits == n, "cache probe missed")
        return rate


def cache_puts(n: int) -> float:
    return _cache_probe(n, time_hits=False)


def cache_hits(n: int) -> float:
    return _cache_probe(n, time_hits=True)


#: name -> (probe, loop length); ``{backend}`` names run on both backends.
PROBES = {
    "probe.sim.scheduler.events_per_s.{backend}": (scheduler_events, 30_000),
    "probe.sim.network.broadcast_msgs_per_s.{backend}": (network_broadcast, 4_000),
    "probe.registers.read_rounds_per_s.{backend}": (register_reads, 1_500),
    "probe.registers.write_rounds_per_s.{backend}": (register_writes, 1_500),
    "probe.quorum.samples_per_s": (quorum_samples, 20_000),
    "probe.sim.delays.batch_draws_per_s": (delay_draws, 10_000),
    "probe.sim.futures.resolves_per_s": (future_resolves, 50_000),
    "probe.obs.quantiles.observes_per_s": (quantile_observes, 20_000),
    "probe.obs.registry.hist_observes_per_s": (histogram_observes, 50_000),
    "probe.obs.registry.snapshot_bytes_per_s": (snapshot_bytes, 100),
    "probe.obs.shm.roundtrips_per_s": (shm_roundtrips, 20_000),
    "probe.exec.engine.serial_tasks_per_s": (engine_serial, 1_000),
    "probe.exec.engine.pooled_tasks_per_s": (engine_pooled, 1_000),
    "probe.exec.cache.puts_per_s": (cache_puts, 300),
    "probe.exec.cache.hits_per_s": (cache_hits, 300),
}


def probe_names() -> list:
    """Every metric name ``run_probes`` emits."""
    return [
        name.format(backend=backend)
        for name in PROBES
        for backend in (BACKENDS if "{backend}" in name else ("",))
    ]


def run_probes(quick: bool) -> Dict[str, float]:
    """Every probe metric, by its BENCHMARK.json name: the median of
    ``REPEATS`` samples, the backends interleaved inside every repeat."""
    repeats = 2 if quick else REPEATS
    out: Dict[str, float] = {}
    for name, (probe, n) in PROBES.items():
        n = max(8, n // 10) if quick else n
        backends = BACKENDS if "{backend}" in name else ("native",)
        samples: Dict[str, list] = {backend: [] for backend in backends}
        for _ in range(repeats):
            for backend in backends:
                gc.collect()
                with kernel.use_backend(backend):
                    samples[backend].append(probe(n))
        for backend in backends:
            out[name.format(backend=backend)] = statistics.median(samples[backend])
    return out
