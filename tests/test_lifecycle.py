"""A finished run is freed by reference counting, on both kernels.

Events create no cyclic garbage, the owner of a run closes it
(``RegisterDeployment.close``) and the cyclic collector is held off while
the scheduler runs (``RegisterDeployment.run``).  Each run below is made
with automatic collection off and ``gc.DEBUG_SAVEALL`` on, so that a
``gc.collect()`` afterwards returns everything that became cyclic garbage
during the run or at its end — which must hold no object of a ``repro``
type, and must not grow with the length of the run.
"""

import gc
import sys
from traceback import extract_tb

import pytest

from repro.exec import RunTask
from repro.exec.workers import run_alg1_task
from repro.quorum.probabilistic import ProbabilisticQuorumSystem
from repro.registers.deployment import RegisterDeployment
from repro.service.runner import ServiceConfig, run_service
from repro.sim.coroutines import Sleep, spawn
from repro.sim.futures import Future


def cyclic_garbage(run):
    """``run()``'s result and the objects it left as cyclic garbage."""
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = run()
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    return result, garbage


def repro_types(garbage):
    return sorted({
        f"{type(obj).__module__}.{type(obj).__qualname__}"
        for obj in garbage
        if type(obj).__module__.startswith("repro")
    })


def figure2_task(max_rounds):
    """One Figure 2 run: non-monotone, synchronous, no faults."""
    return RunTask("alg1", {
        "graph": {"kind": "chain", "n": 12},
        "quorum": {"kind": "probabilistic", "n": 12, "k": 2},
        "delay": {"kind": "constant", "mean": 1.0},
        "monotone": False,
        "max_rounds": max_rounds,
    }, 2198431075862790966)


def chaos_task(max_sim_time):
    """One chaos run: deadlines, loss, a partition, an adversary, two
    joiners and the online spec monitor.  Its deadlines throw
    OperationTimeouts into the processes."""
    return RunTask("alg1", {
        "graph": {"kind": "chain", "n": 6},
        "quorum": {"kind": "probabilistic", "n": 6, "k": 3},
        "delay": {"kind": "exponential", "mean": 1.089},
        "monotone": True,
        "max_rounds": 20,
        "max_sim_time": max_sim_time,
        "check_spec_online": True,
        "retry": {"interval": 1.209, "backoff": 2.0, "jitter": 0.1,
                  "deadline": 38.291},
        "loss_rate": 0.043,
        "faults": {"kind": "schedule", "events": [
            {"time": 10.26, "action": "partition",
             "groups": [[0, 1, 2], [3, 4, 5]]},
            {"time": 17.101, "action": "heal"},
        ]},
        "adversary": {"kind": "partition_oscillator", "duty": 0.373},
        "membership": {"kind": "schedule", "events": [
            {"time": 44.815, "action": "join", "nodes": [6, 7]},
        ]},
    }, 8748526479584655099)


def collection_passes(run, inside):
    """``run()``'s result and the generations of the collection passes
    that started, from empty generations, while a function named
    ``inside`` was on the stack."""
    passes = []

    def count(phase, info):
        frame = sys._getframe()
        while frame is not None and frame.f_code.co_name != inside:
            frame = frame.f_back
        if phase == "start" and frame is not None:
            passes.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        result = run()
    finally:
        gc.callbacks.remove(count)
    return result, passes


def churned_service(duration):
    return ServiceConfig(
        seed=7, duration=duration,
        membership={"kind": "churn", "period": 6.25, "batch": 1},
    )


def test_a_figure2_run_leaves_no_cyclic_garbage(kernel_backend):
    run_alg1_task(figure2_task(3))  # warm: first-use imports and caches
    short, short_garbage = cyclic_garbage(
        lambda: run_alg1_task(figure2_task(3))
    )
    long, long_garbage = cyclic_garbage(
        lambda: run_alg1_task(figure2_task(60))
    )
    assert short["rounds"] < long["rounds"]
    assert repro_types(short_garbage) == repro_types(long_garbage) == []
    assert len(long_garbage) <= len(short_garbage)


def test_a_chaos_run_leaves_no_cyclic_garbage(kernel_backend):
    run_alg1_task(chaos_task(20.0))
    short, short_garbage = cyclic_garbage(
        lambda: run_alg1_task(chaos_task(20.0))
    )
    long, long_garbage = cyclic_garbage(
        lambda: run_alg1_task(chaos_task(80.0))
    )
    assert long["timeouts"] > 0 and long["membership"]["joins"] > 0
    assert long["adversary"]["messages_seen"] > 0
    assert long["spec_violation"] is None
    assert short["sim_time"] < long["sim_time"]
    assert repro_types(short_garbage) == repro_types(long_garbage) == []
    assert len(long_garbage) <= len(short_garbage)


def test_a_churned_service_run_leaves_no_cyclic_garbage(kernel_backend):
    run_service(churned_service(20.0))
    short, short_garbage = cyclic_garbage(
        lambda: run_service(churned_service(20.0))
    )
    long, long_garbage = cyclic_garbage(
        lambda: run_service(churned_service(80.0))
    )
    assert long.membership["views_installed"] > 1
    assert short.events < long.events
    assert repro_types(short_garbage) == repro_types(long_garbage) == []
    assert len(long_garbage) <= len(short_garbage)


def test_an_exception_in_a_process_leaves_no_cycle(kernel_backend):
    deployment = RegisterDeployment(ProbabilisticQuorumSystem(3, 2), 1)
    caught = []

    def catching(gate):
        # The frame holds the future, which holds the exception thrown in.
        waiting = [gate]
        try:
            yield waiting[0]
        except RuntimeError as error:
            caught.append(str(error))
        yield Sleep(1.0)

    def raising():
        # Escaping, the exception's traceback holds the frame that resumed
        # the generator.
        yield Sleep(1.0)
        raise ValueError("own")

    def uncaught(gate):
        # Thrown in and escaping: the frame holds the future again.
        waiting = [gate]
        yield waiting[0]

    def run():
        gate, lost = Future("gate"), Future("lost")
        spawn(deployment.scheduler, catching(gate), label="catching")
        deployment.scheduler.schedule(1.0, gate.fail, RuntimeError("late"))
        failed = spawn(deployment.scheduler, raising(), label="raising")
        thrown = spawn(deployment.scheduler, uncaught(lost), label="uncaught")
        deployment.scheduler.schedule(1.0, lost.fail, KeyError("lost"))
        deployment.run()
        return [
            (type(future.exception),
             [entry.name for entry in extract_tb(future.exception.__traceback__)])
            for future in (failed, thrown)
        ]

    escaped, garbage = cyclic_garbage(run)
    assert caught == ["late"]
    # An escaping exception keeps the generator's traceback entries.
    assert escaped == [(ValueError, ["raising"]), (KeyError, ["uncaught"])]
    assert garbage == []


def deployment_with(callback):
    deployment = RegisterDeployment(ProbabilisticQuorumSystem(3, 2), 1)
    deployment.scheduler.schedule(1.0, callback)
    return deployment


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_run_holds_the_collector_off_and_restores_it(kernel_backend, enabled):
    seen = []
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        deployment_with(lambda: seen.append(gc.isenabled())).run()
        assert gc.isenabled() is enabled

        def boom():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            deployment_with(boom).run()
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]


def test_close_empties_the_deployment_once(kernel_backend):
    deployment = RegisterDeployment(ProbabilisticQuorumSystem(4, 2), 2)
    deployment.declare_register("X", writer=0, initial_value=0)
    scheduler, network = deployment.scheduler, deployment.network
    future = deployment.clients[0].read("X")
    settled = []
    future.add_callback(settled.append)
    deployment.close()
    deployment.close()
    assert scheduler.pending == 0 and scheduler.run() == 0.0
    assert network._nodes == {}
    assert vars(deployment) == {}
    assert not future.done and settled == []


def test_clear_drops_every_event_unrun(scheduler):
    fired = []
    handle = scheduler.schedule(1.0, fired.append, "handle")
    scheduler.schedule_uncancellable(2.0, fired.append, "plain")
    chain = scheduler.schedule_repeating(1.0, fired.append, "chain")
    scheduler.clear()
    assert scheduler.pending == 0 and scheduler._queue == []
    handle.cancel()
    chain.cancel()
    assert scheduler.pending == 0
    scheduler.schedule(1.0, fired.append, "after")
    assert scheduler.pending == 1
    scheduler.run()
    assert fired == ["after"]


def test_no_collection_pass_runs_inside_a_task(kernel_backend):
    """``run_alg1_task`` holds the cyclic collector off from building the
    run to closing it, and gives the caller back its own setting, also
    when the task raises."""
    task = chaos_task(80.0)
    run_alg1_task(task)
    assert gc.isenabled()
    # The payload's metrics snapshot outlives the task, so a pass may
    # start once the setting is restored; none runs inside the body.
    payload, passes = collection_passes(
        lambda: run_alg1_task(task), inside="_alg1_payload"
    )
    assert payload["spec_violation"] is None
    assert passes == []
    assert gc.isenabled()
    gc.disable()
    try:
        run_alg1_task(task)
        assert not gc.isenabled()
    finally:
        gc.enable()
    broken = RunTask("alg1", dict(task.params, graph={"kind": "nope"}), 1)
    with pytest.raises(ValueError):
        run_alg1_task(broken)
    assert gc.isenabled()
