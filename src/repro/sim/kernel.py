"""Kernel backend selection: pure-python reference vs compiled native.

The simulation hot path (event heap, drain loop, the per-message network
path, the register protocol handlers) exists twice: the always-available
pure-python reference in :mod:`repro.sim.scheduler` /
:mod:`repro.sim.metrics` / :mod:`repro.sim.network` /
:mod:`repro.registers`, and an optional C extension under
:mod:`repro._native` — a scheduler core, a stats core, one network core
and the two protocol cores.  Both produce **byte-identical**
traces — every RNG draw consumes the same stream in the same order (the
draws made in C reproduce numpy's algorithms bit for bit), and the
native heap preserves the exact ``(time, seq)`` total order — so the
backend is a pure speed knob, never a semantics knob.

Selection, in priority order:

1. an explicit ``backend=`` argument to the factories below,
2. a process-wide override installed by :func:`select_backend`
   (the CLI's ``--kernel`` flag lands here),
3. the ``REPRO_KERNEL`` environment variable,
4. default: ``python``.

Requesting ``native`` when the extension is not built falls back to
pure python with a one-line warning on stderr (once per process) — a
toolchain-less machine must keep working.
"""

import os
import sys
from typing import Optional

from repro.sim.metrics import MessageStats
from repro.sim.scheduler import Scheduler

KERNEL_ENV = "REPRO_KERNEL"
BACKENDS = ("python", "native")

_override: Optional[str] = None
_warned_fallback = False


def _normalize(backend: str) -> str:
    name = backend.strip().lower()
    if name not in BACKENDS:
        raise ValueError(
            f"unknown kernel backend {backend!r}; expected one of {BACKENDS}"
        )
    return name


def native_available() -> bool:
    """True iff the compiled kernel extension imports."""
    from repro._native import load_kernel

    return load_kernel() is not None


def native_import_error() -> Optional[str]:
    """Why the native kernel is unavailable (None when it loaded)."""
    from repro._native import import_error

    return import_error()


def select_backend(backend: Optional[str]) -> None:
    """Install a process-wide backend override (None clears it)."""
    global _override
    _override = None if backend is None else _normalize(backend)


def sync_worker_backend(backend: str) -> bool:
    """Align a (warm pool) worker with the parent's requested backend.

    Pool workers select their backend once, at pool creation; because the
    pool now outlives individual sweeps, a later ``--kernel`` /
    :func:`select_backend` change in the parent would otherwise leave warm
    workers silently running the old backend.  Every dispatched chunk
    carries the parent's :func:`requested_backend` and calls this before
    executing; the override is a single global write and the backend is
    consulted lazily per simulation, so re-syncing costs nothing when
    nothing changed.  Returns True when the worker actually switched.

    (Results are byte-identical across backends either way — this keeps
    the *speed* choice honest, it can never change a number.)
    """
    if requested_backend() == _normalize(backend):
        return False
    select_backend(backend)
    return True


def requested_backend() -> str:
    """The backend asked for, before availability is considered."""
    if _override is not None:
        return _override
    env = os.environ.get(KERNEL_ENV)
    if env:
        return _normalize(env)
    return "python"


def selected_backend() -> str:
    """The backend that will actually be used.

    Resolves ``native`` down to ``python`` (warning once) when the
    extension is not importable.
    """
    requested = requested_backend()
    if requested == "native" and not native_available():
        global _warned_fallback
        if not _warned_fallback:
            _warned_fallback = True
            print(
                "repro: native kernel unavailable "
                f"({native_import_error()}); falling back to pure-python "
                "backend",
                file=sys.stderr,
            )
        return "python"
    return requested


def make_scheduler(backend: Optional[str] = None):
    """Build a scheduler on the selected (or given) backend."""
    resolved = selected_backend() if backend is None else _resolve(backend)
    if resolved == "native":
        from repro._native.wrapper import NativeScheduler

        return NativeScheduler()
    return Scheduler()


def make_message_stats(detailed: bool = True, backend: Optional[str] = None):
    """Build message stats on the selected (or given) backend.

    Detailed (per-kind/per-node) collection is a pure-python feature on
    both backends — the native scalar counters only replace the
    ``detailed=False`` totals path, which is the only mode the hot
    benchmarks and large sweeps run in.
    """
    resolved = selected_backend() if backend is None else _resolve(backend)
    if resolved == "native" and not detailed:
        from repro._native.wrapper import NativeMessageStats

        return NativeMessageStats(detailed=False)
    return MessageStats(detailed=detailed)


def make_network_core(network):
    """Build the native message path of ``network``, or None.

    One C object whose ``send``, ``broadcast`` and ``_deliver`` methods
    have the exact semantics of the :class:`~repro.sim.network.Network`
    methods of the same names; the network installs them as instance
    attributes, so trace taps that wrap ``network._deliver`` keep working
    on both backends.  ``send`` is the one per-message pipeline (stats,
    taps, loss draw, fault check, adversary, delay sample, heap push) —
    the loss draw and the fault check evaluated in C for an exact
    ``numpy.random.Generator`` and ``FailureInjector``, the adversary's
    ``intercept`` the one Python call;
    ``broadcast`` runs a tight loop of native delay draws on a healthy
    network with a built-in delay model and that same pipeline per
    destination otherwise — it never calls back into the Python
    ``broadcast``.  Only built when the network's scheduler is itself
    native, so delivery events are pushed straight into the C heap.
    """
    if selected_backend() != "native":
        return None
    from repro._native import load_kernel

    module = load_kernel()
    if not isinstance(network.scheduler, module.SchedulerCore):
        return None
    return module.NetworkCore(network)


def native_quorum_sampler():
    """The native ``choice(n, size=k, replace=False)`` sampler, or None.

    Only available when the extension was linked against numpy's C
    random library (``HAVE_FAST_RNG``).  The sampler draws from the
    Generator's own bit stream with numpy's exact algorithm, so its
    output — and the Generator state it leaves behind — is
    bit-identical to ``rng.choice``; backends can therefore be mixed
    freely without perturbing any trace.
    """
    if selected_backend() != "native":
        return None
    from repro._native import load_kernel

    module = load_kernel()
    if not getattr(module, "HAVE_FAST_RNG", 0):
        return None
    return module.quorum_sample


def make_server_core(server):
    """Build the native server-protocol fast path, or None.

    A C transcription of ``ReplicaServer.on_message`` (replica probe,
    timestamp compare, install-or-ignore, reply send), installed as the
    server's ``on_message`` instance attribute.  Gated on the *exact*
    ``ReplicaServer`` type — subclasses (Byzantine replicas, chaos
    mutants) override the handler and must keep their Python semantics —
    and on a native scheduler, so replies push straight into the C heap.
    Loss, faults, taps, an adversary and detailed stats are the network
    core's business (the reply goes through its ``send``), never a reason
    to leave C here.  The view gate (retired-ignore, stale-view nack)
    runs in C against the server's current ``view_state``; what takes the
    Python handler is any message that is not an exact ``ReadQuery`` /
    ``WriteUpdate`` — the ``State*`` transfer messages, subclasses.
    """
    if selected_backend() != "native":
        return None
    from repro._native import load_kernel
    from repro.registers.server import ReplicaServer

    module = load_kernel()
    if type(server) is not ReplicaServer:
        return None
    if not isinstance(server.network.scheduler, module.SchedulerCore):
        return None
    return module.ServerCore(server)


#: The client methods the native client core also provides; the
#: deployment installs each as an instance attribute beside
#: ``on_message``.
CLIENT_ISSUE_METHODS = ("read", "write", "_begin", "_send_round", "_retry")


def make_client_core(client):
    """Build the native client fast path, or None.

    One C object per client whose class overrides no method of
    :class:`~repro.registers.client.QuorumRegisterClient` (a constructor
    adding state is fine): such a class differs only in data — its round
    plans, ``READ_PLAN`` / ``WRITE_PLAN``, which the core reads once, here,
    and interprets as the Python methods do.  Every shipped flavour
    (plain, monotone, masking, multi-writer, ABD) therefore runs in C; a
    class that overrides a method (the chaos mutant's ``_choose``) keeps
    its Python handlers.  The core covers both halves of an operation:

    * **Message handling** — called as ``on_message``: ``on_message``
      plus ``_finish`` — the round's decision (``_choose``; a masking
      round's ``_vouched`` is the one Python call), then the plan's next
      round or the completion (``_settle``, the spec monitor's hooks, the
      live latency histogram) — and, for a ``StaleViewNack``,
      ``_redispatch``.  Per delivery, an op-level span or a message that
      is not an exact ``ReadReply`` / ``WriteAck`` / ``StaleViewNack``
      takes the Python handler; a view refresh calls the Python
      ``_refresh_view`` only when the manager's newest view is not the
      client's.
    * **Issue and retry** — the methods named in
      :data:`CLIENT_ISSUE_METHODS`: history record, ``Future`` and
      ``_PendingOp``, quorum draw, message build, the network core's
      broadcast, retry/deadline timers in the C heap and the retry
      timer's resample.  The C ``quorum_sample`` draws for a static
      ``ProbabilisticQuorumSystem`` and every membership view, one call to
      the Python ``_sample_quorum`` for any other system; an exact
      ``RetryPolicy``'s delay is computed in C.  Every stream is consumed
      draw for draw as on the python backend.  Span tracing and keyword
      calls take the Python methods, the reference definition; so do
      ``_give_up`` and ``_expire``.
    """
    if selected_backend() != "native":
        return None
    from repro._native import load_kernel
    from repro.registers.client import QuorumRegisterClient

    module = load_kernel()
    cls = type(client)
    if not isinstance(client, QuorumRegisterClient) or any(
        getattr(cls, name) is not method
        for name, method in vars(QuorumRegisterClient).items()
        if callable(method) and name != "__init__"
    ):
        return None
    if not isinstance(client.network.scheduler, module.SchedulerCore):
        return None
    return module.ClientCore(client)


def _resolve(backend: str) -> str:
    resolved = _normalize(backend)
    if resolved == "native" and not native_available():
        raise RuntimeError(
            f"native kernel backend requested explicitly but unavailable: "
            f"{native_import_error()}"
        )
    return resolved


def kernel_info() -> dict:
    """Diagnostics: requested/selected backends and native status."""
    return {
        "requested": requested_backend(),
        "selected": selected_backend(),
        "native_available": native_available(),
        "native_import_error": native_import_error(),
        "env": os.environ.get(KERNEL_ENV),
    }


class use_backend:
    """Context manager forcing a backend (tests compare both in-process).

    .. code-block:: python

        with use_backend("native"):
            deployment = RegisterDeployment.build(...)
    """

    def __init__(self, backend: Optional[str]) -> None:
        self._backend = backend
        self._previous: Optional[str] = None

    def __enter__(self):
        self._previous = _override
        select_backend(self._backend)
        return self

    def __exit__(self, *exc_info) -> None:
        global _override
        _override = self._previous
        return None
