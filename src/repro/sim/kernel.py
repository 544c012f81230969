"""Kernel backend selection: pure-python reference vs compiled native.

The simulation hot path (event heap, drain loop, the per-message network
path, the register protocol handlers) exists twice: the always-available
pure-python reference in :mod:`repro.sim.scheduler` /
:mod:`repro.sim.network` / :mod:`repro.registers`, and an optional C
extension under :mod:`repro._native` — a scheduler core, one network core
and the two protocol cores.  Message accounting exists once: both
backends count into the same :class:`~repro.sim.metrics.MessageStats`,
whose scalar totals the native network core bumps in place without a
call.  Both produce **byte-identical**
traces — every RNG draw consumes the same stream in the same order (the
draws made in C reproduce numpy's algorithms bit for bit), and the
native heap preserves the exact ``(time, seq)`` total order — so the
backend is a pure speed knob, never a semantics knob.

Selection, in priority order (the factories below take no backend
argument; they all follow this one choice):

1. a process-wide override installed by :func:`select_backend`
   (the CLI's ``--kernel`` flag lands here),
2. the ``REPRO_KERNEL`` environment variable,
3. default: ``python``.

Requesting ``native`` when the extension is not built falls back to
pure python with a one-line warning on stderr (once per process) — a
toolchain-less machine must keep working.

Wired once: a native core binds the configuration of the object it
stands in for when it is built — the factories below run as the
deployment is assembled, after which nothing reassigns that
configuration — and reads live only what changes during a run (the
clock, fault and partition state, membership views, pending
operations).  One rule decides which objects get a core: an exact
scalar configuration gets one, and anything else runs the Python
reference whole, for its whole life.  The network gets a core only for
an exact scalar-mode ``MessageStats`` and an exact ``FailureInjector``;
a client only with an exact ``RetryPolicy`` (or none), no span tracing
and a class that overrides no method.  No core calls back into Python
per message to stand in for a configuration it does not transcribe.

Bound by slot: every object attribute a core reads per message or per
operation is a ``__slots__`` member of its Python class, and every counter
it bumps an int64 field of the class's counter base
(:func:`repro.sim.metrics.counter_type`), whose offset the core resolves
once, when it is built, and reads or bumps directly after that — no
by-name lookup, and a bump allocates nothing.  A class that shadows such a
slot or field (a property, an object slot of the same name) is refused
with a TypeError when the core is built.  Only ``network._deliver`` and
each node's ``on_message`` stay by name, because trace taps and tests
replace them mid-run.  Python code bumps those counters with the base's
C ``add`` method, which the interpreter specializes.
"""

import os
import sys
from typing import Optional

from repro.sim.failures import FailureInjector
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


def make_scheduler():
    """Build a scheduler on the selected backend."""
    if selected_backend() == "native":
        from repro._native.wrapper import NativeScheduler

        return NativeScheduler()
    return Scheduler()


def make_network_core(network):
    """Build the native message path of ``network``, or None.

    One C object whose ``send``, ``broadcast`` and ``_deliver`` methods
    have the exact semantics of the :class:`~repro.sim.network.Network`
    methods of the same names; the network installs them as instance
    attributes, so trace taps that wrap ``network._deliver`` keep working
    on both backends.  ``send`` is the one per-message pipeline (stats,
    taps, loss draw, fault check, adversary, delay sample, heap push) —
    the ``MessageStats`` totals bumped in place in C, the fault check
    evaluated in C, the loss draw too for an exact
    ``numpy.random.Generator``, the adversary's ``intercept`` the one
    Python call;
    ``broadcast`` runs a tight loop of native delay draws on a healthy
    network with a built-in delay model and that same pipeline per
    destination otherwise — it never calls back into the Python
    ``broadcast``.  Built from the network's constructor, it binds the
    delay draw, loss rate and stream, adversary and the ``_taps`` list
    (by identity: ``add_tap`` still takes effect mid-run) once.  Read
    live: the injector's ``active``, crashed set and partition, by slot
    offset, and by name ``network._deliver`` and each node's
    ``on_message``.  Built only for an exact scalar-mode ``MessageStats``
    (a detailed one's breakdowns are Python's to collect) and an exact
    ``FailureInjector`` (a subclass may decide delivery otherwise), and
    only when the network's scheduler is itself native, so delivery
    events are pushed straight into the C heap.
    """
    if selected_backend() != "native":
        return None
    from repro._native import load_kernel

    module = load_kernel()
    if (
        not isinstance(network.scheduler, module.SchedulerCore)
        or type(network.stats) is not MessageStats
        or network.stats.detailed
        or type(network.failures) is not FailureInjector
    ):
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
    and on a native network core, which the server core holds and sends
    its replies through.
    Loss, faults, taps and an adversary are the network core's business
    (the reply goes through its ``send``), never a reason to leave C
    here.  The view gate (retired-ignore, stale-view nack)
    runs in C against the server's current ``view_state``, and so does a
    joiner's state transfer: a member answers a ``StateRequest`` with its
    sorted replica items, and the joiner merges a ``StateReply`` of its
    open transfer entry by entry (the newer timestamp wins), then calls
    ``ViewManager.on_transfer_reply`` — the one Python call per reply.
    What takes the Python handler is a message that is not an exact
    instance of one of the four kinds a server handles (a subclass, an
    unknown kind) or a ``StateReply`` whose entries are not a tuple.
    The server's counters (``reads_served``, ``writes_applied``,
    ``stale_updates_ignored``, ``stale_nacks_sent``,
    ``retired_messages_ignored``, ``unknown_messages_ignored``,
    ``state_requests_served``, ``state_entries_applied``: int64 fields of
    its counter base) are bumped in place, and its ``view_state`` — and
    that ``ServerViewState``'s ``retired``, ``retiring``, ``view_id``,
    ``transfer_id``, ``manager`` and ``index`` — read by slot offset.
    """
    if selected_backend() != "native":
        return None
    from repro._native import load_kernel
    from repro.registers.server import ReplicaServer

    module = load_kernel()
    if type(server) is not ReplicaServer:
        return None
    network_core = getattr(server.network.send, "__self__", None)
    if not isinstance(network_core, module.NetworkCore):
        return None
    return module.ServerCore(server)


#: The client methods the native client core also provides; the
#: deployment installs each as an instance attribute beside
#: ``on_message``.
CLIENT_ISSUE_METHODS = ("read", "write", "_retry")


def make_client_cores(clients):
    """Build the native client fast path of each client (None for one
    that gets none).

    One C object per client whose class overrides no method of
    :class:`~repro.registers.client.QuorumRegisterClient` (a constructor
    adding state is fine): such a class differs only in data — its round
    plans, ``READ_PLAN`` / ``WRITE_PLAN``, which the core reads once, here,
    and interprets as the Python methods do.  Every shipped flavour
    (plain, monotone, masking, multi-writer, ABD) therefore runs in C; a
    class that overrides a method (the chaos mutant's ``_choose``) keeps
    its Python handlers.  Eligibility is a property of the class, so it is
    decided once per class for the whole list, not per client.  A client
    with span tracing on (``client._spans`` not None, fixed when the
    client is built) gets no core either, nor one whose retry policy is
    not an exact ``RetryPolicy`` (a subclass may compute its delays
    otherwise): a client runs wholly in C or wholly in Python for its
    whole life.

    **Wired once.**  The core binds the client's configuration when it is
    built: the round plans, the retry policy (its four float fields) and
    jitter stream, the static quorum system (an exact
    ``ProbabilisticQuorumSystem``'s n and k) and quorum stream, the
    latency sketches and the spec monitor; under membership, each view's
    draw — its ``(n, k)``, ``members`` tuple and the bitgen of the
    client's view stream — once, when the client adopts the view (the
    ``_view`` / ``_view_rng`` slots change identity).  The clock, the
    pending ops, the fault state and the membership view are read live.
    By offset,
    not by name, the core bumps the client's counters in place
    (``reads_performed``, ``writes_performed``, ``cache_hits``,
    ``ops_completed``, ``ops_completed_under_failure``, ``retries``,
    ``stale_nacks``: int64 fields of its counter base), reads its
    membership state (``view_id``, ``_membership``,
    ``_view``, ``_view_rng``) and reads and updates its round-trip
    estimator (``_srtt``, ``_rttvar``, which the Python ``_settle``
    updates too when it settles one of the core's ops), a ``RegisterInfo``'s ``history`` and
    ``writer``, a ``Timestamp``'s ``seq`` and ``writer`` (compared
    without building tuples) and a latency sketch's ``_buckets`` and
    ``sum``.  Every op of the client is built by the core, with the C
    types ``PendingOp`` (the fields of ``_PendingOp``, as struct members)
    and ``Future`` (the contract of :class:`repro.sim.futures.Future`;
    :func:`~repro.sim.futures.gather` counts native futures down in C);
    the Python ``_expire`` and ``_give_up`` act on them.

    * **Message handling** — called as ``on_message``: ``on_message``
      plus ``_finish`` — the round's decision (``_choose``; a masking
      round's ``_vouched`` is the one Python call), then the plan's next
      round or the completion (``_settle``: counters, the live latency
      sketch's bucket bump, history, the spec monitor's hooks, the
      future) — and, for a ``StaleViewNack``, ``_redispatch``.  A message
      that is not an exact ``ReadReply`` / ``WriteAck`` /
      ``StaleViewNack`` takes the Python handler; a view refresh calls
      the Python ``_refresh_view`` only when the manager's newest view —
      the last of its ``views`` list, bound with the view — is not the
      client's ``_view`` object.
    * **Issue and retry** — the methods named in
      :data:`CLIENT_ISSUE_METHODS`: history record, future and op, quorum
      draw, message build, the network core's broadcast, retry/deadline
      timers in the C heap (callbacks bound once, when the core is
      built) and the retry timer's resample.  The C
      ``quorum_sample`` draws for a static ``ProbabilisticQuorumSystem``
      and every membership view, one call to the Python
      ``_sample_quorum`` for any other system; the policy's delay,
      floored at the client's RTO, is computed in C (the Python
      ``_retry_delay`` only once ``backoff ** attempt`` overflows).  Every
      stream is consumed draw for draw as on the python backend.
    """
    clients = list(clients)
    if selected_backend() != "native":
        return [None] * len(clients)
    from repro._native import load_kernel
    from repro.registers.client import QuorumRegisterClient, RetryPolicy

    module = load_kernel()
    methods = [
        (name, method) for name, method in vars(QuorumRegisterClient).items()
        if callable(method) and name != "__init__"
    ]
    eligible = {}
    cores = []
    for client in clients:
        cls = type(client)
        if cls not in eligible:
            eligible[cls] = isinstance(client, QuorumRegisterClient) and all(
                getattr(cls, name) is method for name, method in methods
            )
        native = (
            eligible[cls] and client._spans is None
            and type(client.retry_policy) in (RetryPolicy, type(None))
            and isinstance(getattr(client.network.send, "__self__", None),
                           module.NetworkCore)
        )
        cores.append(module.ClientCore(client) if native else None)
    return cores


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
