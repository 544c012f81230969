/* Native simulation-kernel core (REPRO_KERNEL=native).
 *
 * A CPython extension housing the hot path of the simulator: the
 * event-heap scheduler (push/pop/cancel with (time, seq) ordering, the
 * run() drain loops, handle-free uncancellable delivery entries), one
 * network core (Network.send / .broadcast / ._deliver, which bumps a
 * scalar-mode MessageStats' int64 totals in place), the two
 * register-protocol cores and the operation objects the client core
 * builds (Future, gather's countdown, PendingOp).  There is no stats
 * type here: both backends count into the one Python MessageStats.  A
 * message travels drain loop -> deliver -> protocol
 * handler -> send, and an operation is built, settled and gathered,
 * without an interpreter frame; Python is re-entered only where a node or
 * a hook asks for it.  A core is built only for what it transcribes (an
 * exact scalar-mode MessageStats, FailureInjector and RetryPolicy, a
 * client class that overrides no method): anything else runs the Python
 * reference whole.  Each core is wired once: it binds
 * its object's configuration when it is built and reads live only what
 * changes during a run — at __slots__ offsets, not by name (the bind-once
 * rule, below).
 *
 * Contract: byte-identical behaviour to the pure-python reference in
 * ``repro.sim.scheduler`` / ``repro.sim.metrics`` / ``repro.sim.network``
 * / ``repro.registers``.  Event ordering is a strict total order on
 * (time, seq) — seq is unique — so the C binary heap pops events in
 * exactly the order heapq does, even though the internal array layout
 * may differ.  All times are IEEE-754 doubles on both sides, so
 * ``now + delay`` produces the same bits.
 *
 * RNG draws: when the build links numpy's exported C random library
 * (REPRO_HAVE_NPYRANDOM), the hottest draws — the per-message
 * exponential delay and the k-of-n quorum sample — run through the same
 * Generator bit stream in C, reproducing numpy's algorithms (Lemire
 * bounded integers, ziggurat exponential, Floyd + descending
 * Fisher-Yates for choice(replace=False)) bit for bit; every other draw
 * is a call to the Generator method the Python reference calls, so the
 * determinism contract holds draw for draw.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stddef.h>

/* The first 16 hex digits of this file's sha256, passed by the build
 * (``build.source_hash()``) and exported as SOURCE_HASH: the loader
 * counts an extension built from other C source as stale. */
#ifndef REPRO_SOURCE_HASH
#define REPRO_SOURCE_HASH ""
#endif

#ifdef REPRO_HAVE_NPYRANDOM
#include <numpy/random/bitgen.h>
#include <numpy/random/distributions.h>
#endif

/* ------------------------------------------------------------------ */
/* Interned strings / cached exception types                          */
/* ------------------------------------------------------------------ */

/* Attribute and method names, interned once at module init. */
#define INTERNED_STRINGS(X)                                   \
    X(str_on_message, "on_message")                          \
    X(str_drop_action, "drop")                               \
    X(str_kind_attr, "kind")                                 \
    X(str_dunder_name, "__name__")                           \
    X(str_sample, "sample")                                  \
    X(str_random, "random")                                  \
    X(str_intercept, "intercept")                            \
    X(str_loss_rate, "loss_rate")                            \
    X(str_taps_attr, "_taps")                                \
    X(str_adversary_attr, "_adversary")                      \
    X(str_loss_rng_attr, "_loss_rng")                        \
    X(str_deliver_attr, "_deliver")                          \
    X(str_delay_model, "delay_model")                        \
    X(str_rng_attr, "rng")                                   \
    X(str_stats_attr, "stats")                               \
    X(str_nodes_attr, "_nodes")                              \
    X(str_send_attr, "send")                                 \
    X(str_node_id, "node_id")                                \
    X(str_network_attr, "network")                           \
    X(str_cancel, "cancel")                                  \
    X(str_respond, "respond")                                \
    X(str_complete, "complete")                              \
    X(str_monotone, "monotone")                              \
    X(str_cache_attr, "_cache")                              \
    X(str_latency_attr, "_latency")                          \
    X(str_pending_attr, "_pending")                          \
    X(str_server_index, "_server_index")                     \
    X(str_replicas_attr, "_replicas")                        \
    X(str_failures_attr, "failures")                         \
    X(str_scheduler_attr, "scheduler")                       \
    X(str_replica_method, "_replica")                        \
    X(str_bit_generator, "bit_generator")                    \
    X(str_capsule_attr, "capsule")                           \
    X(str_mean_attr, "_mean")                                \
    X(str_floor_attr, "_floor")                              \
    X(str_cdelay_attr, "_delay")                             \
    X(str_observe, "observe")                                \
    X(str_read_kind, "read")                                 \
    X(str_write_kind, "write")                               \
    X(str_sample_quorum, "_sample_quorum")                   \
    X(str_info, "info")                                      \
    X(str_begin_read, "begin_read")                          \
    X(str_begin_write, "begin_write")                        \
    X(str_members, "members")                                \
    X(str_retry_policy, "retry_policy")                      \
    X(str_retry_rng, "_retry_rng")                           \
    X(str_retry_delay, "_retry_delay")                       \
    X(str_deadline, "deadline")                              \
    X(str_retry, "_retry")                                   \
    X(str_expire, "_expire")                                 \
    X(str_quorum_system, "quorum_system")                    \
    X(str_n, "n")                                            \
    X(str_k, "k")                                            \
    X(str_space, "space")                                    \
    X(str_registers_attr, "_registers")                      \
    X(str_server_ids, "server_ids")                          \
    X(str_op_ids, "_op_ids")                                 \
    X(str_write_seq, "_write_seq")                           \
    X(str_client_id, "client_id")                            \
    X(str_spec_monitor, "spec_monitor")                      \
    X(str_on_read_complete, "on_read_complete")              \
    X(str_on_write_complete, "on_write_complete")            \
    X(str_on_retry, "on_retry")                              \
    X(str_max_attempts, "max_attempts")                      \
    X(str_give_up, "_give_up")                               \
    X(str_refresh_view, "_refresh_view")                     \
    X(str_on_transfer_reply, "on_transfer_reply")            \
    X(str_views, "views")                                    \
    X(str_interval, "interval")                              \
    X(str_backoff, "backoff")                                \
    X(str_max_interval, "max_interval")                      \
    X(str_jitter, "jitter")                                  \
    X(str_read_plan, "READ_PLAN")                            \
    X(str_write_plan, "WRITE_PLAN")                          \
    X(str_vouched, "_vouched")

#define DECLARE_STRING(var, text) static PyObject *var;
INTERNED_STRINGS(DECLARE_STRING)
#undef DECLARE_STRING
static PyObject *py_zero = NULL;    /* the int 0 (the static-deployment view) */
static PyObject *py_one = NULL;     /* the int 1 (counter bumps) */
static PyObject *scheduler_error = NULL;  /* repro.sim.scheduler.SchedulerError */

/* Register-protocol classes, resolved lazily from the Python package
 * the first time a protocol core is built (never at module import, so
 * the extension stays importable on its own). */
static PyObject *msg_read_query = NULL;   /* messages.ReadQuery   */
static PyObject *msg_read_reply = NULL;   /* messages.ReadReply   */
static PyObject *msg_write_update = NULL; /* messages.WriteUpdate */
static PyObject *msg_write_ack = NULL;    /* messages.WriteAck    */
static PyObject *msg_stale_view_nack = NULL; /* messages.StaleViewNack */
static PyObject *msg_state_request = NULL; /* messages.StateRequest */
static PyObject *msg_state_reply = NULL;   /* messages.StateReply   */
/* The seven in one table, and their class-level ``kind`` labels. */
static PyObject **const msg_types[] = {&msg_read_query, &msg_read_reply,
    &msg_write_update, &msg_write_ack, &msg_stale_view_nack,
    &msg_state_request, &msg_state_reply};
#define NMSG ((int)(sizeof(msg_types) / sizeof(msg_types[0])))
static PyObject *msg_kinds[NMSG];
static PyObject *timestamp_type = NULL;   /* timestamps.Timestamp */
static PyObject *timestamp_zero = NULL;   /* Timestamp.ZERO */

/* What the client issue path constructs and tests against, resolved the
 * first time a ClientCore is built. */
static PyObject *prob_quorum_type = NULL;  /* ProbabilisticQuorumSystem */
static PyObject *quantiles_type = NULL;    /* obs.quantiles.StreamingQuantiles */
static PyObject *register_info_type = NULL; /* registers.space.RegisterInfo */
static PyObject *view_state_type = NULL;   /* membership's ServerViewState */
static double per_log;                     /* obs.quantiles._PER_LOG */

/* The exact types whose decisions the cores make once, in their
 * constructors, resolved the first time a network or client core is built. */
static PyObject *generator_type = NULL;        /* numpy.random.Generator */
static PyObject *failure_injector_type = NULL; /* failures.FailureInjector */
static PyObject *message_stats_type = NULL;    /* metrics.MessageStats */
static PyObject *exponential_delay_type = NULL; /* delays.ExponentialDelay */
static PyObject *constant_delay_type = NULL;    /* delays.ConstantDelay    */

/* The bind-once rule.  Every attribute a core reads or bumps per message
 * or per operation is a ``__slots__`` member of its Python class, or an
 * int64 field of its counter_type base, read at the offset its member
 * descriptor gives, resolved once (slot_offsets): those of a core's own
 * objects when the core is built (the cores' ``slots``), those of the
 * exact types below when the type is resolved.  A name that is not such a
 * member is a TypeError there, so there is no by-name path to keep in
 * step.  By name stay only ``network._deliver`` and ``node.on_message``,
 * which tests and trace taps replace mid-run, and the constructors and
 * cold paths. */
enum {
    STAT_SENT, STAT_DELIVERED, STAT_DROPPED, /* MessageStats */
    FI_ACTIVE, FI_CRASHED, FI_PARTITION, /* FailureInjector */
    TS_SEQ, TS_WRITER,                   /* Timestamp */
    RI_HISTORY, RI_WRITER,               /* RegisterInfo */
    SQ_BUCKETS, SQ_SUM,                  /* StreamingQuantiles */
    VS_RETIRED, VS_RETIRING, VS_VIEW_ID, /* ServerViewState */
    VS_TRANSFER_ID, VS_MANAGER, VS_INDEX,
    NOFFSETS
};
static const char *const offset_names[NOFFSETS] = {
    "sent", "delivered", "dropped", "active", "_crashed", "_partition",
    "seq", "writer", "history", "writer", "_buckets", "sum", "retired",
    "retiring", "view_id", "transfer_id", "manager", "index"};
static Py_ssize_t offsets[NOFFSETS];

/* A type's object members, listed once as X(member, type) (the
 * PendingOp's as X(member, python_name)): the struct members, traverse,
 * clear and dealloc are generated from the list. */
#define CORE_FIELD(name, type) type *name;
#define CORE_VISIT(name, _) Py_VISIT(self->name);
#define CORE_CLEAR(name, _) Py_CLEAR(self->name);
#define CORE_GC(prefix, Core, FIELDS)                                    \
    static int                                                           \
    prefix##_traverse(Core *self, visitproc visit, void *arg)            \
    {                                                                    \
        FIELDS(CORE_VISIT)                                               \
        return 0;                                                        \
    }                                                                    \
    static int                                                           \
    prefix##_clear(Core *self)                                           \
    {                                                                    \
        FIELDS(CORE_CLEAR)                                               \
        return 0;                                                        \
    }                                                                    \
    static void                                                          \
    prefix##_dealloc(Core *self)                                         \
    {                                                                    \
        PyObject_GC_UnTrack(self);                                       \
        prefix##_clear(self);                                            \
        Py_TYPE(self)->tp_free((PyObject *)self);                        \
    }

/* Forward declarations: the scheduler's drain loop dispatches straight
 * into the network core's delivery, which dispatches straight into the
 * protocol cores — each defined further down — without a call through
 * the type's call slots. */
typedef struct NetworkCore NetworkCore;
static PyObject *networkcore_deliver(NetworkCore *self, PyObject *const *args,
                                     Py_ssize_t nargs);
static int network_deliver(NetworkCore *self, PyObject *src, PyObject *dst,
                           PyObject *message, PyObject *kind);
static PyTypeObject ServerCore_Type;
static PyTypeObject ClientCore_Type;
static int protocolcore_invoke(PyObject *core, PyObject *src,
                               PyObject *message);

/* The offset of the member ``name`` of ``type``, an int64 counter field
 * when ``counter`` is set, else an object slot: > 0, or -1 with TypeError
 * when it is not a writable member of that kind of the type (a property,
 * a class attribute, an instance-dict entry, a subclass's shadowing
 * descriptor, another type's member). */
static Py_ssize_t
member_offset(PyTypeObject *type, PyObject *name, int counter)
{
    PyObject *descr = _PyType_Lookup(type, name);
    PyMemberDef *member = descr && Py_IS_TYPE(descr, &PyMemberDescr_Type)
        && PyType_IsSubtype(type, PyDescr_TYPE(descr))
        ? ((PyMemberDescrObject *)descr)->d_member : NULL;
    if (member != NULL && !(member->flags & READONLY)
        && member->type == (counter ? T_LONGLONG : T_OBJECT_EX))
        return member->offset;
    PyErr_Format(PyExc_TypeError, "%s.%U is not %s", type->tp_name, name,
                 counter ? "an int64 counter field" : "a __slots__ member");
    return -1;
}

/* The offsets of the ``n`` members of ``type`` named by ``names``, into
 * ``out`` (member_offset): the first ``counters`` int64 counter fields,
 * the rest object slots.  0, or -1 with an exception. */
static int
slot_offsets(PyObject *type, const char *const *names, Py_ssize_t *out,
             int n, int counters)
{
    for (int i = 0; i < n; i++) {
        PyObject *name = PyUnicode_InternFromString(names[i]);
        out[i] = name == NULL ? -1
            : member_offset((PyTypeObject *)type, name, i < counters);
        Py_XDECREF(name);
        if (out[i] < 0)
            return -1;
    }
    return 0;
}

/* offsets[first:first + n], of ``type``: its first ``counters`` are
 * counter fields. */
static int
bind_offsets(PyObject *type, int first, int n, int counters)
{
    return slot_offsets(type, offset_names + first, offsets + first, n,
                        counters);
}

/* The AttributeError a by-name read of an unset slot raises, for the
 * slot at ``off`` of ``obj``; NULL. */
static PyObject *
slot_unset(PyObject *obj, Py_ssize_t off)
{
    PyObject *mro = Py_TYPE(obj)->tp_mro;
    const char *name = "?";
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(mro); i++) {
        PyMemberDef *member = ((PyTypeObject *)PyTuple_GET_ITEM(mro, i))
                                  ->tp_members;
        for (; member != NULL && member->name != NULL; member++)
            if (member->offset == off)
                name = member->name;
    }
    return PyErr_Format(PyExc_AttributeError, "'%s' object has no "
                        "attribute '%s'", Py_TYPE(obj)->tp_name, name);
}

/* The object slot at ``off`` of ``obj``, an lvalue (NULL when unset). */
#define SLOT(obj, off) (*(PyObject **)((char *)(obj) + (off)))

/* The object in the slot at ``off`` of ``obj``, borrowed, or NULL. */
static inline PyObject *
slot_peek(PyObject *obj, Py_ssize_t off)
{
    PyObject *value = SLOT(obj, off);
    return value != NULL ? value : slot_unset(obj, off);
}

/* bool(the slot at ``off`` of ``obj``): 1/0, or -1 with an exception. */
static int
slot_truth(PyObject *obj, Py_ssize_t off)
{
    PyObject *value = Py_XNewRef(slot_peek(obj, off));
    int truth = value == NULL ? -1 : PyObject_IsTrue(value);
    Py_XDECREF(value);
    return truth;
}

/* The int64 counter field at ``off`` of ``obj``, an lvalue: a core bumps
 * it in place, allocating nothing (counter_type, below). */
#define COUNTER(obj, off) (*(long long *)((char *)(obj) + (off)))

/* obj.<name> as a C double; -1.0 with an exception set on error. */
static double
attr_double(PyObject *obj, PyObject *name)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value == NULL)
        return -1.0;
    double out = PyFloat_AsDouble(value);
    Py_DECREF(value);
    return out;
}

/* module.<attr>, imported by name; a new reference or NULL. */
static PyObject *
import_attr(const char *module_name, const char *attr)
{
    PyObject *module = PyImport_ImportModule(module_name);
    if (module == NULL)
        return NULL;
    PyObject *value = PyObject_GetAttrString(module, attr);
    Py_DECREF(module);
    return value;
}

/* SchedulerError, resolved lazily: this module imports without the
 * package.  RuntimeError, its base, when the package cannot give it. */
static PyObject *
get_scheduler_error(void)
{
    if (scheduler_error == NULL) {
        scheduler_error = import_attr("repro.sim.scheduler",
                                      "SchedulerError");
        if (scheduler_error == NULL) {
            PyErr_Clear();
            scheduler_error = Py_NewRef(PyExc_RuntimeError);
        }
    }
    return scheduler_error;
}

/* ------------------------------------------------------------------ */
/* EventHandle                                                         */
/* ------------------------------------------------------------------ */

struct SchedulerCore;

#define HANDLE_FIELDS(X)                                                 \
    X(callback, PyObject)                                                \
    X(args, PyObject)          /* always a tuple */                      \
    X(owner, struct SchedulerCore) /* strong reference (cycle) */

typedef struct {
    PyObject_HEAD
    double time;
    long long seq;
    HANDLE_FIELDS(CORE_FIELD)
    char cancelled;
    char dequeued;
} KernelHandle;

CORE_GC(kernelhandle, KernelHandle, HANDLE_FIELDS)

/* forward declaration: cancel touches the owner's live counter */
static PyObject *kernelhandle_cancel(KernelHandle *self,
                                     PyObject *Py_UNUSED(ignored));

static PyObject *
kernelhandle_repr(KernelHandle *self)
{
    const char *state = self->cancelled ? "cancelled" : "pending";
    PyObject *name = NULL;
    if (self->callback != NULL)
        name = PyObject_GetAttrString(self->callback, "__name__");
    if (name == NULL) {
        PyErr_Clear();
        name = PyObject_Repr(self->callback ? self->callback : Py_None);
        if (name == NULL)
            return NULL;
    }
    PyObject *time = PyFloat_FromDouble(self->time);
    if (time == NULL) {
        Py_DECREF(name);
        return NULL;
    }
    PyObject *out = PyUnicode_FromFormat(
        "EventHandle(t=%R, seq=%lld, %U, %s)",
        time, self->seq, name, state);
    Py_DECREF(time);
    Py_DECREF(name);
    return out;
}

static PyMemberDef kernelhandle_members[] = {
    {"time", T_DOUBLE, offsetof(KernelHandle, time), READONLY,
     "absolute simulated firing time"},
    {"seq", T_LONGLONG, offsetof(KernelHandle, seq), READONLY,
     "scheduling sequence number (tie-breaker)"},
    {"callback", T_OBJECT_EX, offsetof(KernelHandle, callback), READONLY,
     "the scheduled callable"},
    {"args", T_OBJECT_EX, offsetof(KernelHandle, args), READONLY,
     "the callable's argument tuple"},
    {"cancelled", T_BOOL, offsetof(KernelHandle, cancelled), READONLY,
     "True once cancel() was called"},
    {"_dequeued", T_BOOL, offsetof(KernelHandle, dequeued), READONLY,
     "True once the heap entry was popped"},
    {NULL}
};

static PyMethodDef kernelhandle_methods[] = {
    {"cancel", (PyCFunction)kernelhandle_cancel, METH_NOARGS,
     "Prevent the event from firing.  Idempotent."},
    {NULL}
};

static PyTypeObject KernelHandle_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._native._kernel.EventHandle",
    .tp_basicsize = sizeof(KernelHandle),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "A cancellable reference to a scheduled event.",
    .tp_dealloc = (destructor)kernelhandle_dealloc,
    .tp_traverse = (traverseproc)kernelhandle_traverse,
    .tp_clear = (inquiry)kernelhandle_clear,
    .tp_repr = (reprfunc)kernelhandle_repr,
    .tp_members = kernelhandle_members,
    .tp_methods = kernelhandle_methods,
};

/* ------------------------------------------------------------------ */
/* SchedulerCore                                                       */
/* ------------------------------------------------------------------ */

/* One heap slot.  Two layouts share the struct (the heap is hot; a
 * union of PyObject* slots keeps it 32 bytes):
 *   handle entry:        obj = KernelHandle*,  args = NULL
 *   uncancellable entry: obj = callback,       args = tuple
 */
typedef struct {
    double time;
    long long seq;
    PyObject *obj;
    PyObject *args;
} KEvent;

typedef struct SchedulerCore {
    PyObject_HEAD
    KEvent *heap;
    Py_ssize_t len;
    Py_ssize_t cap;
    double now;
    long long seq;
    long long processed;
    long long live;
    int stopped;
} SchedulerCore;

static PyTypeObject SchedulerCore_Type;

static inline int
ev_lt(const KEvent *a, const KEvent *b)
{
    return a->time < b->time || (a->time == b->time && a->seq < b->seq);
}

static int
heap_grow(SchedulerCore *self)
{
    Py_ssize_t cap = self->cap ? self->cap * 2 : 64;
    KEvent *heap = PyMem_Realloc(self->heap, (size_t)cap * sizeof(KEvent));
    if (heap == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    self->heap = heap;
    self->cap = cap;
    return 0;
}

/* Push: steals no references — the caller hands over ownership of
 * ev.obj / ev.args on success and keeps it on failure. */
static int
heap_push(SchedulerCore *self, KEvent ev)
{
    if (self->len == self->cap && heap_grow(self) < 0)
        return -1;
    Py_ssize_t i = self->len++;
    KEvent *heap = self->heap;
    while (i > 0) {
        Py_ssize_t parent = (i - 1) >> 1;
        if (ev_lt(&ev, &heap[parent])) {
            heap[i] = heap[parent];
            i = parent;
        }
        else
            break;
    }
    heap[i] = ev;
    return 0;
}

/* Pop the root; the caller owns the returned event's references.
 * Precondition: len > 0. */
static KEvent
heap_pop(SchedulerCore *self)
{
    KEvent *heap = self->heap;
    KEvent top = heap[0];
    KEvent last = heap[--self->len];
    Py_ssize_t n = self->len;
    if (n > 0) {
        Py_ssize_t i = 0;
        for (;;) {
            Py_ssize_t child = 2 * i + 1;
            if (child >= n)
                break;
            if (child + 1 < n && ev_lt(&heap[child + 1], &heap[child]))
                child += 1;
            if (ev_lt(&heap[child], &last)) {
                heap[i] = heap[child];
                i = child;
            }
            else
                break;
        }
        heap[i] = last;
    }
    return top;
}

static PyObject *
kernelhandle_cancel(KernelHandle *self, PyObject *Py_UNUSED(ignored))
{
    if (self->cancelled)
        Py_RETURN_NONE;
    self->cancelled = 1;
    /* Keep the owner's live-event counter exact: a handle leaves the
     * live count exactly once — here, or when it is popped and run. */
    if (self->owner != NULL && !self->dequeued)
        self->owner->live -= 1;
    Py_RETURN_NONE;
}

static int
schedulercore_traverse(SchedulerCore *self, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < self->len; i++) {
        Py_VISIT(self->heap[i].obj);
        Py_VISIT(self->heap[i].args);
    }
    return 0;
}

/* tp_clear and Scheduler.clear: drop every queued event unrun, its
 * handle counted as dequeued and emptied.  The heap is detached first,
 * so a reference dropped here that schedules an event starts a fresh
 * one. */
static int
schedulercore_clear(SchedulerCore *self)
{
    KEvent *heap = self->heap;
    Py_ssize_t n = self->len;
    self->heap = NULL;
    self->len = self->cap = self->live = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        if (heap[i].args == NULL) {
            ((KernelHandle *)heap[i].obj)->dequeued = 1;
            kernelhandle_clear((KernelHandle *)heap[i].obj);
        }
        Py_DECREF(heap[i].obj);
        Py_XDECREF(heap[i].args);
    }
    PyMem_Free(heap);
    return 0;
}

static PyObject *
schedulercore_drop(SchedulerCore *self, PyObject *Py_UNUSED(ignored))
{
    schedulercore_clear(self);
    Py_RETURN_NONE;
}

static void
schedulercore_dealloc(SchedulerCore *self)
{
    PyObject_GC_UnTrack(self);
    schedulercore_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* Build the args tuple for a schedule call's trailing *args. */
static PyObject *
pack_args(PyObject *const *args, Py_ssize_t start, Py_ssize_t nargs)
{
    PyObject *tuple = PyTuple_New(nargs - start);
    if (tuple == NULL)
        return NULL;
    for (Py_ssize_t i = start; i < nargs; i++) {
        PyObject *item = args[i];
        Py_INCREF(item);
        PyTuple_SET_ITEM(tuple, i - start, item);
    }
    return tuple;
}

/* Shared push path for schedule / schedule_at / call_soon. */
static PyObject *
push_handle_event(SchedulerCore *self, double time, PyObject *callback,
                  PyObject *argtuple /* stolen on success */)
{
    KernelHandle *handle =
        PyObject_GC_New(KernelHandle, &KernelHandle_Type);
    if (handle == NULL) {
        Py_DECREF(argtuple);
        return NULL;
    }
    handle->time = time;
    handle->seq = self->seq;
    Py_INCREF(callback);
    handle->callback = callback;
    handle->args = argtuple;  /* stolen */
    Py_INCREF(self);
    handle->owner = self;
    handle->cancelled = 0;
    handle->dequeued = 0;
    PyObject_GC_Track((PyObject *)handle);

    KEvent ev;
    ev.time = time;
    ev.seq = self->seq;
    Py_INCREF(handle);
    ev.obj = (PyObject *)handle;
    ev.args = NULL;
    if (heap_push(self, ev) < 0) {
        Py_DECREF(handle);  /* the heap's ref */
        Py_DECREF(handle);  /* the return ref */
        return NULL;
    }
    self->seq += 1;
    self->live += 1;
    return (PyObject *)handle;
}

/* schedule(delay, callback, *argtuple): validate the delay and push.
 * Steals argtuple, also on failure. */
static PyObject *
schedule_after(SchedulerCore *self, PyObject *delay_obj, PyObject *callback,
               PyObject *argtuple)
{
    if (argtuple == NULL)
        return NULL;
    double delay = PyFloat_AsDouble(delay_obj);
    if (delay == -1.0 && PyErr_Occurred()) {
        Py_DECREF(argtuple);
        return NULL;
    }
    if (delay < 0) {
        PyErr_Format(get_scheduler_error(),
                     "cannot schedule into the past (delay=%R)", delay_obj);
        Py_DECREF(argtuple);
        return NULL;
    }
    return push_handle_event(self, self->now + delay, callback, argtuple);
}

static PyObject *
schedulercore_schedule(SchedulerCore *self, PyObject *const *args,
                       Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule expects (delay, callback, *args)");
        return NULL;
    }
    return schedule_after(self, args[0], args[1], pack_args(args, 2, nargs));
}

static PyObject *
schedulercore_schedule_at(SchedulerCore *self, PyObject *const *args,
                          Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule_at expects (time, callback, *args)");
        return NULL;
    }
    double time = PyFloat_AsDouble(args[0]);
    if (time == -1.0 && PyErr_Occurred())
        return NULL;
    if (time < self->now) {
        PyObject *now_obj = PyFloat_FromDouble(self->now);
        if (now_obj == NULL)
            return NULL;
        PyErr_Format(get_scheduler_error(),
                     "cannot schedule at t=%R before current time t=%R",
                     args[0], now_obj);
        Py_DECREF(now_obj);
        return NULL;
    }
    PyObject *argtuple = pack_args(args, 2, nargs);
    if (argtuple == NULL)
        return NULL;
    return push_handle_event(self, time, args[1], argtuple);
}

static PyObject *
schedulercore_call_soon(SchedulerCore *self, PyObject *const *args,
                        Py_ssize_t nargs)
{
    if (nargs < 1) {
        PyErr_SetString(PyExc_TypeError,
                        "call_soon expects (callback, *args)");
        return NULL;
    }
    PyObject *argtuple = pack_args(args, 1, nargs);
    if (argtuple == NULL)
        return NULL;
    return push_handle_event(self, self->now, args[0], argtuple);
}

/* Push a handle-free entry firing callback(*argtuple) at ``time``.
 * Steals argtuple (NULL is passed through as the error it signals). */
static int
push_uncancellable(SchedulerCore *self, double time, PyObject *callback,
                   PyObject *argtuple)
{
    if (argtuple == NULL)
        return -1;
    KEvent ev = {time, self->seq, callback, argtuple};
    if (heap_push(self, ev) < 0) {
        Py_DECREF(argtuple);
        return -1;
    }
    Py_INCREF(callback);
    self->seq += 1;
    self->live += 1;
    return 0;
}

static PyObject *
schedulercore_schedule_uncancellable(SchedulerCore *self,
                                     PyObject *const *args,
                                     Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_SetString(
            PyExc_TypeError,
            "schedule_uncancellable expects (delay, callback, *args)");
        return NULL;
    }
    double delay = PyFloat_AsDouble(args[0]);
    if (delay == -1.0 && PyErr_Occurred())
        return NULL;
    if (delay < 0) {
        PyErr_Format(get_scheduler_error(),
                     "cannot schedule into the past (delay=%R)", args[0]);
        return NULL;
    }
    if (push_uncancellable(self, self->now + delay, args[1],
                           pack_args(args, 2, nargs)) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* The NetworkCore behind ``callable`` when it is the bound C entry point
 * ``entry`` — network.send / .broadcast / ._deliver as Network.__init__
 * installed them — else NULL: the attribute was replaced (a trace
 * wrapper, a monkeypatch) or never installed (the Python method). */
static inline NetworkCore *
networkcore_behind(PyObject *callable, PyCFunction entry)
{
    if (PyCFunction_CheckExact(callable)
        && PyCFunction_GET_FUNCTION(callable) == entry)
        return (NetworkCore *)PyCFunction_GET_SELF(callable);
    return NULL;
}

#define NETWORK_ENTRY(function) ((PyCFunction)(void (*)(void))(function))

/* Invoke callback(*args); a native delivery skips the call protocol. */
static inline int
dispatch(PyObject *callback, PyObject *args)
{
    NetworkCore *network = networkcore_behind(
        callback, NETWORK_ENTRY(networkcore_deliver));
    if (network != NULL && PyTuple_GET_SIZE(args) == 4) {
        return network_deliver(network,
                               PyTuple_GET_ITEM(args, 0),
                               PyTuple_GET_ITEM(args, 1),
                               PyTuple_GET_ITEM(args, 2),
                               PyTuple_GET_ITEM(args, 3));
    }
    PyObject *res = PyObject_Call(callback, args, NULL);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* Pop the next heap entry and run it.  Returns 1 when an event ran, 0
 * when the entry was a cancelled handle (dropped: no counter moves), -1
 * when the callback raised.  Precondition: len > 0. */
static inline int
pop_and_dispatch(SchedulerCore *self)
{
    KEvent ev = heap_pop(self);
    PyObject *callback = ev.obj, *args = ev.args;
    if (args == NULL) {
        KernelHandle *handle = (KernelHandle *)ev.obj;
        handle->dequeued = 1;
        if (handle->cancelled) {
            Py_DECREF(ev.obj);
            return 0;
        }
        callback = handle->callback;
        args = handle->args;
    }
    self->live -= 1;
    self->now = ev.time;
    self->processed += 1;
    int rc = dispatch(callback, args);
    Py_DECREF(ev.obj);
    Py_XDECREF(ev.args);
    return rc < 0 ? -1 : 1;
}

static PyObject *
schedulercore_step(SchedulerCore *self, PyObject *Py_UNUSED(ignored))
{
    while (self->len > 0) {
        int ran = pop_and_dispatch(self);
        if (ran < 0)
            return NULL;
        if (ran)
            Py_RETURN_TRUE;
    }
    Py_RETURN_FALSE;
}

static PyObject *
schedulercore_run(SchedulerCore *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"until", "max_events", "stop_when", NULL};
    PyObject *until_obj = Py_None;
    PyObject *max_events_obj = Py_None;
    PyObject *stop_when = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|OOO", kwlist,
                                     &until_obj, &max_events_obj,
                                     &stop_when))
        return NULL;

    self->stopped = 0;

    int have_until = until_obj != Py_None;
    double until = 0.0;
    if (have_until) {
        until = PyFloat_AsDouble(until_obj);
        if (until == -1.0 && PyErr_Occurred())
            return NULL;
    }
    int have_max = max_events_obj != Py_None;
    long long max_events = 0;
    if (have_max) {
        max_events = PyLong_AsLongLong(max_events_obj);
        if (max_events == -1 && PyErr_Occurred())
            return NULL;
    }
    int have_stop_when = stop_when != Py_None;

    if (!have_until && !have_max && !have_stop_when) {
        /* Fast drain loop: no limit checks, one pop per event. */
        while (self->len > 0 && !self->stopped) {
            if (pop_and_dispatch(self) < 0)
                return NULL;
        }
        return PyFloat_FromDouble(self->now);
    }

    long long executed = 0;
    while (self->len > 0 && !self->stopped) {
        /* Peek the head; cancelled handle entries are drained without
         * consuming any of the run limits. */
        KEvent *head = &self->heap[0];
        int cancelled = head->args == NULL
            && ((KernelHandle *)head->obj)->cancelled;
        if (!cancelled) {
            if (have_until && head->time > until) {
                self->now = until;
                break;
            }
            if (have_max && executed >= max_events)
                break;
        }
        int ran = pop_and_dispatch(self);
        if (ran < 0)
            return NULL;
        if (!ran)
            continue;
        executed += 1;
        if (have_stop_when) {
            PyObject *verdict = PyObject_CallNoArgs(stop_when);
            if (verdict == NULL)
                return NULL;
            int stop = PyObject_IsTrue(verdict);
            Py_DECREF(verdict);
            if (stop < 0)
                return NULL;
            if (stop)
                break;
        }
    }
    return PyFloat_FromDouble(self->now);
}

static PyObject *
schedulercore_stop(SchedulerCore *self, PyObject *Py_UNUSED(ignored))
{
    self->stopped = 1;
    Py_RETURN_NONE;
}

/* Debug/introspection snapshot mirroring the pure-python Scheduler's
 * ``_queue`` list: (time, seq, handle) for cancellable entries and
 * (time, seq, callback, args) for uncancellable ones, in heap (not
 * sorted) order.  Built fresh per access — tests only. */
static PyObject *
schedulercore_get_queue(SchedulerCore *self, void *closure)
{
    PyObject *out = PyList_New(self->len);
    if (out == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < self->len; i++) {
        KEvent *ev = &self->heap[i];
        PyObject *time = PyFloat_FromDouble(ev->time);
        PyObject *seq = PyLong_FromLongLong(ev->seq);
        PyObject *entry = NULL;
        if (time != NULL && seq != NULL) {
            if (ev->args == NULL)
                entry = PyTuple_Pack(3, time, seq, ev->obj);
            else
                entry = PyTuple_Pack(4, time, seq, ev->obj, ev->args);
        }
        Py_XDECREF(time);
        Py_XDECREF(seq);
        if (entry == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, entry);
    }
    return out;
}

static PyMemberDef schedulercore_members[] = {
    {"now", T_DOUBLE, offsetof(SchedulerCore, now), READONLY,
     "Current simulated time."},
    {"events_processed", T_LONGLONG, offsetof(SchedulerCore, processed),
     READONLY, "Number of events executed so far."},
    {"pending", T_LONGLONG, offsetof(SchedulerCore, live), READONLY,
     "Number of non-cancelled events still queued (O(1) live counter)."},
    {NULL}
};

static PyGetSetDef schedulercore_getset[] = {
    {"_queue", (getter)schedulercore_get_queue, NULL,
     "Debug snapshot of the heap entries (tests only).", NULL},
    {NULL}
};

static PyMethodDef schedulercore_methods[] = {
    {"schedule", (PyCFunction)schedulercore_schedule, METH_FASTCALL,
     "Schedule callback(*args) to run delay time units from now."},
    {"schedule_at", (PyCFunction)schedulercore_schedule_at, METH_FASTCALL,
     "Schedule callback(*args) at an absolute simulated time."},
    {"call_soon", (PyCFunction)schedulercore_call_soon, METH_FASTCALL,
     "Schedule callback(*args) at the current time (after queued events)."},
    {"schedule_uncancellable",
     (PyCFunction)schedulercore_schedule_uncancellable, METH_FASTCALL,
     "Schedule an event that can never be cancelled; returns no handle."},
    {"step", (PyCFunction)schedulercore_step, METH_NOARGS,
     "Execute the next event.  Returns False when the queue is empty."},
    {"run", (PyCFunction)schedulercore_run,
     METH_VARARGS | METH_KEYWORDS,
     "Run events until the queue drains or a limit is reached."},
    {"stop", (PyCFunction)schedulercore_stop, METH_NOARGS,
     "Request that run() return after the current event."},
    {"clear", (PyCFunction)schedulercore_drop, METH_NOARGS,
     "Drop every queued event without running it."},
    {NULL}
};

static PyTypeObject SchedulerCore_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._native._kernel.SchedulerCore",
    .tp_basicsize = sizeof(SchedulerCore),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE
                | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Native discrete-event scheduler core (C event heap).",
    .tp_new = PyType_GenericNew, /* an empty heap at time 0: all zero */
    .tp_dealloc = (destructor)schedulercore_dealloc,
    .tp_traverse = (traverseproc)schedulercore_traverse,
    .tp_clear = (inquiry)schedulercore_clear,
    .tp_members = schedulercore_members,
    .tp_getset = schedulercore_getset,
    .tp_methods = schedulercore_methods,
};

/* ------------------------------------------------------------------ */
/* Native RNG draws: numpy's bit stream without a Python frame         */
/* ------------------------------------------------------------------ */

#ifndef REPRO_HAVE_NPYRANDOM
typedef struct bitgen bitgen_t; /* opaque: this build binds no stream */
#endif

/* The bitgen_t of an exact numpy Generator, bound once by a core's
 * constructor.  numpy's public contract: ``generator.bit_generator
 * .capsule`` is a PyCapsule named "BitGenerator" wrapping the bitgen_t,
 * which lives as long as the BitGenerator — returned in *holder for the
 * caller to keep while it draws.  Any other object, or a build without
 * numpy's random library, binds nothing (*bg NULL): its draws are method
 * calls.  0, or -1 on error. */
static int
bind_bits(PyObject *rng, PyObject **holder, bitgen_t **bg)
{
    *holder = NULL;
    *bg = NULL;
#ifdef REPRO_HAVE_NPYRANDOM
    if ((PyObject *)Py_TYPE(rng) != generator_type)
        return 0;
    PyObject *capsule = NULL;
    if ((*holder = PyObject_GetAttr(rng, str_bit_generator)) == NULL
        || (capsule = PyObject_GetAttr(*holder, str_capsule_attr)) == NULL
        || (*bg = PyCapsule_GetPointer(capsule, "BitGenerator")) == NULL) {
        Py_CLEAR(*holder);
        Py_XDECREF(capsule);
        return -1;
    }
    Py_DECREF(capsule);
#endif
    return 0;
}

/* rng.random(): the one draw Generator.random() makes, from the bound
 * bitgen_t when there is one — leaving the same stream state — else the
 * method call.  The draw, or -1.0 with an exception set. */
static double
draw_random(PyObject *rng, bitgen_t *bg)
{
#ifdef REPRO_HAVE_NPYRANDOM
    if (bg != NULL)
        return bg->next_double(bg->state);
#endif
    PyObject *draw = PyObject_CallMethodNoArgs(rng, str_random);
    if (draw == NULL)
        return -1.0;
    double value = PyFloat_AsDouble(draw);
    Py_DECREF(draw);
    return value;
}

/* Resolve the network cores' exact types (see their declarations), and
 * the MessageStats and FailureInjector slot offsets. */
static int
ensure_network_types(void)
{
    if (message_stats_type != NULL)
        return 0;
    if ((generator_type = import_attr("numpy.random", "Generator")) == NULL
        || (failure_injector_type = import_attr("repro.sim.failures",
                                                "FailureInjector")) == NULL
        || (exponential_delay_type = import_attr("repro.sim.delays",
                                                 "ExponentialDelay")) == NULL
        || (constant_delay_type = import_attr("repro.sim.delays",
                                              "ConstantDelay")) == NULL
        || (message_stats_type = import_attr("repro.sim.metrics",
                                             "MessageStats")) == NULL
        || bind_offsets(message_stats_type, STAT_SENT, 3, 3) < 0
        || bind_offsets(failure_injector_type, FI_ACTIVE, 3, 0) < 0)
        goto fail;
    return 0;
fail:
    Py_CLEAR(generator_type);
    Py_CLEAR(failure_injector_type);
    Py_CLEAR(exponential_delay_type);
    Py_CLEAR(constant_delay_type);
    Py_CLEAR(message_stats_type);
    return -1;
}

/* A network's delay model, bound by its constructor: one of the two
 * built-in models with exactly transcribable draws, whose parameters (and
 * for the exponential the delay Generator's bitgen_t) are read once, so
 * that every draw is plain C; or any other model, whose ``sample`` is
 * called per message.  Exactness: ``Generator.exponential(scale)`` is one
 * ziggurat draw scaled — the same bits ``random_standard_exponential``
 * produces — and Python's ``max(floor, v)`` returns v only when strictly
 * greater. */
enum { DELAY_CALL, DELAY_CONSTANT, DELAY_EXPONENTIAL };
typedef struct {
    int kind;
    double scale;     /* the constant delay, or the exponential's mean */
    double floor_v;
    bitgen_t *bg;
} DelayDraws;

static inline double
delay_draws_next(const DelayDraws *draws)
{
#ifdef REPRO_HAVE_NPYRANDOM
    if (draws->kind == DELAY_EXPONENTIAL) {
        double v = random_standard_exponential(draws->bg) * draws->scale;
        return v > draws->floor_v ? v : draws->floor_v;
    }
#endif
    return draws->scale;
}

/* ------------------------------------------------------------------ */
/* NetworkCore: Network.send / .broadcast / ._deliver in C             */
/* ------------------------------------------------------------------ */

/* The message path of ``repro.sim.network`` without a Python frame: one
 * object per Network whose three methods are installed as the network's
 * ``send``, ``broadcast`` and ``_deliver`` instance attributes.
 *
 * ``send`` is the one definition of what happens to a message,
 * transcribed statement for statement — including the operation order
 * the streams depend on: stats and taps first, then the loss draw
 * (always, so the loss stream advances identically however many nodes
 * are crashed), then the fault check, the loss verdict, the adversary,
 * and finally the delay sample and the heap push.  ``broadcast``
 * validates every destination up front and then has the Python method's
 * two branches: a tight loop of native delay draws on a healthy network
 * with a transcribable delay model, and that same per-message pipeline
 * per destination everywhere else — it never calls the Python
 * ``broadcast``.  ``_deliver`` is the delivery trampoline: fault check,
 * stats, then ``node.on_message`` — directly into a protocol core where
 * one is installed.
 *
 * Wired once: a Network's configuration is fixed by its constructor, so
 * the core binds it when it is built — the delay draw, the loss rate and
 * loss stream, the adversary, and the ``_taps`` list by identity
 * (``add_tap`` appends to it, so a tap added mid-run is seen).  It is
 * built only for an exact scalar-mode MessageStats, whose totals it bumps
 * in place, and an exact FailureInjector, whose verdict it evaluates;
 * anything else runs the Python Network.  Read live, because they change
 * during a run: the clock; by slot, the injector's ``active``,
 * ``_crashed`` and ``_partition``; and by name, each node's
 * ``on_message`` and ``network._deliver``, which trace taps wrap. */
#define NETWORK_CORE_FIELDS(X)                                           \
    X(network, PyObject)     /* the owning Network (cycle; GC-tracked) */ \
    X(stats, PyObject)       /* its MessageStats, scalar mode */         \
    X(failures, PyObject)    /* its FailureInjector */                   \
    X(nodes, PyObject)       /* its {node_id: Node} dict (shared) */     \
    X(sched, SchedulerCore)  /* its scheduler, always native */          \
    X(taps, PyObject)        /* its _taps list (shared) */               \
    X(adversary, PyObject)   /* its adversary, or None */                \
    X(delay_model, PyObject)                                             \
    X(rng, PyObject)         /* the delay stream */                      \
    X(delay_bits, PyObject)  /* its BitGenerator, for native draws */    \
    X(loss_rng, PyObject)                                                \
    X(loss_bits, PyObject)

struct NetworkCore {
    PyObject_HEAD
    NETWORK_CORE_FIELDS(CORE_FIELD)
    DelayDraws delays;
    double loss_rate;
    bitgen_t *loss_bg;   /* NULL: loss_rng.random() is called */
};

CORE_GC(networkcore, NetworkCore, NETWORK_CORE_FIELDS)

static PyObject *
networkcore_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *network;
    if (!PyArg_ParseTuple(args, "O", &network) || ensure_network_types() < 0)
        return NULL;
    NetworkCore *self = (NetworkCore *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->network = Py_NewRef(network);
    if ((self->stats = PyObject_GetAttr(network, str_stats_attr)) == NULL
        || (self->failures = PyObject_GetAttr(network,
                                              str_failures_attr)) == NULL
        || (self->nodes = PyObject_GetAttr(network, str_nodes_attr)) == NULL
        || (self->sched = (SchedulerCore *)PyObject_GetAttr(
                network, str_scheduler_attr)) == NULL
        || (self->taps = PyObject_GetAttr(network, str_taps_attr)) == NULL
        || (self->adversary = PyObject_GetAttr(network,
                                               str_adversary_attr)) == NULL
        || (self->delay_model = PyObject_GetAttr(network,
                                                 str_delay_model)) == NULL
        || (self->rng = PyObject_GetAttr(network, str_rng_attr)) == NULL
        || (self->loss_rng = PyObject_GetAttr(network,
                                              str_loss_rng_attr)) == NULL)
        goto fail;
    if (!PyDict_Check(self->nodes) || !PyList_Check(self->taps)
        || !PyObject_TypeCheck(self->sched, &SchedulerCore_Type)
        || (PyObject *)Py_TYPE(self->stats) != message_stats_type
        || (PyObject *)Py_TYPE(self->failures) != failure_injector_type) {
        PyErr_SetString(PyExc_TypeError,
                        "NetworkCore needs network._nodes to be a dict, "
                        "_taps a list, scheduler a native SchedulerCore, "
                        "stats a MessageStats and failures a "
                        "FailureInjector");
        goto fail;
    }
    self->loss_rate = attr_double(network, str_loss_rate);
    if (self->loss_rate == -1.0 && PyErr_Occurred())
        goto fail;
    DelayDraws *delays = &self->delays;
    PyObject *model = self->delay_model;
    if ((PyObject *)Py_TYPE(model) == constant_delay_type) {
        delays->kind = DELAY_CONSTANT;
        delays->scale = attr_double(model, str_cdelay_attr);
    }
    else if ((PyObject *)Py_TYPE(model) == exponential_delay_type) {
        if (bind_bits(self->rng, &self->delay_bits, &delays->bg) < 0)
            goto fail;
        delays->kind = delays->bg == NULL ? DELAY_CALL : DELAY_EXPONENTIAL;
        delays->scale = attr_double(model, str_mean_attr);
        delays->floor_v = attr_double(model, str_floor_attr);
    }
    if (PyErr_Occurred()
        || bind_bits(self->loss_rng, &self->loss_bits, &self->loss_bg) < 0)
        goto fail;
    return (PyObject *)self;
fail:
    Py_DECREF(self);
    return NULL;
}

/* message.kind if truthy, else type(message).__name__ — _kind_of().  An
 * exact protocol message's is its class's, taken once. */
static PyObject *
kind_of(PyObject *message)
{
    for (int i = 0; i < NMSG; i++)
        if ((PyObject *)Py_TYPE(message) == *msg_types[i])
            return Py_NewRef(msg_kinds[i]);
    PyObject *kind = PyObject_GetAttr(message, str_kind_attr);
    if (kind == NULL) {
        if (!PyErr_ExceptionMatches(PyExc_AttributeError))
            return NULL;
        PyErr_Clear();
        return PyObject_GetAttr((PyObject *)Py_TYPE(message),
                                str_dunder_name);
    }
    int truth = PyObject_IsTrue(kind);
    if (truth < 0) {
        Py_DECREF(kind);
        return NULL;
    }
    if (truth)
        return kind;
    Py_DECREF(kind);
    return PyObject_GetAttr((PyObject *)Py_TYPE(message), str_dunder_name);
}

/* One message sent, delivered or dropped: ``total += 1`` on the
 * MessageStats counter field itself, with no call.  Returns 0, for the
 * call sites' ``return``. */
static inline int
stats_bump(NetworkCore *self, int field)
{
    COUNTER(self->stats, offsets[field]) += 1;
    return 0;
}

/* The injector's fault verdict on a message from src to dst: 1 when an
 * active crash or partition destroys it, 0 when it passes, -1 on error.
 * Evaluated over the FailureInjector's ``_crashed`` set and
 * ``_partition`` groups: blocked when an endpoint is down, or when both
 * belong to groups yet share none. */
static int
fault_blocks(NetworkCore *self, PyObject *src, PyObject *dst)
{
    PyObject *failures = self->failures;
    int active = slot_truth(failures, offsets[FI_ACTIVE]);
    if (active <= 0)
        return active;
    PyObject *crashed = Py_XNewRef(slot_peek(failures, offsets[FI_CRASHED]));
    PyObject *groups = crashed
        ? Py_XNewRef(slot_peek(failures, offsets[FI_PARTITION])) : NULL;
    int blocked = groups ? PySequence_Contains(crashed, src) : -1;
    if (blocked == 0)
        blocked = PySequence_Contains(crashed, dst);
    PyObject *iter = blocked == 0 && groups != Py_None
        ? PyObject_GetIter(groups) : NULL;
    int src_grouped = 0, dst_grouped = 0;
    PyObject *group;
    while (iter != NULL && (group = PyIter_Next(iter)) != NULL) {
        int src_in = PySequence_Contains(group, src);
        int dst_in = src_in < 0 ? -1 : PySequence_Contains(group, dst);
        Py_DECREF(group);
        if (dst_in < 0 || (src_in && dst_in)) {
            dst_grouped = 0; /* an error, or a shared group: deliverable */
            break;
        }
        src_grouped |= src_in;
        dst_grouped |= dst_in;
    }
    Py_XDECREF(iter);
    Py_XDECREF(groups);
    Py_XDECREF(crashed);
    return PyErr_Occurred() ? -1 : blocked || (src_grouped && dst_grouped);
}

/* ``delay_model.sample(rng, src, dst)`` plus send's positivity check: the
 * bound native draw, or the method call.  Returns the delay (> 0), or
 * -1.0 with an exception set. */
static double
sample_delay(NetworkCore *self, PyObject *src, PyObject *dst)
{
    PyObject *delay_obj;
    double delay;
    if (self->delays.kind != DELAY_CALL) {
        if (!((delay = delay_draws_next(&self->delays)) <= 0))
            return delay;
        delay_obj = PyFloat_FromDouble(delay);
    }
    else {
        delay_obj = PyObject_CallMethodObjArgs(
            self->delay_model, str_sample, self->rng, src, dst, NULL);
        delay = delay_obj == NULL ? -1.0 : PyFloat_AsDouble(delay_obj);
        if (!(delay <= 0) || PyErr_Occurred()) {
            Py_XDECREF(delay_obj);
            return PyErr_Occurred() ? -1.0 : delay;
        }
    }
    if (delay_obj != NULL) {
        PyErr_Format(PyExc_ValueError,
                     "delay model produced non-positive delay %S", delay_obj);
        Py_DECREF(delay_obj);
    }
    return -1.0;
}

/* Network.send from the stats update on: the per-message pipeline.  The
 * caller has validated dst and resolved kind. */
static int
network_send_one(NetworkCore *self, PyObject *src, PyObject *dst,
                 PyObject *message, PyObject *kind)
{
    stats_bump(self, STAT_SENT);
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(self->taps); i++) {
        PyObject *tap = Py_NewRef(PyList_GET_ITEM(self->taps, i));
        PyObject *res = PyObject_CallFunctionObjArgs(
            tap, src, dst, message, NULL);
        Py_DECREF(tap);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
    }
    /* One loss draw per send whenever loss is on, before any fault
     * check, so the loss stream advances identically however many
     * nodes happen to be crashed. */
    int lost = 0;
    if (self->loss_rate > 0.0) {
        double value = draw_random(self->loss_rng, self->loss_bg);
        if (value == -1.0 && PyErr_Occurred())
            return -1;
        lost = value < self->loss_rate;
    }
    int blocked = fault_blocks(self, src, dst);
    if (blocked < 0)
        return -1;
    if (blocked || lost)
        return stats_bump(self, STAT_DROPPED);

    double extra = 0.0;
    if (self->adversary != Py_None) {
        PyObject *now_obj = PyFloat_FromDouble(self->sched->now);
        PyObject *action = now_obj == NULL
            ? NULL : PyObject_CallMethodObjArgs(
                self->adversary, str_intercept, src, dst, message, kind,
                now_obj, NULL);
        Py_XDECREF(now_obj);
        if (action == NULL)
            return -1;
        int dropped = PyObject_RichCompareBool(action, str_drop_action,
                                               Py_EQ);
        if (dropped == 0 && action != Py_None) {
            extra = PyFloat_AsDouble(action);
            if (extra == -1.0 && PyErr_Occurred())
                dropped = -1;
        }
        Py_DECREF(action);
        if (dropped != 0)
            return dropped < 0 ? -1 : stats_bump(self, STAT_DROPPED);
    }
    double delay = sample_delay(self, src, dst);
    if (delay <= 0)
        return -1;
    PyObject *deliver = PyObject_GetAttr(self->network, str_deliver_attr);
    if (deliver == NULL)
        return -1;
    /* scheduler.schedule_uncancellable(delay + extra, self._deliver, src,
     * dst, message, kind): time = now + (delay + extra), the Python
     * operation order bit for bit. */
    int rc = push_uncancellable(
        self->sched, self->sched->now + (delay + extra), deliver,
        PyTuple_Pack(4, src, dst, message, kind));
    Py_DECREF(deliver);
    return rc;
}

/* ``dst not in self._nodes`` -> KeyError: 0 when known, else -1. */
static int
check_destination(NetworkCore *self, PyObject *dst)
{
    int known = PyDict_Contains(self->nodes, dst);
    if (known == 0)
        PyErr_Format(PyExc_KeyError, "unknown destination node %S", dst);
    return known > 0 ? 0 : -1;
}

/* Network.send. */
static int
network_send(NetworkCore *self, PyObject *src, PyObject *dst,
             PyObject *message)
{
    if (check_destination(self, dst) < 0)
        return -1;
    PyObject *kind = kind_of(message);
    if (kind == NULL)
        return -1;
    int rc = network_send_one(self, src, dst, message, kind);
    Py_DECREF(kind);
    return rc;
}

/* Network.broadcast.  The healthy branch (no taps, no active fault, no
 * loss, no adversary) skips the sample_batch list round-trip:
 * per-destination scalar draws consume the delay stream in exactly the
 * order sample_batch does (a size-n exponential fill is n sequential
 * ziggurat draws) and seq numbers are assigned in destination order
 * either way, so events sort identically. */
static int
network_broadcast(NetworkCore *self, PyObject *src, PyObject *dsts,
                  PyObject *message)
{
    int nonempty = PyObject_IsTrue(dsts);
    if (nonempty <= 0)
        return nonempty;
    PyObject *fast = PySequence_Fast(dsts, "dsts must be a sequence");
    if (fast == NULL)
        return -1;
    int rc = -1;
    PyObject *kind = NULL, *deliver = NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    for (Py_ssize_t i = 0; i < n; i++) {
        if (check_destination(self, PySequence_Fast_GET_ITEM(fast, i)) < 0)
            goto done;
    }
    kind = kind_of(message);
    int faulty = kind == NULL
        ? -1 : slot_truth(self->failures, offsets[FI_ACTIVE]);
    if (faulty < 0)
        goto done;
    if (faulty || PyList_GET_SIZE(self->taps) || self->loss_rate > 0.0
        || self->adversary != Py_None || self->delays.kind == DELAY_CALL) {
        /* for dst in dsts: self.send(src, dst, message) — taps and the
         * adversary run Python, so the list is re-measured per step. */
        for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(fast); i++) {
            PyObject *dst = Py_NewRef(PySequence_Fast_GET_ITEM(fast, i));
            int sent = network_send_one(self, src, dst, message, kind);
            Py_DECREF(dst);
            if (sent < 0)
                goto done;
        }
        rc = 0;
        goto done;
    }
    /* sent += len(dsts) */
    COUNTER(self->stats, offsets[STAT_SENT]) += n;
    if ((deliver = PyObject_GetAttr(self->network, str_deliver_attr)) == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *dst = PySequence_Fast_GET_ITEM(fast, i);
        double delay = sample_delay(self, src, dst);
        if (delay <= 0
            || push_uncancellable(self->sched, self->sched->now + delay,
                                  deliver, PyTuple_Pack(4, src, dst, message,
                                                        kind)) < 0)
            goto done;
    }
    rc = 0;
done:
    Py_XDECREF(deliver);
    Py_XDECREF(kind);
    Py_DECREF(fast);
    return rc;
}

/* Network._deliver, mirrored exactly: a message the fault verdict
 * blocks is counted dropped; any other is counted delivered and handed
 * to ``self._nodes[dst].on_message(src, message)``. */
static int
network_deliver(NetworkCore *self, PyObject *src, PyObject *dst,
                PyObject *message, PyObject *kind)
{
    /* A node that crashed while the message was in flight drops it. */
    int blocked = fault_blocks(self, src, dst);
    if (blocked < 0)
        return -1;
    if (blocked)
        return stats_bump(self, STAT_DROPPED);
    stats_bump(self, STAT_DELIVERED);
    PyObject *node = PyDict_GetItemWithError(self->nodes, dst);
    if (node == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetObject(PyExc_KeyError, dst);
        return -1;
    }
    /* Borrowed node ref stays alive: the nodes dict is never mutated
     * from inside on_message (nodes are only added during set-up). */
    Py_INCREF(node);
    PyObject *handler = PyObject_GetAttr(node, str_on_message);
    if (handler == NULL) {
        Py_DECREF(node);
        return -1;
    }
    int rc;
    if (Py_TYPE(handler) == &ServerCore_Type
        || Py_TYPE(handler) == &ClientCore_Type) {
        /* A protocol core installed as the node's instance attribute:
         * stay in C end to end (the core falls back to the Python
         * handler itself for a message it does not transcribe). */
        rc = protocolcore_invoke(handler, src, message);
    }
    else {
        PyObject *res = PyObject_CallFunctionObjArgs(
            handler, src, message, NULL);
        rc = res == NULL ? -1 : 0;
        Py_XDECREF(res);
    }
    Py_DECREF(handler);
    Py_DECREF(node);
    return rc;
}

/* The three entry points as Python sees them. */
static PyObject *
networkcore_send(NetworkCore *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "send expects (src, dst, message)");
        return NULL;
    }
    if (network_send(self, args[0], args[1], args[2]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
networkcore_broadcast(NetworkCore *self, PyObject *const *args,
                      Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "broadcast expects (src, dsts, message)");
        return NULL;
    }
    if (network_broadcast(self, args[0], args[1], args[2]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
networkcore_deliver(NetworkCore *self, PyObject *const *args,
                    Py_ssize_t nargs)
{
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "_deliver expects (src, dst, message, kind)");
        return NULL;
    }
    if (network_deliver(self, args[0], args[1], args[2], args[3]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* The NetworkCore installed as ``network.send``, as a new reference — a
 * protocol core's route onto the wire, bound once.  TypeError when the
 * network has none. */
static NetworkCore *
networkcore_of(PyObject *network)
{
    PyObject *send = PyObject_GetAttr(network, str_send_attr);
    NetworkCore *core = send == NULL ? NULL
        : networkcore_behind(send, NETWORK_ENTRY(networkcore_send));
    Py_XINCREF(core);
    Py_XDECREF(send);
    if (core == NULL && !PyErr_Occurred())
        PyErr_SetString(PyExc_TypeError,
                        "a protocol core needs its network's native core");
    return core;
}

static PyMethodDef networkcore_methods[] = {
    {"send", NETWORK_ENTRY(networkcore_send), METH_FASTCALL,
     "Network.send: stats, taps, loss draw, fault check, adversary, "
     "delay sample, heap push."},
    {"broadcast", NETWORK_ENTRY(networkcore_broadcast), METH_FASTCALL,
     "Network.broadcast: batched on a healthy network, else send per "
     "destination."},
    {"_deliver", NETWORK_ENTRY(networkcore_deliver), METH_FASTCALL,
     "Network._deliver: fault check, stats update, then "
     "node.on_message(src, message)."},
    {NULL}
};

static PyTypeObject NetworkCore_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._native._kernel.NetworkCore",
    .tp_basicsize = sizeof(NetworkCore),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "The message path of a Network in C: its send, broadcast and "
              "_deliver methods are installed as the network's instance "
              "attributes.",
    .tp_new = networkcore_new,
    .tp_dealloc = (destructor)networkcore_dealloc,
    .tp_traverse = (traverseproc)networkcore_traverse,
    .tp_clear = (inquiry)networkcore_clear,
    .tp_methods = networkcore_methods,
};

/* ------------------------------------------------------------------ */
/* quorum_sample: Generator.choice(n, size=k, replace=False) in C      */
/* ------------------------------------------------------------------ */

/* numpy's choice(replace=False, shuffle=True) for 1-D integer ranges,
 * reproduced draw for draw from a bound bitgen_t: Floyd's algorithm (one
 * bounded draw per selection, duplicates remapped to the loop index)
 * followed by a descending Fisher-Yates shuffle — the exact draw sequence
 * numpy makes, so the Generator leaves this call in the same state as the
 * Python expression.  Bounded draws use Lemire rejection (use_masked=0),
 * matching Generator.integers.  Only called with a bitgen_t, which a
 * build without numpy's random library never binds. */
static PyObject *
quorum_sample(bitgen_t *bg, Py_ssize_t n, Py_ssize_t k)
{
#ifdef REPRO_HAVE_NPYRANDOM
    if (n < 1 || k < 1 || k > n) {
        PyErr_Format(PyExc_ValueError,
                     "quorum_sample needs 1 <= k <= n, got n=%zd k=%zd",
                     n, k);
        return NULL;
    }
    if (k > 65536) {
        PyErr_SetString(PyExc_ValueError,
                        "quorum_sample caps k at 65536");
        return NULL;
    }
    int64_t stack_buf[128];
    int64_t *idx = stack_buf;
    if (k > 128) {
        idx = PyMem_Malloc((size_t)k * sizeof(int64_t));
        if (idx == NULL)
            return PyErr_NoMemory();
    }
    Py_ssize_t cnt = 0;
    for (Py_ssize_t j = n - k; j < n; j++) {
        int64_t v = (int64_t)random_bounded_uint64(
            bg, 0, (uint64_t)j, 0, 0);
        for (Py_ssize_t s = 0; s < cnt; s++) {
            if (idx[s] == v) {
                v = (int64_t)j;
                break;
            }
        }
        idx[cnt++] = v;
    }
    for (Py_ssize_t i = k - 1; i > 0; i--) {
        Py_ssize_t j = (Py_ssize_t)random_bounded_uint64(
            bg, 0, (uint64_t)i, 0, 0);
        int64_t tmp = idx[i];
        idx[i] = idx[j];
        idx[j] = tmp;
    }
    PyObject *result = PyFrozenSet_New(NULL);
    for (Py_ssize_t i = 0; result != NULL && i < k; i++) {
        PyObject *member = PyLong_FromLongLong((long long)idx[i]);
        if (member == NULL || PySet_Add(result, member) < 0)
            Py_CLEAR(result);
        Py_XDECREF(member);
    }
    if (idx != stack_buf)
        PyMem_Free(idx);
    return result;
#else
    Py_UNREACHABLE();
#endif
}

static PyObject *
kernel_quorum_sample(PyObject *module, PyObject *const *args,
                     Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "quorum_sample expects (rng, n, k)");
        return NULL;
    }
    Py_ssize_t n = PyLong_AsSsize_t(args[1]);
    Py_ssize_t k = n == -1 && PyErr_Occurred() ? -1
        : PyLong_AsSsize_t(args[2]);
    PyObject *holder;
    bitgen_t *bg;
    if ((k == -1 && PyErr_Occurred()) || ensure_network_types() < 0
        || bind_bits(args[0], &holder, &bg) < 0)
        return NULL;
    if (bg == NULL) {
        PyErr_SetString(PyExc_TypeError,
                        "quorum_sample needs a numpy Generator and a build "
                        "linked against numpy's random library");
        return NULL;
    }
    PyObject *result = quorum_sample(bg, n, k);
    Py_DECREF(holder);
    return result;
}

/* ------------------------------------------------------------------ */
/* Future and gather: an operation's result cell in C                  */
/* ------------------------------------------------------------------ */

/* ``repro.sim.futures.Future`` with the same API and semantics —
 * callbacks run in registration order, a second settle raises
 * FutureError, the first callback that raises stops the rest — plus
 * ``gather``'s countdown.  A gather's combined future is a Future whose
 * ``inputs`` is set: each input holds it as a callback, and settling the
 * input steps its countdown without a call.  The client core settles the
 * futures it builds in place; ``repro.sim.futures.gather`` hands a list
 * made only of these futures to kernel_gather. */
#define FUTURE_FIELDS(X)                                                 \
    X(value, PyObject)     /* NULL: None */                              \
    X(exception, PyObject) /* NULL: none */                              \
    X(label, PyObject)                                                   \
    X(callback, PyObject)  /* the first callback, or NULL */             \
    X(more, PyObject)      /* later callbacks, a list, or NULL */        \
    X(inputs, PyObject)    /* a gather's input tuple; () once settled */

typedef struct {
    PyObject_HEAD
    FUTURE_FIELDS(CORE_FIELD)
    Py_ssize_t remaining; /* a gather's inputs not yet resolved */
    char done;
} Future;

static PyTypeObject Future_Type;
CORE_GC(future, Future, FUTURE_FIELDS)
static PyObject *future_error = NULL; /* repro.sim.futures.FutureError */

/* An operation's future is labelled (kind, register, client id) until
 * its label is read: formatted here, "kind(register) by cN".  -1 on error. */
static int
future_named(Future *self)
{
    PyObject *op = self->label, *name;
    if (op == NULL || !PyTuple_CheckExact(op) || PyTuple_GET_SIZE(op) != 3)
        return 0;
    name = PyUnicode_FromFormat("%S(%S) by c%S", PyTuple_GET_ITEM(op, 0),
                                PyTuple_GET_ITEM(op, 1),
                                PyTuple_GET_ITEM(op, 2));
    if (name == NULL)
        return -1;
    Py_SETREF(self->label, name);
    return 0;
}

/* FutureError(f"future {label!r} {what}"); always -1. */
static int
future_error_raise(Future *self, const char *what)
{
    if (future_named(self) < 0)
        return -1;
    if (future_error == NULL
        && (future_error = import_attr("repro.sim.futures",
                                       "FutureError")) == NULL)
        return -1;
    PyErr_Format(future_error, "future %R %s", self->label, what);
    return -1;
}

/* A pending future labelled ``label``, or NULL. */
static Future *
future_create(PyObject *label)
{
    Future *self = (Future *)Future_Type.tp_alloc(&Future_Type, 0);
    if (self != NULL)
        self->label = Py_NewRef(label);
    return self;
}

static int gather_step(Future *self, Future *settled);

/* callback(future), or a gather's countdown step. */
static int
future_run(Future *self, PyObject *callback)
{
    if (Py_TYPE(callback) == &Future_Type
        && ((Future *)callback)->inputs != NULL)
        return gather_step((Future *)callback, self);
    PyObject *res = PyObject_CallOneArg(callback, (PyObject *)self);
    Py_XDECREF(res);
    return res == NULL ? -1 : 0;
}

/* Future.resolve(value) (exception NULL) / Future.fail(exception). */
static int
future_settle(Future *self, PyObject *value, PyObject *exception)
{
    if (self->done)
        return future_error_raise(self, "resolved twice");
    if (exception != NULL)
        self->exception = Py_NewRef(exception);
    else
        Py_XSETREF(self->value, Py_NewRef(value));
    self->done = 1;
    PyObject *first = self->callback, *more = self->more;
    self->callback = self->more = NULL;
    int rc = first == NULL ? 0 : future_run(self, first);
    for (Py_ssize_t i = 0; more != NULL && rc == 0
                           && i < PyList_GET_SIZE(more); i++)
        rc = future_run(self, PyList_GET_ITEM(more, i));
    Py_XDECREF(first);
    Py_XDECREF(more);
    return rc;
}

/* Future.add_callback: run now if settled, else keep for the settle. */
static int
future_add(Future *self, PyObject *callback)
{
    if (self->done)
        return future_run(self, callback);
    if (self->callback == NULL) {
        self->callback = Py_NewRef(callback);
        return 0;
    }
    if (self->more == NULL && (self->more = PyList_New(0)) == NULL)
        return -1;
    return PyList_Append(self->more, callback);
}

/* gather's on_done: input ``settled`` of the combined future ``self``
 * settled.  The first failure wins; otherwise a countdown, and the last
 * resolution resolves ``self`` with the inputs' values in input order.
 * Once ``self`` settles it drops its inputs. */
static int
gather_step(Future *self, Future *settled)
{
    if (self->done)
        return 0;
    PyObject *result = NULL;
    if (settled->exception == NULL) {
        if (--self->remaining > 0)
            return 0;
        Py_ssize_t n = PyTuple_GET_SIZE(self->inputs);
        if ((result = PyList_New(n)) == NULL)
            return -1;
        for (Py_ssize_t i = 0; i < n; i++) {
            PyObject *value = ((Future *)PyTuple_GET_ITEM(
                self->inputs, i))->value;
            PyList_SET_ITEM(result, i, Py_NewRef(value ? value : Py_None));
        }
    }
    Py_SETREF(self->inputs, PyTuple_New(0));
    int rc = future_settle(self, result, settled->exception);
    Py_XDECREF(result);
    return rc;
}

/* gather(futures, label): the countdown for a non-empty list or tuple of
 * native futures; None for anything else, which is the Python gather's. */
static PyObject *
kernel_gather(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "gather expects (futures, label)");
        return NULL;
    }
    PyObject *futures = args[0];
    if (!PyList_CheckExact(futures) && !PyTuple_CheckExact(futures))
        Py_RETURN_NONE;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(futures);
    for (Py_ssize_t i = 0; i < n; i++) {
        if (Py_TYPE(PySequence_Fast_GET_ITEM(futures, i)) != &Future_Type)
            n = 0;
    }
    if (n == 0)
        Py_RETURN_NONE;
    PyObject *inputs = PySequence_Tuple(futures);
    Future *combined = inputs == NULL ? NULL : future_create(args[1]);
    if (combined == NULL) {
        Py_XDECREF(inputs);
        return NULL;
    }
    combined->inputs = Py_NewRef(inputs); /* a step may drop it */
    combined->remaining = n;
    int rc = 0;
    for (Py_ssize_t i = 0; rc == 0 && i < n; i++)
        rc = future_add((Future *)PyTuple_GET_ITEM(inputs, i),
                        (PyObject *)combined);
    Py_DECREF(inputs);
    if (rc < 0)
        Py_CLEAR(combined);
    return (PyObject *)combined;
}

static PyObject *
future_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"label", NULL};
    PyObject *label = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|O:Future", kwlist, &label))
        return NULL;
    Future *self = (Future *)type->tp_alloc(type, 0);
    if (self != NULL)
        self->label = label ? Py_NewRef(label) : PyUnicode_FromString("");
    return (PyObject *)self;
}

static PyObject *
future_resolve(Future *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs > 1) {
        PyErr_SetString(PyExc_TypeError, "resolve takes at most one value");
        return NULL;
    }
    if (future_settle(self, nargs ? args[0] : Py_None, NULL) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
future_fail(Future *self, PyObject *exception)
{
    if (future_settle(self, NULL, exception) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
future_discard(Future *self, PyObject *Py_UNUSED(ignored))
{
    Py_CLEAR(self->callback);
    Py_CLEAR(self->more);
    Py_RETURN_NONE;
}

static PyObject *
future_add_callback(Future *self, PyObject *callback)
{
    if (future_add(self, callback) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* Future.result: the value, else ``raise`` the stored exception. */
static PyObject *
future_result(Future *self, PyObject *unused)
{
    PyObject *exc = self->exception;
    if (!self->done)
        future_error_raise(self, "is not resolved yet");
    else if (exc == NULL)
        return Py_NewRef(self->value ? self->value : Py_None);
    else if (PyExceptionInstance_Check(exc))
        PyErr_SetObject((PyObject *)Py_TYPE(exc), exc);
    else if (PyExceptionClass_Check(exc))
        PyErr_SetNone(exc);
    else
        PyErr_SetString(PyExc_TypeError,
                        "exceptions must derive from BaseException");
    return NULL;
}

static PyObject *
future_repr(Future *self)
{
    if (future_named(self) < 0)
        return NULL;
    if (!self->done)
        return PyUnicode_FromFormat("Future(%R, pending)", self->label);
    if (self->exception != NULL)
        return PyUnicode_FromFormat("Future(%R, failed(%R))", self->label,
                                    self->exception);
    return PyUnicode_FromFormat("Future(%R, done(%R))", self->label,
                                self->value ? self->value : Py_None);
}

static PyObject *
future_get_label(Future *self, void *closure)
{
    if (future_named(self) < 0)
        return NULL;
    return Py_NewRef(self->label ? self->label : Py_None);
}

static PyObject *
future_get_failed(Future *self, void *closure)
{
    return PyBool_FromLong(self->done && self->exception != NULL);
}

static PyGetSetDef future_getset[] = {
    {"label", (getter)future_get_label, NULL, "The future's name.", NULL},
    {"failed", (getter)future_get_failed, NULL,
     "True if the future settled with an exception.", NULL},
    {NULL}
};

static PyMemberDef future_members[] = {
    {"done", T_BOOL, offsetof(Future, done), READONLY,
     "True once the future has been resolved or failed."},
    {"exception", T_OBJECT, offsetof(Future, exception), READONLY,
     "The exception the future failed with, or None."},
    /* What the Python gather reads of an input (a mixed list). */
    {"_value", T_OBJECT, offsetof(Future, value), READONLY, NULL},
    {"_exception", T_OBJECT, offsetof(Future, exception), READONLY, NULL},
    {NULL}
};

static PyMethodDef future_methods[] = {
    {"resolve", (PyCFunction)(void (*)(void))future_resolve, METH_FASTCALL,
     "Settle the future with ``value`` and run callbacks."},
    {"fail", (PyCFunction)future_fail, METH_O,
     "Settle the future with an exception and run callbacks."},
    {"add_callback", (PyCFunction)future_add_callback, METH_O,
     "Register ``callback(self)``; runs immediately if already settled."},
    {"result", (PyCFunction)future_result, METH_NOARGS,
     "Return the value, raising the stored exception if it failed."},
    {"discard", (PyCFunction)future_discard, METH_NOARGS,
     "Drop the callbacks of a future that will never settle."},
    {NULL}
};

static PyTypeObject Future_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._native._kernel.Future",
    .tp_basicsize = sizeof(Future),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "repro.sim.futures.Future in C: a single-assignment result "
              "cell whose callbacks run in registration order.",
    .tp_new = future_new,
    .tp_dealloc = (destructor)future_dealloc,
    .tp_traverse = (traverseproc)future_traverse,
    .tp_clear = (inquiry)future_clear,
    .tp_repr = (reprfunc)future_repr,
    .tp_methods = future_methods,
    .tp_members = future_members,
    .tp_getset = future_getset,
};

/* ------------------------------------------------------------------ */
/* ProtocolCore: the register protocol without Python frames           */
/* ------------------------------------------------------------------ */

/* Native transcriptions of the two per-message protocol callbacks:
 * ``ReplicaServer.on_message`` (ServerCore) and the reply path of
 * ``QuorumRegisterClient.on_message`` + ``_finish`` + ``_teardown`` +
 * ``_redispatch`` (ClientCore, an interpreter of the client class's round
 * plans), plus the client's issue path and retry timer (ClientCore's read
 * / write / _retry methods).  Installed as instance attributes of the
 * node, like the network core's entry points; the Python methods remain
 * the reference implementation.  Each core is wired once, when it is
 * built: it holds its network's NetworkCore and sends through it
 * directly, and binds the node's configuration (see each core).
 *
 * A message that is not an exact instance of one of the seven message
 * types (a subclass, an unknown kind) takes the Python handler.  Loss,
 * faults, taps and an adversary matter only inside ``send``, which the
 * network core handles. */

/* Resolve the protocol classes lazily, on first core construction —
 * never at module import, so the extension stays importable alone. */
static int
ensure_protocol_types(void)
{
    static const char *const names[NMSG] = {
        "ReadQuery", "ReadReply", "WriteUpdate", "WriteAck", "StaleViewNack",
        "StateRequest", "StateReply"};
    if (timestamp_type != NULL)
        return 0;
    for (int i = 0; i < NMSG; i++) {
        PyObject *type = *msg_types[i] = import_attr(
            "repro.registers.messages", names[i]);
        /* make_message allocates messages as tuples (skipping the
         * generated NamedTuple __new__ frame): only valid for tuple
         * subtypes.  Each labels its messages with a class-level kind. */
        if (type != NULL && (!PyType_Check(type)
            || !PyType_IsSubtype((PyTypeObject *)type, &PyTuple_Type)))
            PyErr_SetString(PyExc_TypeError, "register protocol messages "
                            "must be tuple subclasses (typing.NamedTuple)");
        if (PyErr_Occurred()
            || (msg_kinds[i] = PyObject_GetAttr(type, str_kind_attr)) == NULL
            || !PyUnicode_Check(msg_kinds[i])
            || PyUnicode_GET_LENGTH(msg_kinds[i]) == 0) {
            if (!PyErr_Occurred())
                PyErr_Format(PyExc_TypeError, "%s.kind must be a non-empty "
                             "str", names[i]);
            goto fail;
        }
    }
    /* Assigned last: non-NULL timestamp_type marks full resolution. */
    if ((timestamp_type = import_attr("repro.core.timestamps",
                                      "Timestamp")) == NULL
        || bind_offsets(timestamp_type, TS_SEQ, 2, 0) < 0
        || (timestamp_zero = PyObject_GetAttrString(timestamp_type,
                                                    "ZERO")) == NULL)
        goto fail;
    return 0;
fail:
    for (int i = 0; i < NMSG; i++) {
        Py_CLEAR(*msg_types[i]);
        Py_CLEAR(msg_kinds[i]);
    }
    Py_CLEAR(timestamp_type);
    Py_CLEAR(timestamp_zero);
    return -1;
}

/* Resolve the classes of the client issue path (see their declarations). */
static int
ensure_issue_types(void)
{
    if (prob_quorum_type != NULL)
        return 0;
    PyObject *gamma_log = NULL;
    if ((quantiles_type = import_attr("repro.obs.quantiles",
                                      "StreamingQuantiles")) != NULL
        && (register_info_type = import_attr("repro.registers.space",
                                             "RegisterInfo")) != NULL
        && bind_offsets(quantiles_type, SQ_BUCKETS, 2, 0) == 0
        && bind_offsets(register_info_type, RI_HISTORY, 2, 0) == 0
        && (gamma_log = import_attr("repro.obs.quantiles", "_PER_LOG"))
        && (per_log = PyFloat_AsDouble(gamma_log), !PyErr_Occurred())
        /* Assigned last: non-NULL prob_quorum_type marks full resolution. */
        && (prob_quorum_type = import_attr("repro.quorum.probabilistic",
                                           "ProbabilisticQuorumSystem"))
            != NULL) {
        Py_DECREF(gamma_log);
        return 0;
    }
    Py_XDECREF(gamma_log);
    Py_CLEAR(quantiles_type);
    Py_CLEAR(register_info_type);
    return -1;
}

/* a > b under Timestamp's lexicographic (seq, writer) order, without
 * the Python __gt__ frame or its tuples: the comparison the tuples make,
 * on the slots — the first fields that are not == decide by >.  Non-exact
 * operand types take the generic comparison protocol.  1/0/-1 (error). */
static int
timestamp_gt(PyObject *a, PyObject *b)
{
    if ((PyObject *)Py_TYPE(a) != timestamp_type
        || (PyObject *)Py_TYPE(b) != timestamp_type)
        return PyObject_RichCompareBool(a, b, Py_GT);
    for (int i = TS_SEQ; i <= TS_WRITER; i++) {
        PyObject *x = Py_XNewRef(slot_peek(a, offsets[i]));
        PyObject *y = x ? Py_XNewRef(slot_peek(b, offsets[i])) : NULL;
        int eq = y ? PyObject_RichCompareBool(x, y, Py_EQ) : -1;
        int gt = eq ? -(eq < 0) : PyObject_RichCompareBool(x, y, Py_GT);
        Py_XDECREF(x);
        Py_XDECREF(y);
        if (eq != 1)
            return gt;
    }
    return 0;
}

/* The message NamedTuple cls(*fields) of its n borrowed fields, in one
 * allocation: what tuple.__new__ builds for the generated __new__, minus
 * its Python frame and the argument tuples. */
static PyObject *
make_message(PyObject *cls, Py_ssize_t n, ...)
{
    PyTypeObject *type = (PyTypeObject *)cls;
    PyObject *message = type->tp_alloc(type, n);
    va_list fields;
    va_start(fields, n);
    for (Py_ssize_t i = 0; message != NULL && i < n; i++)
        PyTuple_SET_ITEM(message, i, Py_NewRef(va_arg(fields, PyObject *)));
    va_end(fields);
    return message;
}

/* fallback(node, src, message): a protocol core's Python handler. */
static int
run_fallback(PyObject *fallback, PyObject *node, PyObject *src,
             PyObject *message)
{
    PyObject *res = PyObject_CallFunctionObjArgs(fallback, node, src,
                                                 message, NULL);
    Py_XDECREF(res);
    return res == NULL ? -1 : 0;
}

/* ------------------------------ ServerCore ------------------------- */

/* ReplicaServer.on_message, wired once: the server's replica dict, node
 * id and network core are bound when the core is built; its
 * ``view_state``, which membership installs, is read per message, and
 * it and the counters are bound by slot (``server_slots``). */
#define SERVER_CORE_FIELDS(X)                                            \
    X(server, PyObject)     /* the ReplicaServer */                      \
    X(fallback, PyObject)   /* type(server).on_message, unbound */       \
    X(net, NetworkCore)     /* its network's core */                     \
    X(replicas, PyObject)   /* server._replicas dict (shared) */         \
    X(node_id, PyObject)

enum { SV_READS, SV_WRITES, SV_STALE, SV_NACKS, SV_RETIRED, SV_UNKNOWN,
       SV_SERVED, SV_APPLIED, SV_VIEW_STATE, NSERVER_SLOTS };
static const char *const server_slots[NSERVER_SLOTS] = {
    "reads_served", "writes_applied", "stale_updates_ignored",
    "stale_nacks_sent", "retired_messages_ignored",
    "unknown_messages_ignored", "state_requests_served",
    "state_entries_applied", "view_state"};

typedef struct {
    PyObject_HEAD
    SERVER_CORE_FIELDS(CORE_FIELD)
    Py_ssize_t slots[NSERVER_SLOTS];
} ServerCore;

CORE_GC(servercore, ServerCore, SERVER_CORE_FIELDS)

static PyObject *
servercore_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *server, *network = NULL;
    if (!PyArg_ParseTuple(args, "O", &server) || ensure_protocol_types() < 0)
        return NULL;
    ServerCore *self = (ServerCore *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->server = Py_NewRef(server);
    if ((self->fallback = PyObject_GetAttr((PyObject *)Py_TYPE(server),
                                           str_on_message)) == NULL
        || (network = PyObject_GetAttr(server, str_network_attr)) == NULL
        || (self->net = networkcore_of(network)) == NULL
        || (self->replicas = PyObject_GetAttr(server,
                                              str_replicas_attr)) == NULL
        || (self->node_id = PyObject_GetAttr(server, str_node_id)) == NULL
        || slot_offsets((PyObject *)Py_TYPE(server), server_slots,
                        self->slots, NSERVER_SLOTS, SV_VIEW_STATE) < 0)
        goto fail;
    Py_CLEAR(network);
    if (PyDict_Check(self->replicas))
        return (PyObject *)self;
    PyErr_SetString(PyExc_TypeError, "server._replicas must be a dict");
fail:
    Py_XDECREF(network);
    Py_DECREF(self);
    return NULL;
}

/* An exact 2-tuple: a replica entry, or a StateReply item. */
#define IS_PAIR(obj) (PyTuple_CheckExact(obj) && PyTuple_GET_SIZE(obj) == 2)

/* The replica-dict probe: hot path is one C dict lookup; the cold path
 * (first message touching a register) takes the Python ``_replica``
 * method so space.info validation stays in one place.  Returns a strong
 * reference to the (timestamp, value) entry, or NULL. */
static PyObject *
servercore_replica(ServerCore *self, PyObject *reg)
{
    PyObject *entry = PyDict_GetItemWithError(self->replicas, reg);
    entry = entry != NULL ? Py_NewRef(entry) : PyErr_Occurred() ? NULL
        : PyObject_CallMethodObjArgs(self->server, str_replica_method, reg,
                                     NULL);
    if (entry != NULL && !IS_PAIR(entry)) {
        PyErr_SetString(PyExc_TypeError,
                        "replicas must be (timestamp, value) tuples");
        Py_CLEAR(entry);
    }
    return entry;
}

/* The server's ``view_state``, borrowed: None, or a ServerViewState (its
 * class resolved from the first one seen); NULL with an exception. */
static PyObject *
servercore_view_state(ServerCore *self)
{
    PyObject *state = slot_peek(self->server, self->slots[SV_VIEW_STATE]);
    if (state == NULL || state == Py_None)
        return state;
    if (view_state_type == NULL
        && ((view_state_type = import_attr("repro.membership.manager",
                                           "ServerViewState")) == NULL
            || bind_offsets(view_state_type, VS_RETIRED, 6, 0) < 0)) {
        Py_CLEAR(view_state_type);
        return NULL;
    }
    if ((PyObject *)Py_TYPE(state) != view_state_type)
        return PyErr_Format(PyExc_TypeError, "server.view_state must be None "
                            "or a ServerViewState, not %.100s",
                            Py_TYPE(state)->tp_name);
    return state;
}

/* ``ReplicaServer._gate`` plus the reply stamp.  Returns a new
 * reference to the view id the reply carries — 0 on a static deployment
 * (no view_state), else state.view_id — or NULL.  NULL with no exception
 * set means no reply is due, counted here as in Python: a retired server
 * ignored the request, or an active member nacked an older stamp (a
 * draining leaver keeps answering those). */
static PyObject *
servercore_gate(ServerCore *self, PyObject *src, PyObject *message,
                PyObject *request_view)
{
    PyObject *state = servercore_view_state(self);
    if (state == NULL || state == Py_None)
        return state ? Py_NewRef(py_zero) : NULL;
    Py_INCREF(state);
    PyObject *view_id = NULL;
    int stale = 0;
    int retired = slot_truth(state, offsets[VS_RETIRED]);
    if (retired == 0) {
        view_id = Py_XNewRef(slot_peek(state, offsets[VS_VIEW_ID]));
        stale = view_id == NULL
            ? -1 : PyObject_RichCompareBool(request_view, view_id, Py_LT);
        if (stale > 0) {
            int retiring = slot_truth(state, offsets[VS_RETIRING]);
            stale = retiring < 0 ? -1 : !retiring;
        }
    }
    Py_DECREF(state);
    if (retired > 0)
        COUNTER(self->server, self->slots[SV_RETIRED]) += 1;
    else if (stale > 0) {
        COUNTER(self->server, self->slots[SV_NACKS]) += 1;
        PyObject *nack = make_message(
            msg_stale_view_nack, 3, PyTuple_GET_ITEM(message, 0),
            PyTuple_GET_ITEM(message, 1), view_id);
        if (nack != NULL) {
            network_send(self->net, self->node_id, src, nack);
            Py_DECREF(nack);
        }
    }
    if (retired || stale)
        Py_CLEAR(view_id);
    return view_id;
}

/* ``ReplicaServer._on_state_request``: a member's sorted replica items;
 * unknown without a view state, ignored when retired (both counted). */
static int
servercore_state_request(ServerCore *self, PyObject *src, PyObject *message)
{
    PyObject *state = servercore_view_state(self);
    int retired = state == NULL ? -1
        : state == Py_None ? 0 : slot_truth(state, offsets[VS_RETIRED]);
    PyObject *items = NULL, *entries = NULL, *view_id, *reply = NULL;
    if (retired > 0 || state == Py_None)
        COUNTER(self->server,
                self->slots[retired ? SV_RETIRED : SV_UNKNOWN]) += 1;
    else if (retired == 0 && (items = PyDict_Items(self->replicas)) != NULL
             && PyList_Sort(items) == 0
             && (entries = PyList_AsTuple(items)) != NULL
             && (view_id = slot_peek(state, offsets[VS_VIEW_ID])) != NULL) {
        COUNTER(self->server, self->slots[SV_SERVED]) += 1;
        reply = make_message(msg_state_reply, 3,
                             PyTuple_GET_ITEM(message, 0), view_id, entries);
    }
    int rc = reply != NULL ? network_send(self->net, self->node_id, src, reply)
        : PyErr_Occurred() ? -1 : 0;
    Py_XDECREF(reply);
    Py_XDECREF(entries);
    Py_XDECREF(items);
    return rc;
}

/* One (register, entry) item of a StateReply, merged into the joiner's
 * replicas: installed, and counted, when it is newer than the replica (an
 * untouched register's is at Timestamp.ZERO). */
static int
servercore_merge_entry(ServerCore *self, PyObject *item)
{
    PyObject *entry = IS_PAIR(item) ? PyTuple_GET_ITEM(item, 1) : NULL;
    PyObject *reg = entry && IS_PAIR(entry) ? PyTuple_GET_ITEM(item, 0) : NULL;
    PyObject *current = reg == NULL ? NULL
        : Py_XNewRef(PyDict_GetItemWithError(self->replicas, reg));
    int newer = -1;
    if (reg == NULL || (current != NULL && !IS_PAIR(current)))
        PyErr_SetString(PyExc_TypeError, "state entries and replicas must "
                        "be (timestamp, value) tuples");
    else if (!PyErr_Occurred()
             && (newer = timestamp_gt(PyTuple_GET_ITEM(entry, 0), current
                                      ? PyTuple_GET_ITEM(current, 0)
                                      : timestamp_zero)) > 0) {
        COUNTER(self->server, self->slots[SV_APPLIED]) += 1;
        newer = PyDict_SetItem(self->replicas, reg, entry);
    }
    Py_XDECREF(current);
    return newer < 0 ? -1 : 0;
}

/* ``ReplicaServer._on_state_reply``: a reply of the joiner's open
 * transfer is merged, then reported to the manager (the one Python call);
 * any other is unknown, counted. */
static int
servercore_state_reply(ServerCore *self, PyObject *src, PyObject *message)
{
    PyObject *state = Py_XNewRef(servercore_view_state(self));
    PyObject *open = state == NULL || state == Py_None ? NULL
        : Py_XNewRef(slot_peek(state, offsets[VS_TRANSFER_ID]));
    int rc = state == Py_None ? 1 : open == NULL ? -1
        : PyObject_RichCompareBool(PyTuple_GET_ITEM(message, 0), open, Py_NE);
    PyObject *entries = PyTuple_GET_ITEM(message, 2);
    if (rc > 0)
        COUNTER(self->server, self->slots[SV_UNKNOWN]) += 1;
    for (Py_ssize_t i = 0; rc == 0 && i < PyTuple_GET_SIZE(entries); i++)
        rc = servercore_merge_entry(self, PyTuple_GET_ITEM(entries, i));
    PyObject *manager = rc == 0 ? slot_peek(state, offsets[VS_MANAGER]) : NULL;
    PyObject *index = manager ? slot_peek(state, offsets[VS_INDEX]) : NULL;
    PyObject *res = index == NULL ? NULL : PyObject_CallMethodObjArgs(
        manager, str_on_transfer_reply, index, src, NULL);
    Py_XDECREF(res);
    Py_XDECREF(open);
    Py_XDECREF(state);
    return rc > 0 || res != NULL ? 0 : -1;
}

static int
servercore_invoke(ServerCore *self, PyObject *src, PyObject *message)
{
    PyObject *msg_type = (PyObject *)Py_TYPE(message);
    int is_read = msg_type == msg_read_query;
    if (msg_type == msg_state_request)
        return servercore_state_request(self, src, message);
    if (msg_type == msg_state_reply
        && PyTuple_Check(PyTuple_GET_ITEM(message, 2)))
        return servercore_state_reply(self, src, message);
    if (!is_read && msg_type != msg_write_update)
        /* Anything else — unknown kinds, message subclasses, entries that
         * are not a tuple — takes the Python handler. */
        return run_fallback(self->fallback, self->server, src, message);
    PyObject *view_id = servercore_gate(
        self, src, message, PyTuple_GET_ITEM(message, is_read ? 2 : 4));
    if (view_id == NULL)
        return PyErr_Occurred() ? -1 : 0;
    PyObject *reg = PyTuple_GET_ITEM(message, 0);
    PyObject *op_id = PyTuple_GET_ITEM(message, 1);
    PyObject *reply = NULL;
    PyObject *entry = servercore_replica(self, reg);
    if (entry == NULL)
        goto done;
    if (is_read) {
        COUNTER(self->server, self->slots[SV_READS]) += 1;
        reply = make_message(msg_read_reply, 5, reg, op_id,
                             PyTuple_GET_ITEM(entry, 1),
                             PyTuple_GET_ITEM(entry, 0), view_id);
        Py_DECREF(entry);
    }
    else {
        PyObject *value = PyTuple_GET_ITEM(message, 2);
        PyObject *ts = PyTuple_GET_ITEM(message, 3);
        int newer = timestamp_gt(ts, PyTuple_GET_ITEM(entry, 0));
        Py_DECREF(entry);
        if (newer < 0)
            goto done;
        if (newer) {
            PyObject *fresh = PyTuple_Pack(2, ts, value);
            if (fresh == NULL)
                goto done;
            int rc = PyDict_SetItem(self->replicas, reg, fresh);
            Py_DECREF(fresh);
            if (rc < 0)
                goto done;
        }
        COUNTER(self->server, self->slots[newer ? SV_WRITES : SV_STALE]) += 1;
        reply = make_message(msg_write_ack, 3, reg, op_id, view_id);
    }
done:
    Py_DECREF(view_id);
    if (reply == NULL)
        return -1;
    int rc = network_send(self->net, self->node_id, src, reply);
    Py_DECREF(reply);
    return rc;
}

/* A server or client core called as on_message(src, message). */
static PyObject *
protocolcore_call(PyObject *core, PyObject *args, PyObject *kwds)
{
    PyObject *src, *message;
    if (kwds != NULL && PyDict_GET_SIZE(kwds) != 0) {
        PyErr_SetString(PyExc_TypeError,
                        "on_message takes no keyword arguments");
        return NULL;
    }
    if (!PyArg_UnpackTuple(args, "on_message", 2, 2, &src, &message))
        return NULL;
    if (protocolcore_invoke(core, src, message) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyTypeObject ServerCore_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._native._kernel.ServerCore",
    .tp_basicsize = sizeof(ServerCore),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "ReplicaServer.on_message as a C callable: replica probe, "
              "timestamp compare, install-or-ignore, reply send.",
    .tp_new = servercore_new,
    .tp_dealloc = (destructor)servercore_dealloc,
    .tp_traverse = (traverseproc)servercore_traverse,
    .tp_clear = (inquiry)servercore_clear,
    .tp_call = protocolcore_call,
};

/* ------------------------------ ClientCore ------------------------- */

/* A client class's round plan (``READ_PLAN`` / ``WRITE_PLAN``, see
 * registers/client.py), decoded once, when the core is built: per round
 * the request, the decision over its replies and what it carries.  The
 * codes are the positions of the Python constants in plan_steps. */
enum { DECIDE_NONE, DECIDE_MAX_TS, DECIDE_VOUCHED };
enum { CARRY_NONE, CARRY_OWN_SEQ, CARRY_NEXT_SEQ, CARRY_CHOSEN };
#define MAX_ROUNDS 4
static const char *const plan_steps[3][4] = {
    {"update", "query"},
    {NULL, "max_ts", "vouched"},
    {NULL, "own_seq", "next_seq", "chosen"},
};
static const int plan_codes[3] = {2, 3, 4};

typedef struct {
    int query, decision, carry;
} Round;

typedef struct {
    int n;
    Round rounds[MAX_ROUNDS];
} Plan;

/* QuorumRegisterClient, wired once.  Besides the client's shared tables
 * the core binds its configuration when it is built: the round plans,
 * the retry policy (an exact RetryPolicy, a frozen dataclass: its four
 * doubles) and jitter stream, the static quorum system (n and k of an
 * exact ProbabilisticQuorumSystem) and quorum stream, the two live latency
 * sketches, the spec monitor and the two timer callbacks; under
 * membership, each view's draw when the client adopts the view.  Read per
 * call, because they change during a run: the clock, the pending ops,
 * ``failures.active``, the membership state (``_membership``, ``_view``,
 * ``_view_rng``, ``view_id``) and the round-trip estimator (``_srtt``,
 * ``_rttvar``), the last six and the counters by slot (``client_slots``).
 * The retry callback is the unbound method, so the core holds no
 * reference to itself.  No core is built for a client with span tracing
 * on, so every op a core sees is one it built. */
#define CLIENT_CORE_FIELDS(X)                                            \
    X(client, PyObject)       /* the QuorumRegisterClient */             \
    X(fallback, PyObject)     /* type(client).on_message, unbound */     \
    X(net, NetworkCore)       /* its network's core */                   \
    X(pending, PyObject)      /* client._pending dict (shared) */        \
    X(server_index, PyObject) /* client._server_index dict (shared) */   \
    X(cache, PyObject)        /* client._cache dict (shared) */          \
    X(registers, PyObject)    /* client.space._registers dict (shared) */ \
    X(server_ids, PyObject)   /* client.server_ids list (shared) */      \
    X(op_ids, PyObject)       /* client._op_ids iterator */              \
    X(write_seq, PyObject)    /* client._write_seq dict (shared) */      \
    X(client_id, PyObject)                                               \
    X(node_id, PyObject)                                                 \
    X(read_plan, PyObject)    /* READ_PLAN, handed to every read op */   \
    X(write_plan, PyObject)                                              \
    X(policy, PyObject)       /* retry_policy, or None */                \
    X(deadline, PyObject)     /* its deadline, None without one */       \
    X(max_attempts, PyObject) /* its max_attempts, None without one */   \
    X(retry_rng, PyObject)    /* the jitter stream */                    \
    X(retry_bits, PyObject)                                              \
    X(quorum_bits, PyObject)  /* the quorum stream's, for native draws */ \
    X(read_latency, PyObject) /* the live latency sketches, or NULL */   \
    X(write_latency, PyObject)                                           \
    X(monitor, PyObject)      /* spec_monitor, or NULL */                \
    X(retry_cb, PyObject)     /* ClientCore._retry, called (core, op_id) */\
    X(expire_cb, PyObject)    /* client._expire */                       \
    X(view, PyObject)         /* the _view the view draw is bound to */  \
    X(view_rng, PyObject)     /* the _view_rng it is bound to */         \
    X(view_members, PyObject) /* that view's members tuple */            \
    X(views, PyObject)        /* the manager's views list */

enum { CL_READS, CL_WRITES, CL_CACHE_HITS, CL_COMPLETED, CL_UNDER_FAILURE,
       CL_RETRIES, CL_STALE_NACKS, CL_VIEW_ID, CL_MEMBERSHIP, CL_VIEW,
       CL_VIEW_RNG, CL_SRTT, CL_RTTVAR, NCLIENT_SLOTS };
static const char *const client_slots[NCLIENT_SLOTS] = {
    "reads_performed", "writes_performed", "cache_hits", "ops_completed",
    "ops_completed_under_failure", "retries", "stale_nacks", "view_id",
    "_membership", "_view", "_view_rng", "_srtt", "_rttvar"};

typedef struct {
    PyObject_HEAD
    CLIENT_CORE_FIELDS(CORE_FIELD)
    Py_ssize_t slots[NCLIENT_SLOTS];
    Plan plans[2];       /* [0] READ_PLAN, [1] WRITE_PLAN */
    double retry[4];     /* interval, backoff, jitter, max_interval */
    bitgen_t *retry_bg;
    bitgen_t *quorum_bg; /* NULL: the quorum is a method's draw */
    Py_ssize_t n, k;     /* the shape of the static system or bound view */
    int monotone;
} ClientCore;

/* ``registers.client._PendingOp`` as a struct: the op the client core
 * builds and reads and writes as members.  Its fields are the slots of
 * ``_PendingOp``, exposed under the same names (so the Python _expire,
 * _give_up, _teardown and MaskingClient._vouched work on it); each holds
 * an object from construction on, and deleting one is refused. */
#define PENDING_OP_FIELDS(X)                                           \
    X(op_id, "op_id") X(reg, "register") X(kind, "kind")               \
    X(plan, "plan") X(stage, "stage") X(is_read, "is_read")            \
    X(quorum, "quorum") X(replies, "replies") X(future, "future")      \
    X(record, "record") X(value, "value") X(timestamp, "timestamp")    \
    X(retry_handle, "retry_handle") X(deadline_handle, "deadline_handle") \
    X(attempts, "attempts") X(started, "started") X(span, "span")      \
    X(message, "message") X(view, "view")

typedef struct {
    PyObject_HEAD
#define OP_FIELD(field, name) PyObject *field;
    PENDING_OP_FIELDS(OP_FIELD)
#undef OP_FIELD
} PendingOp;

CORE_GC(pendingop, PendingOp, PENDING_OP_FIELDS)

static PyObject *
pendingop_get(PyObject *self, void *offset)
{
    PyObject *value = *(PyObject **)((char *)self + (size_t)offset);
    if (value == NULL) /* cleared by the collector */
        PyErr_SetString(PyExc_AttributeError, "PendingOp field cleared");
    return Py_XNewRef(value);
}

static int
pendingop_set(PyObject *self, PyObject *value, void *offset)
{
    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError,
                        "PendingOp fields cannot be deleted");
        return -1;
    }
    Py_XSETREF(*(PyObject **)((char *)self + (size_t)offset),
               Py_NewRef(value));
    return 0;
}

static PyGetSetDef pendingop_getset[] = {
#define OP_GETSET(field, name) {name, pendingop_get, pendingop_set, NULL, \
                                (void *)offsetof(PendingOp, field)},
    PENDING_OP_FIELDS(OP_GETSET)
#undef OP_GETSET
    {NULL}
};

static PyTypeObject PendingOp_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._native._kernel.PendingOp",
    .tp_basicsize = sizeof(PendingOp),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "registers.client._PendingOp in C: one in-flight operation "
              "of a client core.",
    .tp_dealloc = (destructor)pendingop_dealloc,
    .tp_traverse = (traverseproc)pendingop_traverse,
    .tp_clear = (inquiry)pendingop_clear,
    .tp_getset = pendingop_getset,
};

/* _PendingOp(op_id, register, kind, plan, quorum, future, record, value)
 * with op.view = view, for a read (is_read) or a write of this core's;
 * the arguments are borrowed, the fields not given here None until
 * _begin sets them. */
static PendingOp *
pendingop_create(ClientCore *core, int is_read, PyObject *op_id,
                 PyObject *reg, PyObject *quorum, Future *future,
                 PyObject *record, PyObject *value, PyObject *view)
{
    PyObject *replies = PyDict_New();
    PendingOp *op = replies == NULL ? NULL
        : (PendingOp *)PendingOp_Type.tp_alloc(&PendingOp_Type, 0);
    if (op == NULL) {
        Py_XDECREF(replies);
        return NULL;
    }
#define OP_NONE(field, name) op->field = Py_NewRef(Py_None);
    PENDING_OP_FIELDS(OP_NONE)
#undef OP_NONE
    Py_SETREF(op->op_id, Py_NewRef(op_id));
    Py_SETREF(op->reg, Py_NewRef(reg));
    Py_SETREF(op->kind, Py_NewRef(is_read ? str_read_kind : str_write_kind));
    Py_SETREF(op->plan, Py_NewRef(is_read ? core->read_plan
                                          : core->write_plan));
    Py_SETREF(op->stage, Py_NewRef(py_zero));
    Py_SETREF(op->is_read,
              PyBool_FromLong(core->plans[!is_read].rounds[0].query));
    Py_SETREF(op->quorum, Py_NewRef(quorum));
    Py_SETREF(op->replies, replies);
    Py_SETREF(op->future, Py_NewRef((PyObject *)future));
    Py_SETREF(op->record, Py_NewRef(record));
    Py_SETREF(op->value, Py_NewRef(value));
    Py_SETREF(op->attempts, Py_NewRef(py_zero));
    Py_SETREF(op->view, Py_NewRef(view));
    return op;
}

/* The code of ``step``: its position among plan_steps[field], or -1. */
static int
plan_code(int field, PyObject *step)
{
    for (int code = 0; code < plan_codes[field]; code++) {
        const char *text = plan_steps[field][code];
        if (text == NULL) {
            if (step == Py_None)
                return code;
        }
        else if (PyUnicode_Check(step)
                 && PyUnicode_CompareWithASCIIString(step, text) == 0)
            return code;
    }
    return -1;
}

/* The plan ``source`` (the client's ``name``) into ``plan``; ValueError
 * for a plan this interpreter has no code for. */
static int
read_plan(PyObject *source, PyObject *name, Plan *plan)
{
    Py_ssize_t n = PyTuple_Check(source) ? PyTuple_GET_SIZE(source) : 0;
    int valid = n >= 1 && n <= MAX_ROUNDS;
    for (Py_ssize_t i = 0; valid && i < n; i++) {
        PyObject *round = PyTuple_GET_ITEM(source, i);
        if (!PyTuple_Check(round) || PyTuple_GET_SIZE(round) != 3) {
            valid = 0;
            break;
        }
        int codes[3];
        for (int j = 0; j < 3; j++) {
            codes[j] = plan_code(j, PyTuple_GET_ITEM(round, j));
            if (codes[j] < 0)
                valid = 0;
        }
        plan->rounds[i] = (Round){codes[0], codes[1], codes[2]};
    }
    if (!valid) {
        PyErr_Format(PyExc_ValueError,
                     "%U must be a tuple of 1 to %d (request, decision, "
                     "carry) rounds of registers.client's constants, got %R",
                     name, MAX_ROUNDS, source);
        return -1;
    }
    plan->n = (int)n;
    return 0;
}

/* The shape of an exact ProbabilisticQuorumSystem, whose quorum()
 * quorum_sample reproduces — the bits ``quorum()`` draws with or without
 * the class-level sampler installed, under the same k cap; its k distinct
 * members of {0..n-1} always pass ``validate_quorum``.  1 with *n and *k
 * set, 0 for any other system (drawn by its Python method), -1 on
 * error. */
static int
prob_quorum_shape(PyObject *system, Py_ssize_t *n, Py_ssize_t *k)
{
    if ((PyObject *)Py_TYPE(system) != prob_quorum_type)
        return 0;
    PyObject *n_obj = PyObject_GetAttr(system, str_n);
    PyObject *k_obj = n_obj ? PyObject_GetAttr(system, str_k) : NULL;
    *n = k_obj ? PyLong_AsSsize_t(n_obj) : -1;
    *k = k_obj && !PyErr_Occurred() ? PyLong_AsSsize_t(k_obj) : -1;
    Py_XDECREF(n_obj);
    Py_XDECREF(k_obj);
    return PyErr_Occurred() ? -1 : *k <= 4096;
}

/* The retry policy's fields: None for both without a policy; else also
 * retry[], the RetryPolicy's float fields (max_interval None: no cap). */
static int
clientcore_bind_retry(ClientCore *self)
{
    PyObject *policy = self->policy;
    if (policy == Py_None) {
        self->deadline = Py_NewRef(Py_None);
        self->max_attempts = Py_NewRef(Py_None);
        return 0;
    }
    if ((self->deadline = PyObject_GetAttr(policy, str_deadline)) == NULL
        || (self->max_attempts = PyObject_GetAttr(
                policy, str_max_attempts)) == NULL)
        return -1;
    PyObject *names[] = {str_interval, str_backoff, str_jitter,
                         str_max_interval};
    for (int i = 0; i < 4; i++) {
        PyObject *item = PyObject_GetAttr(policy, names[i]);
        if (item == NULL)
            return -1;
        self->retry[i] = item == Py_None ? INFINITY : PyFloat_AsDouble(item);
        Py_DECREF(item);
    }
    return PyErr_Occurred() ? -1 : 0;
}

static PyObject *
clientcore_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *client, *network = NULL, *space = NULL, *system = NULL;
    PyObject *rng = NULL, *latency = NULL, *monotone = NULL;
    if (!PyArg_ParseTuple(args, "O", &client)
        || ensure_protocol_types() < 0 || ensure_issue_types() < 0
        || ensure_network_types() < 0)
        return NULL;
    ClientCore *self = (ClientCore *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->client = Py_NewRef(client);
    if ((self->fallback = PyObject_GetAttr((PyObject *)Py_TYPE(client),
                                           str_on_message)) == NULL
        || (network = PyObject_GetAttr(client, str_network_attr)) == NULL
        || (self->net = networkcore_of(network)) == NULL
        || (self->pending = PyObject_GetAttr(client, str_pending_attr)) == NULL
        || (self->server_index = PyObject_GetAttr(client,
                                                  str_server_index)) == NULL
        || (self->cache = PyObject_GetAttr(client, str_cache_attr)) == NULL
        || (space = PyObject_GetAttr(client, str_space)) == NULL
        || (self->registers = PyObject_GetAttr(space,
                                               str_registers_attr)) == NULL
        || (self->server_ids = PyObject_GetAttr(client, str_server_ids)) == NULL
        || (self->op_ids = PyObject_GetAttr(client, str_op_ids)) == NULL
        || (self->write_seq = PyObject_GetAttr(client, str_write_seq)) == NULL
        || (self->client_id = PyObject_GetAttr(client, str_client_id)) == NULL
        || (self->node_id = PyObject_GetAttr(client, str_node_id)) == NULL
        || (self->read_plan = PyObject_GetAttr(client, str_read_plan)) == NULL
        || (self->write_plan = PyObject_GetAttr(client,
                                                str_write_plan)) == NULL
        || (self->policy = PyObject_GetAttr(client, str_retry_policy)) == NULL
        || (self->retry_rng = PyObject_GetAttr(client, str_retry_rng)) == NULL
        || (system = PyObject_GetAttr(client, str_quorum_system)) == NULL
        || (rng = PyObject_GetAttr(client, str_rng_attr)) == NULL
        || (latency = PyObject_GetAttr(client, str_latency_attr)) == NULL
        || (self->monitor = PyObject_GetAttr(client,
                                             str_spec_monitor)) == NULL
        || (self->retry_cb = PyObject_GetAttr((PyObject *)type,
                                              str_retry)) == NULL
        || (self->expire_cb = PyObject_GetAttr(client, str_expire)) == NULL
        || (monotone = PyObject_GetAttr(client, str_monotone)) == NULL
        || (self->monotone = PyObject_IsTrue(monotone)) < 0
        || slot_offsets((PyObject *)Py_TYPE(client), client_slots,
                        self->slots, NCLIENT_SLOTS, CL_VIEW_ID) < 0)
        goto fail;
    if (!PyDict_Check(self->pending) || !PyDict_Check(self->server_index)
        || !PyDict_Check(self->cache) || !PyDict_Check(self->registers)
        || !PyDict_Check(self->write_seq) || !PyList_Check(self->server_ids)
        || !PyIter_Check(self->op_ids)) {
        PyErr_SetString(PyExc_TypeError,
                        "client._pending, _server_index, _cache, _write_seq "
                        "and space._registers must be dicts, server_ids a "
                        "list, _op_ids an iterator");
        goto fail;
    }
    int native_quorum = prob_quorum_shape(system, &self->n, &self->k);
    if (read_plan(self->read_plan, str_read_plan, &self->plans[0]) < 0
        || read_plan(self->write_plan, str_write_plan, &self->plans[1]) < 0
        || clientcore_bind_retry(self) < 0
        || bind_bits(self->retry_rng, &self->retry_bits, &self->retry_bg) < 0
        || native_quorum < 0
        || (native_quorum && bind_bits(rng, &self->quorum_bits,
                                       &self->quorum_bg) < 0))
        goto fail;
    if (latency != Py_None
        && ((self->read_latency = PyObject_GetItem(latency,
                                                   str_read_kind)) == NULL
            || (self->write_latency = PyObject_GetItem(
                    latency, str_write_kind)) == NULL))
        goto fail;
    if (self->monitor == Py_None)
        Py_CLEAR(self->monitor);
    goto done;
fail:
    Py_CLEAR(self);
done:
    Py_XDECREF(monotone);
    Py_XDECREF(latency);
    Py_XDECREF(rng);
    Py_XDECREF(system);
    Py_XDECREF(space);
    Py_XDECREF(network);
    return (PyObject *)self;
}

CORE_GC(clientcore, ClientCore, CLIENT_CORE_FIELDS)

/* handle.cancel() unless handle is None, inlined for native handles. */
static int
cancel_handle(PyObject *handle)
{
    if (handle == Py_None)
        return 0;
    if (PyObject_TypeCheck(handle, &KernelHandle_Type)) {
        KernelHandle *kh = (KernelHandle *)handle;
        if (!kh->cancelled) {
            kh->cancelled = 1;
            if (kh->owner != NULL && !kh->dequeued)
                kh->owner->live -= 1;
        }
        return 0;
    }
    PyObject *res = PyObject_CallMethodObjArgs(handle, str_cancel, NULL);
    Py_XDECREF(res);
    return res == NULL ? -1 : 0;
}

/* space.info(register): the registry dict probe, the method on a miss
 * (which raises there).  A new reference to a RegisterInfo, whose
 * ``history`` and ``writer`` are read by slot, or NULL. */
static PyObject *
clientcore_info(ClientCore *self, PyObject *reg)
{
    PyObject *info = Py_XNewRef(PyDict_GetItemWithError(self->registers,
                                                        reg));
    PyObject *space = info || PyErr_Occurred()
        ? NULL : PyObject_GetAttr(self->client, str_space);
    if (space != NULL) {
        info = PyObject_CallMethodOneArg(space, str_info, reg);
        Py_DECREF(space);
    }
    if (info != NULL && (PyObject *)Py_TYPE(info) != register_info_type) {
        PyErr_Format(PyExc_TypeError, "register %R's info is not a "
                     "RegisterInfo", reg);
        Py_CLEAR(info);
    }
    return info;
}

/* _settle's monitor hook: spec_monitor.on_{read,write}_complete(
 * client_id, op.record, space.info(op.register).history), between the
 * record and the future — so a SpecViolation raised here leaves the
 * state the Python definition leaves. */
static int
clientcore_check_spec(ClientCore *self, PendingOp *op, int is_read)
{
    PyObject *monitor = self->monitor;
    if (monitor == NULL)
        return 0;
    PyObject *history = NULL, *res = NULL;
    PyObject *info = clientcore_info(self, op->reg);
    if (info != NULL
        && (history = Py_XNewRef(slot_peek(info, offsets[RI_HISTORY]))))
        res = PyObject_CallMethodObjArgs(
            monitor, is_read ? str_on_read_complete : str_on_write_complete,
            self->client_id, op->record, history, NULL);
    Py_XDECREF(res);
    Py_XDECREF(history);
    Py_XDECREF(info);
    return res == NULL ? -1 : 0;
}

static int clientcore_move(ClientCore *self, PendingOp *op);

/* The plan of op.kind — READ_PLAN for "read", else WRITE_PLAN — with
 * *is_read set to that choice and *stage to op.stage; NULL on error or a
 * stage outside the plan. */
static const Plan *
clientcore_plan(ClientCore *self, PendingOp *op, int *is_read, long *stage)
{
    *is_read = op->kind == str_read_kind
        ? 1 : PyObject_RichCompareBool(op->kind, str_read_kind, Py_EQ);
    if (*is_read < 0)
        return NULL;
    *stage = PyLong_AsLong(op->stage);
    if (*stage == -1 && PyErr_Occurred())
        return NULL;
    const Plan *plan = &self->plans[*is_read ? 0 : 1];
    if (*stage < 0 || *stage >= plan->n) {
        PyErr_SetString(PyExc_IndexError, "op.stage is outside its plan");
        return NULL;
    }
    return plan;
}

/* space.info(reg).history.<begin>(client_id, *args) — None when the
 * history is None.  A new reference, or NULL. */
static PyObject *
clientcore_record(ClientCore *self, PyObject *reg, PyObject *begin,
                  PyObject *a, PyObject *b, PyObject *c)
{
    PyObject *record = NULL, *history = NULL;
    PyObject *info = clientcore_info(self, reg);
    if (info != NULL
        && (history = Py_XNewRef(slot_peek(info, offsets[RI_HISTORY])))) {
        record = history == Py_None
            ? Py_NewRef(Py_None)
            : PyObject_CallMethodObjArgs(history, begin, self->client_id,
                                         a, b, c, NULL);
    }
    Py_XDECREF(history);
    Py_XDECREF(info);
    return record;
}

/* The first highest-timestamped ReadReply among the current quorum
 * members' replies, in the quorum's iteration order (replace only on
 * strictly greater).  Borrowed from ``replies``; NULL with an exception
 * set on error. */
static PyObject *
quorum_max_reply(PyObject *quorum, PyObject *replies)
{
    PyObject *iter = PyObject_GetIter(quorum);
    if (iter == NULL)
        return NULL;
    PyObject *best = NULL;
    PyObject *member;
    while ((member = PyIter_Next(iter)) != NULL) {
        PyObject *reply = PyDict_GetItemWithError(replies, member);
        Py_DECREF(member);
        if (reply == NULL) {
            if (PyErr_Occurred())
                break;
            continue; /* member answered for an earlier quorum only */
        }
        if ((PyObject *)Py_TYPE(reply) != msg_read_reply)
            continue;
        if (best == NULL) {
            best = reply;
            continue;
        }
        int gt = timestamp_gt(PyTuple_GET_ITEM(reply, 3),
                              PyTuple_GET_ITEM(best, 3));
        if (gt < 0)
            break;
        if (gt)
            best = reply;
    }
    Py_DECREF(iter);
    if (PyErr_Occurred())
        return NULL;
    if (best == NULL) {
        /* max() over an empty sequence — unreachable for a covered
         * round, kept for parity with the Python reference. */
        PyErr_SetString(PyExc_ValueError, "max() arg is an empty sequence");
    }
    return best;
}

/* The monotone cache of Section 6.2, for a read's final decision: a
 * newer cached pair replaces (*ts, *value) and counts a cache hit;
 * otherwise the decision is cached. */
static int
clientcore_monotone(ClientCore *self, PendingOp *op, PyObject **ts,
                    PyObject **value)
{
    PyObject *reg = op->reg;
    int rc = -1, serve_cached = 0;
    PyObject *cached = PyDict_GetItemWithError(self->cache, reg);
    Py_XINCREF(cached);
    if (cached == NULL && PyErr_Occurred())
        goto done;
    if (cached != NULL) {
        if (!PyTuple_Check(cached) || PyTuple_GET_SIZE(cached) != 2) {
            PyErr_SetString(PyExc_TypeError,
                            "monotone cache entries must be (timestamp, "
                            "value) tuples");
            goto done;
        }
        serve_cached = timestamp_gt(PyTuple_GET_ITEM(cached, 0), *ts);
        if (serve_cached < 0)
            goto done;
    }
    if (serve_cached) {
        Py_SETREF(*ts, Py_NewRef(PyTuple_GET_ITEM(cached, 0)));
        Py_SETREF(*value, Py_NewRef(PyTuple_GET_ITEM(cached, 1)));
        COUNTER(self->client, self->slots[CL_CACHE_HITS]) += 1;
        rc = 0;
    }
    else {
        PyObject *fresh = PyTuple_Pack(2, *ts, *value);
        if (fresh != NULL) {
            rc = PyDict_SetItem(self->cache, reg, fresh);
            Py_DECREF(fresh);
        }
    }
done:
    Py_XDECREF(cached);
    return rc;
}

/* QuorumRegisterClient._choose for the round in flight: the highest
 * timestamped quorum reply — through the monotone cache for a read's
 * final decision — or, for a vouched decision, one call to the Python
 * ``_vouched`` (masking reads: Byzantine runs only).  New references in
 * *ts / *value, or -1. */
static int
clientcore_choose(ClientCore *self, PendingOp *op, int decision, int final,
                  PyObject **ts, PyObject **value)
{
    if (decision == DECIDE_VOUCHED) {
        PyObject *pair = PyObject_CallMethodOneArg(self->client, str_vouched,
                                                   (PyObject *)op);
        if (pair == NULL)
            return -1;
        if (!PyTuple_Check(pair) || PyTuple_GET_SIZE(pair) != 2) {
            Py_DECREF(pair);
            PyErr_SetString(PyExc_TypeError,
                            "_vouched must return a (timestamp, value) pair");
            return -1;
        }
        *ts = Py_NewRef(PyTuple_GET_ITEM(pair, 0));
        *value = Py_NewRef(PyTuple_GET_ITEM(pair, 1));
        Py_DECREF(pair);
        return 0;
    }
    PyObject *best = quorum_max_reply(op->quorum, op->replies);
    if (best == NULL)
        return -1;
    *value = Py_NewRef(PyTuple_GET_ITEM(best, 2));
    *ts = Py_NewRef(PyTuple_GET_ITEM(best, 3));
    if (final && self->monotone
        && clientcore_monotone(self, op, ts, value) < 0) {
        Py_CLEAR(*ts);
        Py_CLEAR(*value);
        return -1;
    }
    return 0;
}

/* QuorumRegisterClient._carry: what the round entering flight carries —
 * the chosen pair, or a fresh timestamp of this client's (above the
 * chosen one too, for NEXT_SEQ) with the write's history record,
 * back-dated to op.started.  ``ts`` / ``value`` are the previous round's
 * decision, NULL before the first round. */
static int
clientcore_carry(ClientCore *self, PendingOp *op, int carry, PyObject *ts,
                 PyObject *value)
{
    if (carry == CARRY_NONE)
        return 0;
    if (carry != CARRY_OWN_SEQ && ts == NULL) {
        PyErr_SetString(PyExc_TypeError, "a round carrying a decision must "
                        "follow a deciding round");
        return -1;
    }
    if (carry == CARRY_CHOSEN) {
        Py_SETREF(op->timestamp, Py_NewRef(ts));
        Py_SETREF(op->value, Py_NewRef(value));
        return 0;
    }
    PyObject *queried = NULL, *stamp = NULL, *record = NULL;
    PyObject *seq = PyDict_GetItemWithError(self->write_seq, op->reg);
    if (seq == NULL && PyErr_Occurred())
        return -1;
    seq = Py_NewRef(seq ? seq : py_zero);
    if (carry == CARRY_NEXT_SEQ) {
        /* max(chosen.seq, own seq), read from a Timestamp's slot */
        queried = (PyObject *)Py_TYPE(ts) == timestamp_type
            ? Py_XNewRef(slot_peek(ts, offsets[TS_SEQ]))
            : PyErr_Format(PyExc_TypeError, "the chosen timestamp %R is "
                           "not a Timestamp", ts);
        int own = queried ? PyObject_RichCompareBool(seq, queried, Py_GT) : -1;
        if (own < 0)
            goto done;
        if (!own)
            Py_SETREF(seq, Py_NewRef(queried));
    }
    Py_SETREF(seq, PyNumber_Add(seq, py_one));
    if (seq == NULL || PyDict_SetItem(self->write_seq, op->reg, seq) < 0
        || (stamp = PyObject_CallFunctionObjArgs(
                timestamp_type, seq, self->client_id, NULL)) == NULL)
        goto done;
    Py_SETREF(op->timestamp, Py_NewRef(stamp));
    record = clientcore_record(self, op->reg, str_begin_write, op->started,
                               op->value, stamp);
    if (record != NULL)
        Py_SETREF(op->record, record);
done:
    Py_XDECREF(stamp);
    Py_XDECREF(queried);
    Py_XDECREF(seq);
    return record == NULL ? -1 : 0;
}

/* sketch.observe(elapsed): for an exact StreamingQuantiles and a
 * positive finite value its bucket bump and sum update are made here,
 * with its operations in its order; anything else calls it. */
static int
observe_latency(PyObject *sketch, double elapsed)
{
    PyObject *buckets = NULL, *key = NULL, *count = NULL, *sum = NULL;
    PyObject *res = NULL, *total;
    PyObject *value = PyFloat_FromDouble(elapsed);
    if (value == NULL)
        goto done;
    if ((PyObject *)Py_TYPE(sketch) != quantiles_type || !(elapsed > 0.0)
        || !(elapsed < INFINITY)
        || (buckets = Py_XNewRef(slot_peek(sketch, offsets[SQ_BUCKETS])))
            == NULL
        || !PyDict_CheckExact(buckets)) {
        if (!PyErr_Occurred())
            res = PyObject_CallMethodOneArg(sketch, str_observe, value);
        goto done;
    }
    /* self._buckets[ceil(log(value) * _PER_LOG)] += 1; self.sum += value */
    if ((key = PyLong_FromDouble(ceil(log(elapsed) * per_log))) == NULL)
        goto done;
    PyObject *old = PyDict_GetItemWithError(buckets, key);
    if (old == NULL && PyErr_Occurred())
        goto done;
    count = old ? PyNumber_Add(old, py_one) : Py_NewRef(py_one);
    if (count != NULL && PyDict_SetItem(buckets, key, count) == 0
        && (sum = Py_XNewRef(slot_peek(sketch, offsets[SQ_SUM]))) != NULL
        && (total = PyNumber_Add(sum, value)) != NULL) {
        Py_SETREF(SLOT(sketch, offsets[SQ_SUM]), total);
        res = Py_NewRef(Py_None);
    }
done:
    Py_XDECREF(sum);
    Py_XDECREF(count);
    Py_XDECREF(key);
    Py_XDECREF(buckets);
    Py_XDECREF(value);
    Py_XDECREF(res);
    return res == NULL ? -1 : 0;
}

/* QuorumRegisterClient._sample_rtt(sample): the RFC 6298 update of the
 * client's ``_srtt`` and ``_rttvar``, the Python double operations in
 * their order. */
static int
clientcore_sample_rtt(ClientCore *self, double sample)
{
    PyObject **srtt = &SLOT(self->client, self->slots[CL_SRTT]);
    PyObject **rttvar = &SLOT(self->client, self->slots[CL_RTTVAR]);
    double mean = sample, var = sample / 2.0;
    if (*srtt != Py_None) {
        double old = PyFloat_AsDouble(*srtt);
        var = 0.75 * PyFloat_AsDouble(*rttvar) + 0.25 * fabs(old - sample);
        mean = 0.875 * old + 0.125 * sample;
    }
    PyObject *mean_obj = PyErr_Occurred() ? NULL : PyFloat_FromDouble(mean);
    PyObject *var_obj = mean_obj ? PyFloat_FromDouble(var) : NULL;
    if (var_obj == NULL) {
        Py_XDECREF(mean_obj);
        return -1;
    }
    Py_XSETREF(*srtt, mean_obj);
    Py_XSETREF(*rttvar, var_obj);
    return 0;
}

/* QuorumRegisterClient._settle for an op of this core's: teardown,
 * counters, the live latency sketch, the history record, the spec
 * monitor's hook, then the future — named after the op's kind. */
static int
clientcore_settle(ClientCore *self, PendingOp *op, int is_read,
                  PyObject *ts, PyObject *value)
{
    if (PyDict_DelItem(self->pending, op->op_id) < 0
        || cancel_handle(op->retry_handle) < 0
        || cancel_handle(op->deadline_handle) < 0)
        return -1;
    COUNTER(self->client, self->slots[CL_COMPLETED]) += 1;
    double now_t = self->net->sched->now;
    int under_failure = slot_truth(self->net->failures,
                                   offsets[FI_ACTIVE]);
    if (under_failure < 0)
        return -1;
    COUNTER(self->client, self->slots[CL_UNDER_FAILURE]) += under_failure;
    PyObject *sketch = is_read ? self->read_latency : self->write_latency;
    double started = PyFloat_AsDouble(op->started);
    /* Only an op settled on its first attempt is a sample (Karn's rule). */
    int retried = PyObject_IsTrue(op->attempts);
    if ((started == -1.0 && PyErr_Occurred()) || retried < 0
        || (!retried && self->policy != Py_None
            && clientcore_sample_rtt(self, now_t - started) < 0)
        || (sketch != NULL && observe_latency(sketch, now_t - started) < 0))
        return -1;
    if (op->record != Py_None) {
        PyObject *now = PyFloat_FromDouble(now_t);
        PyObject *res = now == NULL ? NULL : is_read
            ? PyObject_CallMethodObjArgs(op->record, str_complete, now,
                                         value, ts, NULL)
            : PyObject_CallMethodObjArgs(op->record, str_respond, now, NULL);
        Py_XDECREF(now);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
    }
    if (clientcore_check_spec(self, op, is_read) < 0)
        return -1;
    return future_settle((Future *)op->future, is_read ? value : Py_None,
                         NULL);
}

/* The plan's next round on the same op: its stage, request kind, fresh
 * replies and message, its carry (from the decision ts / value), then a
 * fresh quorum and its first send. */
static int
clientcore_next_round(ClientCore *self, PendingOp *op, long stage,
                      const Round *round, PyObject *ts, PyObject *value)
{
    PyObject *next = PyLong_FromLong(stage);
    PyObject *fresh = next ? PyDict_New() : NULL;
    if (fresh == NULL) {
        Py_XDECREF(next);
        return -1;
    }
    Py_SETREF(op->stage, next);
    Py_SETREF(op->is_read, PyBool_FromLong(round->query));
    Py_SETREF(op->replies, fresh);
    Py_SETREF(op->message, Py_NewRef(Py_None));
    if (clientcore_carry(self, op, round->carry, ts, value) < 0)
        return -1;
    return clientcore_move(self, op) < 0 ? -1 : 0;
}

/* QuorumRegisterClient._finish: the round's decision, then the plan's
 * next round or the completion.  ``op`` is a strong reference held by
 * the caller. */
static int
clientcore_finish(ClientCore *self, PendingOp *op)
{
    int is_read;
    long stage;
    const Plan *plan = clientcore_plan(self, op, &is_read, &stage);
    if (plan == NULL)
        return -1;
    int rc = -1, final = stage + 1 == plan->n;
    PyObject *ts = NULL, *value = NULL;
    int decision = plan->rounds[stage].decision;
    if (decision != DECIDE_NONE
        && clientcore_choose(self, op, decision, final, &ts, &value) < 0)
        return -1;
    if (!final)
        rc = clientcore_next_round(self, op, stage + 1,
                                   &plan->rounds[stage + 1], ts, value);
    else {
        /* A read whose final round decides nothing returns the pair the
         * op carries (the ABD write-back installs what it returns). */
        if (is_read && ts == NULL) {
            ts = Py_NewRef(op->timestamp);
            value = Py_NewRef(op->value);
        }
        rc = clientcore_settle(self, op, is_read, ts, value);
    }
    Py_XDECREF(value);
    Py_XDECREF(ts);
    return rc;
}

/* op.complete_against_quorum(): quorum.issubset(replies) — a size
 * prefilter (replies can't cover a larger quorum), then a C membership
 * loop.  1/0, or -1 on error. */
static int
quorum_covered(PyObject *quorum, PyObject *replies)
{
    if (!PyDict_Check(replies)) {
        PyErr_SetString(PyExc_TypeError, "op.replies must be a dict");
        return -1;
    }
    if (PyAnySet_Check(quorum)
        && PyDict_GET_SIZE(replies) < PySet_GET_SIZE(quorum))
        return 0;
    PyObject *iter = PyObject_GetIter(quorum);
    if (iter == NULL)
        return -1;
    int covered = 1;
    PyObject *member;
    while (covered > 0 && (member = PyIter_Next(iter)) != NULL) {
        covered = PyDict_Contains(replies, member);
        Py_DECREF(member);
    }
    Py_DECREF(iter);
    return covered < 0 || PyErr_Occurred() ? -1 : covered;
}

/* Bind the view draw in place of the static one (1; 0 without
 * membership; -1 on error): the view's (n, k) for an exact
 * ProbabilisticQuorumSystem, members tuple, ``_view_rng``'s bitgen and the
 * manager's ``views`` list, once per adoption — when the ``_view`` or
 * ``_view_rng`` slot changes identity (the core holds both, so neither
 * address is reused).  Any other view draws by its ``sample`` method. */
static int
clientcore_bind_view(ClientCore *self)
{
    PyObject *membership = slot_peek(self->client,
                                     self->slots[CL_MEMBERSHIP]);
    PyObject *view = membership == NULL || membership == Py_None ? NULL
        : slot_peek(self->client, self->slots[CL_VIEW]);
    PyObject *rng = view ? slot_peek(self->client, self->slots[CL_VIEW_RNG])
        : NULL;
    if (rng == NULL || (view == self->view && rng == self->view_rng))
        return rng != NULL ? 1 : membership == Py_None ? 0 : -1;
    Py_XSETREF(self->view, Py_NewRef(view));
    Py_XSETREF(self->view_rng, Py_NewRef(rng));
    Py_CLEAR(self->quorum_bits);
    self->quorum_bg = NULL;
    Py_XSETREF(self->views, PyObject_GetAttr(membership, str_views));
    Py_XSETREF(self->view_members, self->views == NULL ? NULL
               : PyObject_GetAttr(view, str_members));
    PyObject *system = self->view_members == NULL ? NULL
        : PyObject_GetAttr(view, str_quorum_system);
    int native = system == NULL ? -1
        : prob_quorum_shape(system, &self->n, &self->k);
    Py_XDECREF(system);
    if (native > 0 && PyTuple_CheckExact(self->view_members)
        && self->n <= PyTuple_GET_SIZE(self->view_members))
        native = bind_bits(rng, &self->quorum_bits, &self->quorum_bg);
    if (native < 0)
        Py_CLEAR(self->view); /* bound again by the next call */
    return native < 0 ? -1 : 1;
}

/* QuorumRegisterClient._refresh_view (1; 0 without membership; -1 on
 * error): the Python method, which adopts a view once per view per
 * client, only when the manager's newest view (the last of a ``views``
 * list) is not the client's own ``_view`` object. */
static int
clientcore_refresh_view(ClientCore *self)
{
    int bound = clientcore_bind_view(self);
    if (bound <= 0)
        return bound;
    PyObject *views = self->views;
    Py_ssize_t size = PyList_Check(views) ? PyList_GET_SIZE(views) : 0;
    if (size > 0 && PyList_GET_ITEM(views, size - 1) == self->view)
        return 1;
    PyObject *res = PyObject_CallMethodNoArgs(self->client, str_refresh_view);
    Py_XDECREF(res);
    return res == NULL ? -1 : 1;
}

/* client._pending.get(op_id) as a new reference, or NULL (with an
 * exception set only on error).  A client with a core has every op built
 * by it, so anything else found there is an error. */
static PendingOp *
clientcore_op(ClientCore *self, PyObject *op_id)
{
    PyObject *found = PyDict_GetItemWithError(self->pending, op_id);
    if (found == NULL || Py_IS_TYPE(found, &PendingOp_Type))
        return (PendingOp *)Py_XNewRef(found);
    PyErr_Format(PyExc_TypeError, "op %R of client %R was not built by its "
                 "core", op_id, self->client_id);
    return NULL;
}

static int
clientcore_invoke(ClientCore *self, PyObject *src, PyObject *message)
{
    PyObject *msg_type = (PyObject *)Py_TYPE(message);
    int nack = msg_type == msg_stale_view_nack;
    if (!nack && msg_type != msg_read_reply && msg_type != msg_write_ack)
        /* Subclassed messages take the Python isinstance path; foreign
         * kinds are a Python no-op either way. */
        return run_fallback(self->fallback, self->client, src, message);

    PendingOp *op = clientcore_op(self, PyTuple_GET_ITEM(message, 1));
    if (op == NULL && PyErr_Occurred())
        return -1;
    int rc = -1;
    PyObject *view_id = NULL;
    if (nack) {
        /* stale_nacks += 1; _refresh_view(); then _redispatch: the op
         * moves to a quorum of the client's current view, unless an
         * earlier nack of the same stale round already moved it. */
        COUNTER(self->client, self->slots[CL_STALE_NACKS]) += 1;
        if (clientcore_refresh_view(self) < 0)
            goto done;
        int moved = 1;
        if (op != NULL)
            moved = (view_id = Py_XNewRef(slot_peek(
                         self->client, self->slots[CL_VIEW_ID])))
                ? PyObject_RichCompareBool(op->view, view_id, Py_EQ) : -1;
        if (moved == 0)
            moved = clientcore_move(self, op) < 0 ? -1 : 1;
        rc = moved < 0 ? -1 : 0;
        goto done;
    }
    /* A reply is the answer of the round in flight only when its kind
     * matches that round's request: a retried query round leaves
     * ReadReplys in flight that may land in the update round. */
    int round_read = op == NULL ? 0 : PyObject_IsTrue(op->is_read);
    if (round_read < 0)
        goto done;
    if (op != NULL && round_read != (msg_type == msg_read_reply)) {
        rc = 0;
        goto done;
    }
    view_id = Py_XNewRef(slot_peek(self->client, self->slots[CL_VIEW_ID]));
    if (view_id == NULL)
        goto done;
    /* A reply stamped with a newer view than the client's own refreshes
     * the view before it is recorded. */
    int newer = PyObject_RichCompareBool(
        PyTuple_GET_ITEM(message, msg_type == msg_read_reply ? 4 : 2),
        view_id, Py_GT);
    if (newer < 0 || (newer && clientcore_refresh_view(self) < 0))
        goto done;
    rc = 0;
    if (op == NULL)
        goto done; /* late reply for a completed operation */
    PyObject *server_idx = PyDict_GetItemWithError(self->server_index, src);
    if (server_idx == NULL) {
        rc = PyErr_Occurred() ? -1 : 0; /* reply from an unknown node */
        goto done;
    }
    /* op.replies[server_index] = message; a non-dict fails here. */
    int covered = PyDict_SetItem(op->replies, server_idx, message);
    if (covered == 0)
        covered = quorum_covered(op->quorum, op->replies);
    rc = covered <= 0 ? covered : clientcore_finish(self, op);
done:
    Py_XDECREF(view_id);
    Py_XDECREF(op);
    return rc;
}

/* ---- ClientCore issue path and retry timer: read / write / _retry ---- */

/* QuorumRegisterClient's issue path and retry timer, transcribed
 * statement for statement from the Python definitions (read, write,
 * _issue, _begin, _send_round, _retry) and installed beside
 * ``on_message``.  An operation costs its message rounds, not its
 * dispatch: register lookup, history record, Future and PendingOp,
 * quorum draw, message build, broadcast, retry/deadline timers and the
 * resample of a stalled op run without an interpreter frame.  Draw order
 * is the Python order — quorum (or view) stream, then delay stream
 * (inside the broadcast), then the retry-jitter stream.  _give_up and
 * _expire are Python.  A static quorum system other than an exact
 * ``ProbabilisticQuorumSystem`` draws through one call to the Python
 * ``_sample_quorum`` — never a whole-op fallback. */

/* QuorumRegisterClient._sample_quorum: the bound native draw (under
 * membership after the refresh check, its positions mapped to members in
 * View.sample's iteration order), else one call to the Python method. */
static PyObject *
clientcore_sample_quorum(ClientCore *self, int is_read)
{
    int views = clientcore_refresh_view(self);
    if (views < 0 || (views && clientcore_bind_view(self) < 0))
        return NULL;
    if (self->quorum_bg == NULL)
        return views ? PyObject_CallMethodOneArg(self->view, str_sample,
                                                 self->view_rng)
            : PyObject_CallMethodOneArg(self->client, str_sample_quorum,
                                        is_read ? Py_True : Py_False);
    PyObject *positions = quorum_sample(self->quorum_bg, self->n, self->k);
    if (!views || positions == NULL)
        return positions;
    /* frozenset(members[p] for p in positions) */
    PyObject *iter = PyObject_GetIter(positions);
    PyObject *quorum = iter ? PyFrozenSet_New(NULL) : NULL;
    PyObject *position;
    while (quorum != NULL && (position = PyIter_Next(iter)) != NULL) {
        Py_ssize_t p = PyLong_AsSsize_t(position);
        Py_DECREF(position);
        if (p < 0 || PySet_Add(quorum, PyTuple_GET_ITEM(
                                   self->view_members, p)) < 0)
            Py_CLEAR(quorum);
    }
    if (PyErr_Occurred())
        Py_CLEAR(quorum);
    Py_XDECREF(iter);
    Py_DECREF(positions);
    return quorum;
}

/* QuorumRegisterClient._send_round. */
static int
clientcore_send_round(ClientCore *self, PendingOp *op)
{
    int rc = -1;
    PyObject *members = PySequence_List(op->quorum);
    PyObject *servers = members ? PyList_New(0) : NULL;
    if (servers == NULL || PyList_Sort(members) < 0)
        goto done;
    /* The members that have not replied, in member order, as node ids. */
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(members); i++) {
        PyObject *member = PyList_GET_ITEM(members, i), *node_id = NULL;
        int has = PySequence_Contains(op->replies, member);
        if (has < 0 || (!has && ((node_id = PyObject_GetItem(
                self->server_ids, member)) == NULL
                || PyList_Append(servers, node_id) < 0))) {
            Py_XDECREF(node_id);
            goto done;
        }
        Py_XDECREF(node_id);
    }
    if (PyList_GET_SIZE(servers) == 0) {
        rc = 0;
        goto done;
    }
    if (op->message == Py_None) {
        /* Built once per dispatch and shared by every round. */
        int is_read = PyObject_IsTrue(op->is_read);
        PyObject *message = is_read < 0 ? NULL : is_read
            ? make_message(msg_read_query, 3, op->reg, op->op_id, op->view)
            : make_message(msg_write_update, 5, op->reg, op->op_id,
                           op->value, op->timestamp, op->view);
        if (message == NULL)
            goto done;
        Py_SETREF(op->message, message);
    }
    /* network.broadcast(node_id, servers, message) */
    PyObject *message = Py_NewRef(op->message);
    rc = network_broadcast(self->net, self->node_id, servers, message);
    Py_DECREF(message);
done:
    Py_XDECREF(servers);
    Py_XDECREF(members);
    return rc;
}

/* QuorumRegisterClient._retry_delay(attempt) as a new reference: the
 * policy's delay, floored at SRTT + 4 RTTVAR once ``_srtt`` is set,
 * evaluated here — the same double operations in the same order (the
 * build disables fused multiply-adds), Python's min() and max(), the
 * jitter from the bound stream.  The Python method is called only when
 * ``backoff ** attempt`` is not finite (where Python may raise). */
static PyObject *
clientcore_retry_delay(ClientCore *self, PyObject *attempt)
{
    const double *f = self->retry;
    double power = pow(f[1], PyLong_AsDouble(attempt));
    if (PyErr_Occurred())
        return NULL;
    if (!isfinite(power))
        return PyObject_CallMethodOneArg(self->client, str_retry_delay,
                                         attempt);
    double value = f[0] * power;
    if (f[3] < value)
        value = f[3];
    if (f[2] > 0.0) {
        double draw = draw_random(self->retry_rng, self->retry_bg);
        if (draw == -1.0 && PyErr_Occurred())
            return NULL;
        value *= 1.0 + f[2] * (2.0 * draw - 1.0);
    }
    /* max(value, SRTT + 4 RTTVAR) once there is a sample */
    PyObject *srtt = SLOT(self->client, self->slots[CL_SRTT]);
    double rto = srtt == Py_None ? -INFINITY : PyFloat_AsDouble(srtt)
        + 4.0 * PyFloat_AsDouble(SLOT(self->client, self->slots[CL_RTTVAR]));
    return PyErr_Occurred()
        ? NULL : PyFloat_FromDouble(rto > value ? rto : value);
}

/* op.retry_handle = scheduler.schedule(client._retry_delay(attempt),
 * client._retry, op_id) or, with ``attempt`` NULL, op.deadline_handle =
 * scheduler.schedule(policy.deadline, client._expire, op_id): pushed
 * straight into the C heap, with the callbacks bound when the core was. */
static int
clientcore_arm(ClientCore *self, PendingOp *op, PyObject *attempt)
{
    PyObject *delay = attempt ? clientcore_retry_delay(self, attempt)
                              : Py_NewRef(self->deadline);
    PyObject *handle = delay == NULL ? NULL : attempt
        ? schedule_after(self->net->sched, delay, self->retry_cb,
                         PyTuple_Pack(2, (PyObject *)self, op->op_id))
        : schedule_after(self->net->sched, delay, self->expire_cb,
                         PyTuple_Pack(1, op->op_id));
    Py_XDECREF(delay);
    if (handle == NULL)
        return -1;
    Py_SETREF(*(attempt ? &op->retry_handle : &op->deadline_handle), handle);
    return 0;
}

/* QuorumRegisterClient._begin; ``first`` is the op's first round. */
static int
clientcore_begin(ClientCore *self, PendingOp *op, const Round *first)
{
    if (PyDict_SetItem(self->pending, op->op_id, (PyObject *)op) < 0)
        return -1;
    PyObject *started = PyFloat_FromDouble(self->net->sched->now);
    if (started == NULL)
        return -1;
    Py_SETREF(op->started, started);
    if (clientcore_carry(self, op, first->carry, NULL, NULL) < 0
        || clientcore_send_round(self, op) < 0)
        return -1;
    if (self->policy == Py_None)
        return 0;
    if (clientcore_arm(self, op, py_zero) < 0
        || (self->deadline != Py_None && clientcore_arm(self, op, NULL) < 0))
        return -1;
    return 0;
}

/* _resample(op), then _finish(op) when the fresh quorum is already
 * covered by earlier replies, else _send_round(op): the tail _retry and
 * _redispatch share.  1 when the op completed, 0 when a round went out,
 * -1 on error. */
static int
clientcore_move(ClientCore *self, PendingOp *op)
{
    int is_read = PyObject_IsTrue(op->is_read);
    PyObject *quorum = is_read < 0
        ? NULL : clientcore_sample_quorum(self, is_read);
    if (quorum == NULL)
        return -1;
    Py_SETREF(op->quorum, quorum);
    PyObject *view = Py_XNewRef(slot_peek(self->client,
                                          self->slots[CL_VIEW_ID]));
    int changed = view == NULL
        ? -1 : PyObject_RichCompareBool(op->view, view, Py_NE);
    if (changed > 0) {
        /* The message is rebuilt only when its view stamp changed. */
        Py_SETREF(op->view, Py_NewRef(view));
        Py_SETREF(op->message, Py_NewRef(Py_None));
    }
    Py_XDECREF(view);
    int covered = changed < 0 ? -1 : quorum_covered(op->quorum, op->replies);
    if (covered > 0)
        return clientcore_finish(self, op) < 0 ? -1 : 1;
    return covered < 0 ? -1 : clientcore_send_round(self, op);
}

/* QuorumRegisterClient._retry, the retry timer's callback: at the attempt
 * budget the Python _give_up, else count the attempt, tell the monitor,
 * move the op to a fresh quorum and re-arm. */
static PyObject *
clientcore_retry(ClientCore *self, PyObject *op_id)
{
    PendingOp *op = clientcore_op(self, op_id);
    if (op == NULL)
        return PyErr_Occurred() ? NULL : Py_NewRef(Py_None);
    PyObject *result = NULL;
    PyObject *attempts = PyNumber_Add(op->attempts, py_one);
    if (attempts == NULL)
        goto done;
    int exhausted = self->max_attempts == Py_None ? 0
        : PyObject_RichCompareBool(attempts, self->max_attempts, Py_GE);
    if (exhausted) {
        if (exhausted > 0)
            result = PyObject_CallMethodOneArg(self->client, str_give_up,
                                               (PyObject *)op);
        goto done;
    }
    Py_SETREF(op->attempts, Py_NewRef(attempts));
    COUNTER(self->client, self->slots[CL_RETRIES]) += 1;
    /* spec_monitor.on_retry(op.register, op.kind, op.attempts) */
    if (self->monitor != NULL) {
        PyObject *res = PyObject_CallMethodObjArgs(
            self->monitor, str_on_retry, op->reg, op->kind, attempts, NULL);
        if (res == NULL)
            goto done;
        Py_DECREF(res);
    }
    int moved = clientcore_move(self, op);
    if (moved == 1
        || (moved == 0 && clientcore_arm(self, op, attempts) == 0))
        result = Py_NewRef(Py_None);
done:
    Py_XDECREF(attempts);
    Py_DECREF(op);
    return result;
}

/* QuorumRegisterClient.read (value == NULL) and .write, with _issue: the
 * op, its future and its first round, built here. */
static PyObject *
clientcore_issue(ClientCore *self, PyObject *reg, PyObject *value)
{
    const int is_read = value == NULL;
    const Plan *plan = &self->plans[!is_read];
    PyObject *record = NULL, *label = NULL, *quorum = NULL;
    PyObject *op_id = NULL, *view = NULL, *result = NULL;
    Future *future = NULL;
    PendingOp *op = NULL;
    if (is_read) {
        PyObject *now = PyFloat_FromDouble(self->net->sched->now);
        record = now ? clientcore_record(self, reg, str_begin_read, now, NULL,
                                         NULL) : NULL;
        Py_XDECREF(now);
        if (record == NULL)
            return NULL;
    }
    else {
        PyObject *info = clientcore_info(self, reg);
        PyObject *writer = info
            ? Py_XNewRef(slot_peek(info, offsets[RI_WRITER])) : NULL;
        Py_XDECREF(info);
        int foreign = writer == NULL ? -1 : writer == Py_None
            ? 0 : PyObject_RichCompareBool(writer, self->client_id, Py_NE);
        Py_XDECREF(writer);
        if (foreign) {
            /* SingleWriterViolation: raised by the Python definition. */
            PyObject *write = foreign < 0 ? NULL : PyObject_GetAttr(
                (PyObject *)Py_TYPE(self->client), str_write_kind);
            result = write == NULL ? NULL : PyObject_CallFunctionObjArgs(
                write, self->client, reg, value, NULL);
            Py_XDECREF(write);
            return result;
        }
        record = Py_NewRef(Py_None);
    }
    COUNTER(self->client, self->slots[is_read ? CL_READS : CL_WRITES]) += 1;
    if ((label = PyTuple_Pack(3, is_read ? str_read_kind : str_write_kind,
                              reg, self->client_id)) == NULL
        || (future = future_create(label)) == NULL
        || (quorum = clientcore_sample_quorum(
                self, plan->rounds[0].query)) == NULL)
        goto done;
    op_id = PyIter_Next(self->op_ids);
    if (op_id == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetNone(PyExc_StopIteration);
        goto done;
    }
    if ((view = Py_XNewRef(slot_peek(self->client,
                                     self->slots[CL_VIEW_ID]))) == NULL
        || (op = pendingop_create(self, is_read, op_id, reg, quorum, future,
                                  record, is_read ? Py_None : value,
                                  view)) == NULL
        || clientcore_begin(self, op, &plan->rounds[0]) < 0)
        goto done;
    result = Py_NewRef((PyObject *)future);
done:
    Py_XDECREF(op);
    Py_XDECREF(view);
    Py_XDECREF(op_id);
    Py_XDECREF(quorum);
    Py_XDECREF(future);
    Py_XDECREF(label);
    Py_XDECREF(record);
    return result;
}

/* read(register, /) and write(register, value, /): positional only, as
 * the Python definitions are. */
static PyObject *
clientcore_read(ClientCore *self, PyObject *reg)
{
    return clientcore_issue(self, reg, NULL);
}

static PyObject *
clientcore_write(ClientCore *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2)
        return PyErr_Format(PyExc_TypeError,
                            "write expects (register, value), got %zd "
                            "arguments", nargs);
    return clientcore_issue(self, args[0], args[1]);
}

static PyMethodDef clientcore_methods[] = {
    {"read", (PyCFunction)clientcore_read, METH_O,
     "QuorumRegisterClient.read: invoke a read, return its future."},
    {"write", (PyCFunction)(void (*)(void))clientcore_write, METH_FASTCALL,
     "QuorumRegisterClient.write: invoke a write, return its future."},
    {"_retry", (PyCFunction)clientcore_retry, METH_O,
     "QuorumRegisterClient._retry: resample a stalled op and re-arm."},
    {NULL}
};

static PyTypeObject ClientCore_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._native._kernel.ClientCore",
    .tp_basicsize = sizeof(ClientCore),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "QuorumRegisterClient in C: called, it aggregates replies "
              "(count against the pending quorum, complete the op, tear "
              "down its timers); read/write are the issue path, _retry "
              "the retry timer.",
    .tp_new = clientcore_new,
    .tp_dealloc = (destructor)clientcore_dealloc,
    .tp_traverse = (traverseproc)clientcore_traverse,
    .tp_clear = (inquiry)clientcore_clear,
    .tp_call = protocolcore_call,
    .tp_methods = clientcore_methods,
};

/* Dispatch from the delivery trampoline and tp_call (both cores). */
static int
protocolcore_invoke(PyObject *core, PyObject *src, PyObject *message)
{
    if (Py_TYPE(core) == &ServerCore_Type)
        return servercore_invoke((ServerCore *)core, src, message);
    return clientcore_invoke((ClientCore *)core, src, message);
}

/* ------------------------------------------------------------------ */
/* Counter fields                                                      */
/* ------------------------------------------------------------------ */

/* A counter_type instance frees itself and drops its heap type. */
static void
counters_dealloc(PyObject *self)
{
    PyTypeObject *type = Py_TYPE(self);
    type->tp_free(self);
    Py_DECREF(type);
}

/* counter.add(field, amount=1): ``+= amount`` on the int64 counter field
 * named ``field`` (member_offset's checks), in place; OverflowError, the
 * field kept, past int64.  Python code bumps counters with it: CPython
 * specializes a method call, but ``+=`` on a member only when the member
 * is an object slot. */
static PyObject *
counters_add(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 1 || nargs > 2 || !PyUnicode_Check(args[0]))
        return PyErr_Format(PyExc_TypeError,
                            "add expects (field, amount=1)");
    Py_ssize_t off = member_offset(Py_TYPE(self), args[0], 1);
    long long amount = off < 0 ? -1
        : nargs == 2 ? PyLong_AsLongLong(args[1]) : 1;
    if (amount == -1 && PyErr_Occurred())
        return NULL;
    long long *field = &COUNTER(self, off);
    if (amount > 0 ? *field > LLONG_MAX - amount
                   : *field < LLONG_MIN - amount)
        return PyErr_Format(PyExc_OverflowError, "%U overflows int64",
                            args[0]);
    *field += amount;
    Py_RETURN_NONE;
}

static PyMethodDef counters_methods[] = {
    {"add", (PyCFunction)(void (*)(void))counters_add, METH_FASTCALL, NULL},
    {NULL}
};

/* counter_type(name, fields): a base class whose instances hold one int64
 * per field, a T_LONGLONG member of that name (repro.sim.metrics).  The
 * member table and the type name live as long as the process; the field
 * names must live as long as the type (the caller keeps them on it). */
static PyObject *
kernel_counter_type(PyObject *module, PyObject *args)
{
    const char *name;
    PyObject *fields;
    if (!PyArg_ParseTuple(args, "sO!:counter_type", &name, &PyTuple_Type,
                          &fields))
        return NULL;
    Py_ssize_t n = PyTuple_GET_SIZE(fields);
    size_t table = (size_t)(n + 1) * sizeof(PyMemberDef);
    PyMemberDef *members = PyMem_Calloc(1, table + strlen(name) + 1);
    if (members == NULL)
        return PyErr_NoMemory();
    for (Py_ssize_t i = 0; i < n; i++) {
        members[i] = (PyMemberDef){PyUnicode_AsUTF8(PyTuple_GET_ITEM(
            fields, i)), T_LONGLONG, sizeof(PyObject) + i * 8, 0, NULL};
        if (members[i].name == NULL)
            goto fail;
    }
    /* tp_new is object's: it lays out a subclass's managed dict, which
     * the interpreter's specialized attribute reads need. */
    PyType_Slot slots[] = {{Py_tp_members, members},
        {Py_tp_methods, counters_methods},
        {Py_tp_dealloc, counters_dealloc}, {0, NULL}};
    PyType_Spec spec = {strcpy((char *)members + table, name),
        (int)(sizeof(PyObject) + n * 8), 0,
        Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE, slots};
    PyObject *type = PyType_FromSpec(&spec);
    if (type != NULL)
        return type;
fail:
    PyMem_Free(members);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* Module                                                              */
/* ------------------------------------------------------------------ */

static PyMethodDef kernel_methods[] = {
    {"counter_type", kernel_counter_type, METH_VARARGS,
     "counter_type(name, fields) -> type\n\n"
     "A base class with one int64 counter field per name in ``fields``."},
    {"gather", (PyCFunction)(void (*)(void))kernel_gather, METH_FASTCALL,
     "gather(futures, label) -> Future or None\n\n"
     "repro.sim.futures.gather's countdown for a non-empty list or tuple\n"
     "of native futures; None for any other input."},
    {"quorum_sample", (PyCFunction)(void (*)(void))kernel_quorum_sample,
     METH_FASTCALL,
     "quorum_sample(rng, n, k) -> frozenset\n\n"
     "Generator.choice(n, size=k, replace=False) as a frozenset, drawn\n"
     "from the same bit stream numpy would consume (Floyd + descending\n"
     "Fisher-Yates, Lemire bounded draws).  Requires HAVE_FAST_RNG."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef kernelmodule = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro._native._kernel",
    .m_doc = "Native simulation-kernel hot path (scheduler heap, "
             "network core, register-protocol cores).",
    .m_size = -1,
    .m_methods = kernel_methods,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
#define INTERN_STRING(var, text) \
    if ((var = PyUnicode_InternFromString(text)) == NULL) \
        return NULL;
    INTERNED_STRINGS(INTERN_STRING)
#undef INTERN_STRING
    py_zero = PyLong_FromLong(0);
    py_one = PyLong_FromLong(1);
    if (py_zero == NULL || py_one == NULL)
        return NULL;

    struct { const char *name; PyTypeObject *type; } types[] = {
        {"EventHandle", &KernelHandle_Type},
        {"SchedulerCore", &SchedulerCore_Type},
        {"NetworkCore", &NetworkCore_Type},
        {"ServerCore", &ServerCore_Type},
        {"ClientCore", &ClientCore_Type},
        {"Future", &Future_Type},
        {"PendingOp", &PendingOp_Type},
    };
    const size_t ntypes = sizeof(types) / sizeof(types[0]);
    for (size_t i = 0; i < ntypes; i++) {
        if (PyType_Ready(types[i].type) < 0)
            return NULL;
    }

    PyObject *module = PyModule_Create(&kernelmodule);
    if (module == NULL)
        return NULL;

    for (size_t i = 0; i < ntypes; i++) {
        Py_INCREF(types[i].type);
        if (PyModule_AddObject(module, types[i].name,
                               (PyObject *)types[i].type) < 0)
            goto fail;
    }
    if (PyModule_AddIntConstant(module, "KERNEL_ABI", 17) < 0
        || PyModule_AddStringConstant(module, "SOURCE_HASH",
                                      REPRO_SOURCE_HASH) < 0)
        goto fail;
#ifdef REPRO_HAVE_NPYRANDOM
    if (PyModule_AddIntConstant(module, "HAVE_FAST_RNG", 1) < 0)
        goto fail;
#else
    if (PyModule_AddIntConstant(module, "HAVE_FAST_RNG", 0) < 0)
        goto fail;
#endif
    return module;
fail:
    Py_DECREF(module);
    return NULL;
}
