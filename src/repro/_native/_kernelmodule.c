/* Native simulation-kernel core (REPRO_KERNEL=native).
 *
 * A CPython extension housing the hot path of the simulator: the
 * event-heap scheduler (push/pop/cancel with (time, seq) ordering, the
 * run() drain loops, handle-free uncancellable delivery entries), a
 * scalar-totals MessageStats core, one network core (Network.send /
 * .broadcast / ._deliver) and the two register-protocol cores.  A message
 * travels drain loop -> deliver -> protocol handler -> send without an
 * interpreter frame; Python is re-entered only where a node, a hook or a
 * fallback guard asks for it.
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

#ifdef REPRO_HAVE_NPYRANDOM
#include <numpy/random/bitgen.h>
#include <numpy/random/distributions.h>
#endif

/* ------------------------------------------------------------------ */
/* Interned strings / cached exception types                          */
/* ------------------------------------------------------------------ */

/* Attribute and method names, interned once at module init. */
#define INTERNED_STRINGS(X)                                   \
    X(str_active, "active")                                  \
    X(str_can_deliver, "can_deliver")                        \
    X(str_on_message, "on_message")                          \
    X(str_record_drop, "record_drop")                        \
    X(str_record_delivery, "record_delivery")                \
    X(str_record_send, "record_send")                        \
    X(str_record_sends, "record_sends")                      \
    X(str_fault, "fault")                                    \
    X(str_loss, "loss")                                      \
    X(str_adversary, "adversary")                            \
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
    X(str_seq_attr, "seq")                                   \
    X(str_writer_attr, "writer")                             \
    X(str_cancel, "cancel")                                  \
    X(str_replies, "replies")                                \
    X(str_quorum, "quorum")                                  \
    X(str_span, "span")                                      \
    X(str_is_read, "is_read")                                \
    X(str_register_attr, "register")                         \
    X(str_record, "record")                                  \
    X(str_future_attr, "future")                             \
    X(str_respond, "respond")                                \
    X(str_complete, "complete")                              \
    X(str_resolve, "resolve")                                \
    X(str_retry_handle, "retry_handle")                      \
    X(str_deadline_handle, "deadline_handle")                \
    X(str_timestamp_attr, "timestamp")                       \
    X(str_value_attr, "value")                               \
    X(str_monotone, "monotone")                              \
    X(str_cache_attr, "_cache")                              \
    X(str_cache_hits, "cache_hits")                          \
    X(str_monitor_on, "_monitor_on")                         \
    X(str_latency_attr, "_latency")                          \
    X(str_pending_attr, "_pending")                          \
    X(str_server_index, "_server_index")                     \
    X(str_replicas_attr, "_replicas")                        \
    X(str_reads_served, "reads_served")                      \
    X(str_writes_applied, "writes_applied")                  \
    X(str_stale_updates, "stale_updates_ignored")            \
    X(str_ops_completed, "ops_completed")                    \
    X(str_ops_under_failure, "ops_completed_under_failure")  \
    X(str_failures_attr, "failures")                         \
    X(str_scheduler_attr, "scheduler")                       \
    X(str_replica_method, "_replica")                        \
    X(str_bit_generator, "bit_generator")                    \
    X(str_capsule_attr, "capsule")                           \
    X(str_mean_attr, "_mean")                                \
    X(str_floor_attr, "_floor")                              \
    X(str_cdelay_attr, "_delay")                             \
    X(str_started_attr, "started")                           \
    X(str_observe, "observe")                                \
    X(str_read_kind, "read")                                 \
    X(str_write_kind, "write")                               \
    X(str_broadcast_attr, "broadcast")                       \
    X(str_view_state, "view_state")                          \
    X(str_view_id, "view_id")                                \
    X(str_retired, "retired")                                \
    X(str_retiring, "retiring")                              \
    X(str_retired_ignored, "retired_messages_ignored")       \
    X(str_nacks_sent, "stale_nacks_sent")                    \
    X(str_trace_on, "_trace_on")                             \
    X(str_begin, "_begin")                                   \
    X(str_send_round, "_send_round")                         \
    X(str_sample_quorum, "_sample_quorum")                   \
    X(str_info, "info")                                      \
    X(str_history, "history")                                \
    X(str_begin_read, "begin_read")                          \
    X(str_begin_write, "begin_write")                        \
    X(str_members, "members")                                \
    X(str_member_ids, "member_ids")                          \
    X(str_message_attr, "message")                           \
    X(str_view_attr, "view")                                 \
    X(str_op_id, "op_id")                                    \
    X(str_retry_policy, "retry_policy")                      \
    X(str_retry_rng, "_retry_rng")                           \
    X(str_delay, "delay")                                    \
    X(str_deadline, "deadline")                              \
    X(str_retry, "_retry")                                   \
    X(str_expire, "_expire")                                 \
    X(str_membership, "_membership")                         \
    X(str_quorum_system, "quorum_system")                    \
    X(str_n, "n")                                            \
    X(str_k, "k")                                            \
    X(str_reads_performed, "reads_performed")                \
    X(str_writes_performed, "writes_performed")              \
    X(str_space, "space")                                    \
    X(str_registers_attr, "_registers")                      \
    X(str_server_ids, "server_ids")                          \
    X(str_op_ids, "_op_ids")                                 \
    X(str_write_seq, "_write_seq")                           \
    X(str_client_id, "client_id")                            \
    X(str_crashed_attr, "_crashed")                          \
    X(str_partition_attr, "_partition")                      \
    X(str_spec_monitor, "spec_monitor")                      \
    X(str_on_read_complete, "on_read_complete")              \
    X(str_on_write_complete, "on_write_complete")            \
    X(str_on_retry, "on_retry")                              \
    X(str_attempts, "attempts")                              \
    X(str_retries, "retries")                                \
    X(str_max_attempts, "max_attempts")                      \
    X(str_give_up, "_give_up")                               \
    X(str_stale_nacks, "stale_nacks")                        \
    X(str_refresh_view, "_refresh_view")                     \
    X(str_views, "views")                                    \
    X(str_view_obj, "_view")                                 \
    X(str_view_rng, "_view_rng")                             \
    X(str_interval, "interval")                              \
    X(str_backoff, "backoff")                                \
    X(str_max_interval, "max_interval")                      \
    X(str_jitter, "jitter")                                  \
    X(str_stage, "stage")                                    \
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
static PyObject *timestamp_type = NULL;   /* timestamps.Timestamp */
static PyObject *nullrecord_type = NULL;  /* history._NullRecord  */

/* What the client issue path constructs and tests against, resolved the
 * first time a ClientCore is built. */
static PyObject *pending_op_type = NULL;   /* registers.client._PendingOp */
static PyObject *future_type = NULL;       /* sim.futures.Future */
static PyObject *null_history_type = NULL; /* history.NullRegisterHistory */
static PyObject *null_record = NULL;       /* history._NULL_RECORD */
static PyObject *prob_quorum_type = NULL;  /* ProbabilisticQuorumSystem */
static PyObject *retry_policy_type = NULL; /* registers.client.RetryPolicy */

/* The exact types whose per-message decisions the cores evaluate in C,
 * resolved the first time a network or client core is built. */
static PyObject *generator_type = NULL;        /* numpy.random.Generator */
static PyObject *failure_injector_type = NULL; /* failures.FailureInjector */

/* Delay-model classes, resolved lazily the first time a delay is
 * sampled natively.  Soft-resolved: when the import fails (stripped
 * install), the generic .sample() path is used forever after. */
static PyObject *exponential_delay_type = NULL; /* delays.ExponentialDelay */
static PyObject *constant_delay_type = NULL;    /* delays.ConstantDelay    */
static int delay_types_unavailable = 0;

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

/* Lazily resolve SchedulerError so importing this module never requires
 * the Python package to be importable first (and vice versa). */
static PyObject *
get_scheduler_error(void)
{
    if (scheduler_error == NULL) {
        PyObject *mod = PyImport_ImportModule("repro.sim.scheduler");
        if (mod == NULL) {
            /* Fall back to RuntimeError (SchedulerError's base) rather
             * than failing to report the real usage error. */
            PyErr_Clear();
            scheduler_error = PyExc_RuntimeError;
            Py_INCREF(scheduler_error);
            return scheduler_error;
        }
        scheduler_error = PyObject_GetAttrString(mod, "SchedulerError");
        Py_DECREF(mod);
        if (scheduler_error == NULL) {
            PyErr_Clear();
            scheduler_error = PyExc_RuntimeError;
            Py_INCREF(scheduler_error);
        }
    }
    return scheduler_error;
}

/* bool(obj.<name>): 1/0, or -1 with an exception set. */
static int
attr_truth(PyObject *obj, PyObject *name)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value == NULL)
        return -1;
    int truth = PyObject_IsTrue(value);
    Py_DECREF(value);
    return truth;
}

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

/* (obj.<names[0]>, ..., obj.<names[n-1]>) as a new tuple, or NULL. */
static PyObject *
attr_tuple(PyObject *obj, PyObject **names, Py_ssize_t n)
{
    PyObject *fields = PyTuple_New(n);
    if (fields == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *value = PyObject_GetAttr(obj, names[i]);
        if (value == NULL) {
            Py_DECREF(fields);
            return NULL;
        }
        PyTuple_SET_ITEM(fields, i, value);
    }
    return fields;
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

/* ------------------------------------------------------------------ */
/* StatsCore: the MessageStats(detailed=False) scalar-totals fast path */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    long long sent;
    long long delivered;
    long long dropped;
} StatsCore;

static PyTypeObject StatsCore_Type;

#define StatsCore_Check(op) PyObject_TypeCheck((op), &StatsCore_Type)

static PyObject *
statscore_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    StatsCore *self = (StatsCore *)type->tp_alloc(type, 0);
    if (self != NULL) {
        self->sent = 0;
        self->delivered = 0;
        self->dropped = 0;
    }
    return (PyObject *)self;
}

static int
statscore_init(StatsCore *self, PyObject *args, PyObject *kwds)
{
    /* Accept and ignore a ``detailed`` keyword for signature parity with
     * MessageStats; the core is always scalar-totals (detailed=False). */
    static char *kwlist[] = {"detailed", NULL};
    int detailed = 0;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|p", kwlist, &detailed))
        return -1;
    if (detailed) {
        PyErr_SetString(PyExc_ValueError,
                        "the native stats core is scalar-totals only; "
                        "use repro.sim.metrics.MessageStats for "
                        "detailed=True");
        return -1;
    }
    return 0;
}

static PyObject *
statscore_record_send(StatsCore *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2 || nargs > 3) {
        PyErr_SetString(PyExc_TypeError,
                        "record_send expects (src, dst, kind)");
        return NULL;
    }
    self->sent += 1;
    Py_RETURN_NONE;
}

static PyObject *
statscore_record_sends(StatsCore *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2 || nargs > 3) {
        PyErr_SetString(PyExc_TypeError,
                        "record_sends expects (src, count, kind)");
        return NULL;
    }
    long long count = PyLong_AsLongLong(args[1]);
    if (count == -1 && PyErr_Occurred())
        return NULL;
    self->sent += count;
    Py_RETURN_NONE;
}

static PyObject *
statscore_record_delivery(StatsCore *self, PyObject *const *args,
                          Py_ssize_t nargs)
{
    if (nargs < 2 || nargs > 3) {
        PyErr_SetString(PyExc_TypeError,
                        "record_delivery expects (src, dst[, kind])");
        return NULL;
    }
    self->delivered += 1;
    Py_RETURN_NONE;
}

static PyObject *
statscore_record_drop(StatsCore *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"src", "dst", "kind", "reason", NULL};
    PyObject *src, *dst, *kind = Py_None, *reason = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OO|OO", kwlist,
                                     &src, &dst, &kind, &reason))
        return NULL;
    self->dropped += 1;
    Py_RETURN_NONE;
}

static PyObject *
statscore_get_detailed(StatsCore *self, void *closure)
{
    Py_RETURN_FALSE;
}

static PyObject *
statscore_repr(StatsCore *self)
{
    return PyUnicode_FromFormat(
        "MessageStats(sent=%lld, delivered=%lld, dropped=%lld)",
        self->sent, self->delivered, self->dropped);
}

static PyMemberDef statscore_members[] = {
    {"sent", T_LONGLONG, offsetof(StatsCore, sent), 0,
     "total messages sent"},
    {"delivered", T_LONGLONG, offsetof(StatsCore, delivered), 0,
     "total messages delivered"},
    {"dropped", T_LONGLONG, offsetof(StatsCore, dropped), 0,
     "total messages dropped"},
    {NULL}
};

static PyGetSetDef statscore_getset[] = {
    {"detailed", (getter)statscore_get_detailed, NULL,
     "always False: the native core keeps scalar totals only", NULL},
    {NULL}
};

static PyMethodDef statscore_methods[] = {
    {"record_send", (PyCFunction)statscore_record_send, METH_FASTCALL,
     "Record one message leaving src for dst."},
    {"record_sends", (PyCFunction)statscore_record_sends, METH_FASTCALL,
     "Record count messages leaving src in one update."},
    {"record_delivery", (PyCFunction)statscore_record_delivery,
     METH_FASTCALL, "Record one message arriving at dst."},
    {"record_drop", (PyCFunction)statscore_record_drop,
     METH_VARARGS | METH_KEYWORDS,
     "Record a message lost to a crash, partition or lossy link."},
    {NULL}
};

static PyTypeObject StatsCore_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._native._kernel.StatsCore",
    .tp_basicsize = sizeof(StatsCore),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE,
    .tp_doc = "Scalar-totals message counters (the detailed=False fast path).",
    .tp_new = statscore_new,
    .tp_init = (initproc)statscore_init,
    .tp_repr = (reprfunc)statscore_repr,
    .tp_members = statscore_members,
    .tp_getset = statscore_getset,
    .tp_methods = statscore_methods,
};

/* ------------------------------------------------------------------ */
/* EventHandle                                                         */
/* ------------------------------------------------------------------ */

struct SchedulerCore;

typedef struct {
    PyObject_HEAD
    double time;
    long long seq;
    PyObject *callback;
    PyObject *args;             /* always a tuple */
    struct SchedulerCore *owner; /* strong reference (cycle: GC-tracked) */
    char cancelled;
    char dequeued;
} KernelHandle;

static PyTypeObject KernelHandle_Type;

static int
kernelhandle_traverse(KernelHandle *self, visitproc visit, void *arg)
{
    Py_VISIT(self->callback);
    Py_VISIT(self->args);
    Py_VISIT((PyObject *)self->owner);
    return 0;
}

static int
kernelhandle_clear(KernelHandle *self)
{
    Py_CLEAR(self->callback);
    Py_CLEAR(self->args);
    Py_CLEAR(self->owner);
    return 0;
}

static void
kernelhandle_dealloc(KernelHandle *self)
{
    PyObject_GC_UnTrack(self);
    kernelhandle_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

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

static PyObject *
kernelhandle_get_cancelled(KernelHandle *self, void *closure)
{
    return PyBool_FromLong(self->cancelled);
}

static PyObject *
kernelhandle_get_dequeued(KernelHandle *self, void *closure)
{
    return PyBool_FromLong(self->dequeued);
}

static PyObject *
kernelhandle_richcompare(PyObject *a, PyObject *b, int op)
{
    if (op != Py_LT || !PyObject_TypeCheck(a, &KernelHandle_Type)
        || !PyObject_TypeCheck(b, &KernelHandle_Type))
        Py_RETURN_NOTIMPLEMENTED;
    KernelHandle *ha = (KernelHandle *)a, *hb = (KernelHandle *)b;
    int lt = (ha->time < hb->time)
             || (ha->time == hb->time && ha->seq < hb->seq);
    return PyBool_FromLong(lt);
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
    {NULL}
};

static PyGetSetDef kernelhandle_getset[] = {
    {"cancelled", (getter)kernelhandle_get_cancelled, NULL,
     "True once cancel() was called", NULL},
    {"_dequeued", (getter)kernelhandle_get_dequeued, NULL,
     "True once the heap entry was popped", NULL},
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
    .tp_richcompare = kernelhandle_richcompare,
    .tp_members = kernelhandle_members,
    .tp_getset = kernelhandle_getset,
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

static PyObject *
schedulercore_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    SchedulerCore *self = (SchedulerCore *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->heap = NULL;
    self->len = 0;
    self->cap = 0;
    self->now = 0.0;
    self->seq = 0;
    self->processed = 0;
    self->live = 0;
    self->stopped = 0;
    return (PyObject *)self;
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

static int
schedulercore_clear(SchedulerCore *self)
{
    Py_ssize_t n = self->len;
    self->len = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_CLEAR(self->heap[i].obj);
        Py_CLEAR(self->heap[i].args);
    }
    return 0;
}

static void
schedulercore_dealloc(SchedulerCore *self)
{
    PyObject_GC_UnTrack(self);
    schedulercore_clear(self);
    PyMem_Free(self->heap);
    self->heap = NULL;
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

static PyObject *
schedulercore_get_now(SchedulerCore *self, void *closure)
{
    return PyFloat_FromDouble(self->now);
}

static PyObject *
schedulercore_get_events_processed(SchedulerCore *self, void *closure)
{
    return PyLong_FromLongLong(self->processed);
}

static PyObject *
schedulercore_get_pending(SchedulerCore *self, void *closure)
{
    return PyLong_FromLongLong(self->live);
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

static PyGetSetDef schedulercore_getset[] = {
    {"now", (getter)schedulercore_get_now, NULL,
     "Current simulated time.", NULL},
    {"events_processed", (getter)schedulercore_get_events_processed, NULL,
     "Number of events executed so far.", NULL},
    {"pending", (getter)schedulercore_get_pending, NULL,
     "Number of non-cancelled events still queued (O(1) live counter).",
     NULL},
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
    {NULL}
};

static PyTypeObject SchedulerCore_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._native._kernel.SchedulerCore",
    .tp_basicsize = sizeof(SchedulerCore),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE
                | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Native discrete-event scheduler core (C event heap).",
    .tp_new = schedulercore_new,
    .tp_dealloc = (destructor)schedulercore_dealloc,
    .tp_traverse = (traverseproc)schedulercore_traverse,
    .tp_clear = (inquiry)schedulercore_clear,
    .tp_getset = schedulercore_getset,
    .tp_methods = schedulercore_methods,
};

/* ------------------------------------------------------------------ */
/* Native RNG draws: numpy's bit stream without a Python frame         */
/* ------------------------------------------------------------------ */

/* Resolve the two built-in delay-model classes, softly: a failed import
 * (stripped install, import cycle) flags them unavailable and every
 * sample goes through the generic .sample() call instead.  Mirrors the
 * soft-eligibility style of the protocol cores. */
static int
ensure_delay_types(void)
{
    if (delay_types_unavailable)
        return 0;
    if (exponential_delay_type != NULL)
        return 1;
    PyObject *mod = PyImport_ImportModule("repro.sim.delays");
    if (mod == NULL) {
        PyErr_Clear();
        delay_types_unavailable = 1;
        return 0;
    }
    exponential_delay_type = PyObject_GetAttrString(mod, "ExponentialDelay");
    constant_delay_type = PyObject_GetAttrString(mod, "ConstantDelay");
    Py_DECREF(mod);
    if (exponential_delay_type == NULL || constant_delay_type == NULL) {
        PyErr_Clear();
        Py_CLEAR(exponential_delay_type);
        Py_CLEAR(constant_delay_type);
        delay_types_unavailable = 1;
        return 0;
    }
    return 1;
}

#ifdef REPRO_HAVE_NPYRANDOM
/* The bitgen_t behind a numpy Generator.  numpy's public contract:
 * ``generator.bit_generator.capsule`` is a PyCapsule named
 * "BitGenerator" wrapping the bitgen_t.  The caller must hold *holder
 * (a strong ref to the BitGenerator) for as long as it draws. */
static bitgen_t *
bitgen_of(PyObject *rng, PyObject **holder)
{
    PyObject *bg_obj = PyObject_GetAttr(rng, str_bit_generator);
    if (bg_obj == NULL)
        return NULL;
    PyObject *capsule = PyObject_GetAttr(bg_obj, str_capsule_attr);
    if (capsule == NULL) {
        Py_DECREF(bg_obj);
        return NULL;
    }
    bitgen_t *bg = (bitgen_t *)PyCapsule_GetPointer(capsule, "BitGenerator");
    Py_DECREF(capsule);
    if (bg == NULL) {
        Py_DECREF(bg_obj);
        return NULL;
    }
    *holder = bg_obj;
    return bg;
}
#endif

/* rng.random(): for an exact numpy Generator, its bit stream's
 * next_double — the one draw Generator.random() makes, leaving the same
 * stream state — else the method call.  The draw, or -1.0 with an
 * exception set. */
static double
rng_random(PyObject *rng)
{
#ifdef REPRO_HAVE_NPYRANDOM
    if ((PyObject *)Py_TYPE(rng) == generator_type) {
        PyObject *holder;
        bitgen_t *bg = bitgen_of(rng, &holder);
        if (bg == NULL)
            return -1.0;
        double value = bg->next_double(bg->state);
        Py_DECREF(holder);
        return value;
    }
#endif
    PyObject *draw = PyObject_CallMethodNoArgs(rng, str_random);
    if (draw == NULL)
        return -1.0;
    double value = PyFloat_AsDouble(draw);
    Py_DECREF(draw);
    return value;
}

/* Resolve the network cores' exact types (see their declarations). */
static int
ensure_network_types(void)
{
    if (failure_injector_type != NULL)
        return 0;
    if ((generator_type = import_attr("numpy.random", "Generator")) != NULL
        && (failure_injector_type = import_attr("repro.sim.failures",
                                                "FailureInjector")) != NULL)
        return 0;
    Py_CLEAR(generator_type);
    return -1;
}

/* One of the two built-in delay models with exactly transcribable
 * draws, resolved once for a run of draws between which no Python code
 * can run: the model's parameters and the Generator's bitgen_t are read
 * here, and every draw after that is plain C.  Exactness:
 * ``Generator.exponential(scale)`` is one ziggurat draw scaled — the
 * same bits ``random_standard_exponential`` produces — and Python's
 * ``max(floor, v)`` returns v only when strictly greater. */
typedef struct {
    double scale;     /* the constant delay, or the exponential's mean */
    double floor_v;
    PyObject *holder; /* the BitGenerator kept alive; NULL = constant */
#ifdef REPRO_HAVE_NPYRANDOM
    bitgen_t *bg;
#endif
} DelayDraws;

/* Returns 1 with *draws ready (release with delay_draws_end), 0 when the
 * model isn't eligible (the caller takes the generic .sample() /
 * Python path), -1 on error. */
static int
delay_draws_begin(PyObject *delay_model, PyObject *rng, DelayDraws *draws)
{
    if (!ensure_delay_types())
        return 0;
    draws->holder = NULL;
    draws->floor_v = 0.0;
    if ((PyObject *)Py_TYPE(delay_model) == constant_delay_type) {
        draws->scale = attr_double(delay_model, str_cdelay_attr);
        return draws->scale == -1.0 && PyErr_Occurred() ? -1 : 1;
    }
#ifdef REPRO_HAVE_NPYRANDOM
    if ((PyObject *)Py_TYPE(delay_model) == exponential_delay_type) {
        draws->scale = attr_double(delay_model, str_mean_attr);
        if (draws->scale == -1.0 && PyErr_Occurred())
            return -1;
        draws->floor_v = attr_double(delay_model, str_floor_attr);
        if (draws->floor_v == -1.0 && PyErr_Occurred())
            return -1;
        draws->bg = bitgen_of(rng, &draws->holder);
        return draws->bg == NULL ? -1 : 1;
    }
#endif
    return 0;
}

static inline double
delay_draws_next(DelayDraws *draws)
{
#ifdef REPRO_HAVE_NPYRANDOM
    if (draws->holder != NULL) {
        double v = random_standard_exponential(draws->bg) * draws->scale;
        return v > draws->floor_v ? v : draws->floor_v;
    }
#endif
    return draws->scale;
}

static inline void
delay_draws_end(DelayDraws *draws)
{
    Py_XDECREF(draws->holder);
}

/* The ValueError both send paths raise for a delay <= 0. */
static void
raise_nonpositive_delay(double delay)
{
    PyObject *delay_obj = PyFloat_FromDouble(delay);
    if (delay_obj == NULL)
        return;
    PyErr_Format(PyExc_ValueError,
                 "delay model produced non-positive delay %S", delay_obj);
    Py_DECREF(delay_obj);
}

/* ------------------------------------------------------------------ */
/* NetworkCore: Network.send / .broadcast / ._deliver in C             */
/* ------------------------------------------------------------------ */

/* The message path of ``repro.sim.network`` without a Python frame: one
 * object per Network whose three methods are installed as the network's
 * ``send``, ``broadcast`` and ``_deliver`` instance attributes, so a
 * trace tap or monkeypatch that replaces an attribute keeps working.
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
 * one is installed.  The loss draw (an exact Generator) and the fault
 * check (an exact FailureInjector) are C too; the adversary's
 * ``intercept`` is the one per-message Python call left.
 *
 * Mutable knobs (loss_rate, _taps, _adversary, _loss_rng, _deliver,
 * delay_model, rng) are re-read from the Network per message so
 * set_message_loss / set_adversary / trace monkeypatches keep working;
 * only the identity-stable collaborators are bound at construction. */
struct NetworkCore {
    PyObject_HEAD
    PyObject *network;    /* the owning Network (cycle; GC-tracked) */
    PyObject *stats;      /* StatsCore or a python MessageStats */
    PyObject *failures;   /* FailureInjector */
    PyObject *nodes;      /* the Network's {node_id: Node} dict (shared) */
    SchedulerCore *sched; /* the network's scheduler, always native */
};

static PyObject *
networkcore_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *network;
    if (!PyArg_ParseTuple(args, "O", &network))
        return NULL;
    PyObject *stats = NULL, *failures = NULL, *nodes = NULL, *sched = NULL;
    if ((stats = PyObject_GetAttr(network, str_stats_attr)) == NULL
        || (failures = PyObject_GetAttr(network, str_failures_attr)) == NULL
        || (nodes = PyObject_GetAttr(network, str_nodes_attr)) == NULL
        || (sched = PyObject_GetAttr(network, str_scheduler_attr)) == NULL
        || ensure_network_types() < 0)
        goto fail;
    if (!PyDict_Check(nodes)
        || !PyObject_TypeCheck(sched, &SchedulerCore_Type)) {
        PyErr_SetString(PyExc_TypeError,
                        "NetworkCore needs network._nodes to be a dict and "
                        "network.scheduler a native SchedulerCore");
        goto fail;
    }
    NetworkCore *self = (NetworkCore *)type->tp_alloc(type, 0);
    if (self == NULL)
        goto fail;
    Py_INCREF(network);
    self->network = network;
    self->stats = stats;
    self->failures = failures;
    self->nodes = nodes;
    self->sched = (SchedulerCore *)sched;
    return (PyObject *)self;
fail:
    Py_XDECREF(stats);
    Py_XDECREF(failures);
    Py_XDECREF(nodes);
    Py_XDECREF(sched);
    return NULL;
}

static int
networkcore_traverse(NetworkCore *self, visitproc visit, void *arg)
{
    Py_VISIT(self->network);
    Py_VISIT(self->stats);
    Py_VISIT(self->failures);
    Py_VISIT(self->nodes);
    Py_VISIT((PyObject *)self->sched);
    return 0;
}

static int
networkcore_clear(NetworkCore *self)
{
    Py_CLEAR(self->network);
    Py_CLEAR(self->stats);
    Py_CLEAR(self->failures);
    Py_CLEAR(self->nodes);
    Py_CLEAR(self->sched);
    return 0;
}

static void
networkcore_dealloc(NetworkCore *self)
{
    PyObject_GC_UnTrack(self);
    networkcore_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* message.kind if truthy, else type(message).__name__ — _kind_of(). */
static PyObject *
kind_of(PyObject *message)
{
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

/* stats.<method>(src, dst, kind[, reason]) for record_send,
 * record_delivery and record_drop (the only one with a reason) — one
 * scalar bump, no call, on the native stats core. */
static int
stats_record(PyObject *stats, PyObject *method, PyObject *src,
             PyObject *dst, PyObject *kind, PyObject *reason)
{
    if (StatsCore_Check(stats)) {
        StatsCore *core = (StatsCore *)stats;
        if (method == str_record_send)
            core->sent += 1;
        else if (method == str_record_delivery)
            core->delivered += 1;
        else
            core->dropped += 1;
        return 0;
    }
    PyObject *res = PyObject_CallMethodObjArgs(
        stats, method, src, dst, kind, reason, NULL);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* ``failures.active and not failures.can_deliver(src, dst)``: 1 when a
 * crash or partition destroys the message, 0 when it passes, -1 on
 * error.  For an exact FailureInjector, can_deliver is evaluated here
 * over its ``_crashed`` set and ``_partition`` groups: blocked when an
 * endpoint is down, or when both belong to groups yet share none. */
static int
fault_blocks(PyObject *failures, PyObject *src, PyObject *dst)
{
    int active = attr_truth(failures, str_active);
    if (active <= 0)
        return active;
    if ((PyObject *)Py_TYPE(failures) != failure_injector_type) {
        PyObject *ok = PyObject_CallMethodObjArgs(
            failures, str_can_deliver, src, dst, NULL);
        if (ok == NULL)
            return -1;
        int deliverable = PyObject_IsTrue(ok);
        Py_DECREF(ok);
        return deliverable < 0 ? -1 : !deliverable;
    }
    PyObject *crashed = PyObject_GetAttr(failures, str_crashed_attr);
    PyObject *groups = crashed
        ? PyObject_GetAttr(failures, str_partition_attr) : NULL;
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

/* ``delay_model.sample(rng, src, dst)`` plus send's positivity check: a
 * native draw for the transcribable models, the generic method call for
 * every other.  Returns the delay (> 0), or -1.0 with an exception set. */
static double
sample_delay(PyObject *network, PyObject *src, PyObject *dst)
{
    double delay = -1.0;
    PyObject *delay_model = PyObject_GetAttr(network, str_delay_model);
    if (delay_model == NULL)
        return -1.0;
    PyObject *rng = PyObject_GetAttr(network, str_rng_attr);
    if (rng == NULL) {
        Py_DECREF(delay_model);
        return -1.0;
    }
    DelayDraws draws;
    int native = delay_draws_begin(delay_model, rng, &draws);
    if (native > 0) {
        delay = delay_draws_next(&draws);
        delay_draws_end(&draws);
        if (delay <= 0) {
            raise_nonpositive_delay(delay);
            delay = -1.0;
        }
    }
    else if (native == 0) {
        PyObject *delay_obj = PyObject_CallMethodObjArgs(
            delay_model, str_sample, rng, src, dst, NULL);
        if (delay_obj != NULL) {
            delay = PyFloat_AsDouble(delay_obj);
            if (delay <= 0) {
                /* Either a failed conversion (-1.0, error set) or a bad
                 * sample. */
                if (!PyErr_Occurred())
                    PyErr_Format(PyExc_ValueError,
                                 "delay model produced non-positive delay %S",
                                 delay_obj);
                delay = -1.0;
            }
            Py_DECREF(delay_obj);
        }
    }
    Py_DECREF(delay_model);
    Py_DECREF(rng);
    return delay;
}

/* Network.send from the stats update on: the per-message pipeline.  The
 * caller has validated dst and resolved kind. */
static int
network_send_one(NetworkCore *self, PyObject *src, PyObject *dst,
                 PyObject *message, PyObject *kind)
{
    PyObject *network = self->network;
    if (stats_record(self->stats, str_record_send, src, dst, kind, NULL) < 0)
        return -1;

    PyObject *taps = PyObject_GetAttr(network, str_taps_attr);
    if (taps == NULL)
        return -1;
    if (PyList_Check(taps)) {
        for (Py_ssize_t i = 0; i < PyList_GET_SIZE(taps); i++) {
            PyObject *tap = PyList_GET_ITEM(taps, i);
            Py_INCREF(tap);
            PyObject *res = PyObject_CallFunctionObjArgs(
                tap, src, dst, message, NULL);
            Py_DECREF(tap);
            if (res == NULL) {
                Py_DECREF(taps);
                return -1;
            }
            Py_DECREF(res);
        }
    }
    Py_DECREF(taps);

    /* One loss draw per send whenever loss is on, before any fault
     * check, so the loss stream advances identically however many
     * nodes happen to be crashed. */
    double loss_rate = attr_double(network, str_loss_rate);
    if (loss_rate == -1.0 && PyErr_Occurred())
        return -1;
    int lost = 0;
    if (loss_rate > 0.0) {
        PyObject *loss_rng = PyObject_GetAttr(network, str_loss_rng_attr);
        if (loss_rng == NULL)
            return -1;
        double value = rng_random(loss_rng);
        Py_DECREF(loss_rng);
        if (value == -1.0 && PyErr_Occurred())
            return -1;
        lost = value < loss_rate;
    }
    int blocked = fault_blocks(self->failures, src, dst);
    if (blocked < 0)
        return -1;
    if (blocked || lost)
        return stats_record(self->stats, str_record_drop, src, dst, kind,
                            blocked ? str_fault : str_loss);

    double extra = 0.0;
    PyObject *adversary = PyObject_GetAttr(network, str_adversary_attr);
    if (adversary == NULL)
        return -1;
    if (adversary != Py_None) {
        PyObject *now_obj = PyFloat_FromDouble(self->sched->now);
        PyObject *action = now_obj == NULL
            ? NULL : PyObject_CallMethodObjArgs(
                adversary, str_intercept, src, dst, message, kind, now_obj,
                NULL);
        Py_XDECREF(now_obj);
        if (action == NULL) {
            Py_DECREF(adversary);
            return -1;
        }
        int dropped = PyObject_RichCompareBool(action, str_drop_action,
                                               Py_EQ);
        if (dropped == 0 && action != Py_None) {
            extra = PyFloat_AsDouble(action);
            if (extra == -1.0 && PyErr_Occurred())
                dropped = -1;
        }
        Py_DECREF(action);
        if (dropped != 0) {
            Py_DECREF(adversary);
            return dropped < 0 ? -1 : stats_record(
                self->stats, str_record_drop, src, dst, kind, str_adversary);
        }
    }
    Py_DECREF(adversary);

    double delay = sample_delay(network, src, dst);
    if (delay <= 0)
        return -1;
    PyObject *deliver = PyObject_GetAttr(network, str_deliver_attr);
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

/* The branch test of Network.broadcast: 1 on a healthy network (no
 * taps, no active fault, no loss, no adversary), 0 otherwise, -1 on
 * error.  Re-read per call, like every mutable knob. */
static int
network_is_healthy(NetworkCore *self)
{
    int tapped = attr_truth(self->network, str_taps_attr);
    if (tapped != 0)
        return tapped < 0 ? -1 : 0;
    int faulty = attr_truth(self->failures, str_active);
    if (faulty != 0)
        return faulty < 0 ? -1 : 0;
    double loss_rate = attr_double(self->network, str_loss_rate);
    if (loss_rate == -1.0 && PyErr_Occurred())
        return -1;
    if (loss_rate > 0.0)
        return 0;
    PyObject *adversary = PyObject_GetAttr(self->network,
                                           str_adversary_attr);
    if (adversary == NULL)
        return -1;
    Py_DECREF(adversary);
    return adversary == Py_None;
}

/* Network.broadcast.  The healthy branch skips the sample_batch list
 * round-trip: per-destination scalar draws consume the delay stream in
 * exactly the order sample_batch does (a size-n exponential fill is n
 * sequential ziggurat draws) and seq numbers are assigned in destination
 * order either way, so events sort identically.  The delay parameters
 * and the bitgen_t are resolved once: no Python code runs between the
 * draws of one healthy fan-out. */
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
    DelayDraws draws = {0};
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    for (Py_ssize_t i = 0; i < n; i++) {
        if (check_destination(self, PySequence_Fast_GET_ITEM(fast, i)) < 0)
            goto done;
    }
    kind = kind_of(message);
    if (kind == NULL)
        goto done;
    int batched = network_is_healthy(self);
    if (batched > 0) {
        PyObject *delay_model = PyObject_GetAttr(self->network,
                                                 str_delay_model);
        if (delay_model == NULL)
            goto done;
        PyObject *rng = PyObject_GetAttr(self->network, str_rng_attr);
        batched = rng == NULL
            ? -1 : delay_draws_begin(delay_model, rng, &draws);
        Py_DECREF(delay_model);
        Py_XDECREF(rng);
    }
    if (batched < 0)
        goto done;
    if (!batched) {
        /* for dst in dsts: self.send(src, dst, message) — taps and the
         * adversary run Python, so the list is re-measured per step. */
        for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(fast); i++) {
            PyObject *dst = PySequence_Fast_GET_ITEM(fast, i);
            Py_INCREF(dst);
            int sent = network_send_one(self, src, dst, message, kind);
            Py_DECREF(dst);
            if (sent < 0)
                goto done;
        }
        rc = 0;
        goto done;
    }
    /* stats.record_sends(src, len(dsts), kind) */
    if (StatsCore_Check(self->stats))
        ((StatsCore *)self->stats)->sent += n;
    else {
        PyObject *count = PyLong_FromSsize_t(n);
        PyObject *res = count == NULL
            ? NULL : PyObject_CallMethodObjArgs(
                self->stats, str_record_sends, src, count, kind, NULL);
        Py_XDECREF(count);
        if (res == NULL)
            goto done;
        Py_DECREF(res);
    }
    deliver = PyObject_GetAttr(self->network, str_deliver_attr);
    if (deliver == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < n; i++) {
        double delay = delay_draws_next(&draws);
        if (delay <= 0) {
            raise_nonpositive_delay(delay);
            goto done;
        }
        if (push_uncancellable(
                self->sched, self->sched->now + delay, deliver,
                PyTuple_Pack(4, src, PySequence_Fast_GET_ITEM(fast, i),
                             message, kind)) < 0)
            goto done;
    }
    rc = 0;
done:
    delay_draws_end(&draws);
    Py_XDECREF(deliver);
    Py_XDECREF(kind);
    Py_DECREF(fast);
    return rc;
}

/* Network._deliver, mirrored exactly:
 *
 *     failures = self.failures
 *     if failures.active and not failures.can_deliver(src, dst):
 *         self.stats.record_drop(src, dst, kind, reason="fault")
 *         return
 *     self.stats.record_delivery(src, dst, kind)
 *     self._nodes[dst].on_message(src, message)
 */
static int
network_deliver(NetworkCore *self, PyObject *src, PyObject *dst,
                PyObject *message, PyObject *kind)
{
    /* A node that crashed while the message was in flight drops it. */
    int blocked = fault_blocks(self->failures, src, dst);
    if (blocked < 0)
        return -1;
    if (blocked)
        return stats_record(self->stats, str_record_drop, src, dst, kind,
                            str_fault);
    if (stats_record(self->stats, str_record_delivery, src, dst, kind,
                     NULL) < 0)
        return -1;
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
         * handler itself when a guard demands it). */
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

#ifdef REPRO_HAVE_NPYRANDOM
/* numpy's choice(replace=False, shuffle=True) for 1-D integer ranges,
 * reproduced draw for draw: Floyd's algorithm (one bounded draw per
 * selection, duplicates remapped to the loop index) followed by a
 * descending Fisher-Yates shuffle — the exact draw sequence numpy
 * makes, so the Generator leaves this call in the same state as the
 * Python expression.  Bounded draws use Lemire rejection
 * (use_masked=0), matching Generator.integers. */
static PyObject *
quorum_sample(PyObject *rng, Py_ssize_t n, Py_ssize_t k)
{
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
    PyObject *holder;
    bitgen_t *bg = bitgen_of(rng, &holder);
    if (bg == NULL) {
        if (idx != stack_buf)
            PyMem_Free(idx);
        return NULL;
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
    Py_DECREF(holder);
    PyObject *result = PyFrozenSet_New(NULL);
    if (result == NULL) {
        if (idx != stack_buf)
            PyMem_Free(idx);
        return NULL;
    }
    for (Py_ssize_t i = 0; i < k; i++) {
        PyObject *member = PyLong_FromLongLong((long long)idx[i]);
        if (member == NULL || PySet_Add(result, member) < 0) {
            Py_XDECREF(member);
            Py_DECREF(result);
            if (idx != stack_buf)
                PyMem_Free(idx);
            return NULL;
        }
        Py_DECREF(member);
    }
    if (idx != stack_buf)
        PyMem_Free(idx);
    return result;
}
#endif

static PyObject *
kernel_quorum_sample(PyObject *module, PyObject *const *args,
                     Py_ssize_t nargs)
{
#ifdef REPRO_HAVE_NPYRANDOM
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "quorum_sample expects (rng, n, k)");
        return NULL;
    }
    Py_ssize_t n = PyLong_AsSsize_t(args[1]);
    if (n == -1 && PyErr_Occurred())
        return NULL;
    Py_ssize_t k = PyLong_AsSsize_t(args[2]);
    if (k == -1 && PyErr_Occurred())
        return NULL;
    return quorum_sample(args[0], n, k);
#else
    PyErr_SetString(PyExc_RuntimeError,
                    "quorum_sample needs a build linked against numpy's "
                    "random library (HAVE_FAST_RNG is 0)");
    return NULL;
#endif
}

/* ------------------------------------------------------------------ */
/* ProtocolCore: the register protocol without Python frames           */
/* ------------------------------------------------------------------ */

/* Native transcriptions of the two per-message protocol callbacks:
 * ``ReplicaServer.on_message`` (ServerCore) and the reply path of
 * ``QuorumRegisterClient.on_message`` + ``_finish`` + ``_teardown`` +
 * ``_redispatch`` (ClientCore, an interpreter of the client class's round
 * plans), plus the client's issue path and retry timer (ClientCore's read
 * / write / _begin / _send_round / _retry methods).  Installed as instance
 * attributes of the node, like the network core's entry points, so trace
 * taps and monkeypatches keep working; the Python methods remain the
 * reference implementation.
 *
 * Soft fallback, re-checked on every delivery, is a guard on what the
 * handler itself reads — the complete list: an op-level span (tracing)
 * and any message that is not an exact instance of one of the four
 * Section-4 types or StaleViewNack (State*, subclasses).  Those take the
 * Python handler.  Loss, faults, taps, an adversary and detailed
 * MessageStats matter only inside ``send``, which the network core
 * handles.  A nack's re-dispatch draws a view quorum, in the Python order.
 */

/* Resolve the protocol classes lazily, on first core construction —
 * never at module import, so the extension stays importable alone. */
static int
ensure_protocol_types(void)
{
    if (timestamp_type != NULL)
        return 0;
    const char *messages = "repro.registers.messages";
    if ((msg_read_query = import_attr(messages, "ReadQuery")) == NULL
        || (msg_read_reply = import_attr(messages, "ReadReply")) == NULL
        || (msg_write_update = import_attr(messages, "WriteUpdate")) == NULL
        || (msg_write_ack = import_attr(messages, "WriteAck")) == NULL
        || (msg_stale_view_nack = import_attr(messages,
                                              "StaleViewNack")) == NULL)
        goto fail;
    /* Messages are built through tuple.__new__ directly (skipping the
     * generated NamedTuple __new__ frame), which is only valid for
     * tuple subtypes. */
    PyObject *built[] = {msg_read_query, msg_read_reply, msg_write_update,
                         msg_write_ack, msg_stale_view_nack};
    for (size_t i = 0; i < sizeof(built) / sizeof(built[0]); i++) {
        if (!PyType_Check(built[i])
            || !PyType_IsSubtype((PyTypeObject *)built[i], &PyTuple_Type)) {
            PyErr_SetString(PyExc_TypeError,
                            "register protocol messages must be tuple "
                            "subclasses (typing.NamedTuple)");
            goto fail;
        }
    }
    if ((nullrecord_type = import_attr("repro.core.history",
                                       "_NullRecord")) == NULL
        /* Assigned last: non-NULL timestamp_type marks full resolution. */
        || (timestamp_type = import_attr("repro.core.timestamps",
                                         "Timestamp")) == NULL)
        goto fail;
    return 0;
fail:
    Py_CLEAR(msg_read_query);
    Py_CLEAR(msg_read_reply);
    Py_CLEAR(msg_write_update);
    Py_CLEAR(msg_write_ack);
    Py_CLEAR(msg_stale_view_nack);
    Py_CLEAR(nullrecord_type);
    Py_CLEAR(timestamp_type);
    return -1;
}

/* Resolve the classes of the client issue path (see their declarations). */
static int
ensure_issue_types(void)
{
    if (prob_quorum_type != NULL)
        return 0;
    if ((pending_op_type = import_attr("repro.registers.client",
                                       "_PendingOp")) != NULL
        && (future_type = import_attr("repro.sim.futures",
                                      "Future")) != NULL
        && (null_history_type = import_attr("repro.core.history",
                                            "NullRegisterHistory")) != NULL
        && (null_record = import_attr("repro.core.history",
                                      "_NULL_RECORD")) != NULL
        && (retry_policy_type = import_attr("repro.registers.client",
                                            "RetryPolicy")) != NULL
        /* Assigned last: non-NULL prob_quorum_type marks full resolution. */
        && (prob_quorum_type = import_attr("repro.quorum.probabilistic",
                                           "ProbabilisticQuorumSystem"))
            != NULL)
        return 0;
    Py_CLEAR(retry_policy_type);
    Py_CLEAR(pending_op_type);
    Py_CLEAR(future_type);
    Py_CLEAR(null_history_type);
    Py_CLEAR(null_record);
    return -1;
}

/* a > b under Timestamp's lexicographic (seq, writer) order, without
 * the Python __gt__ frame: the tuple comparison it makes; non-exact
 * operand types take the generic comparison protocol.  1/0/-1 (error). */
static int
timestamp_gt(PyObject *a, PyObject *b)
{
    if ((PyObject *)Py_TYPE(a) != timestamp_type
        || (PyObject *)Py_TYPE(b) != timestamp_type)
        return PyObject_RichCompareBool(a, b, Py_GT);
    PyObject *names[] = {str_seq_attr, str_writer_attr};
    PyObject *key_a = attr_tuple(a, names, 2);
    PyObject *key_b = key_a ? attr_tuple(b, names, 2) : NULL;
    int gt = key_b ? PyObject_RichCompareBool(key_a, key_b, Py_GT) : -1;
    Py_XDECREF(key_a);
    Py_XDECREF(key_b);
    return gt;
}

/* obj.<name> += 1 for the plain-int instance counters. */
static int
bump_counter(PyObject *obj, PyObject *name)
{
    PyObject *old = PyObject_GetAttr(obj, name);
    if (old == NULL)
        return -1;
    PyObject *fresh = PyNumber_Add(old, py_one);
    Py_DECREF(old);
    if (fresh == NULL)
        return -1;
    int rc = PyObject_SetAttr(obj, name, fresh);
    Py_DECREF(fresh);
    return rc;
}

/* network.send(src, dst, message) — straight into the network core's
 * send when it is the one installed (the common case). */
static int
send_message(PyObject *network, PyObject *src, PyObject *dst,
             PyObject *message)
{
    PyObject *send = PyObject_GetAttr(network, str_send_attr);
    if (send == NULL)
        return -1;
    int rc;
    NetworkCore *core = networkcore_behind(send,
                                           NETWORK_ENTRY(networkcore_send));
    if (core != NULL) {
        rc = network_send(core, src, dst, message);
    }
    else {
        PyObject *res = PyObject_CallFunctionObjArgs(
            send, src, dst, message, NULL);
        rc = res == NULL ? -1 : 0;
        Py_XDECREF(res);
    }
    Py_DECREF(send);
    return rc;
}

/* Instantiate a message NamedTuple via tuple.__new__(cls, fields) —
 * exactly what the generated __new__ does, minus its Python frame.
 * Steals the fields reference. */
static PyObject *
make_message(PyObject *cls, PyObject *fields)
{
    if (fields == NULL)
        return NULL;
    PyObject *args = PyTuple_Pack(1, fields);
    Py_DECREF(fields);
    if (args == NULL)
        return NULL;
    PyObject *message = PyTuple_Type.tp_new((PyTypeObject *)cls, args, NULL);
    Py_DECREF(args);
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

typedef struct {
    PyObject_HEAD
    PyObject *server;   /* the ReplicaServer */
    PyObject *fallback; /* type(server).on_message, unbound */
    PyObject *network;
    PyObject *replicas; /* server._replicas dict (shared) */
    PyObject *node_id;  /* server.node_id */
} ServerCore;

static PyObject *
servercore_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *server;
    if (!PyArg_ParseTuple(args, "O", &server))
        return NULL;
    if (ensure_protocol_types() < 0)
        return NULL;
    PyObject *fallback = NULL, *network = NULL;
    PyObject *replicas = NULL, *node_id = NULL;
    fallback = PyObject_GetAttr((PyObject *)Py_TYPE(server), str_on_message);
    if (fallback == NULL)
        goto fail;
    network = PyObject_GetAttr(server, str_network_attr);
    if (network == NULL)
        goto fail;
    replicas = PyObject_GetAttr(server, str_replicas_attr);
    if (replicas == NULL)
        goto fail;
    if (!PyDict_Check(replicas)) {
        PyErr_SetString(PyExc_TypeError, "server._replicas must be a dict");
        goto fail;
    }
    node_id = PyObject_GetAttr(server, str_node_id);
    if (node_id == NULL)
        goto fail;
    ServerCore *self = (ServerCore *)type->tp_alloc(type, 0);
    if (self == NULL)
        goto fail;
    Py_INCREF(server);
    self->server = server;
    self->fallback = fallback;
    self->network = network;
    self->replicas = replicas;
    self->node_id = node_id;
    return (PyObject *)self;
fail:
    Py_XDECREF(fallback);
    Py_XDECREF(network);
    Py_XDECREF(replicas);
    Py_XDECREF(node_id);
    return NULL;
}

static int
servercore_traverse(ServerCore *self, visitproc visit, void *arg)
{
    Py_VISIT(self->server);
    Py_VISIT(self->fallback);
    Py_VISIT(self->network);
    Py_VISIT(self->replicas);
    Py_VISIT(self->node_id);
    return 0;
}

static int
servercore_clear(ServerCore *self)
{
    Py_CLEAR(self->server);
    Py_CLEAR(self->fallback);
    Py_CLEAR(self->network);
    Py_CLEAR(self->replicas);
    Py_CLEAR(self->node_id);
    return 0;
}

static void
servercore_dealloc(ServerCore *self)
{
    PyObject_GC_UnTrack(self);
    servercore_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* The replica-dict probe: hot path is one C dict lookup; the cold path
 * (first message touching a register) takes the Python ``_replica``
 * method so space.info validation stays in one place.  Returns a strong
 * reference to the (timestamp, value) entry, or NULL. */
static PyObject *
servercore_replica(ServerCore *self, PyObject *reg)
{
    PyObject *entry = PyDict_GetItemWithError(self->replicas, reg);
    if (entry != NULL) {
        Py_INCREF(entry);
        return entry;
    }
    if (PyErr_Occurred())
        return NULL;
    return PyObject_CallMethodObjArgs(self->server, str_replica_method,
                                      reg, NULL);
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
    PyObject *state = PyObject_GetAttr(self->server, str_view_state);
    if (state == NULL)
        return NULL;
    if (state == Py_None) {
        Py_DECREF(state);
        Py_INCREF(py_zero);
        return py_zero;
    }
    PyObject *view_id = NULL;
    int stale = 0;
    int retired = attr_truth(state, str_retired);
    if (retired == 0) {
        view_id = PyObject_GetAttr(state, str_view_id);
        stale = view_id == NULL
            ? -1 : PyObject_RichCompareBool(request_view, view_id, Py_LT);
        if (stale > 0) {
            int retiring = attr_truth(state, str_retiring);
            stale = retiring < 0 ? -1 : !retiring;
        }
    }
    Py_DECREF(state);
    if (retired > 0)
        bump_counter(self->server, str_retired_ignored);
    else if (stale > 0 && bump_counter(self->server, str_nacks_sent) == 0) {
        PyObject *nack = make_message(
            msg_stale_view_nack,
            PyTuple_Pack(3, PyTuple_GET_ITEM(message, 0),
                         PyTuple_GET_ITEM(message, 1), view_id));
        if (nack != NULL) {
            send_message(self->network, self->node_id, src, nack);
            Py_DECREF(nack);
        }
    }
    if (retired || stale)
        Py_CLEAR(view_id);
    return view_id;
}

static int
servercore_invoke(ServerCore *self, PyObject *src, PyObject *message)
{
    PyObject *msg_type = (PyObject *)Py_TYPE(message);
    int is_read = msg_type == msg_read_query;
    if (!is_read && msg_type != msg_write_update)
        /* Anything else — StateRequest/StateReply, unknown kinds,
         * message subclasses — takes the Python handler. */
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
    if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 2) {
        /* Foreign replica layout: let Python unpack (and fail) it. */
        Py_DECREF(entry);
        Py_DECREF(view_id);
        return run_fallback(self->fallback, self->server, src, message);
    }
    if (is_read) {
        if (bump_counter(self->server, str_reads_served) == 0)
            reply = make_message(
                msg_read_reply,
                PyTuple_Pack(5, reg, op_id, PyTuple_GET_ITEM(entry, 1),
                             PyTuple_GET_ITEM(entry, 0), view_id));
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
        if (bump_counter(self->server, newer ? str_writes_applied
                                             : str_stale_updates) == 0)
            reply = make_message(msg_write_ack,
                                 PyTuple_Pack(3, reg, op_id, view_id));
    }
done:
    Py_DECREF(view_id);
    if (reply == NULL)
        return -1;
    int rc = send_message(self->network, self->node_id, src, reply);
    Py_DECREF(reply);
    return rc;
}

static PyObject *
servercore_call(ServerCore *self, PyObject *args, PyObject *kwds)
{
    PyObject *src, *message;
    if (kwds != NULL && PyDict_GET_SIZE(kwds) != 0) {
        PyErr_SetString(PyExc_TypeError,
                        "on_message takes no keyword arguments");
        return NULL;
    }
    if (!PyArg_UnpackTuple(args, "on_message", 2, 2, &src, &message))
        return NULL;
    if (servercore_invoke(self, src, message) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyMemberDef servercore_members[] = {
    {"server", T_OBJECT_EX, offsetof(ServerCore, server), READONLY,
     "the ReplicaServer this core handles messages for"},
    {"fallback", T_OBJECT_EX, offsetof(ServerCore, fallback), READONLY,
     "the unbound Python handler used when a hook forces fallback"},
    {NULL}
};

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
    .tp_call = (ternaryfunc)servercore_call,
    .tp_members = servercore_members,
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
    PyObject *source;   /* the plan tuple, handed to every op built here */
    int n;
    Round rounds[MAX_ROUNDS];
} Plan;

typedef struct {
    PyObject_HEAD
    PyObject *client;       /* the QuorumRegisterClient */
    PyObject *fallback;     /* type(client).on_message, unbound */
    PyObject *network;
    PyObject *failures;
    PyObject *pending;      /* client._pending dict (shared) */
    PyObject *server_index; /* client._server_index dict (shared) */
    PyObject *cache;        /* client._cache dict (shared) */
    SchedulerCore *sched;   /* native scheduler (``now``, timer pushes) */
    int monotone;
    /* Issue path (identity-stable collaborators; the mutable knobs —
     * retry policy, view, quorum system, rng, tracing — are re-read per
     * op). */
    PyObject *registers;    /* client.space._registers dict (shared) */
    PyObject *server_ids;   /* client.server_ids list (shared; the roster
                               grows in place under membership) */
    PyObject *op_ids;       /* client._op_ids iterator */
    PyObject *write_seq;    /* client._write_seq dict (shared) */
    PyObject *client_id;
    PyObject *node_id;
    Plan plans[2];          /* [0] READ_PLAN, [1] WRITE_PLAN */
} ClientCore;

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

/* client.<name> into ``plan``; ValueError for a plan this interpreter
 * has no code for.  plan->source is set whenever the attribute exists,
 * valid or not: the caller releases it. */
static int
read_plan(PyObject *client, PyObject *name, Plan *plan)
{
    PyObject *source = plan->source = PyObject_GetAttr(client, name);
    if (source == NULL)
        return -1;
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

static PyObject *
clientcore_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *client;
    if (!PyArg_ParseTuple(args, "O", &client))
        return NULL;
    if (ensure_protocol_types() < 0 || ensure_issue_types() < 0
        || ensure_network_types() < 0)
        return NULL;
    PyObject *fallback = NULL, *network = NULL, *failures = NULL;
    PyObject *pending = NULL, *server_index = NULL;
    PyObject *cache = NULL, *sched = NULL;
    PyObject *space = NULL, *registers = NULL, *server_ids = NULL;
    PyObject *op_ids = NULL, *write_seq = NULL, *client_id = NULL;
    PyObject *node_id = NULL;
    Plan plans[2] = {{NULL}};
    fallback = PyObject_GetAttr((PyObject *)Py_TYPE(client), str_on_message);
    if (fallback == NULL)
        goto fail;
    network = PyObject_GetAttr(client, str_network_attr);
    if (network == NULL)
        goto fail;
    failures = PyObject_GetAttr(network, str_failures_attr);
    if (failures == NULL)
        goto fail;
    pending = PyObject_GetAttr(client, str_pending_attr);
    if (pending == NULL)
        goto fail;
    server_index = PyObject_GetAttr(client, str_server_index);
    if (server_index == NULL)
        goto fail;
    cache = PyObject_GetAttr(client, str_cache_attr);
    if (cache == NULL)
        goto fail;
    if (!PyDict_Check(pending) || !PyDict_Check(server_index)
        || !PyDict_Check(cache)) {
        PyErr_SetString(PyExc_TypeError,
                        "client._pending, _server_index and _cache must "
                        "be dicts");
        goto fail;
    }
    sched = PyObject_GetAttr(network, str_scheduler_attr);
    if (sched == NULL)
        goto fail;
    if (!PyObject_TypeCheck(sched, &SchedulerCore_Type)) {
        PyErr_SetString(PyExc_TypeError,
                        "ClientCore needs a native SchedulerCore");
        goto fail;
    }
    int monotone = attr_truth(client, str_monotone);
    if (monotone < 0)
        goto fail;
    if ((space = PyObject_GetAttr(client, str_space)) == NULL
        || (registers = PyObject_GetAttr(space, str_registers_attr)) == NULL
        || (server_ids = PyObject_GetAttr(client, str_server_ids)) == NULL
        || (op_ids = PyObject_GetAttr(client, str_op_ids)) == NULL
        || (write_seq = PyObject_GetAttr(client, str_write_seq)) == NULL
        || (client_id = PyObject_GetAttr(client, str_client_id)) == NULL
        || (node_id = PyObject_GetAttr(client, str_node_id)) == NULL)
        goto fail;
    if (!PyDict_Check(registers) || !PyDict_Check(write_seq)
        || !PyList_Check(server_ids) || !PyIter_Check(op_ids)) {
        PyErr_SetString(PyExc_TypeError,
                        "client.space._registers and _write_seq must be "
                        "dicts, server_ids a list, _op_ids an iterator");
        goto fail;
    }
    if (read_plan(client, str_read_plan, &plans[0]) < 0
        || read_plan(client, str_write_plan, &plans[1]) < 0)
        goto fail;
    ClientCore *self = (ClientCore *)type->tp_alloc(type, 0);
    if (self == NULL)
        goto fail;
    Py_INCREF(client);
    self->client = client;
    self->fallback = fallback;
    self->network = network;
    self->failures = failures;
    self->pending = pending;
    self->server_index = server_index;
    self->cache = cache;
    self->sched = (SchedulerCore *)sched;
    self->monotone = monotone;
    Py_DECREF(space);
    self->registers = registers;
    self->server_ids = server_ids;
    self->op_ids = op_ids;
    self->write_seq = write_seq;
    self->client_id = client_id;
    self->node_id = node_id;
    self->plans[0] = plans[0];
    self->plans[1] = plans[1];
    return (PyObject *)self;
fail:
    Py_XDECREF(fallback);
    Py_XDECREF(network);
    Py_XDECREF(failures);
    Py_XDECREF(pending);
    Py_XDECREF(server_index);
    Py_XDECREF(cache);
    Py_XDECREF(sched);
    Py_XDECREF(space);
    Py_XDECREF(registers);
    Py_XDECREF(server_ids);
    Py_XDECREF(op_ids);
    Py_XDECREF(write_seq);
    Py_XDECREF(client_id);
    Py_XDECREF(node_id);
    Py_XDECREF(plans[0].source);
    Py_XDECREF(plans[1].source);
    return NULL;
}

static int
clientcore_traverse(ClientCore *self, visitproc visit, void *arg)
{
    Py_VISIT(self->client);
    Py_VISIT(self->fallback);
    Py_VISIT(self->network);
    Py_VISIT(self->failures);
    Py_VISIT(self->pending);
    Py_VISIT(self->server_index);
    Py_VISIT(self->cache);
    Py_VISIT((PyObject *)self->sched);
    Py_VISIT(self->registers);
    Py_VISIT(self->server_ids);
    Py_VISIT(self->op_ids);
    Py_VISIT(self->write_seq);
    Py_VISIT(self->client_id);
    Py_VISIT(self->node_id);
    Py_VISIT(self->plans[0].source);
    Py_VISIT(self->plans[1].source);
    return 0;
}

static int
clientcore_clear(ClientCore *self)
{
    Py_CLEAR(self->client);
    Py_CLEAR(self->fallback);
    Py_CLEAR(self->network);
    Py_CLEAR(self->failures);
    Py_CLEAR(self->pending);
    Py_CLEAR(self->server_index);
    Py_CLEAR(self->cache);
    Py_CLEAR(self->sched);
    Py_CLEAR(self->registers);
    Py_CLEAR(self->server_ids);
    Py_CLEAR(self->op_ids);
    Py_CLEAR(self->write_seq);
    Py_CLEAR(self->client_id);
    Py_CLEAR(self->node_id);
    Py_CLEAR(self->plans[0].source);
    Py_CLEAR(self->plans[1].source);
    return 0;
}

static void
clientcore_dealloc(ClientCore *self)
{
    PyObject_GC_UnTrack(self);
    clientcore_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* op.<attr>.cancel(), inlined for native handles. */
static int
cancel_op_handle(PyObject *op, PyObject *attr)
{
    PyObject *handle = PyObject_GetAttr(op, attr);
    if (handle == NULL)
        return -1;
    if (handle == Py_None) {
        Py_DECREF(handle);
        return 0;
    }
    if (PyObject_TypeCheck(handle, &KernelHandle_Type)) {
        KernelHandle *kh = (KernelHandle *)handle;
        if (!kh->cancelled) {
            kh->cancelled = 1;
            if (kh->owner != NULL && !kh->dequeued)
                kh->owner->live -= 1;
        }
        Py_DECREF(handle);
        return 0;
    }
    PyObject *res = PyObject_CallMethodObjArgs(handle, str_cancel, NULL);
    Py_DECREF(handle);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* reply.timestamp / reply.value: index access for exact message types,
 * attribute access for subclasses (mirroring the NamedTuple property). */
static PyObject *
reply_timestamp(PyObject *reply)
{
    if ((PyObject *)Py_TYPE(reply) == msg_read_reply) {
        PyObject *ts = PyTuple_GET_ITEM(reply, 3);
        Py_INCREF(ts);
        return ts;
    }
    return PyObject_GetAttr(reply, str_timestamp_attr);
}

static PyObject *
reply_value(PyObject *reply)
{
    if ((PyObject *)Py_TYPE(reply) == msg_read_reply) {
        PyObject *value = PyTuple_GET_ITEM(reply, 2);
        Py_INCREF(value);
        return value;
    }
    return PyObject_GetAttr(reply, str_value_attr);
}

/* space.info(register): the registry dict probe, the method on a miss
 * (which raises there).  A new reference, or NULL. */
static PyObject *
clientcore_info(ClientCore *self, PyObject *reg)
{
    PyObject *info = PyDict_GetItemWithError(self->registers, reg);
    if (info != NULL || PyErr_Occurred()) {
        Py_XINCREF(info);
        return info;
    }
    PyObject *space = PyObject_GetAttr(self->client, str_space);
    if (space == NULL)
        return NULL;
    info = PyObject_CallMethodOneArg(space, str_info, reg);
    Py_DECREF(space);
    return info;
}

/* client.spec_monitor while client._monitor_on (re-read per call, like
 * the Python guard), as a new reference; else NULL, with an exception
 * set only on error. */
static PyObject *
clientcore_monitor(ClientCore *self)
{
    int on = attr_truth(self->client, str_monitor_on);
    return on > 0 ? PyObject_GetAttr(self->client, str_spec_monitor) : NULL;
}

/* _settle's monitor hook: spec_monitor.on_{read,write}_complete(
 * client_id, op.record, space.info(op.register).history), between the
 * record and the future — so a SpecViolation raised here leaves the
 * state the Python definition leaves. */
static int
clientcore_check_spec(ClientCore *self, PyObject *op, PyObject *record,
                      int is_read)
{
    PyObject *monitor = clientcore_monitor(self);
    if (monitor == NULL)
        return PyErr_Occurred() ? -1 : 0;
    PyObject *history = NULL, *res = NULL;
    PyObject *reg = PyObject_GetAttr(op, str_register_attr);
    PyObject *info = reg == NULL ? NULL : clientcore_info(self, reg);
    if (info != NULL && (history = PyObject_GetAttr(info, str_history)))
        res = PyObject_CallMethodObjArgs(
            monitor, is_read ? str_on_read_complete : str_on_write_complete,
            self->client_id, record, history, NULL);
    Py_XDECREF(res);
    Py_XDECREF(history);
    Py_XDECREF(info);
    Py_XDECREF(reg);
    Py_DECREF(monitor);
    return res == NULL ? -1 : 0;
}

static int clientcore_move(ClientCore *self, PyObject *op);

/* The plan of op.kind — READ_PLAN for "read", else WRITE_PLAN — with
 * *is_read set to that choice and *stage to op.stage; NULL on error or a
 * stage outside the plan. */
static const Plan *
clientcore_plan(ClientCore *self, PyObject *op, int *is_read, long *stage)
{
    PyObject *kind = PyObject_GetAttr(op, str_kind_attr);
    if (kind == NULL)
        return NULL;
    if (kind == str_read_kind)
        *is_read = 1;
    else
        *is_read = PyObject_RichCompareBool(kind, str_read_kind, Py_EQ);
    Py_DECREF(kind);
    if (*is_read < 0)
        return NULL;
    PyObject *at = PyObject_GetAttr(op, str_stage);
    if (at == NULL)
        return NULL;
    *stage = PyLong_AsLong(at);
    Py_DECREF(at);
    if (*stage == -1 && PyErr_Occurred())
        return NULL;
    const Plan *plan = &self->plans[*is_read ? 0 : 1];
    if (*stage < 0 || *stage >= plan->n) {
        PyErr_SetString(PyExc_IndexError, "op.stage is outside its plan");
        return NULL;
    }
    return plan;
}

/* space.info(reg).history.<begin>(client_id, *args) — the shared inert
 * record for a NullRegisterHistory.  A new reference, or NULL. */
static PyObject *
clientcore_record(ClientCore *self, PyObject *reg, PyObject *begin,
                  PyObject *a, PyObject *b, PyObject *c)
{
    PyObject *record = NULL, *history = NULL;
    PyObject *info = clientcore_info(self, reg);
    if (info != NULL && (history = PyObject_GetAttr(info, str_history))) {
        record = (PyObject *)Py_TYPE(history) == null_history_type
            ? Py_NewRef(null_record)
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
        if (!PyObject_TypeCheck(reply, (PyTypeObject *)msg_read_reply))
            continue;
        if (best == NULL) {
            best = reply;
            continue;
        }
        PyObject *reply_ts = reply_timestamp(reply);
        if (reply_ts == NULL)
            break;
        PyObject *best_ts = reply_timestamp(best);
        if (best_ts == NULL) {
            Py_DECREF(reply_ts);
            break;
        }
        int gt = timestamp_gt(reply_ts, best_ts);
        Py_DECREF(reply_ts);
        Py_DECREF(best_ts);
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
clientcore_monotone(ClientCore *self, PyObject *op, PyObject **ts,
                    PyObject **value)
{
    PyObject *reg = PyObject_GetAttr(op, str_register_attr);
    if (reg == NULL)
        return -1;
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
        rc = bump_counter(self->client, str_cache_hits);
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
    Py_DECREF(reg);
    return rc;
}

/* QuorumRegisterClient._choose for the round in flight: the highest
 * timestamped quorum reply — through the monotone cache for a read's
 * final decision — or, for a vouched decision, one call to the Python
 * ``_vouched`` (masking reads: Byzantine runs only).  New references in
 * *ts / *value, or -1. */
static int
clientcore_choose(ClientCore *self, PyObject *op, int decision, int final,
                  PyObject *quorum, PyObject *replies, PyObject **ts,
                  PyObject **value)
{
    if (decision == DECIDE_VOUCHED) {
        PyObject *pair = PyObject_CallMethodOneArg(self->client, str_vouched,
                                                   op);
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
    PyObject *best = quorum_max_reply(quorum, replies);
    if (best == NULL)
        return -1;
    *value = reply_value(best);
    if (*value == NULL)
        return -1;
    *ts = reply_timestamp(best);
    if (*ts == NULL) {
        Py_CLEAR(*value);
        return -1;
    }
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
clientcore_carry(ClientCore *self, PyObject *op, int carry, PyObject *ts,
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
        if (PyObject_SetAttr(op, str_timestamp_attr, ts) < 0)
            return -1;
        return PyObject_SetAttr(op, str_value_attr, value);
    }
    int rc = -1;
    PyObject *queried = NULL, *stamp = NULL, *started = NULL;
    PyObject *op_value = NULL, *record = NULL;
    PyObject *reg = PyObject_GetAttr(op, str_register_attr);
    PyObject *seq = reg ? PyDict_GetItemWithError(self->write_seq, reg) : NULL;
    if (seq == NULL && PyErr_Occurred())
        goto done;
    seq = Py_NewRef(seq ? seq : py_zero);
    if (carry == CARRY_NEXT_SEQ) {
        /* max(chosen.seq, own seq) */
        queried = PyObject_GetAttr(ts, str_seq_attr);
        int own = queried ? PyObject_RichCompareBool(seq, queried, Py_GT) : -1;
        if (own < 0)
            goto done;
        if (!own)
            Py_SETREF(seq, Py_NewRef(queried));
    }
    Py_SETREF(seq, PyNumber_Add(seq, py_one));
    if (seq == NULL || PyDict_SetItem(self->write_seq, reg, seq) < 0
        || (stamp = PyObject_CallFunctionObjArgs(
                timestamp_type, seq, self->client_id, NULL)) == NULL
        || PyObject_SetAttr(op, str_timestamp_attr, stamp) < 0
        || (started = PyObject_GetAttr(op, str_started_attr)) == NULL
        || (op_value = PyObject_GetAttr(op, str_value_attr)) == NULL
        || (record = clientcore_record(self, reg, str_begin_write, started,
                                       op_value, stamp)) == NULL)
        goto done;
    rc = PyObject_SetAttr(op, str_record, record);
done:
    Py_XDECREF(record);
    Py_XDECREF(op_value);
    Py_XDECREF(started);
    Py_XDECREF(stamp);
    Py_XDECREF(queried);
    Py_XDECREF(seq);
    Py_XDECREF(reg);
    return rc;
}

/* QuorumRegisterClient._settle, spans off (the callers check): teardown,
 * counters, the live latency histogram, the history record, the spec
 * monitor's hook, then the future — named after the op's kind. */
static int
clientcore_settle(ClientCore *self, PyObject *op, PyObject *op_id,
                  int is_read, PyObject *ts, PyObject *value)
{
    if (PyDict_DelItem(self->pending, op_id) < 0)
        return -1;
    if (cancel_op_handle(op, str_retry_handle) < 0)
        return -1;
    if (cancel_op_handle(op, str_deadline_handle) < 0)
        return -1;
    if (bump_counter(self->client, str_ops_completed) < 0)
        return -1;
    int under_failure = attr_truth(self->failures, str_active);
    if (under_failure < 0)
        return -1;
    if (under_failure
        && bump_counter(self->client, str_ops_under_failure) < 0)
        return -1;

    /* Live latency histogram: observe(now - op.started) on the op's
     * kind, exactly where the Python _settle does it — after the
     * completion counters, before span finish and future resolution. */
    PyObject *latency = PyObject_GetAttr(self->client, str_latency_attr);
    if (latency == NULL)
        return -1;
    if (latency != Py_None) {
        PyObject *started_obj = PyObject_GetAttr(op, str_started_attr);
        if (started_obj == NULL) {
            Py_DECREF(latency);
            return -1;
        }
        double started = PyFloat_AsDouble(started_obj);
        Py_DECREF(started_obj);
        if (started == -1.0 && PyErr_Occurred()) {
            Py_DECREF(latency);
            return -1;
        }
        PyObject *hist = PyObject_GetItem(
            latency, is_read ? str_read_kind : str_write_kind);
        Py_DECREF(latency);
        if (hist == NULL)
            return -1;
        PyObject *elapsed = PyFloat_FromDouble(self->sched->now - started);
        if (elapsed == NULL) {
            Py_DECREF(hist);
            return -1;
        }
        PyObject *res = PyObject_CallMethodObjArgs(
            hist, str_observe, elapsed, NULL);
        Py_DECREF(elapsed);
        Py_DECREF(hist);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
    }
    else {
        Py_DECREF(latency);
    }

    PyObject *record = PyObject_GetAttr(op, str_record);
    if (record == NULL)
        return -1;
    if ((PyObject *)Py_TYPE(record) != nullrecord_type) {
        PyObject *now_obj = PyFloat_FromDouble(self->sched->now);
        if (now_obj == NULL) {
            Py_DECREF(record);
            return -1;
        }
        PyObject *res = is_read
            ? PyObject_CallMethodObjArgs(record, str_complete, now_obj,
                                         value, ts, NULL)
            : PyObject_CallMethodObjArgs(record, str_respond, now_obj, NULL);
        Py_DECREF(now_obj);
        if (res == NULL) {
            Py_DECREF(record);
            return -1;
        }
        Py_DECREF(res);
    }
    int rc = clientcore_check_spec(self, op, record, is_read);
    Py_DECREF(record);
    if (rc < 0)
        return -1;

    PyObject *future = PyObject_GetAttr(op, str_future_attr);
    if (future == NULL)
        return -1;
    PyObject *res = PyObject_CallMethodObjArgs(
        future, str_resolve, is_read ? value : Py_None, NULL);
    Py_DECREF(future);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* The plan's next round on the same op: its stage, request kind, fresh
 * replies and message, its carry (from the decision ts / value), then a
 * fresh quorum and its first send. */
static int
clientcore_next_round(ClientCore *self, PyObject *op, long stage,
                      const Round *round, PyObject *ts, PyObject *value)
{
    PyObject *next = PyLong_FromLong(stage);
    if (next == NULL)
        return -1;
    int rc = PyObject_SetAttr(op, str_stage, next);
    Py_DECREF(next);
    if (rc < 0)
        return -1;
    if (PyObject_SetAttr(op, str_is_read,
                         round->query ? Py_True : Py_False) < 0)
        return -1;
    PyObject *fresh = PyDict_New();
    if (fresh == NULL)
        return -1;
    rc = PyObject_SetAttr(op, str_replies, fresh);
    Py_DECREF(fresh);
    if (rc < 0)
        return -1;
    if (PyObject_SetAttr(op, str_message_attr, Py_None) < 0)
        return -1;
    if (clientcore_carry(self, op, round->carry, ts, value) < 0)
        return -1;
    return clientcore_move(self, op) < 0 ? -1 : 0;
}

/* QuorumRegisterClient._finish: the round's decision, then the plan's
 * next round or the completion.  ``op`` is a strong reference held by
 * the caller. */
static int
clientcore_finish(ClientCore *self, PyObject *op, PyObject *op_id,
                  PyObject *quorum, PyObject *replies)
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
        && clientcore_choose(self, op, decision, final, quorum, replies, &ts,
                             &value) < 0)
        return -1;
    if (!final) {
        rc = clientcore_next_round(self, op, stage + 1,
                                   &plan->rounds[stage + 1], ts, value);
    }
    else {
        /* A read whose final round decides nothing returns the pair the
         * op carries (the ABD write-back installs what it returns). */
        if (is_read && ts == NULL) {
            ts = PyObject_GetAttr(op, str_timestamp_attr);
            if (ts != NULL)
                value = PyObject_GetAttr(op, str_value_attr);
        }
        if (!is_read || value != NULL)
            rc = clientcore_settle(self, op, op_id, is_read, ts, value);
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

/* QuorumRegisterClient._refresh_view, called only when it has something
 * to do: the manager's newest view (``membership.views[-1]``) is not the
 * client's.  Adopting it (a fresh view stream) stays Python — it happens
 * once per view per client. */
static int
clientcore_refresh_view(ClientCore *self)
{
    PyObject *membership = PyObject_GetAttr(self->client, str_membership);
    if (membership == NULL)
        return -1;
    int stale = 0;
    if (membership != Py_None) {
        PyObject *views = PyObject_GetAttr(membership, str_views);
        PyObject *view = views ? PySequence_GetItem(views, -1) : NULL;
        PyObject *newest = view ? PyObject_GetAttr(view, str_view_id) : NULL;
        PyObject *ours = newest
            ? PyObject_GetAttr(self->client, str_view_id) : NULL;
        stale = ours ? PyObject_RichCompareBool(newest, ours, Py_NE) : -1;
        Py_XDECREF(ours);
        Py_XDECREF(newest);
        Py_XDECREF(view);
        Py_XDECREF(views);
    }
    Py_DECREF(membership);
    if (stale <= 0)
        return stale;
    PyObject *res = PyObject_CallMethodNoArgs(self->client, str_refresh_view);
    Py_XDECREF(res);
    return res == NULL ? -1 : 0;
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

    PyObject *op_id = PyTuple_GET_ITEM(message, 1);
    PyObject *op = PyDict_GetItemWithError(self->pending, op_id);
    if (op == NULL && PyErr_Occurred())
        return -1;
    if (op != NULL) {
        /* Span tracing is per-op: fall back before anything changes so
         * the Python handler replays the whole step (the probe is
         * read-only). */
        PyObject *span = PyObject_GetAttr(op, str_span);
        if (span == NULL)
            return -1;
        Py_DECREF(span);
        if (span != Py_None)
            return run_fallback(self->fallback, self->client, src, message);
        Py_INCREF(op); /* survives the pending-dict delete in finish */
    }
    int rc = -1;
    PyObject *replies = NULL, *quorum = NULL, *op_view = NULL;
    PyObject *view_id = NULL;
    if (nack) {
        /* stale_nacks += 1; _refresh_view(); then _redispatch: the op
         * moves to a quorum of the client's current view, unless an
         * earlier nack of the same stale round already moved it. */
        if (bump_counter(self->client, str_stale_nacks) < 0
            || clientcore_refresh_view(self) < 0)
            goto done;
        int moved = 1;
        if (op != NULL)
            moved = (op_view = PyObject_GetAttr(op, str_view_attr))
                && (view_id = PyObject_GetAttr(self->client, str_view_id))
                ? PyObject_RichCompareBool(op_view, view_id, Py_EQ) : -1;
        if (moved == 0)
            moved = clientcore_move(self, op) < 0 ? -1 : 1;
        rc = moved < 0 ? -1 : 0;
        goto done;
    }
    /* A reply is the answer of the round in flight only when its kind
     * matches that round's request: a retried query round leaves
     * ReadReplys in flight that may land in the update round. */
    int round_read = op == NULL ? 0 : attr_truth(op, str_is_read);
    if (round_read < 0)
        goto done;
    if (op != NULL && round_read != (msg_type == msg_read_reply)) {
        rc = 0;
        goto done;
    }
    if ((view_id = PyObject_GetAttr(self->client, str_view_id)) == NULL)
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
    rc = -1;
    /* op.replies[server_index] = message; a non-dict fails here. */
    if ((replies = PyObject_GetAttr(op, str_replies)) == NULL
        || PyDict_SetItem(replies, server_idx, message) < 0
        || (quorum = PyObject_GetAttr(op, str_quorum)) == NULL)
        goto done;
    int covered = quorum_covered(quorum, replies);
    if (covered >= 0)
        rc = covered ? clientcore_finish(self, op, op_id, quorum, replies) : 0;
done:
    Py_XDECREF(op_view);
    Py_XDECREF(view_id);
    Py_XDECREF(quorum);
    Py_XDECREF(replies);
    Py_XDECREF(op);
    return rc;
}

/* ---- ClientCore issue path and retry timer: read / write / _begin /
 * _send_round / _retry ---- */

/* QuorumRegisterClient's issue path and retry timer, transcribed
 * statement for statement from the Python definitions of the same names
 * and installed beside ``on_message``.  An operation costs its message
 * rounds, not its dispatch: register lookup, history record, Future and
 * _PendingOp, quorum draw, message build, broadcast, retry/deadline
 * timers and the resample of a stalled op run without an interpreter
 * frame of the client's.  Draw order is the Python order — quorum (or
 * view) stream, then delay stream (inside the broadcast), then the
 * retry-jitter stream.
 *
 * Per-op guards: span tracing (``client._trace_on``, ``op.span``) and a
 * call shape other than the positional one take the Python method, which
 * stays the reference; so do _give_up and _expire.  Quorum systems other
 * than an exact ``ProbabilisticQuorumSystem`` draw through one call to
 * the Python ``_sample_quorum``, a retry policy other than an exact
 * ``RetryPolicy`` through its ``delay`` — never a whole-op fallback. */

/* type(client).<name>(client, *args, **kwargs): the Python definition. */
static PyObject *
clientcore_python(ClientCore *self, PyObject *name, PyObject *const *args,
                  Py_ssize_t nargs, PyObject *kwnames)
{
    PyObject *function = PyObject_GetAttr(
        (PyObject *)Py_TYPE(self->client), name);
    if (function == NULL)
        return NULL;
    PyObject *bound = PyMethod_New(function, self->client);
    Py_DECREF(function);
    if (bound == NULL)
        return NULL;
    PyObject *res = PyObject_Vectorcall(bound, args, (size_t)nargs, kwnames);
    Py_DECREF(bound);
    return res;
}

#ifdef REPRO_HAVE_NPYRANDOM
/* obj.<name> as a Py_ssize_t; -1 with an exception set on error. */
static Py_ssize_t
attr_ssize(PyObject *obj, PyObject *name)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value == NULL)
        return -1;
    Py_ssize_t out = PyLong_AsSsize_t(value);
    Py_DECREF(value);
    return out;
}

/* ProbabilisticQuorumSystem.quorum(rng) for an exact system: quorum_sample
 * directly — the bits ``quorum()`` draws with or without the class-level
 * sampler installed, under the same k cap.  Its k distinct members of
 * {0..n-1} always pass ``validate_quorum``.  NULL with no exception set
 * means the system is not in that shape. */
static PyObject *
prob_quorum(PyObject *system, PyObject *rng)
{
    if ((PyObject *)Py_TYPE(system) != prob_quorum_type)
        return NULL;
    Py_ssize_t n = attr_ssize(system, str_n);
    Py_ssize_t k = attr_ssize(system, str_k);
    return PyErr_Occurred() || k > 4096 ? NULL : quorum_sample(rng, n, k);
}
#endif

/* ``self._view.sample(self._view_rng)``: for a view over an exact
 * ProbabilisticQuorumSystem, prob_quorum's positions mapped to roster
 * indices in View.sample's iteration order; the method otherwise. */
static PyObject *
clientcore_view_quorum(ClientCore *self)
{
    PyObject *system = NULL, *members = NULL, *positions = NULL;
    PyObject *quorum = NULL;
    PyObject *view = PyObject_GetAttr(self->client, str_view_obj);
    PyObject *rng = view ? PyObject_GetAttr(self->client, str_view_rng)
                         : NULL;
    if (rng == NULL)
        goto done;
#ifdef REPRO_HAVE_NPYRANDOM
    if ((system = PyObject_GetAttr(view, str_quorum_system)) == NULL
        || (members = PyObject_GetAttr(view, str_members)) == NULL)
        goto done;
    if ((positions = prob_quorum(system, rng)) != NULL) {
        /* frozenset(members[p] for p in positions) */
        PyObject *iter = PyObject_GetIter(positions);
        quorum = iter ? PyFrozenSet_New(NULL) : NULL;
        PyObject *position;
        while (quorum != NULL && (position = PyIter_Next(iter)) != NULL) {
            PyObject *member = PyObject_GetItem(members, position);
            Py_DECREF(position);
            if (member == NULL || PySet_Add(quorum, member) < 0)
                Py_CLEAR(quorum);
            Py_XDECREF(member);
        }
        Py_XDECREF(iter);
        if (PyErr_Occurred())
            Py_CLEAR(quorum);
    }
    if (positions != NULL || PyErr_Occurred())
        goto done;
#endif
    quorum = PyObject_CallMethodOneArg(view, str_sample, rng);
done:
    Py_XDECREF(positions);
    Py_XDECREF(members);
    Py_XDECREF(system);
    Py_XDECREF(rng);
    Py_XDECREF(view);
    return quorum;
}

/* QuorumRegisterClient._sample_quorum: under membership views, the
 * refresh check and the view draw above; on a static deployment
 * prob_quorum on the client's system and stream, else one call to the
 * Python method (every other quorum system). */
static PyObject *
clientcore_sample_quorum(ClientCore *self, int is_read)
{
    PyObject *membership = PyObject_GetAttr(self->client, str_membership);
    if (membership == NULL)
        return NULL;
    Py_DECREF(membership);
    if (membership != Py_None)
        return clientcore_refresh_view(self) < 0
            ? NULL : clientcore_view_quorum(self);
#ifdef REPRO_HAVE_NPYRANDOM
    PyObject *quorum = NULL;
    PyObject *system = PyObject_GetAttr(self->client, str_quorum_system);
    PyObject *rng = system ? PyObject_GetAttr(self->client, str_rng_attr)
                           : NULL;
    if (rng != NULL)
        quorum = prob_quorum(system, rng);
    Py_XDECREF(rng);
    Py_XDECREF(system);
    if (quorum != NULL || PyErr_Occurred())
        return quorum;
#endif
    return PyObject_CallMethodOneArg(self->client, str_sample_quorum,
                                     is_read ? Py_True : Py_False);
}

/* QuorumRegisterClient._send_round. */
static int
clientcore_send_round(ClientCore *self, PyObject *op)
{
    PyObject *span = PyObject_GetAttr(op, str_span);
    if (span == NULL)
        return -1;
    Py_DECREF(span);
    if (span != Py_None) {
        PyObject *res = clientcore_python(self, str_send_round, &op, 1, NULL);
        Py_XDECREF(res);
        return res == NULL ? -1 : 0;
    }

    int rc = -1;
    PyObject *member_ids = NULL, *replies = NULL, *servers = NULL;
    PyObject *message = NULL, *broadcast = NULL;
    PyObject *members = PyObject_GetAttr(op, str_members);
    if (members == NULL)
        return -1;
    if (members == Py_None) {
        /* Sorted once per attempt: the quorum is fixed until the next
         * resample. */
        PyObject *quorum = PyObject_GetAttr(op, str_quorum);
        if (quorum == NULL)
            goto done;
        Py_SETREF(members, PySequence_List(quorum));
        Py_DECREF(quorum);
        if (members == NULL || PyList_Sort(members) < 0
            || PyObject_SetAttr(op, str_members, members) < 0)
            goto done;
        Py_ssize_t n = PyList_GET_SIZE(members);
        member_ids = PyList_New(n);
        if (member_ids == NULL)
            goto done;
        for (Py_ssize_t i = 0; i < n; i++) {
            PyObject *node_id = PyObject_GetItem(
                self->server_ids, PyList_GET_ITEM(members, i));
            if (node_id == NULL)
                goto done;
            PyList_SET_ITEM(member_ids, i, node_id);
        }
        if (PyObject_SetAttr(op, str_member_ids, member_ids) < 0)
            goto done;
    }
    else {
        member_ids = PyObject_GetAttr(op, str_member_ids);
        if (member_ids == NULL)
            goto done;
        if (!PyList_CheckExact(members) || !PyList_CheckExact(member_ids)) {
            PyErr_SetString(PyExc_TypeError,
                            "op.members and op.member_ids must be lists");
            goto done;
        }
    }
    replies = PyObject_GetAttr(op, str_replies);
    if (replies == NULL)
        goto done;
    int answered = PyObject_IsTrue(replies);
    if (answered < 0)
        goto done;
    if (answered) {
        /* Re-send only to members that have not replied. */
        servers = PyList_New(0);
        if (servers == NULL)
            goto done;
        Py_ssize_t n = PyList_GET_SIZE(members);
        if (PyList_GET_SIZE(member_ids) < n)
            n = PyList_GET_SIZE(member_ids);
        for (Py_ssize_t i = 0; i < n; i++) {
            int has = PySequence_Contains(replies,
                                          PyList_GET_ITEM(members, i));
            if (has < 0
                || (!has && PyList_Append(
                        servers, PyList_GET_ITEM(member_ids, i)) < 0))
                goto done;
        }
    }
    else {
        servers = member_ids;
        Py_INCREF(servers);
    }
    if (PyList_GET_SIZE(servers) == 0) {
        rc = 0;
        goto done;
    }
    message = PyObject_GetAttr(op, str_message_attr);
    if (message == NULL)
        goto done;
    if (message == Py_None) {
        /* Built once per dispatch and shared by every round. */
        PyObject *query[] = {str_register_attr, str_op_id, str_view_attr};
        PyObject *update[] = {str_register_attr, str_op_id, str_value_attr,
                              str_timestamp_attr, str_view_attr};
        int is_read = attr_truth(op, str_is_read);
        if (is_read < 0)
            goto done;
        Py_SETREF(message, is_read
            ? make_message(msg_read_query, attr_tuple(op, query, 3))
            : make_message(msg_write_update, attr_tuple(op, update, 5)));
        if (message == NULL
            || PyObject_SetAttr(op, str_message_attr, message) < 0)
            goto done;
    }
    /* network.broadcast(node_id, servers, message) — straight into the
     * network core's fan-out when it is the one installed. */
    broadcast = PyObject_GetAttr(self->network, str_broadcast_attr);
    if (broadcast == NULL)
        goto done;
    NetworkCore *core = networkcore_behind(
        broadcast, NETWORK_ENTRY(networkcore_broadcast));
    if (core != NULL)
        rc = network_broadcast(core, self->node_id, servers, message);
    else {
        PyObject *res = PyObject_CallFunctionObjArgs(
            broadcast, self->node_id, servers, message, NULL);
        rc = res == NULL ? -1 : 0;
        Py_XDECREF(res);
    }
done:
    Py_XDECREF(broadcast);
    Py_XDECREF(message);
    Py_XDECREF(servers);
    Py_XDECREF(replies);
    Py_XDECREF(member_ids);
    Py_XDECREF(members);
    return rc;
}

/* op.<attr> = scheduler.schedule(delay, client.<method>, op.op_id),
 * pushed straight into the C heap. */
static int
clientcore_arm_timer(ClientCore *self, PyObject *op, PyObject *op_id,
                     PyObject *attr, PyObject *delay, PyObject *method)
{
    PyObject *callback = PyObject_GetAttr(self->client, method);
    if (callback == NULL)
        return -1;
    PyObject *handle = schedule_after(self->sched, delay, callback,
                                      PyTuple_Pack(1, op_id));
    Py_DECREF(callback);
    if (handle == NULL)
        return -1;
    int rc = PyObject_SetAttr(op, attr, handle);
    Py_DECREF(handle);
    return rc;
}

/* policy.delay(attempt, rng) as a new reference.  RetryPolicy.delay is
 * evaluated here for an exact RetryPolicy with float fields — the same
 * double operations in the same order (the build disables fused
 * multiply-adds), Python's min() against max_interval, the jitter from
 * rng_random — and called otherwise, or when ``backoff ** attempt`` is
 * not finite (where Python may raise). */
static PyObject *
retry_delay(PyObject *policy, PyObject *attempt, PyObject *rng)
{
    if ((PyObject *)Py_TYPE(policy) == retry_policy_type
        && PyLong_CheckExact(attempt)) {
        PyObject *names[] = {str_interval, str_backoff, str_jitter,
                             str_max_interval};
        PyObject *fields = attr_tuple(policy, names, 4);
        if (fields == NULL)
            return NULL;
        double f[4] = {0.0, 0.0, 0.0, INFINITY}; /* max_interval None: no cap */
        int exact = 1;
        for (int i = 0; i < 4; i++) {
            PyObject *item = PyTuple_GET_ITEM(fields, i);
            if (PyFloat_CheckExact(item))
                f[i] = PyFloat_AS_DOUBLE(item);
            else
                exact = exact && i == 3 && item == Py_None;
        }
        Py_DECREF(fields);
        double power = exact ? pow(f[1], PyLong_AsDouble(attempt)) : NAN;
        if (PyErr_Occurred())
            return NULL;
        if (isfinite(power)) {
            double value = f[0] * power;
            if (f[3] < value)
                value = f[3];
            if (f[2] > 0.0) {
                double draw = rng_random(rng);
                if (draw == -1.0 && PyErr_Occurred())
                    return NULL;
                value *= 1.0 + f[2] * (2.0 * draw - 1.0);
            }
            return PyFloat_FromDouble(value);
        }
    }
    return PyObject_CallMethodObjArgs(policy, str_delay, attempt, rng, NULL);
}

/* op.retry_handle = scheduler.schedule(
 *     policy.delay(attempt, client._retry_rng), client._retry, op_id) */
static int
clientcore_arm_retry(ClientCore *self, PyObject *op, PyObject *op_id,
                     PyObject *policy, PyObject *attempt)
{
    PyObject *rng = PyObject_GetAttr(self->client, str_retry_rng);
    PyObject *delay = rng ? retry_delay(policy, attempt, rng) : NULL;
    Py_XDECREF(rng);
    if (delay == NULL)
        return -1;
    int rc = clientcore_arm_timer(self, op, op_id, str_retry_handle, delay,
                                  str_retry);
    Py_DECREF(delay);
    return rc;
}

/* QuorumRegisterClient._begin, spans off (the callers check); ``first``
 * is the op's first round. */
static int
clientcore_begin(ClientCore *self, PyObject *op, const Round *first)
{
    int rc = -1;
    PyObject *policy = NULL, *started = NULL, *deadline = NULL;
    PyObject *op_id = PyObject_GetAttr(op, str_op_id);
    if (op_id == NULL)
        return -1;
    if (PyDict_SetItem(self->pending, op_id, op) < 0)
        goto done;
    started = PyFloat_FromDouble(self->sched->now);
    if (started == NULL || PyObject_SetAttr(op, str_started_attr, started) < 0
        || clientcore_carry(self, op, first->carry, NULL, NULL) < 0)
        goto done;
    if (clientcore_send_round(self, op) < 0
        || (policy = PyObject_GetAttr(self->client, str_retry_policy)) == NULL)
        goto done;
    if (policy != Py_None
        && (clientcore_arm_retry(self, op, op_id, policy, py_zero) < 0
            || (deadline = PyObject_GetAttr(policy, str_deadline)) == NULL
            || (deadline != Py_None && clientcore_arm_timer(
                    self, op, op_id, str_deadline_handle, deadline,
                    str_expire) < 0)))
        goto done;
    rc = 0;
done:
    Py_XDECREF(deadline);
    Py_XDECREF(policy);
    Py_XDECREF(started);
    Py_DECREF(op_id);
    return rc;
}

/* _resample(op), then _finish(op) when the fresh quorum is already
 * covered by earlier replies, else _send_round(op): the tail _retry and
 * _redispatch share.  1 when the op completed, 0 when a round went out,
 * -1 on error. */
static int
clientcore_move(ClientCore *self, PyObject *op)
{
    int rc = -1, changed = 0;
    PyObject *quorum = NULL, *op_view = NULL, *view = NULL;
    PyObject *replies = NULL, *op_id = NULL;
    int is_read = attr_truth(op, str_is_read);
    if (is_read < 0
        || (quorum = clientcore_sample_quorum(self, is_read)) == NULL
        || PyObject_SetAttr(op, str_quorum, quorum) < 0
        || PyObject_SetAttr(op, str_members, Py_None) < 0
        || PyObject_SetAttr(op, str_member_ids, Py_None) < 0
        || (op_view = PyObject_GetAttr(op, str_view_attr)) == NULL
        || (view = PyObject_GetAttr(self->client, str_view_id)) == NULL
        || (changed = PyObject_RichCompareBool(op_view, view, Py_NE)) < 0)
        goto done;
    /* The message is rebuilt only when its view stamp changed. */
    if ((changed && (PyObject_SetAttr(op, str_view_attr, view) < 0
                     || PyObject_SetAttr(op, str_message_attr, Py_None) < 0))
        || (replies = PyObject_GetAttr(op, str_replies)) == NULL)
        goto done;
    int covered = quorum_covered(quorum, replies);
    if (covered > 0 && (op_id = PyObject_GetAttr(op, str_op_id)) != NULL)
        rc = clientcore_finish(self, op, op_id, quorum, replies) < 0 ? -1 : 1;
    else if (covered == 0)
        rc = clientcore_send_round(self, op);
done:
    Py_XDECREF(op_id);
    Py_XDECREF(replies);
    Py_XDECREF(view);
    Py_XDECREF(op_view);
    Py_XDECREF(quorum);
    return rc;
}

/* QuorumRegisterClient._retry, the retry timer's callback: at the attempt
 * budget the Python _give_up, else count the attempt, tell the monitor,
 * move the op to a fresh quorum and re-arm.  An op with a span takes the
 * Python definition. */
static PyObject *
clientcore_retry(ClientCore *self, PyObject *op_id)
{
    PyObject *op = PyDict_GetItemWithError(self->pending, op_id);
    if (op == NULL) {
        if (PyErr_Occurred())
            return NULL;
        Py_RETURN_NONE;
    }
    Py_INCREF(op);
    PyObject *result = NULL, *attempts = NULL, *policy = NULL;
    PyObject *limit = NULL, *monitor = NULL;
    PyObject *span = PyObject_GetAttr(op, str_span);
    if (span == NULL)
        goto done;
    Py_DECREF(span);
    if (span != Py_None) {
        result = clientcore_python(self, str_retry, &op_id, 1, NULL);
        goto done;
    }
    PyObject *tried = PyObject_GetAttr(op, str_attempts);
    attempts = tried ? PyNumber_Add(tried, py_one) : NULL;
    Py_XDECREF(tried);
    if (attempts == NULL
        || (policy = PyObject_GetAttr(self->client, str_retry_policy)) == NULL
        || (limit = PyObject_GetAttr(policy, str_max_attempts)) == NULL)
        goto done;
    int exhausted = limit == Py_None
        ? 0 : PyObject_RichCompareBool(attempts, limit, Py_GE);
    if (exhausted) {
        if (exhausted > 0)
            result = PyObject_CallMethodOneArg(self->client, str_give_up, op);
        goto done;
    }
    if (PyObject_SetAttr(op, str_attempts, attempts) < 0
        || bump_counter(self->client, str_retries) < 0)
        goto done;
    /* spec_monitor.on_retry(op.register, op.kind, op.attempts) */
    if ((monitor = clientcore_monitor(self)) != NULL) {
        PyObject *reg = PyObject_GetAttr(op, str_register_attr);
        PyObject *kind = reg ? PyObject_GetAttr(op, str_kind_attr) : NULL;
        PyObject *res = kind == NULL ? NULL : PyObject_CallMethodObjArgs(
            monitor, str_on_retry, reg, kind, attempts, NULL);
        Py_XDECREF(kind);
        Py_XDECREF(reg);
        if (res == NULL)
            goto done;
        Py_DECREF(res);
    }
    int moved = PyErr_Occurred() ? -1 : clientcore_move(self, op);
    if (moved == 1 || (moved == 0 && clientcore_arm_retry(
                           self, op, op_id, policy, attempts) == 0)) {
        Py_INCREF(Py_None);
        result = Py_None;
    }
done:
    Py_XDECREF(monitor);
    Py_XDECREF(limit);
    Py_XDECREF(policy);
    Py_XDECREF(attempts);
    Py_DECREF(op);
    return result;
}

/* QuorumRegisterClient.read (value == NULL) and .write, with _issue,
 * spans off. */
static PyObject *
clientcore_issue(ClientCore *self, PyObject *reg, PyObject *value)
{
    const int is_read = value == NULL;
    const Plan *plan = &self->plans[!is_read];
    PyObject *record = NULL, *label = NULL, *future = NULL, *quorum = NULL;
    PyObject *op_id = NULL, *op = NULL, *view = NULL, *result = NULL;
    if (is_read) {
        PyObject *now = PyFloat_FromDouble(self->sched->now);
        record = now ? clientcore_record(self, reg, str_begin_read, now, NULL,
                                         NULL) : NULL;
        Py_XDECREF(now);
        if (record == NULL)
            return NULL;
    }
    else {
        PyObject *info = clientcore_info(self, reg);
        PyObject *writer = info ? PyObject_GetAttr(info, str_writer_attr)
                                : NULL;
        Py_XDECREF(info);
        int foreign = writer == NULL ? -1 : writer == Py_None
            ? 0 : PyObject_RichCompareBool(writer, self->client_id, Py_NE);
        Py_XDECREF(writer);
        if (foreign) {
            /* SingleWriterViolation: raised by the Python definition. */
            PyObject *args[2] = {reg, value};
            return foreign < 0 ? NULL
                : clientcore_python(self, str_write_kind, args, 2, NULL);
        }
        record = Py_NewRef(Py_None);
    }
    if (bump_counter(self->client, is_read ? str_reads_performed
                                           : str_writes_performed) < 0
        || (label = PyUnicode_FromFormat(
                is_read ? "read(%S) by c%S" : "write(%S) by c%S",
                reg, self->client_id)) == NULL
        || (future = PyObject_CallOneArg(future_type, label)) == NULL
        || (quorum = clientcore_sample_quorum(
                self, plan->rounds[0].query)) == NULL)
        goto done;
    op_id = PyIter_Next(self->op_ids);
    if (op_id == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetNone(PyExc_StopIteration);
        goto done;
    }
    op = PyObject_CallFunctionObjArgs(
        pending_op_type, op_id, reg, is_read ? str_read_kind : str_write_kind,
        plan->source, quorum, future, record, value, NULL);
    if (op == NULL
        || (view = PyObject_GetAttr(self->client, str_view_id)) == NULL
        || PyObject_SetAttr(op, str_view_attr, view) < 0
        || clientcore_begin(self, op, &plan->rounds[0]) < 0)
        goto done;
    result = Py_NewRef(future);
done:
    Py_XDECREF(view);
    Py_XDECREF(op);
    Py_XDECREF(op_id);
    Py_XDECREF(quorum);
    Py_XDECREF(future);
    Py_XDECREF(label);
    Py_XDECREF(record);
    return result;
}

/* 1 when the call must take the Python definition: span tracing is on,
 * or the call is not the plain positional one.  -1 on error. */
static int
clientcore_wants_python(ClientCore *self, Py_ssize_t nargs,
                        Py_ssize_t expected, PyObject *kwnames)
{
    if (nargs != expected
        || (kwnames != NULL && PyTuple_GET_SIZE(kwnames) != 0))
        return 1;
    return attr_truth(self->client, str_trace_on);
}

static PyObject *
clientcore_read(ClientCore *self, PyObject *const *args, Py_ssize_t nargs,
                PyObject *kwnames)
{
    int python = clientcore_wants_python(self, nargs, 1, kwnames);
    if (python < 0)
        return NULL;
    if (python)
        return clientcore_python(self, str_read_kind, args, nargs, kwnames);
    return clientcore_issue(self, args[0], NULL);
}

static PyObject *
clientcore_write(ClientCore *self, PyObject *const *args, Py_ssize_t nargs,
                 PyObject *kwnames)
{
    int python = clientcore_wants_python(self, nargs, 2, kwnames);
    if (python < 0)
        return NULL;
    if (python)
        return clientcore_python(self, str_write_kind, args, nargs, kwnames);
    return clientcore_issue(self, args[0], args[1]);
}

static PyObject *
clientcore_begin_method(ClientCore *self, PyObject *op)
{
    int traced = attr_truth(self->client, str_trace_on);
    if (traced < 0)
        return NULL;
    if (traced)
        return clientcore_python(self, str_begin, &op, 1, NULL);
    int is_read;
    long stage;
    const Plan *plan = clientcore_plan(self, op, &is_read, &stage);
    if (plan == NULL || clientcore_begin(self, op, &plan->rounds[stage]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
clientcore_send_round_method(ClientCore *self, PyObject *op)
{
    if (clientcore_send_round(self, op) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef clientcore_methods[] = {
    {"read", (PyCFunction)(void (*)(void))clientcore_read,
     METH_FASTCALL | METH_KEYWORDS,
     "QuorumRegisterClient.read: invoke a read, return its future."},
    {"write", (PyCFunction)(void (*)(void))clientcore_write,
     METH_FASTCALL | METH_KEYWORDS,
     "QuorumRegisterClient.write: invoke a write, return its future."},
    {"_begin", (PyCFunction)clientcore_begin_method, METH_O,
     "QuorumRegisterClient._begin: register, first round, arm timers."},
    {"_send_round", (PyCFunction)clientcore_send_round_method, METH_O,
     "QuorumRegisterClient._send_round: (re)send to unanswered members."},
    {"_retry", (PyCFunction)clientcore_retry, METH_O,
     "QuorumRegisterClient._retry: resample a stalled op and re-arm."},
    {NULL}
};

static PyObject *
clientcore_call(ClientCore *self, PyObject *args, PyObject *kwds)
{
    PyObject *src, *message;
    if (kwds != NULL && PyDict_GET_SIZE(kwds) != 0) {
        PyErr_SetString(PyExc_TypeError,
                        "on_message takes no keyword arguments");
        return NULL;
    }
    if (!PyArg_UnpackTuple(args, "on_message", 2, 2, &src, &message))
        return NULL;
    if (clientcore_invoke(self, src, message) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyMemberDef clientcore_members[] = {
    {"client", T_OBJECT_EX, offsetof(ClientCore, client), READONLY,
     "the QuorumRegisterClient this core aggregates replies for"},
    {"fallback", T_OBJECT_EX, offsetof(ClientCore, fallback), READONLY,
     "the unbound Python handler used when a hook forces fallback"},
    {NULL}
};

static PyTypeObject ClientCore_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._native._kernel.ClientCore",
    .tp_basicsize = sizeof(ClientCore),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "QuorumRegisterClient in C: called, it aggregates replies "
              "(count against the pending quorum, complete the op, tear "
              "down its timers); read/write/_begin/_send_round are the "
              "issue path, _retry the retry timer.",
    .tp_new = clientcore_new,
    .tp_dealloc = (destructor)clientcore_dealloc,
    .tp_traverse = (traverseproc)clientcore_traverse,
    .tp_clear = (inquiry)clientcore_clear,
    .tp_call = (ternaryfunc)clientcore_call,
    .tp_methods = clientcore_methods,
    .tp_members = clientcore_members,
};

/* Dispatch from the delivery trampoline (both cores, no tp_call). */
static int
protocolcore_invoke(PyObject *core, PyObject *src, PyObject *message)
{
    if (Py_TYPE(core) == &ServerCore_Type)
        return servercore_invoke((ServerCore *)core, src, message);
    return clientcore_invoke((ClientCore *)core, src, message);
}

/* ------------------------------------------------------------------ */
/* Module                                                              */
/* ------------------------------------------------------------------ */

static PyMethodDef kernel_methods[] = {
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
             "scalar stats, network core, register-protocol cores).",
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
        {"StatsCore", &StatsCore_Type},
        {"EventHandle", &KernelHandle_Type},
        {"SchedulerCore", &SchedulerCore_Type},
        {"NetworkCore", &NetworkCore_Type},
        {"ServerCore", &ServerCore_Type},
        {"ClientCore", &ClientCore_Type},
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
    if (PyModule_AddIntConstant(module, "KERNEL_ABI", 7) < 0)
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
