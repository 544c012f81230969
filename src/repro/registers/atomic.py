"""Multi-writer and atomic registers over quorum systems.

Section 8 of the paper points at "building stronger kinds of registers,
such as multi-writer and atomic, out of the registers implemented with
their quorum algorithms, by applying known register implementation
algorithms".  This module supplies those known algorithms, as what they
are — round plans over the base client's quorum rounds (see
:data:`~repro.registers.client.QUERY` and its neighbours):

* :class:`MultiWriterClient` — a two-round write (Attiya-Bar-Noy-Dolev
  style): query a read quorum for the highest timestamp, then install the
  value with a greater timestamp tie-broken by writer id.  Over a
  *strict* quorum system writes are totally ordered; over a
  probabilistic system this yields a natural multi-writer *random*
  register (order may be probabilistically violated — which the tests
  observe, matching the paper's remark that it is "not clear how random
  registers can be used as building blocks" for strong ones).
* :class:`AtomicClient` — additionally performs the ABD read-write-back:
  a read installs the pair it is about to return into a write quorum
  before returning it, which upgrades regularity to atomicity over strict
  quorum systems (certified by :func:`repro.core.atomicity.check_atomic`).

A plan is data, so both kernels run it: a two-round operation is **one**
pending operation of
:class:`~repro.registers.client.QuorumRegisterClient`, whose
``_begin`` / ``_send_round`` / ``_retry`` / ``_expire`` /
``_redispatch`` machinery covers both rounds — one retry chain, one
deadline, one view stamp, one span and one completion (``_settle``) per
operation, under loss, crashes and membership churn alike — and the
native client core interprets the same plan.
"""

from repro.registers.client import (
    CHOSEN,
    MAX_TS,
    NEXT_SEQ,
    QUERY,
    UPDATE,
    QuorumRegisterClient,
)


class MultiWriterClient(QuorumRegisterClient):
    """Two-round multi-writer writes; reads as in the base client.

    Registers written through this client should be declared with
    ``writer=None`` (any client may write).  The query round's timestamp
    comes from the replicas, never from the monotone cache.
    """

    WRITE_PLAN = ((QUERY, MAX_TS, None), (UPDATE, None, NEXT_SEQ))


class AtomicClient(MultiWriterClient):
    """ABD reads (query + write-back) on top of two-round writes.

    Over a strict quorum system this implements a multi-writer *atomic*
    register: every completed history passes
    :func:`repro.core.atomicity.check_atomic`.
    """

    READ_PLAN = ((QUERY, MAX_TS, None), (UPDATE, None, CHOSEN))
