"""Shared-memory snapshot arena: mmap-backed, seqlocked, fixed-size slots.

Kept only for the performance ledger's ``probe.obs.shm.roundtrips_per_s``
probe (``benchmarks/e2e/probes.py``); nothing on the sweep path uses it.
The parallel engine ships every metrics snapshot home inside its task's
result payload (:mod:`repro.exec.pool`).  This module and its tests go
when that probe goes.

The arena is a ``multiprocessing.shared_memory`` block of per-slot,
single-writer frames.  Each slot is guarded by a seqlock (odd sequence =
write in progress; the sequence must read the same, and even, on both
sides of a read for the payload to be accepted), which makes live reads
from another process safe — what the torn-read tests in
``tests/test_obs_shm.py`` exercise.

Slot layout (all little-endian)::

    [0:8)    sequence   uint64  seqlock; 0 = never written
    [8:16)   length     uint64  payload byte length
    [16:..)  payload    bytes

A payload larger than the slot is rejected (``write`` returns False).
"""

import struct
from multiprocessing import shared_memory
from typing import Optional

_HEADER = struct.Struct("<8sQQQ")  # magic, num_slots, slot_bytes, reserved
_WORD = struct.Struct("<Q")  # sequence and length are separate 8-byte words
_MAGIC = b"REPROSHM"

#: Per-slot overhead in bytes (sequence word + length word).  They are
#: written and read as *separate* 8-byte operations on purpose: a single
#: 16-byte copy can tear at an 8-byte boundary, pairing a new sequence
#: with a stale length.
SLOT_OVERHEAD = 2 * _WORD.size

#: Default sizing policy: 16 KiB slots, shrunk toward a 1 KiB floor so
#: an arena of many thousand slots stays under ~64 MiB.
DEFAULT_SLOT_BYTES = 16384
MAX_ARENA_BYTES = 64 * 1024 * 1024


def slot_bytes_for(num_slots: int) -> int:
    """The default slot size for an arena of ``num_slots`` slots."""
    if num_slots <= 0:
        return DEFAULT_SLOT_BYTES
    budget = MAX_ARENA_BYTES // num_slots
    return max(1024, min(DEFAULT_SLOT_BYTES, budget))


class SnapshotArena:
    """A named shared-memory block of fixed-size, single-writer slots.

    The creating process owns the segment (``owner=True``) and must
    eventually call :meth:`unlink`; attaching processes only
    :meth:`close`.  One slot has exactly one writer at a time, which is
    what makes the lock-free seqlock protocol sufficient.
    """

    def __init__(
        self, shm: shared_memory.SharedMemory, num_slots: int,
        slot_bytes: int, owner: bool,
    ) -> None:
        self._shm = shm
        self.num_slots = num_slots
        self.slot_bytes = slot_bytes
        self.owner = owner
        self.capacity = slot_bytes - SLOT_OVERHEAD

    # Lifecycle --------------------------------------------------------- #

    @classmethod
    def create(
        cls, num_slots: int, slot_bytes: Optional[int] = None
    ) -> "SnapshotArena":
        """Allocate a fresh arena of ``num_slots`` slots."""
        if num_slots < 1:
            raise ValueError(f"need at least one slot, got {num_slots}")
        per_slot = slot_bytes if slot_bytes is not None else slot_bytes_for(num_slots)
        if per_slot <= SLOT_OVERHEAD:
            raise ValueError(
                f"slot_bytes must exceed the {SLOT_OVERHEAD}-byte slot "
                f"header, got {per_slot}"
            )
        size = _HEADER.size + num_slots * per_slot
        # POSIX shared memory is zero-filled on creation, so every slot
        # starts at sequence 0 ("never written") without an explicit wipe.
        shm = shared_memory.SharedMemory(create=True, size=size)
        _HEADER.pack_into(shm.buf, 0, _MAGIC, num_slots, per_slot, 0)
        return cls(shm, num_slots, per_slot, owner=True)

    @classmethod
    def attach(cls, name: str) -> "SnapshotArena":
        """Attach to an arena created by another process, by name."""
        # Note on the resource tracker: child processes (fork and spawn
        # alike) share the parent's tracker process, so the attach-time
        # registration this performs is an idempotent no-op — the parent
        # already registered the name at create() — and the parent's
        # unlink() remains the single point of destruction.  Do NOT
        # unregister here: that would strip the parent's registration
        # from the shared tracker.
        shm = shared_memory.SharedMemory(name=name)
        magic, num_slots, slot_bytes, _ = _HEADER.unpack_from(shm.buf, 0)
        if magic != _MAGIC:
            shm.close()
            raise ValueError(f"shared memory {name!r} is not a SnapshotArena")
        return cls(shm, num_slots, slot_bytes, owner=False)

    @property
    def name(self) -> str:
        """The attachable segment name."""
        return self._shm.name

    def close(self) -> None:
        """Release this process's mapping (the segment itself survives)."""
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (owner only); callable after close()."""
        self._shm.unlink()

    # Slot I/O ---------------------------------------------------------- #

    def _offset(self, slot: int) -> int:
        if not 0 <= slot < self.num_slots:
            raise IndexError(
                f"slot {slot} out of range [0, {self.num_slots})"
            )
        return _HEADER.size + slot * self.slot_bytes

    def write(self, slot: int, data: bytes) -> bool:
        """Publish ``data`` into ``slot``; False when it does not fit.

        Seqlock publication: bump the sequence to odd, copy payload and
        length, then bump to even.  Every mutation of length/payload
        happens strictly inside the odd window, so a reader that sees the
        same even sequence on both sides of its copy saw a consistent
        frame.  Single writer per slot, so no CAS is needed.
        """
        if len(data) > self.capacity:
            return False
        base = self._offset(slot)
        buf = self._shm.buf
        seq = _WORD.unpack_from(buf, base)[0]
        _WORD.pack_into(buf, base, seq + 1)
        start = base + SLOT_OVERHEAD
        buf[start:start + len(data)] = data
        _WORD.pack_into(buf, base + _WORD.size, len(data))
        _WORD.pack_into(buf, base, seq + 2)
        return True

    def read(self, slot: int, retries: int = 64) -> Optional[bytes]:
        """The last payload published to ``slot``, or None.

        None means "never written" or "could not get a stable view in
        ``retries`` attempts" (only possible while the writer is live).
        """
        base = self._offset(slot)
        buf = self._shm.buf
        for _ in range(retries):
            seq1 = _WORD.unpack_from(buf, base)[0]
            if seq1 == 0:
                return None
            if seq1 % 2:  # write in progress
                continue
            length = _WORD.unpack_from(buf, base + _WORD.size)[0]
            if length > self.capacity:  # torn length: writer mid-flight
                continue
            start = base + SLOT_OVERHEAD
            data = bytes(buf[start:start + length])
            seq2 = _WORD.unpack_from(buf, base)[0]
            if seq1 == seq2:
                return data
        return None

    def __repr__(self) -> str:
        return (
            f"SnapshotArena({self.name!r}, slots={self.num_slots}, "
            f"slot_bytes={self.slot_bytes}, owner={self.owner})"
        )
