"""The shared-memory snapshot arena: slots and seqlock.

The arena is kept only for the performance ledger's shm probe; the pool
no longer uses it (its metrics tests live in ``tests/test_exec_pool.py``).
Two layers, mpmetrics-style:

1. **Layout properties** (hypothesis): arbitrary payloads round-trip
   bit-exactly through a slot, oversized payloads are rejected, slots
   never bleed into each other.
2. **Torn-read stress** (real processes): writer processes hammer their
   slots while the parent reads live; every accepted read must be a
   self-consistent frame (checksummed), i.e. the seqlock never lets a
   half-written payload through.

Plus the canonical snapshot encoding round trip.
"""

import hashlib
import json
import multiprocessing
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import shm as obs_shm
from repro.obs.registry import MetricsRegistry
from repro.obs.shm import SLOT_OVERHEAD, SnapshotArena


@pytest.fixture
def arena():
    a = SnapshotArena.create(num_slots=4, slot_bytes=256)
    yield a
    a.close()
    a.unlink()


# --- layout properties ----------------------------------------------------- #


def test_unwritten_slot_reads_none(arena):
    assert arena.read(0) is None
    assert arena.read(3) is None


def test_slot_roundtrip(arena):
    assert arena.write(1, b"hello") is True
    assert arena.read(1) == b"hello"
    assert arena.read(0) is None  # neighbours untouched


def test_rewrite_returns_latest(arena):
    arena.write(2, b"first")
    arena.write(2, b"second, longer payload")
    assert arena.read(2) == b"second, longer payload"
    arena.write(2, b"3rd")
    assert arena.read(2) == b"3rd"


def test_oversized_payload_rejected(arena):
    too_big = b"x" * (arena.capacity + 1)
    assert arena.write(0, too_big) is False
    assert arena.read(0) is None
    assert arena.write(0, b"x" * arena.capacity) is True


def test_slot_index_bounds(arena):
    with pytest.raises(IndexError):
        arena.write(4, b"nope")
    with pytest.raises(IndexError):
        arena.read(-1)


def test_attach_sees_parent_writes(arena):
    attached = SnapshotArena.attach(arena.name)
    try:
        assert attached.num_slots == 4
        assert attached.slot_bytes == 256
        arena.write(0, b"from owner")
        assert attached.read(0) == b"from owner"
        attached.write(3, b"from attacher")
        assert arena.read(3) == b"from attacher"
    finally:
        attached.close()


def test_attach_rejects_foreign_segment():
    from multiprocessing import shared_memory

    foreign = shared_memory.SharedMemory(create=True, size=64)
    try:
        with pytest.raises(ValueError):
            SnapshotArena.attach(foreign.name)
    finally:
        foreign.close()
        foreign.unlink()


def test_slot_sizing_policy():
    # Small arenas get the full default slot; huge ones shrink toward the
    # arena cap but never below the 1 KiB floor.
    assert obs_shm.slot_bytes_for(1) == obs_shm.DEFAULT_SLOT_BYTES
    assert obs_shm.slot_bytes_for(100) == obs_shm.DEFAULT_SLOT_BYTES
    assert obs_shm.slot_bytes_for(8192) == \
        obs_shm.MAX_ARENA_BYTES // 8192
    assert obs_shm.slot_bytes_for(1_000_000) == 1024


@settings(max_examples=50, deadline=None)
@given(
    payloads=st.lists(
        st.binary(min_size=0, max_size=240 - SLOT_OVERHEAD), min_size=1,
        max_size=8,
    )
)
def test_many_slots_roundtrip_property(payloads):
    """Arbitrary payload lists round-trip with no cross-slot bleed."""
    arena = SnapshotArena.create(num_slots=len(payloads), slot_bytes=240)
    try:
        for slot, data in enumerate(payloads):
            assert arena.write(slot, data) is True
        for slot, data in enumerate(payloads):
            assert arena.read(slot) == data
    finally:
        arena.close()
        arena.unlink()


@settings(max_examples=50, deadline=None)
@given(data=st.binary(min_size=0, max_size=512))
def test_single_slot_rewrite_property(data):
    arena = SnapshotArena.create(num_slots=1, slot_bytes=1024)
    try:
        arena.write(0, b"seed content to overwrite")
        assert arena.write(0, data) is True
        assert arena.read(0) == data
    finally:
        arena.close()
        arena.unlink()


# --- torn-read stress with live writer processes --------------------------- #


def _frame(token: int, length: int) -> bytes:
    """A checksummed frame: any torn mixture of two frames fails verify."""
    body = bytes([token % 256]) * length
    return hashlib.blake2b(body, digest_size=8).digest() + body


def _frame_ok(data: bytes) -> bool:
    return hashlib.blake2b(data[8:], digest_size=8).digest() == data[:8]


def _hammer_slot(name: str, slot: int, stop_time: float) -> None:
    arena = SnapshotArena.attach(name)
    try:
        token = 0
        while time.monotonic() < stop_time:
            token += 1
            arena.write(slot, _frame(token, 16 + (token % 200)))
    finally:
        arena.close()


def test_live_reads_never_tear():
    """Parent reads while writer processes overwrite their slots.

    The seqlock must make every accepted read a complete frame; a torn
    read (half old payload, half new) would fail the checksum.
    """
    arena = SnapshotArena.create(num_slots=2, slot_bytes=512)
    stop_time = time.monotonic() + 1.5
    ctx = multiprocessing.get_context()
    writers = [
        ctx.Process(target=_hammer_slot, args=(arena.name, slot, stop_time))
        for slot in range(2)
    ]
    try:
        for writer in writers:
            writer.start()
        reads = checked = 0
        while time.monotonic() < stop_time:
            for slot in range(2):
                data = arena.read(slot)
                reads += 1
                if data is not None:
                    checked += 1
                    assert _frame_ok(data), "seqlock admitted a torn read"
        assert reads > 100
        assert checked > 0
    finally:
        for writer in writers:
            writer.join(timeout=10)
            if writer.is_alive():
                writer.terminate()
        arena.close()
        arena.unlink()


# --- snapshot encoding ---------------------------------------------------- #


def test_snapshot_bytes_roundtrip():
    registry = MetricsRegistry()
    registry.counter("c", "help", labelnames=("k",)).labels("a").inc(3)
    registry.histogram("h").observe(0.7)
    registry.gauge("g").set(2.5)
    data = registry.snapshot_bytes()
    clone = MetricsRegistry()
    clone.merge_snapshot(json.loads(data))
    assert clone.snapshot_bytes() == data
