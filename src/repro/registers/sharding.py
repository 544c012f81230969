"""Key→register sharding: a keyspace mapped onto many registers.

The paper's experiments drive a handful of named registers directly; a
service front end instead exposes a large *keyspace* and shards it onto a
bounded register deployment.  :class:`ShardedKeyspace` owns that mapping:
a stable hash (CRC-32, the same salt-free choice as the RNG stream keys)
assigns every key to one of ``num_registers`` multi-writer registers, so
two runs — or two processes — always agree on placement without any
coordination state.

:class:`ZipfKeys` supplies the matching popularity model: real key-value
traffic is heavily skewed, and a Zipf(s) draw over a finite key universe
is the standard way to model it (hot keys concentrate load on a few
registers, which is exactly the contention regime probabilistic quorums
are supposed to absorb).  Sampling is one uniform draw plus a binary
search over the precomputed CDF, deterministic per RNG stream.
"""

import zlib
from bisect import bisect_left
from typing import List

import numpy as np


class ShardedKeyspace:
    """Maps string keys onto a fixed set of register names."""

    __slots__ = ("num_registers", "prefix", "_names")

    def __init__(self, num_registers: int, prefix: str = "kv") -> None:
        if num_registers < 1:
            raise ValueError(
                f"need at least one register, got {num_registers}"
            )
        self.num_registers = num_registers
        self.prefix = prefix
        width = len(str(num_registers - 1))
        self._names = [
            f"{prefix}/{index:0{width}d}" for index in range(num_registers)
        ]

    @property
    def register_names(self) -> List[str]:
        """All register names backing the keyspace, in shard order."""
        return list(self._names)

    def shard_of(self, key: str) -> int:
        """The shard index a key hashes to (stable across processes)."""
        return zlib.crc32(key.encode("utf-8")) % self.num_registers

    def __repr__(self) -> str:
        return (
            f"ShardedKeyspace({self.num_registers} registers, "
            f"prefix={self.prefix!r})"
        )


class ZipfKeys:
    """Zipf-distributed key popularity over a finite key universe.

    Key ``key-0`` is the hottest; rank r is drawn with probability
    proportional to ``r**-exponent``.  Unlike ``numpy.random.zipf`` (an
    unbounded distribution requiring exponent > 1) this normalises over
    exactly ``num_keys`` ranks, so any positive exponent works and every
    draw names a real key.
    """

    __slots__ = ("num_keys", "exponent", "_cdf", "_cdf_list", "_names")

    def __init__(self, num_keys: int, exponent: float = 1.1) -> None:
        if num_keys < 1:
            raise ValueError(f"need at least one key, got {num_keys}")
        if exponent < 0:
            raise ValueError(f"exponent must be >= 0, got {exponent}")
        self.num_keys = num_keys
        self.exponent = exponent
        ranks = np.arange(1, num_keys + 1, dtype=np.float64)
        weights = ranks ** -float(exponent)
        self._cdf = np.cumsum(weights / weights.sum())
        # Guard against float round-off leaving the last CDF entry a hair
        # under 1.0, which would make searchsorted fall off the end.
        self._cdf[-1] = 1.0
        # The same doubles as a list: one draw bisects it without the
        # array-call overhead of np.searchsorted (same index, draw for draw).
        self._cdf_list = self._cdf.tolist()
        width = len(str(num_keys - 1))
        self._names = [f"key-{index:0{width}d}" for index in range(num_keys)]

    def sample_index(self, rng: np.random.Generator) -> int:
        """Draw a key index (0 = hottest)."""
        return bisect_left(self._cdf_list, rng.random())

    def sample(self, rng: np.random.Generator) -> str:
        """Draw a key name."""
        return self._names[self.sample_index(rng)]

    def __repr__(self) -> str:
        return f"ZipfKeys({self.num_keys} keys, s={self.exponent})"
