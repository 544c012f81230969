"""On-disk run cache: skip simulations whose results are already known.

Results are stored one JSON file per task under
``benchmarks/output/.cache/<kind>/<key>.json``, keyed by a content hash of
the task descriptor (:func:`repro.exec.task.task_key`).  Re-running a
sweep therefore only executes the missing points; everything else is an
O(1) file read.

The key covers *only* the task descriptor (kind, params, seed) — not the
code.  After changing simulator behaviour, clear the cache
(:meth:`RunCache.clear`, ``python -m repro.cli <exp> --clear-cache``, or
``rm -rf benchmarks/output/.cache``).
"""

import json
import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Optional

from repro.exec.task import RunTask, task_key

#: Bump when the stored payload layout changes (or when simulator
#: behaviour changes in a way that invalidates prior results, as the
#: retry-path overhaul did: format 2 results carry degradation metrics
#: and reflect exponential-backoff retries).  Format 3 payloads embed a
#: metrics-registry snapshot (``"metrics"``), so cache hits replay their
#: metrics into ``--metrics-out`` aggregation; older entries lack it and
#: are invalidated.  Format 4 payloads carry the robustness fields
#: (``spec_violation``, ``faults_injected``, and adversary/monitor
#: summaries when enabled); older entries lack them and are invalidated.
#: Format 5 histogram snapshots carry an explicit ``overflow`` count per
#: series; mixing old and new snapshot shapes in one aggregation would
#: break byte-identical metrics output, so older entries are invalidated.
#: Format 6 histogram snapshots are log-bucket sketch states
#: (``zeros``/``keys``/``counts``/``sum``/``count``), not fixed-bucket
#: counts; the two shapes cannot be merged, so older entries are
#: invalidated.  Format 7: a ``broken_client`` run's broken reads go
#: through the one completion path like every other operation, so its
#: ``ops_under_failure`` (and latency series) can differ from a format 6
#: payload of the same task.
CACHE_FORMAT = 7

#: Default location, relative to the current working directory (the repo
#: root in normal use).
DEFAULT_CACHE_DIR = os.path.join("benchmarks", "output", ".cache")

#: Sentinel distinguishing "not cached" from a cached ``None`` result.
MISS = object()


class RunCache:
    """A directory of cached task results with hit/miss accounting."""

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = Path(root if root is not None else DEFAULT_CACHE_DIR)
        self.hits = 0
        self.misses = 0
        self.writes = 0

    def _path(self, task: RunTask) -> Path:
        return self.root / task.kind / f"{task_key(task)}.json"

    def get(self, task: RunTask) -> Any:
        """The cached result for ``task``, or :data:`MISS`."""
        path = self._path(task)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            self.misses += 1
            return MISS
        if (
            payload.get("format") != CACHE_FORMAT
            or payload.get("task") != task.descriptor()
        ):
            # Format drift or a (vanishingly unlikely) key collision:
            # treat as a miss so the entry gets rewritten.
            self.misses += 1
            return MISS
        self.hits += 1
        return payload["result"]

    def put(self, task: RunTask, result: Any) -> None:
        """Store ``result`` for ``task`` (atomic rename, crash-safe)."""
        path = self._path(task)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "format": CACHE_FORMAT,
            "task": task.descriptor(),
            "result": result,
        }
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                # json.dumps, not json.dump: only the one-shot encoder is
                # C; json.dump streams through the pure-Python one (same
                # bytes, about five times slower on a chaos payload).
                handle.write(json.dumps(payload))
            os.replace(tmp_name, path)
            self.writes += 1
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def clear(self) -> None:
        """Delete every cached entry (and the cache directory itself)."""
        shutil.rmtree(self.root, ignore_errors=True)

    def prune_tmp(self, max_age_seconds: float = 3600.0) -> int:
        """Remove orphaned ``*.tmp`` files left by an interrupted write.

        Entry writes are atomic (temp file + rename), so a killed sweep
        can leave stale temp files beside valid entries but never a torn
        entry.  Only files older than ``max_age_seconds`` are removed,
        so a concurrently-running sweep's in-flight temp files are never
        yanked out from under their writer.  Returns the removal count.
        """
        pruned = 0
        if not self.root.is_dir():
            return pruned
        cutoff = time.time() - max_age_seconds
        for tmp in self.root.glob("*/*.tmp"):
            try:
                if tmp.stat().st_mtime <= cutoff:
                    tmp.unlink()
                    pruned += 1
            except OSError:
                pass
        return pruned

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def __repr__(self) -> str:
        return (
            f"RunCache({str(self.root)!r}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
