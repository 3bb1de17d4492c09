"""The sweep-result cache: disk memoization of sweep surfaces.

:class:`ResultCache` keys each entry by the caller-computed content key
(trace key + spec hash + semantics + engine version; see
:func:`repro.sweep.runner.result_cache_key` -- this module never
imports the sweep layer).  Entries are JSON documents under
``results/<key[:2]>/`` of the trace store root, written atomically,
read through the ``store.result_cache`` injection site (a corrupt
entry is a clean miss, never an error), and evicted LRU by a byte
budget (``REPRO_RESULT_CACHE_BYTES``, default 256 MiB) where
"recently used" is the file mtime, refreshed on every hit.  A put adds
its bytes to a running total seeded by one directory scan; only a put
that takes the total over the budget rescans and evicts.  Disable
entirely with ``REPRO_RESULT_CACHE=0``.

The trace payloads themselves are laid out by
:class:`repro.workloads.store.TraceStore`.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from pathlib import Path
from typing import List, Optional, Tuple

from repro import faults, telemetry

#: Subdirectory of the store root the result cache lives under.
RESULTS_DIR = "results"

#: Result-cache byte budget when ``REPRO_RESULT_CACHE_BYTES`` is
#: unset: enough for ~10^4 paper-grid surfaces, small next to one
#: full-scale trace payload.
DEFAULT_RESULT_BUDGET = 256 * 1024 * 1024

ENV_RESULT_CACHE = "REPRO_RESULT_CACHE"
ENV_RESULT_BUDGET = "REPRO_RESULT_CACHE_BYTES"


def _atomic_write(path: Path, text: str) -> bool:
    """tmp + ``os.replace`` under the target's directory; False on
    any OS failure (cache writes are best-effort)."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                                   prefix=path.stem, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError:
        return False
    return True


class ResultCache:
    """Content-keyed disk memoization of sweep result surfaces.

    The key is computed by the caller (the sweep runner) and is
    opaque here; this class only handles placement (sharded like the
    trace payloads), atomicity, the miss-on-corruption rule, LRU
    eviction by byte budget, and telemetry.

    Budget accounting is a running byte total, not a scan per put:
    the first put seeds it with one directory scan, every later put
    adds the bytes it wrote, and only a put that takes the total over
    the budget rescans the directory (which also corrects the total
    for entries other processes added or evicted) and evicts.  The
    total never counts low -- an overwritten entry is counted twice
    until the next rescan -- so one process alone never leaves the
    directory over budget; P processes sharing a root can leave it at
    most P budgets large between rescans (DESIGN.md has the bound).
    """

    def __init__(self, root: os.PathLike,
                 budget_bytes: Optional[int] = None) -> None:
        self.root = Path(root) / RESULTS_DIR
        if budget_bytes is None:
            try:
                budget_bytes = int(
                    os.environ.get(ENV_RESULT_BUDGET,
                                   str(DEFAULT_RESULT_BUDGET)))
            except ValueError:
                budget_bytes = DEFAULT_RESULT_BUDGET
        self.budget_bytes = max(0, budget_bytes)
        self.hits = 0
        self.misses = 0
        self.evicted = 0
        #: Bytes on disk as this instance last saw them plus what it
        #: has put since; None until the first put seeds it.
        self._bytes: Optional[int] = None
        self._lock = threading.Lock()

    @staticmethod
    def enabled() -> bool:
        """False when ``REPRO_RESULT_CACHE=0`` (or ``off``/``false``)
        disables result memoization for the process."""
        return os.environ.get(ENV_RESULT_CACHE, "1").strip().lower() \
            not in ("0", "off", "false", "no")

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def contains(self, key: str) -> bool:
        """Existence probe -- no read, no counters, no injection.

        The harness uses this to decide scheduling; only a real
        :meth:`get` counts as a hit or a miss.
        """
        return self.path_for(key).is_file()

    def get(self, key: str) -> Optional[dict]:
        """The cached payload for *key*, or None on a miss.

        Any failure -- missing file, injected or real IO error, torn
        or corrupt JSON -- is a clean miss: the caller replays the
        sweep and overwrites the entry.  A hit refreshes the entry's
        mtime, which is the LRU clock eviction sorts by.
        """
        path = self.path_for(key)
        try:
            blob = path.read_bytes()
            blob = faults.inject("store.result_cache", key=key,
                                 payload=blob)
            document = json.loads(blob.decode("utf-8"))
        except (OSError, ValueError, UnicodeDecodeError):
            self.misses += 1
            telemetry.inc("result_cache.miss")
            return None
        if not isinstance(document, dict):
            self.misses += 1
            telemetry.inc("result_cache.miss")
            return None
        self.hits += 1
        telemetry.inc("result_cache.hit")
        try:
            os.utime(path)  # refresh the LRU clock
        except OSError:
            pass
        return document

    def put(self, key: str, payload: dict) -> None:
        """Store *payload* under *key* (atomic, best-effort), then
        enforce the byte budget: a rescan and eviction only when the
        running total crosses it (or on the first put, to seed it)."""
        blob = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")) + "\n"
        if not _atomic_write(self.path_for(key), blob):
            return
        telemetry.inc("result_cache.put")
        with self._lock:
            if self._bytes is not None \
                    and self._bytes + len(blob) <= self.budget_bytes:
                self._bytes += len(blob)
                return
            self._evict_locked()

    def _entries(self) -> List[Tuple[int, int, Path]]:
        """(mtime_ns, bytes, path) for every cache entry.

        Nanosecond mtime, not the float seconds: coarse-granularity
        filesystems (FAT, some network mounts, ext timestamps after a
        float round-trip) stamp whole batches of puts with the same
        second, and a float clock would then order eviction by
        whatever the directory scan happened to yield.
        """
        out = []
        if not self.root.is_dir():
            return out
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob("*.json")):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                out.append((stat.st_mtime_ns, stat.st_size, path))
        return out

    def evict(self) -> int:
        """Rescan, then drop least-recently-used entries until under
        budget.

        Returns how many entries were removed, and resets the running
        total to what survives.  Nanosecond mtime is the LRU clock
        (refreshed by :meth:`get`); exact ties -- same stamp on a
        coarse-granularity filesystem -- break by the entry's filename
        (the content key, unique and root-relative), so two processes
        evicting concurrently converge on the same survivors
        regardless of scan order or where the root is mounted.
        """
        with self._lock:
            return self._evict_locked()

    def _evict_locked(self) -> int:
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        removed = 0
        for mtime_ns, size, path in sorted(
                entries, key=lambda item: (item[0], item[2].name)):
            if total <= self.budget_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            removed += 1
            self.evicted += 1
            telemetry.inc("result_cache.evict")
        self._bytes = total
        return removed

    def clear(self) -> int:
        """Remove every entry (CLI maintenance); the count removed."""
        removed = 0
        with self._lock:
            for _, _, path in self._entries():
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            self._bytes = None
        return removed

    def stats(self) -> dict:
        entries = self._entries()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries),
            "budget_bytes": self.budget_bytes,
            "enabled": self.enabled(),
        }
