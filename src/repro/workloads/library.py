"""The trace library: sharded payload layout plus the result cache.

PR 5 gave the repository a flat content-keyed :class:`TraceStore`; at
"millions of users" scale (thousands of stored workloads, many cheap
cached queries per expensive replay) a flat directory and no query
memoization both stop scaling.  This module holds the two layout-level
services the reworked store composes:

:class:`TraceLibrary`
    The on-disk *shape* of the store: payloads live under
    ``shards/<key[:2]>/`` (256-way fan-out, so directory listings stay
    O(store/256) no matter how big the library grows), each shard
    carries a ``catalog.json`` of its own entries, and the root
    carries a ``manifest.json`` summarizing the whole library (payload
    format version, per-entry generator versions, byte sizes and
    whole-file CRC32 checksums).  Both index files are **regenerable
    metadata**, exactly like the per-trace sidecars: every reader
    treats a missing, torn or corrupt manifest/catalog as "rebuild
    from the payloads on disk", so no index failure is ever fatal and
    the chaos plan can corrupt them freely (the ``store.manifest``
    injection site).  Legacy flat payloads at the store root keep
    working unmigrated; :meth:`TraceLibrary.migrate` adopts them into
    shards lazily (CLI: ``repro store migrate``).

:class:`ResultCache`
    Disk memoization of sweep *results* keyed by the caller-computed
    content key (trace key + spec hash + semantics + engine version;
    see :func:`repro.sweep.runner.result_cache_key` -- this module
    never imports the sweep layer).  Entries are JSON documents under
    ``results/<key[:2]>/``, written atomically, read through the
    ``store.result_cache`` injection site (a corrupt entry is a clean
    miss, never an error), and evicted LRU by a byte budget
    (``REPRO_RESULT_CACHE_BYTES``, default 256 MiB) where "recently
    used" is the file mtime, refreshed on every hit.  A put adds its
    bytes to a running total seeded by one directory scan; only a put
    that takes the total over the budget rescans and evicts.  Disable
    entirely with ``REPRO_RESULT_CACHE=0``.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
import zlib
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro import faults, telemetry
from repro.trace.columnar import FORMAT_VERSION

#: Subdirectory names under the store root.
SHARDS_DIR = "shards"
RESULTS_DIR = "results"
MANIFEST_NAME = "manifest.json"
CATALOG_NAME = "catalog.json"

#: Bumped when the manifest document layout changes; a manifest with
#: a different version is simply rebuilt (it is derived data).
MANIFEST_VERSION = 1

#: Result-cache byte budget when ``REPRO_RESULT_CACHE_BYTES`` is
#: unset: enough for ~10^4 paper-grid surfaces, small next to one
#: full-scale trace payload.
DEFAULT_RESULT_BUDGET = 256 * 1024 * 1024

ENV_RESULT_CACHE = "REPRO_RESULT_CACHE"
ENV_RESULT_BUDGET = "REPRO_RESULT_CACHE_BYTES"


def _atomic_write(path: Path, text: str) -> bool:
    """tmp + ``os.replace`` under the target's directory; False on
    any OS failure (index writes are best-effort bookkeeping)."""
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


def _read_json(path: Path, *, site: Optional[str] = None) -> Optional[dict]:
    """A JSON document, or None when missing/torn/corrupt.

    ``site`` threads the read through a fault-injection site (payload
    kinds mutate the bytes before parsing, so an injected corruption
    exercises exactly the torn-file path).
    """
    try:
        blob = path.read_bytes()
        if site is not None:
            blob = faults.inject(site, key=path.name, payload=blob)
        document = json.loads(blob.decode("utf-8"))
    except (OSError, ValueError, UnicodeDecodeError):
        return None
    return document if isinstance(document, dict) else None


def key_of_payload(path: Path) -> str:
    """The content key encoded in a payload filename (``name-key``)."""
    stem = path.stem
    return stem.rsplit("-", 1)[1] if "-" in stem else stem


class TraceLibrary:
    """Sharded layout, catalogs and the manifest of one store root.

    Stateless between calls: every method works off the directory
    tree, so concurrent writers (pool workers racing on the same
    generation) can interleave harmlessly -- index files are
    last-atomic-rename-wins and always rebuildable.
    """

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)

    # -- layout ----------------------------------------------------------

    def shard_dir(self, key: str) -> Path:
        return self.root / SHARDS_DIR / key[:2]

    def shard_path(self, filename: str, key: str) -> Path:
        """Where a payload named *filename* with content *key* lives."""
        return self.shard_dir(key) / filename

    def payload_paths(self) -> Iterator[Path]:
        """Every payload in the library: sharded entries first, then
        legacy flat files at the root, each set sorted by name."""
        shards = self.root / SHARDS_DIR
        if shards.is_dir():
            for shard in sorted(shards.iterdir()):
                if shard.is_dir():
                    yield from sorted(shard.glob("*.trace"))
        yield from sorted(self.root.glob("*.trace"))

    # -- manifest / catalogs ---------------------------------------------

    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def read_manifest(self) -> Optional[dict]:
        """The manifest document, or None when it must be rebuilt.

        A manifest is *advisory*: torn, corrupt, missing or
        version-skewed documents all answer None and the caller falls
        back to :meth:`rebuild` (or to scanning the payloads
        directly).  Never raises.
        """
        document = _read_json(self.manifest_path(), site="store.manifest")
        if document is None \
                or document.get("manifest_version") != MANIFEST_VERSION \
                or not isinstance(document.get("entries"), dict):
            return None
        return document

    def manifest(self) -> dict:
        """The manifest, rebuilding from disk when unreadable."""
        document = self.read_manifest()
        if document is None:
            document = self.rebuild()
        return document

    def _entry_for(self, path: Path) -> dict:
        """One manifest entry, from the payload file plus its sidecar."""
        entry: Dict[str, object] = {"file": path.name}
        shard = path.parent
        entry["shard"] = shard.name \
            if shard.parent.name == SHARDS_DIR else None
        try:
            blob = path.read_bytes()
            entry["bytes"] = len(blob)
            entry["crc32"] = zlib.crc32(blob)
        except OSError:
            entry["bytes"] = None
            entry["crc32"] = None
        sidecar = _read_json(path.with_suffix(".json"))
        if sidecar:
            for field in ("workload", "version", "format", "events",
                          "dispatched"):
                if field in sidecar:
                    entry[field] = sidecar[field]
        return entry

    def rebuild(self) -> dict:
        """Recompute the manifest from the payloads on disk and write
        it (atomically, best-effort).  The one true source is always
        the payload files; this is how a torn manifest heals."""
        entries: Dict[str, dict] = {}
        for path in self.payload_paths():
            entries.setdefault(key_of_payload(path), self._entry_for(path))
        document = {
            "manifest_version": MANIFEST_VERSION,
            "payload_format": FORMAT_VERSION,
            "rebuilt_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "entries": entries,
        }
        telemetry.inc("store.manifest_rebuilt")
        self._write_manifest(document)
        self._write_catalogs(entries)
        return document

    def _write_manifest(self, document: dict) -> None:
        _atomic_write(self.manifest_path(),
                      json.dumps(document, indent=2, sort_keys=True) + "\n")

    def _write_catalogs(self, entries: Dict[str, dict]) -> None:
        """Regroup manifest entries into per-shard catalog files."""
        by_shard: Dict[str, Dict[str, dict]] = {}
        for key, entry in entries.items():
            shard = entry.get("shard")
            if shard:
                by_shard.setdefault(shard, {})[key] = entry
        for shard, catalog in by_shard.items():
            _atomic_write(
                self.root / SHARDS_DIR / shard / CATALOG_NAME,
                json.dumps({"catalog_version": MANIFEST_VERSION,
                            "entries": catalog},
                           indent=2, sort_keys=True) + "\n")

    def read_catalog(self, shard: str) -> Optional[dict]:
        """One shard's catalog, or None when it must be rebuilt."""
        document = _read_json(
            self.root / SHARDS_DIR / shard / CATALOG_NAME,
            site="store.manifest")
        if document is None \
                or not isinstance(document.get("entries"), dict):
            return None
        return document

    def record_entry(self, path: Path, key: str) -> None:
        """Fold one just-written payload into the indexes.

        Best-effort by design: the payload write already succeeded,
        and both indexes are rebuildable, so an index update must
        never fail (or slow down) the load that triggered it.
        """
        entry = self._entry_for(path)
        document = self.read_manifest()
        if document is None:
            self.rebuild()  # picks the new payload up in the scan
            return
        document["entries"][key] = entry
        self._write_manifest(document)
        shard = entry.get("shard")
        if shard:
            catalog = self.read_catalog(shard) \
                or {"catalog_version": MANIFEST_VERSION, "entries": {}}
            catalog["entries"][key] = entry
            _atomic_write(self.root / SHARDS_DIR / shard / CATALOG_NAME,
                          json.dumps(catalog, indent=2, sort_keys=True)
                          + "\n")

    def forget_entry(self, key: str) -> None:
        """Drop one key from the indexes (after a quarantine)."""
        document = self.read_manifest()
        if document is None:
            return
        entry = document["entries"].pop(key, None)
        if entry is None:
            return
        self._write_manifest(document)
        shard = entry.get("shard")
        if shard:
            catalog = self.read_catalog(shard)
            if catalog and catalog["entries"].pop(key, None) is not None:
                _atomic_write(
                    self.root / SHARDS_DIR / shard / CATALOG_NAME,
                    json.dumps(catalog, indent=2, sort_keys=True) + "\n")

    # -- migration / maintenance -----------------------------------------

    def migrate(self) -> dict:
        """Adopt legacy flat payloads into the sharded layout.

        Moves each root-level ``*.trace`` (and its sidecar) into
        ``shards/<key[:2]>/`` via ``os.replace`` -- same filesystem,
        so the move is atomic and the payload bytes never change --
        then rebuilds the indexes once.  Flat files that cannot move
        are left in place and reported; reads work either way.
        """
        report = {"migrated": [], "failed": [], "already_sharded": 0}
        flat = sorted(self.root.glob("*.trace"))
        for path in list(self.payload_paths()):
            if path not in flat:
                report["already_sharded"] += 1
        for path in flat:
            key = key_of_payload(path)
            destination = self.shard_path(path.name, key)
            try:
                destination.parent.mkdir(parents=True, exist_ok=True)
                os.replace(path, destination)
            except OSError as error:
                report["failed"].append((path.name, str(error)))
                continue
            sidecar = path.with_suffix(".json")
            try:
                os.replace(sidecar, destination.with_suffix(".json"))
            except OSError:
                pass  # regenerable metadata
            report["migrated"].append(path.name)
        if report["migrated"]:
            self.rebuild()
        return report

    def gc(self) -> dict:
        """Sweep index litter: orphan sidecars (no payload), leftover
        ``*.tmp`` files from interrupted atomic writes, and empty
        shard directories.  Payloads themselves are never touched --
        deleting cached traces is what eviction policies are for, and
        the trace store deliberately has none (content-keyed entries
        are immutable and always valid)."""
        report = {"orphan_sidecars": [], "tmp_files": [],
                  "empty_shards": []}
        directories = [self.root]
        shards = self.root / SHARDS_DIR
        if shards.is_dir():
            directories += [d for d in sorted(shards.iterdir())
                            if d.is_dir()]
        for directory in directories:
            for tmp in sorted(directory.glob("*.tmp")):
                try:
                    tmp.unlink()
                    report["tmp_files"].append(tmp.name)
                except OSError:
                    pass
            for sidecar in sorted(directory.glob("*.json")):
                if sidecar.name in (MANIFEST_NAME, CATALOG_NAME):
                    continue
                if not sidecar.with_suffix(".trace").exists():
                    try:
                        sidecar.unlink()
                        report["orphan_sidecars"].append(sidecar.name)
                    except OSError:
                        pass
        if shards.is_dir():
            for shard in sorted(shards.iterdir()):
                if not shard.is_dir():
                    continue
                contents = [p for p in shard.iterdir()
                            if p.name != CATALOG_NAME]
                if contents:
                    continue
                try:
                    catalog = shard / CATALOG_NAME
                    if catalog.exists():
                        catalog.unlink()
                    shard.rmdir()
                    report["empty_shards"].append(shard.name)
                except OSError:
                    pass
        return report

    def stats(self) -> dict:
        """Layout-level numbers for ``repro store stats``."""
        sharded = flat = payload_bytes = 0
        shard_names = set()
        for path in self.payload_paths():
            try:
                payload_bytes += path.stat().st_size
            except OSError:
                continue
            if path.parent.parent.name == SHARDS_DIR:
                sharded += 1
                shard_names.add(path.parent.name)
            else:
                flat += 1
        return {
            "root": str(self.root),
            "payloads": sharded + flat,
            "sharded": sharded,
            "flat": flat,
            "shards": len(shard_names),
            "payload_bytes": payload_bytes,
            "manifest": self.manifest_path().exists(),
        }


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
