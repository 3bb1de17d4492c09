"""Zero-dependency tracing + metrics for the experiment pipeline.

The pipeline's only after-the-fact visibility used to be the
harness's one-line robustness summary: there was no way to answer
"where did the time go?", "what was the store hit rate?" or "which
retry fired?" once a run finished.  This package is the observability
layer: **spans** (nested, monotonic-clock timed trace sections),
**events** (point-in-time markers such as a fault firing) and a
**metrics registry** (counters / gauges / histograms), all behind a
no-op fast path so the instrumented seams cost one dict lookup when
telemetry is off.

Arming and the process model
----------------------------

``install(directory)`` arms recording in this process and exports the
sink directory through the ``REPRO_TELEMETRY`` environment variable
-- the same hand-off discipline as :mod:`repro.faults` -- so pool
worker processes arm themselves lazily on their first span.  Every
process writes its own shard files (no cross-process locking, ever):

* ``spans-<pid>-<token>.jsonl`` -- one JSON record per finished span
  or event, appended and flushed immediately (a crashed worker keeps
  everything it completed);
* ``metrics-<pid>-<token>.json`` -- the process-local registry,
  rewritten atomically on :func:`flush` (the harness flushes after
  every pool task, so a later crash loses at most one task's counts).

The ``<token>`` is per-process-unique, so a recycled PID (e.g. across
a crashed run and its ``--resume``) can never overwrite another
process's shard.  :func:`finalize` -- called once by the parent at
run end -- merges every shard into the canonical ``spans.jsonl`` /
``metrics.json`` / ``environment.json`` and deletes the shards;
merging dedupes span records by id, so a resume (or a finalize retry)
never double-counts.  ``repro report`` reads the merged files *and*
any leftover shards (non-destructively), so a run that died before
finalizing is still reportable.

With telemetry disabled nothing is ever opened or created: the
disabled :func:`span` returns a shared no-op context manager and the
metric calls return after one environment lookup.
"""

from __future__ import annotations

import atexit
import json
import os
import platform
import shutil
import tempfile
import time
import uuid
from pathlib import Path
from typing import Dict, Optional

#: Environment variable carrying the telemetry sink directory to
#: child processes (the same discipline as ``REPRO_FAULTS``).
ENV_DIR = "REPRO_TELEMETRY"

#: Canonical (merged) sink files under the telemetry directory.
SPANS_FILE = "spans.jsonl"
METRICS_FILE = "metrics.json"
ENVIRONMENT_FILE = "environment.json"


def _metric_key(name: str, labels: Dict[str, object]) -> str:
    """``name`` or ``name{k=v,...}`` with labels sorted -- flat keys
    keep the registry a plain JSON object."""
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


def split_metric_key(key: str):
    """Inverse of the label flattening: ``(name, labels_dict)``."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key.partition("{")
    labels = {}
    for part in inner[:-1].split(","):
        if "=" in part:
            label, _, value = part.partition("=")
            labels[label] = value
    return name, labels


def _atomic_write_json(path: Path, payload: dict) -> None:
    """Temp-file + ``os.replace``: the file is whole or absent."""
    fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                               prefix=path.stem, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, indent=2, sort_keys=True,
                                    default=str) + "\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _load_json(path: Path) -> Optional[dict]:
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


class Span:
    """One timed, possibly-nested trace section.

    Context-manager only; the record is written (and flushed) on
    exit, carrying wall-clock start, monotonic duration, CPU time,
    the parent span id, and any attributes set at creation or via
    :meth:`set`.  An exception escaping the block stamps the record's
    status with the exception type (and is never swallowed).
    """

    __slots__ = ("_recorder", "name", "attrs", "id", "parent",
                 "_wall0", "_mono0", "_cpu0")

    def __init__(self, recorder: "_Recorder", name: str,
                 attrs: Dict[str, object]) -> None:
        self._recorder = recorder
        self.name = name
        self.attrs = attrs
        self.id = None
        self.parent = None

    def __enter__(self) -> "Span":
        recorder = self._recorder
        self.id = recorder.next_id()
        self.parent = recorder.stack[-1].id if recorder.stack else None
        recorder.stack.append(self)
        self._wall0 = time.time()
        self._mono0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def set(self, **attrs) -> "Span":
        """Attach attributes discovered mid-span (hit/miss, counts)."""
        self.attrs.update(attrs)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        recorder = self._recorder
        if recorder.stack and recorder.stack[-1] is self:
            recorder.stack.pop()
        else:  # unbalanced exit (a span leaked): recover, don't raise
            try:
                recorder.stack.remove(self)
            except ValueError:
                pass
        record = {
            "kind": "span",
            "name": self.name,
            "id": self.id,
            "parent": self.parent,
            "pid": recorder.pid,
            "t0": round(self._wall0, 6),
            "dur": round(time.perf_counter() - self._mono0, 9),
            "cpu": round(time.process_time() - self._cpu0, 9),
            "status": ("ok" if exc_type is None
                       else f"error:{exc_type.__name__}"),
        }
        if self.attrs:
            record["attrs"] = self.attrs
        recorder.write(record)
        return False


class _NoopSpan:
    """The shared disabled-path span: every call is a constant no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> "_NoopSpan":
        return self


_NOOP = _NoopSpan()


class _Recorder:
    """Per-process telemetry state: span sink, metric registry."""

    def __init__(self, directory: os.PathLike) -> None:
        self.directory = Path(directory)
        self.pid = os.getpid()
        #: Per-process-unique shard discriminator: a recycled PID
        #: (crash + resume) must never clobber another shard.
        self.token = uuid.uuid4().hex[:8]
        self.stack = []
        self._sequence = 0
        self._file = None
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Dict[str, float]] = {}
        self._metrics_dirty = False

    def next_id(self) -> str:
        self._sequence += 1
        return f"{self.pid}-{self.token}-{self._sequence}"

    # -- span sink -------------------------------------------------------

    def write(self, record: dict) -> None:
        """Append one JSONL record, flushed through to the OS so a
        later ``os._exit`` (crash fault) cannot lose it.  IO failures
        are swallowed: telemetry must never fail the run."""
        try:
            if self._file is None:
                self.directory.mkdir(parents=True, exist_ok=True)
                self._file = open(
                    self.directory / f"spans-{self.pid}-{self.token}.jsonl",
                    "a", encoding="utf-8")
            self._file.write(json.dumps(record, sort_keys=True,
                                        separators=(",", ":"),
                                        default=str) + "\n")
            self._file.flush()
        except OSError:
            pass

    # -- metric registry -------------------------------------------------

    def inc(self, name: str, n, labels: Dict[str, object]) -> None:
        key = _metric_key(name, labels)
        self.counters[key] = self.counters.get(key, 0) + n
        self._metrics_dirty = True

    def gauge_set(self, name: str, value, labels) -> None:
        self.gauges[_metric_key(name, labels)] = value
        self._metrics_dirty = True

    def observe(self, name: str, value, labels) -> None:
        key = _metric_key(name, labels)
        hist = self.histograms.get(key)
        if hist is None:
            hist = self.histograms[key] = {
                "count": 0, "sum": 0.0, "min": value, "max": value}
        hist["count"] += 1
        hist["sum"] += value
        hist["min"] = min(hist["min"], value)
        hist["max"] = max(hist["max"], value)
        self._metrics_dirty = True

    def flush_metrics(self) -> None:
        """Atomically persist this process's registry shard."""
        if not self._metrics_dirty:
            return
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            _atomic_write_json(
                self.directory / f"metrics-{self.pid}-{self.token}.json",
                {"counters": self.counters, "gauges": self.gauges,
                 "histograms": self.histograms})
            self._metrics_dirty = False
        except OSError:
            pass

    def close(self) -> None:
        self.flush_metrics()
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None


#: The armed recorder and the environment value it was built from --
#: a changed environment (a pool child arming itself, a test's
#: monkeypatch) rebuilds lazily, exactly like ``repro.faults``.
_RECORDER: Optional[_Recorder] = None
_SOURCE: Optional[str] = None


def _current() -> Optional[_Recorder]:
    global _RECORDER, _SOURCE
    source = os.environ.get(ENV_DIR)
    if not source:
        if _SOURCE is not None:  # disarmed externally
            _RECORDER = None
            _SOURCE = None
        return _RECORDER
    if (source != _SOURCE or _RECORDER is None
            or _RECORDER.pid != os.getpid()):
        # The pid check catches fork-started pool workers: the child
        # inherits the parent's recorder, and writing through it would
        # reuse the parent's shard and collide with its span ids (the
        # merge dedup would then silently drop records).  Every
        # process gets its own shard.  (The inherited handle is
        # per-record flushed, so abandoning it loses nothing.)
        _RECORDER = _Recorder(source)
        _SOURCE = source
    return _RECORDER


def enabled() -> bool:
    """Whether telemetry is armed in this process."""
    return _current() is not None


def active_directory() -> Optional[str]:
    """The armed sink directory (for explicit worker hand-off)."""
    recorder = _current()
    return str(recorder.directory) if recorder is not None else None


def install(directory: Optional[os.PathLike], *,
            fresh: bool = False) -> None:
    """Arm telemetry into *directory* and export it to children.

    ``fresh=True`` wipes any previous telemetry under the directory
    first (a non-resume run must not inherit stale shards).
    ``install(None)`` disarms and clears the environment.
    """
    global _RECORDER, _SOURCE
    if directory is None:
        if _RECORDER is not None:
            _RECORDER.close()
        _RECORDER = None
        _SOURCE = None
        os.environ.pop(ENV_DIR, None)
        return
    directory = Path(directory)
    if fresh and directory.exists():
        shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True, exist_ok=True)
    os.environ[ENV_DIR] = str(directory)
    _RECORDER = _Recorder(directory)
    _SOURCE = str(directory)


def ensure(directory: Optional[str]) -> None:
    """Arm from an explicit directory unless already armed.

    Pool workers call this with the directory threaded through the
    run context: normally the inherited ``REPRO_TELEMETRY``
    environment has already armed it, but a scrubbed environment
    still gets the sink.
    """
    if directory and _current() is None:
        install(directory)


def span(name: str, **attrs):
    """A timed context manager; the no-op singleton when disabled."""
    recorder = _current()
    if recorder is None:
        return _NOOP
    return Span(recorder, name, attrs)


def event(name: str, **attrs) -> None:
    """Record a point-in-time marker (written and flushed at once)."""
    recorder = _current()
    if recorder is None:
        return
    record = {"kind": "event", "name": name,
              "id": recorder.next_id(), "pid": recorder.pid,
              "t0": round(time.time(), 6)}
    if attrs:
        record["attrs"] = attrs
    recorder.write(record)


def inc(name: str, n=1, **labels) -> None:
    """Add *n* to a counter (labels flatten into the metric key)."""
    recorder = _current()
    if recorder is None:
        return
    recorder.inc(name, n, labels)


def gauge(name: str, value, **labels) -> None:
    """Set a gauge to its latest value."""
    recorder = _current()
    if recorder is None:
        return
    recorder.gauge_set(name, value, labels)


def observe(name: str, value, **labels) -> None:
    """Record one sample into a histogram (count/sum/min/max)."""
    recorder = _current()
    if recorder is None:
        return
    recorder.observe(name, value, labels)


def flush() -> None:
    """Persist this process's metric registry shard (spans are
    already flushed per record)."""
    recorder = _current()
    if recorder is not None:
        recorder.flush_metrics()


def merge_metrics(target: dict, shard: dict) -> dict:
    """Merge one registry shard into *target* (in place).

    Counters sum, histograms combine count/sum/min/max, gauges take
    the later merge (per-process gauges should carry a pid label when
    that matters).
    """
    for key, value in (shard.get("counters") or {}).items():
        counters = target.setdefault("counters", {})
        counters[key] = counters.get(key, 0) + value
    for key, value in (shard.get("gauges") or {}).items():
        target.setdefault("gauges", {})[key] = value
    for key, hist in (shard.get("histograms") or {}).items():
        histograms = target.setdefault("histograms", {})
        merged = histograms.get(key)
        if merged is None:
            histograms[key] = dict(hist)
        else:
            merged["count"] += hist.get("count", 0)
            merged["sum"] += hist.get("sum", 0.0)
            merged["min"] = min(merged["min"], hist.get("min", merged["min"]))
            merged["max"] = max(merged["max"], hist.get("max", merged["max"]))
    return target


def merge_directory(directory: os.PathLike) -> dict:
    """Merge every shard under *directory* into the canonical files.

    Span shards append into ``spans.jsonl`` deduplicated by span id
    (ids are unique per process incarnation, which is what makes the
    merge idempotent across resumes and finalize retries); metric
    shards fold into ``metrics.json``.  Shards are deleted after
    merging.  Returns the merged metrics registry.
    """
    directory = Path(directory)
    target = directory / SPANS_FILE
    seen = set()
    try:
        for line in target.read_text().splitlines():
            try:
                seen.add(json.loads(line).get("id"))
            except ValueError:
                continue
    except OSError:
        pass
    shards = sorted(directory.glob("spans-*.jsonl"))
    fresh_lines = []
    for shard in shards:
        try:
            lines = shard.read_text().splitlines()
        except OSError:
            continue
        for line in lines:
            try:
                record_id = json.loads(line).get("id")
            except ValueError:
                continue
            if record_id is None or record_id not in seen:
                seen.add(record_id)
                fresh_lines.append(line)
    try:
        if fresh_lines:
            with open(target, "a", encoding="utf-8") as handle:
                handle.write("\n".join(fresh_lines) + "\n")
        for shard in shards:
            try:
                shard.unlink()
            except OSError:
                pass
    except OSError:
        pass

    merged = _load_json(directory / METRICS_FILE) or {}
    merged.setdefault("counters", {})
    merged.setdefault("gauges", {})
    merged.setdefault("histograms", {})
    metric_shards = sorted(directory.glob("metrics-*.json"))
    for shard in metric_shards:
        data = _load_json(shard)
        if data:
            merge_metrics(merged, data)
    try:
        _atomic_write_json(directory / METRICS_FILE, merged)
        for shard in metric_shards:
            try:
                shard.unlink()
            except OSError:
                pass
    except OSError:
        pass

    environment = directory / ENVIRONMENT_FILE
    if not environment.exists():
        try:
            _atomic_write_json(environment, environment_block())
        except OSError:
            pass
    return merged


def finalize() -> Optional[dict]:
    """Flush this process and merge all shards (parent, at run end).

    Returns the merged metrics registry, or None when disabled.  The
    recorder stays armed: spans recorded afterwards open a fresh
    shard and are picked up by the next merge (or by ``repro
    report``, which also reads unmerged shards).
    """
    recorder = _current()
    if recorder is None:
        return None
    recorder.close()
    return merge_directory(recorder.directory)


def environment_block() -> dict:
    """The host/interpreter identity block, including the numpy
    version so engine-dependent numbers are attributable."""
    import numpy
    return {
        "cpus": os.cpu_count(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "system": platform.system(),
    }


@atexit.register
def _flush_at_exit() -> None:  # pragma: no cover - exit-path safety net
    recorder = _RECORDER
    if recorder is not None:
        recorder.flush_metrics()


__all__ = [
    "ENV_DIR", "SPANS_FILE", "METRICS_FILE", "ENVIRONMENT_FILE",
    "Span", "enabled", "active_directory", "install", "ensure",
    "span", "event", "inc", "gauge", "observe", "flush",
    "merge_metrics", "merge_directory", "finalize",
    "environment_block", "split_metric_key",
]
