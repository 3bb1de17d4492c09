"""The trace store's layout, zero-copy loading and result cache.

Pinned end to end:

* one store layout -- a load writes exactly a payload and its
  sidecar under ``shards/<key[:2]>/`` and no index file anywhere, a
  payload left at the store root by an older layout is ignored (the
  load regenerates into the shard), ``gc`` sweeps litter and never a
  payload, and ``repro store migrate`` is gone;
* sidecar audit -- ``store.verify()`` REPORTS params/key mismatches
  (stale metadata) without quarantining the healthy payload;
* mmap zero-copy loading -- loads are views over the mapped payload,
  lifetime is typed (``MappedBufferClosed`` after close, pre-close
  views and copies survive), and a >1M-event trace round-trips;
* the big-endian fallback of ``from_buffer``/``from_bytes`` never
  byte-swaps the dispatched bitset (it is byte-order independent);
* the sweep-result cache -- round-trips byte-identical surfaces,
  treats corruption as a clean miss, evicts LRU by byte budget from a
  running total (one scan, then a rescan only when a put crosses the
  budget), can be disabled by environment, and lets a repeated
  harness run replay zero references;
* the result-cache content key -- equal to the ``asdict``-based key
  it replaced, spelling for spelling, and pinned literally for a
  paper-grid spec so existing on-disk caches still hit;
* the store's memo probe (``peek``) -- never reads or generates.
* the ``store.result_cache`` fault-injection site degrades cleanly
  under chaos.
"""

import hashlib
import io
import json
import os
import sys
import threading
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from repro import faults, telemetry
from repro.cli import main as cli_main
from repro.errors import MappedBufferClosed, StoreCorruption
from repro.faults import FaultPlan
from repro.sweep import SweepSpec, result_cache_key, run_sweep
from repro.sweep.planner import query_from_request
from repro.sweep.runner import _RESULT_CACHES, ENGINE_VERSION
from repro.trace.columnar import MappedTrace, Trace, TraceBuilder
from repro.trace.events import TraceEvent
from repro.workloads.library import ResultCache
from repro.workloads.spec import WorkloadSpec
from repro.workloads.store import QUARANTINE_DIR, SHARDS_DIR, TraceStore


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    monkeypatch.delenv(faults.ENV_PLAN, raising=False)
    monkeypatch.delenv(faults.ENV_EPOCH, raising=False)
    monkeypatch.delenv(telemetry.ENV_DIR, raising=False)
    monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
    monkeypatch.delenv("REPRO_RESULT_CACHE_BYTES", raising=False)
    monkeypatch.setattr(faults, "_ACTIVE", None)
    monkeypatch.setattr(faults, "_ACTIVE_SOURCE", None)
    monkeypatch.setattr(telemetry, "_RECORDER", None)
    monkeypatch.setattr(telemetry, "_SOURCE", None)
    _RESULT_CACHES.clear()
    yield
    faults.install(None)
    telemetry.install(None)
    _RESULT_CACHES.clear()


def _spec(counter, name="synthetic"):
    def build(length=64):
        counter["runs"] += 1
        return [TraceEvent((i * 37) % 251 - 17, 1 + i % 7, i % 5,
                           bool(i % 2)) for i in range(length)]
    return WorkloadSpec(name=name, description="test-only",
                        build=build, defaults={"length": 64})


# -- the one store layout -------------------------------------------------

class TestShardedLayout:
    def test_fresh_load_writes_only_payload_and_sidecar(self, tmp_path):
        counter = {"runs": 0}
        store = TraceStore(tmp_path)
        spec = _spec(counter)
        store.load(spec)
        key = store.trace_key(spec)
        payload = tmp_path / SHARDS_DIR / key[:2] / \
            f"synthetic-{key}.trace"
        assert store.path_for(spec, spec.resolve()) == payload
        files = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert sorted(files) == [payload.with_suffix(".json"), payload]

    def test_root_level_legacy_payload_is_ignored(self, tmp_path):
        counter = {"runs": 0}
        spec = _spec(counter)
        store = TraceStore(tmp_path)
        store.load(spec)
        sharded = store.path_for(spec, spec.resolve())
        fresh_bytes = sharded.read_bytes()
        # Demote the payload to the old flat layout at the root.
        flat = tmp_path / sharded.name
        os.replace(sharded, flat)
        os.replace(sharded.with_suffix(".json"), flat.with_suffix(".json"))

        reloaded = TraceStore(tmp_path)
        events = reloaded.load(spec)
        assert counter["runs"] == 2  # regenerated, not read from root
        assert reloaded.generated == 1
        assert sharded.read_bytes() == fresh_bytes
        assert events.to_bytes() == fresh_bytes
        assert reloaded.payload_paths() == [sharded]
        assert flat.read_bytes() == fresh_bytes  # left untouched

    def test_gc_sweeps_litter_only(self, tmp_path):
        counter = {"runs": 0}
        spec = _spec(counter)
        store = TraceStore(tmp_path)
        store.load(spec)
        payload = store.path_for(spec, spec.resolve())
        (payload.parent / "x.tmp").write_text("leftover")
        orphan = payload.parent / "ghost-aaaa.json"
        orphan.write_text("{}")
        # Index files an older store kept are orphan sidecars too.
        (tmp_path / "manifest.json").write_text("{}")
        (payload.parent / "catalog.json").write_text("{}")
        empty = tmp_path / SHARDS_DIR / "zz"
        empty.mkdir(parents=True)
        report = store.gc()
        assert report["tmp_files"] == ["x.tmp"]
        assert report["orphan_sidecars"] == [
            "manifest.json", "catalog.json", "ghost-aaaa.json"]
        assert report["empty_shards"] == ["zz"]
        assert payload.exists()
        assert payload.with_suffix(".json").exists()
        assert store.gc() == {"orphan_sidecars": [], "tmp_files": [],
                              "empty_shards": []}
        assert TraceStore(tmp_path).load(spec) == store.load(spec)
        assert counter["runs"] == 1  # the payload survived both sweeps

    def test_stats_counts_layout(self, tmp_path):
        counter = {"runs": 0}
        store = TraceStore(tmp_path)
        assert store.stats()["payloads"] == store.stats()["shards"] == 0
        specs = [_spec(counter, name) for name in ("alpha", "beta",
                                                    "gamma")]
        for spec in specs:
            store.load(spec)
        paths = [store.path_for(spec, spec.resolve()) for spec in specs]
        stats = store.stats()
        assert stats["payloads"] == 3
        assert stats["shards"] == len({path.parent for path in paths})
        assert stats["payload_bytes"] == sum(path.stat().st_size
                                             for path in paths)
        assert stats["quarantined"] == 0
        assert stats["result_cache"]["entries"] == 0
        assert set(stats) == {"root", "payloads", "shards",
                              "payload_bytes", "quarantined",
                              "result_cache"}


# -- satellite: sidecar audit ---------------------------------------------

class TestSidecarAudit:
    def test_mismatched_sidecar_is_reported_not_quarantined(
            self, tmp_path):
        counter = {"runs": 0}
        spec = _spec(counter)
        store = TraceStore(tmp_path)
        store.load(spec)
        payload = store.path_for(spec, spec.resolve())
        sidecar = payload.with_suffix(".json")
        meta = json.loads(sidecar.read_text())
        meta["params"] = {"length": 9999}  # stale: no longer keys here
        sidecar.write_text(json.dumps(meta))

        report = store.verify()
        assert report["ok"] == 1
        assert not report["corrupt"]
        (name, reason) = report["mismatched"][0]
        assert name == payload.name
        assert "key" in reason
        assert payload.exists()  # the payload is the truth: untouched
        assert not (tmp_path / QUARANTINE_DIR).exists()

    def test_event_count_mismatch_is_reported(self, tmp_path):
        counter = {"runs": 0}
        spec = _spec(counter)
        store = TraceStore(tmp_path)
        store.load(spec)
        payload = store.path_for(spec, spec.resolve())
        sidecar = payload.with_suffix(".json")
        meta = json.loads(sidecar.read_text())
        meta["events"] = meta["events"] + 1
        sidecar.write_text(json.dumps(meta))
        report = store.verify()
        assert report["ok"] == 1
        assert report["mismatched"]

    def test_clean_store_has_no_mismatches(self, tmp_path):
        counter = {"runs": 0}
        store = TraceStore(tmp_path)
        store.load(_spec(counter))
        report = store.verify()
        assert report["mismatched"] == []
        assert report["ok"] == 1


# -- mmap zero-copy loading -----------------------------------------------

def _builder_events(n):
    builder = TraceBuilder()
    for i in range(n):
        builder.record((i * 13) % 4093, 1 + i % 11, i % 7, bool(i % 3))
    return builder.snapshot()


class TestMappedLifetime:
    def _mapped_store(self, tmp_path):
        counter = {"runs": 0}
        spec = _spec(counter)
        TraceStore(tmp_path).load(spec)  # generate (write path)
        store = TraceStore(tmp_path)     # fresh memo: read path
        return store, spec

    def test_load_is_mapped_and_counts_telemetry(self, tmp_path):
        store, spec = self._mapped_store(tmp_path)
        telemetry.install(tmp_path / "t", fresh=True)
        events = store.load(spec)
        telemetry.finalize()
        assert isinstance(events, MappedTrace)
        metrics = json.loads(
            (tmp_path / "t" / "metrics.json").read_text())
        assert metrics["counters"]["store.mmap_open"] == 1

    def test_peek_returns_only_an_open_trace(self, tmp_path):
        counter = {"runs": 0}
        spec = _spec(counter)
        store = TraceStore(tmp_path)
        assert store.peek(spec) is None
        assert counter["runs"] == 0 and store.misses == 0  # no generation
        events = store.load(spec)
        assert TraceStore(tmp_path).peek(spec) is None     # no disk read
        telemetry.install(tmp_path / "t", fresh=True)
        assert store.peek(spec) is events
        assert store.peek(spec, length=32) is None         # other params
        telemetry.finalize()
        counters = json.loads(
            (tmp_path / "t" / "metrics.json").read_text())["counters"]
        assert counters["store.memo_hit"] == 1

    def test_closed_trace_raises_typed_error(self, tmp_path):
        store, spec = self._mapped_store(tmp_path)
        events = store.load(spec)
        assert len(events) == 64
        store.close()
        assert events.closed
        for touch in (lambda: len(events), lambda: events[0],
                      lambda: events.addresses(),
                      lambda: events.dispatched_indices(),
                      lambda: events.to_bytes(),
                      lambda: list(events)):
            with pytest.raises(MappedBufferClosed):
                touch()
        store.close()  # idempotent

    def test_preclose_column_view_survives_close(self, tmp_path):
        store, spec = self._mapped_store(tmp_path)
        events = store.load(spec)
        addresses = events.addresses()
        expected = list(addresses)
        store.close()
        # The sliced-out view pins the mapping; reads stay valid (no
        # interpreter crash) even though the trace itself is closed.
        assert list(addresses) == expected

    def test_copy_outlives_the_store(self, tmp_path):
        store, spec = self._mapped_store(tmp_path)
        events = store.load(spec)
        duplicate = events.copy()
        assert duplicate.store_key == events.store_key
        store.close()
        assert len(duplicate) == 64
        assert not isinstance(duplicate, MappedTrace)
        assert duplicate == TraceStore(tmp_path).load(spec)

    def test_mapped_corruption_still_quarantines(self, tmp_path):
        counter = {"runs": 0}
        spec = _spec(counter)
        store = TraceStore(tmp_path)
        store.load(spec)
        payload = store.path_for(spec, spec.resolve())
        blob = bytearray(payload.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        payload.write_bytes(bytes(blob))

        fresh = TraceStore(tmp_path)
        events = fresh.load(spec)  # quarantine + regenerate
        assert counter["runs"] == 2
        assert len(events) == 64
        assert (tmp_path / QUARANTINE_DIR / payload.name).exists()

    def test_million_event_trace_round_trips_mapped(self, tmp_path):
        base = _builder_events(70_000)
        builder = TraceBuilder()
        for _ in range(16):
            builder.extend(base)
        big = builder.snapshot()
        assert len(big) > 1_000_000
        blob = big.to_bytes()
        mapped = Trace.from_buffer(memoryview(blob))
        if isinstance(mapped, MappedTrace):  # little-endian fast path
            assert len(mapped) == len(big)
            assert mapped.addresses()[-1] == big.addresses()[-1]
            assert mapped.dispatched_count() == big.dispatched_count()
            assert mapped.verify() is mapped
            mapped.close()
            with pytest.raises(MappedBufferClosed):
                mapped.addresses()
        else:
            assert mapped == big

    def test_from_buffer_defers_crc_to_first_touch(self, tmp_path):
        trace = _builder_events(256)
        blob = bytearray(trace.to_bytes())
        # Flip a bit inside the address column's data.
        blob[16] ^= 0x01
        mapped = Trace.from_buffer(memoryview(bytes(blob)))
        if not isinstance(mapped, MappedTrace):
            pytest.skip("big-endian host copies eagerly")
        assert len(mapped) == 256  # structure is fine; no CRC yet
        assert list(mapped.opcodes())  # untouched block verifies
        with pytest.raises(StoreCorruption):
            mapped.addresses()
        with pytest.raises(StoreCorruption):
            mapped.addresses()  # stays corrupt on re-touch


# -- satellite: big-endian bitset discipline ------------------------------

class TestBigEndianBitset:
    EVENTS = [TraceEvent(12345, 7, -1, False),
              TraceEvent(0, 0, 0, True),
              TraceEvent(-70000, 255, 4, True),
              TraceEvent(81, 3, 2, False)]

    def test_from_bytes_never_swaps_the_dispatched_bitset(
            self, monkeypatch):
        import repro.trace.columnar as columnar_module
        blob = Trace.from_events(self.EVENTS).to_bytes()
        native = Trace.from_bytes(blob)
        # Simulate a big-endian reader of a little-endian payload:
        # the int columns byteswap, the bitset must not.
        monkeypatch.setattr(columnar_module, "_SWAP", True)
        swapped = Trace.from_bytes(blob)
        assert list(swapped.dispatched_indices()) == \
            list(native.dispatched_indices()) == [1, 2]
        assert [swapped.dispatched_flag(i) for i in range(4)] == \
            [event.dispatched for event in self.EVENTS]

    def test_from_buffer_big_endian_falls_back_through_from_bytes(
            self, monkeypatch):
        import repro.trace.columnar as columnar_module
        blob = Trace.from_events(self.EVENTS).to_bytes()
        monkeypatch.setattr(columnar_module, "_SWAP", True)
        trace = Trace.from_buffer(memoryview(blob))
        # The fallback copies: no mapped lifetime to manage ...
        assert not isinstance(trace, MappedTrace)
        # ... and the bitset is read as-is (byte-order independent).
        assert list(trace.dispatched_indices()) == [1, 2]


# -- the sweep-result cache -----------------------------------------------

def _store_trace(tmp_path, length=512):
    counter = {"runs": 0}
    spec = _spec(counter)
    spec = WorkloadSpec(name="synthetic", description="test-only",
                        build=spec.build, defaults={"length": length})
    store = TraceStore(tmp_path)
    return store, store.load(spec), counter


SWEEP = SweepSpec(cache="itlb", sizes=(8, 16, 32),
                  associativities=(1, 2), double_pass=True)


class TestResultCache:
    def test_round_trip_is_byte_identical(self, tmp_path):
        store, events, _ = _store_trace(tmp_path)
        cold = run_sweep(SWEEP, events)
        key = result_cache_key(SWEEP, events.store_key)
        assert store.result_cache().contains(key)
        warm = run_sweep(SWEEP, events)
        assert warm.counts == cold.counts
        assert warm.meta == cold.meta
        assert warm.table() == cold.table()
        assert list(warm.counts) == list(cold.counts)  # iteration order

    def test_warm_query_replays_nothing(self, tmp_path):
        store, events, _ = _store_trace(tmp_path)
        run_sweep(SWEEP, events)
        telemetry.install(tmp_path / "t", fresh=True)
        run_sweep(SWEEP, events)
        telemetry.finalize()
        counters = json.loads(
            (tmp_path / "t" / "metrics.json").read_text())["counters"]
        assert counters["result_cache.hit"] == 1
        assert not any(k.startswith("sweep.replay") for k in counters)

    def test_key_covers_spec_trace_and_engine_version(self, tmp_path):
        store, events, _ = _store_trace(tmp_path)
        key = result_cache_key(SWEEP, events.store_key)
        assert key != result_cache_key(SWEEP, "other-trace")
        from dataclasses import replace
        for changed in (replace(SWEEP, sizes=(8, 16)),
                        replace(SWEEP, semantics="v2"),
                        replace(SWEEP, engine="grid"),
                        replace(SWEEP, cache="icache")):
            assert result_cache_key(changed, events.store_key) != key
        # The display label is NOT part of the identity.
        assert result_cache_key(replace(SWEEP, label="renamed"),
                                events.store_key) == key

    def test_corrupt_entry_is_a_clean_miss_and_rewritten(self, tmp_path):
        store, events, _ = _store_trace(tmp_path)
        cold = run_sweep(SWEEP, events)
        key = result_cache_key(SWEEP, events.store_key)
        path = store.result_cache().path_for(key)
        path.write_text("{nope")
        warm = run_sweep(SWEEP, events)  # miss -> replay -> re-put
        assert warm.counts == cold.counts
        assert json.loads(path.read_text())["surface"] == 1

    def test_unstamped_trace_bypasses_the_cache(self, tmp_path):
        store, events, _ = _store_trace(tmp_path)
        bare = events.copy()
        bare.store_key = bare.store_root = None
        run_sweep(SWEEP, bare)
        assert store.result_cache().stats()["entries"] == 0

    def test_env_var_disables_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", "0")
        store, events, _ = _store_trace(tmp_path)
        run_sweep(SWEEP, events)
        assert not ResultCache.enabled()
        assert store.result_cache().stats()["entries"] == 0

    def test_lru_eviction_honors_byte_budget(self, tmp_path):
        cache = ResultCache(tmp_path, budget_bytes=0)
        cache.put("a" * 24, {"surface": 1, "n": 1})
        assert cache.stats()["entries"] == 0  # evicted immediately
        roomy = ResultCache(tmp_path, budget_bytes=1 << 20)
        roomy.put("b" * 24, {"surface": 1, "n": 2})
        assert roomy.stats()["entries"] == 1

    def test_lru_evicts_least_recently_used_first(self, tmp_path):
        cache = ResultCache(tmp_path, budget_bytes=1 << 20)
        old, new = "c" * 24, "d" * 24
        cache.put(old, {"n": 1})
        cache.put(new, {"n": 2})
        past = os.stat(cache.path_for(new)).st_mtime - 1000
        os.utime(cache.path_for(old), (past, past))
        cache.budget_bytes = cache.stats()["bytes"] - 1
        assert cache.evict() == 1
        assert not cache.contains(old)
        assert cache.contains(new)

    def test_eviction_breaks_equal_mtimes_by_filename(self, tmp_path):
        # Coarse-granularity filesystems stamp whole batches of puts
        # with one timestamp; the tie must break by the entry's
        # filename (the content key), not by directory-scan order.
        cache = ResultCache(tmp_path, budget_bytes=1 << 20)
        keys = ["f" * 24, "a" * 24, "d" * 24]
        for key in keys:
            cache.put(key, {"n": key[0]})
        stamp = os.stat(cache.path_for(keys[0])).st_mtime_ns
        for key in keys:
            os.utime(cache.path_for(key), ns=(stamp, stamp))
        cache.budget_bytes = cache.stats()["bytes"] - 1
        assert cache.evict() == 1
        assert not cache.contains("a" * 24)   # first filename goes
        assert cache.contains("d" * 24)
        assert cache.contains("f" * 24)

    def test_eviction_lru_clock_is_nanosecond_precise(self, tmp_path):
        # 1ns apart within the same second: the ns clock must decide
        # (a float-seconds clock would fall through to the name
        # tie-break and evict the wrong entry here).
        cache = ResultCache(tmp_path, budget_bytes=1 << 20)
        older, newer = "z" * 24, "a" * 24
        cache.put(older, {"n": 1})
        cache.put(newer, {"n": 2})
        stamp = os.stat(cache.path_for(older)).st_mtime_ns
        os.utime(cache.path_for(older), ns=(stamp, stamp))
        os.utime(cache.path_for(newer), ns=(stamp + 1, stamp + 1))
        cache.budget_bytes = cache.stats()["bytes"] - 1
        assert cache.evict() == 1
        assert not cache.contains(older)
        assert cache.contains(newer)

    def test_get_refreshes_the_lru_clock(self, tmp_path):
        cache = ResultCache(tmp_path, budget_bytes=1 << 20)
        key = "e" * 24
        cache.put(key, {"n": 1})
        past = os.stat(cache.path_for(key)).st_mtime - 1000
        os.utime(cache.path_for(key), (past, past))
        cache.get(key)
        assert os.stat(cache.path_for(key)).st_mtime > past + 500


    def test_puts_below_budget_scan_the_directory_once(self, tmp_path,
                                                         monkeypatch):
        cache = ResultCache(tmp_path, budget_bytes=1 << 20)
        scans = []
        entries = cache._entries
        monkeypatch.setattr(cache, "_entries",
                            lambda: scans.append(1) or entries())
        for n in range(25):
            cache.put(f"{n:024d}", {"n": n})
        assert len(scans) <= 1
        assert cache.stats()["entries"] == 25

    def test_concurrent_puts_lose_no_bytes(self, tmp_path):
        # Server executor threads share one instance; a lost update to
        # the running total would let the directory outgrow the budget.
        cache = ResultCache(tmp_path, budget_bytes=1 << 30)
        cache.put("0" * 24, {"n": 0})            # seed the total
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(
                target=lambda t=t: [cache.put(f"{t}{n:023d}", {"n": n})
                                    for n in range(40)])
                for t in range(1, 7)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert cache._bytes == cache.stats()["bytes"]
        assert cache.stats()["entries"] == 1 + 6 * 40

    def test_put_crossing_the_budget_evicts_in_lru_order(self, tmp_path):
        cache = ResultCache(tmp_path, budget_bytes=1 << 20)
        keys = [c * 24 for c in "wxyz"]
        for n, key in enumerate(keys[:3]):
            cache.put(key, {"n": n})            # 8 bytes each
        stamp = os.stat(cache.path_for(keys[0])).st_mtime_ns - 10 ** 9
        for age, key in ((0, "x" * 24), (1, "w" * 24), (2, "y" * 24)):
            os.utime(cache.path_for(key), ns=(stamp + age, stamp + age))
        cache.budget_bytes = 24
        cache.put(keys[3], {"n": 3})            # 32 bytes: crosses
        assert cache.stats()["bytes"] <= cache.budget_bytes
        assert not cache.contains("x" * 24)      # oldest mtime goes
        assert all(cache.contains(key) for key in ("w" * 24, "y" * 24,
                                                   "z" * 24))

    def test_two_instances_on_one_root_stay_within_the_shared_bound(
            self, tmp_path):
        # Two instances stand in for two processes: neither sees the
        # other's puts until it rescans.  Between rescans the
        # directory may hold up to one budget per writer; every put
        # that rescans leaves it under one budget.
        budget = 40                             # five 8-byte entries
        writers = [ResultCache(tmp_path, budget_bytes=budget)
                   for _ in range(2)]
        for writer in writers:
            scans = []
            entries = writer._entries
            writer._entries = (lambda entries=entries, scans=scans:
                               scans.append(1) or entries())
            writer.scans = scans
        for n in range(40):
            writer = writers[n % 2]
            before = len(writer.scans)
            writer.put(f"{n:024d}", {"n": n % 10})
            on_disk = sum(path.stat().st_size for path
                          in (tmp_path / "results").rglob("*.json"))
            assert on_disk <= 2 * budget
            if len(writer.scans) > before:
                assert on_disk <= budget
            assert all(w._bytes <= budget for w in writers
                       if w._bytes is not None)
        assert all(len(writer.scans) > 1 for writer in writers)
        for writer in writers:
            writer.evict()
            assert writer.stats()["bytes"] <= budget


#: Flags the wire format accepts in any JSON spelling; ``1`` and
#: ``true`` build equal specs but must key apart, as they always have.
_FLAGS = ("double_pass", "dispatched_only", "full", "opt")

_WIRE_SPECS = st.fixed_dictionaries(
    {"cache": st.sampled_from(["itlb", "icache"])},
    optional={
        "sizes": st.lists(st.sampled_from([8, 16, 32, 64, 128, 4096]),
                          min_size=1, max_size=4, unique=True),
        "associativities": st.lists(st.sampled_from([1, 2, 4, "full"]),
                                    min_size=1, max_size=3, unique=True),
        "line_words": st.sampled_from([1, 2, 4]),
        "policy": st.sampled_from(["lru", "fifo", "random"]),
        "warmup_fraction": st.one_of(st.sampled_from([0, 0.25, 0.5]),
                                     st.floats(0.0, 0.99)),
        "semantics": st.sampled_from(["paper", "v2"]),
        "engine": st.sampled_from(["auto", "grid"]),
        "label": st.text(max_size=6),
        **{flag: st.sampled_from([True, False, 1, 0]) for flag in _FLAGS},
    })


def _asdict_key(spec, trace_key):
    """The result-cache key as it was first defined, via ``asdict``."""
    identity = asdict(spec)
    identity.pop("label", None)
    blob = json.dumps(
        {"trace": trace_key, "spec": identity,
         "engine_version": ENGINE_VERSION},
        sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


class TestResultCacheKey:
    TRACE_KEY = "939b675d70083f761461"  # the full-scale paper trace

    @settings(max_examples=300, deadline=None)
    @given(document=_WIRE_SPECS)
    def test_key_equals_the_asdict_reference(self, document):
        try:
            spec = query_from_request(document).spec
        except ValueError:
            return  # an invalid geometry has no key
        canonical = query_from_request(
            {key: bool(value) if key in _FLAGS else value
             for key, value in document.items()}).spec
        # Interleaved, so a memo keyed on spec equality would hand one
        # spelling the other's key.
        for each in (spec, canonical, spec):
            assert result_cache_key(each, self.TRACE_KEY) \
                == _asdict_key(each, self.TRACE_KEY)

    def test_non_canonical_spellings_key_apart(self):
        spelled = {"cache": "itlb", "double_pass": 1}
        one = query_from_request(spelled).spec
        true = query_from_request(dict(spelled, double_pass=True)).spec
        assert one == true
        assert result_cache_key(true, self.TRACE_KEY) \
            != result_cache_key(one, self.TRACE_KEY)

    def test_paper_grid_keys_are_pinned(self):
        # Computed by the asdict-based key: existing on-disk caches
        # must keep hitting.
        assert result_cache_key(
            SweepSpec(cache="itlb", double_pass=True, include_full=True),
            self.TRACE_KEY) == "5926dcefeb51412f4dba4e8c"
        assert result_cache_key(SweepSpec(cache="icache"),
                                self.TRACE_KEY) \
            == "7dcdec7028bb1fa259090849"


# -- fault sites ----------------------------------------------------------

class TestNewFaultSites:
    def test_result_cache_corruption_is_a_miss_under_chaos(
            self, tmp_path):
        store, events, _ = _store_trace(tmp_path)
        cold = run_sweep(SWEEP, events)
        plan = FaultPlan.parse("store.result_cache:corrupt:times=1",
                               seed=7)
        faults.install(plan)
        try:
            warm = run_sweep(SWEEP, events)
        finally:
            faults.install(None)
        assert warm.counts == cold.counts  # replayed, not misread

    def test_mmap_is_disabled_under_any_fault_plan(self, tmp_path):
        counter = {"runs": 0}
        spec = _spec(counter)
        TraceStore(tmp_path).load(spec)
        faults.install(FaultPlan.parse("worker.task:error:p=0.0",
                                       seed=1))
        try:
            events = TraceStore(tmp_path).load(spec)
        finally:
            faults.install(None)
        # Injection sequences must match the pre-mmap store exactly,
        # so chaos runs take the byte path.
        assert not isinstance(events, MappedTrace)


# -- CLI ------------------------------------------------------------------

class TestStoreCli:
    def test_stats_and_gc_and_migrate(self, tmp_path, capsys):
        counter = {"runs": 0}
        store = TraceStore(tmp_path)
        store.load(_spec(counter))
        assert cli_main(["store", "stats",
                         "--trace-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "payloads:     1 across 1 shard dir(s)" in out
        assert "result cache:" in out
        assert "flat" not in out and "manifest" not in out

        (tmp_path / "junk.tmp").write_text("x")
        assert cli_main(["store", "gc",
                         "--trace-dir", str(tmp_path)]) == 0
        assert "tmp files removed:       1" in capsys.readouterr().out

        # The flat-to-sharded migration is gone: argparse's usage
        # error, exit status 2.
        with pytest.raises(SystemExit) as exited:
            cli_main(["store", "migrate", "--trace-dir", str(tmp_path)])
        assert exited.value.code == 2
        assert "invalid choice: 'migrate'" in capsys.readouterr().err

    def test_verify_reports_mismatches_with_exit_zero(self, tmp_path,
                                                      capsys):
        counter = {"runs": 0}
        spec = _spec(counter)
        store = TraceStore(tmp_path)
        store.load(spec)
        sidecar = store.path_for(spec, spec.resolve()) \
            .with_suffix(".json")
        meta = json.loads(sidecar.read_text())
        meta["params"] = {"length": 1}
        sidecar.write_text(json.dumps(meta))
        assert cli_main(["store", "verify",
                         "--trace-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "corrupt:     0" in out
        assert "mismatched:  1" in out


# -- harness integration: run twice, replay zero ---------------------------

class TestRepeatedRunReplaysNothing:
    def test_second_quick_fig10_run_is_cache_served(self, tmp_path):
        from repro.experiments.harness import run_all
        from repro.telemetry import report as telemetry_report

        common = dict(stream=io.StringIO(), only=["FIG-10"],
                      quick=True, jobs=2,
                      trace_dir=str(tmp_path / "traces"),
                      with_telemetry=True)
        cold = run_all(run_dir=str(tmp_path / "r1"), **common)
        warm = run_all(run_dir=str(tmp_path / "r2"), **common)

        assert [c.holds for r in cold for c in r.claims] == \
            [c.holds for r in warm for c in r.claims]
        assert cold[0].table == warm[0].table  # byte-identical figure

        (run_dir,) = [child for child in (tmp_path / "r2").iterdir()
                      if (child / "telemetry").is_dir()]
        metrics = telemetry_report.load_run(run_dir)["metrics"]
        assert telemetry_report.counter_total(
            metrics, "sweep.replay") == 0
        assert telemetry_report.counter_total(
            metrics, "result_cache.hit") >= 1
        assert telemetry_report.counter_total(
            metrics, "harness.cache_served") == 1
