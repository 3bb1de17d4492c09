"""Telemetry core: spans, metrics, shard merging, report, CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import cli, telemetry
from repro.telemetry import report as telemetry_report


@pytest.fixture(autouse=True)
def _clean_telemetry_state(monkeypatch):
    monkeypatch.delenv(telemetry.ENV_DIR, raising=False)
    monkeypatch.setattr(telemetry, "_RECORDER", None)
    monkeypatch.setattr(telemetry, "_SOURCE", None)
    yield
    telemetry.install(None)


def _read_spans(directory):
    records = []
    for path in sorted(Path(directory).glob("spans*.jsonl")):
        for line in path.read_text().splitlines():
            records.append(json.loads(line))
    return records


class TestDisabledFastPath:
    def test_disabled_span_is_the_shared_noop_singleton(self):
        assert not telemetry.enabled()
        first = telemetry.span("a", x=1)
        second = telemetry.span("b")
        assert first is second  # no allocation on the disabled path

    def test_disabled_calls_create_no_files_and_no_recorder(
            self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with telemetry.span("work", detail=1):
            telemetry.inc("counter", 3, label="x")
            telemetry.gauge("gauge", 1.5)
            telemetry.observe("hist", 2.0)
            telemetry.event("marker")
        telemetry.flush()
        assert telemetry._RECORDER is None
        assert telemetry.active_directory() is None
        assert list(tmp_path.iterdir()) == []

    def test_noop_span_does_not_swallow_exceptions(self):
        with pytest.raises(ValueError):
            with telemetry.span("work"):
                raise ValueError("boom")


class TestSpans:
    def test_nested_spans_record_parent_linkage(self, tmp_path):
        telemetry.install(tmp_path)
        with telemetry.span("outer", kind="test") as outer:
            with telemetry.span("inner"):
                pass
        records = _read_spans(tmp_path)
        assert [r["name"] for r in records] == ["inner", "outer"]
        inner, outer_rec = records
        assert inner["parent"] == outer.id
        assert outer_rec["parent"] is None
        assert outer_rec["status"] == "ok"
        assert outer_rec["attrs"] == {"kind": "test"}
        assert inner["dur"] <= outer_rec["dur"]
        assert all(r["pid"] == os.getpid() for r in records)

    def test_exception_stamps_error_status_and_propagates(
            self, tmp_path):
        telemetry.install(tmp_path)
        with pytest.raises(KeyError):
            with telemetry.span("work"):
                raise KeyError("gone")
        (record,) = _read_spans(tmp_path)
        assert record["status"] == "error:KeyError"

    def test_set_attaches_mid_span_attributes(self, tmp_path):
        telemetry.install(tmp_path)
        with telemetry.span("work") as sp:
            sp.set(outcome="hit", events=7)
        (record,) = _read_spans(tmp_path)
        assert record["attrs"] == {"outcome": "hit", "events": 7}

    def test_events_are_point_markers(self, tmp_path):
        telemetry.install(tmp_path)
        telemetry.event("fault.fired", site="worker.task")
        (record,) = _read_spans(tmp_path)
        assert record["kind"] == "event"
        assert record["attrs"] == {"site": "worker.task"}


class TestMetrics:
    def test_counters_gauges_histograms_flush_to_shard(self, tmp_path):
        telemetry.install(tmp_path)
        telemetry.inc("hits")
        telemetry.inc("hits", 2)
        telemetry.inc("hits", 1, engine="numpy")
        telemetry.gauge("wall", 1.5)
        telemetry.observe("rate", 10.0, cache="itlb")
        telemetry.observe("rate", 30.0, cache="itlb")
        telemetry.flush()
        (shard,) = tmp_path.glob("metrics-*.json")
        data = json.loads(shard.read_text())
        assert data["counters"] == {"hits": 3, "hits{engine=numpy}": 1}
        assert data["gauges"] == {"wall": 1.5}
        assert data["histograms"]["rate{cache=itlb}"] == {
            "count": 2, "sum": 40.0, "min": 10.0, "max": 30.0}

    def test_metric_key_roundtrip(self):
        assert telemetry.split_metric_key("a.b") == ("a.b", {})
        assert telemetry.split_metric_key(
            "a{cache=itlb,engine=numpy}") == (
                "a", {"cache": "itlb", "engine": "numpy"})

    def test_merge_metrics_sums_counters_and_combines_histograms(self):
        target = {"counters": {"a": 1}, "gauges": {"g": 1},
                  "histograms": {"h": {"count": 1, "sum": 5.0,
                                       "min": 5.0, "max": 5.0}}}
        shard = {"counters": {"a": 2, "b": 4}, "gauges": {"g": 9},
                 "histograms": {"h": {"count": 2, "sum": 3.0,
                                      "min": 1.0, "max": 2.0}}}
        merged = telemetry.merge_metrics(target, shard)
        assert merged["counters"] == {"a": 3, "b": 4}
        assert merged["gauges"] == {"g": 9}
        assert merged["histograms"]["h"] == {
            "count": 3, "sum": 8.0, "min": 1.0, "max": 5.0}


class TestMergeAndFinalize:
    def test_finalize_merges_shards_and_deletes_them(self, tmp_path):
        telemetry.install(tmp_path)
        with telemetry.span("work"):
            telemetry.inc("n")
        merged = telemetry.finalize()
        assert merged["counters"] == {"n": 1}
        assert (tmp_path / telemetry.SPANS_FILE).exists()
        assert (tmp_path / telemetry.METRICS_FILE).exists()
        assert (tmp_path / telemetry.ENVIRONMENT_FILE).exists()
        assert not list(tmp_path.glob("spans-*.jsonl"))
        assert not list(tmp_path.glob("metrics-*.json"))

    def test_finalize_is_idempotent_by_span_id(self, tmp_path):
        telemetry.install(tmp_path)
        with telemetry.span("work"):
            pass
        telemetry.finalize()
        first = (tmp_path / telemetry.SPANS_FILE).read_text()
        # A second finalize (e.g. a resume re-merging a canonical
        # file alongside a stale shard copy) must not duplicate.
        shard = tmp_path / "spans-999-deadbeef.jsonl"
        shard.write_text(first)
        telemetry.finalize()
        assert (tmp_path / telemetry.SPANS_FILE).read_text() == first

    def test_spans_after_finalize_open_a_fresh_shard(self, tmp_path):
        telemetry.install(tmp_path)
        with telemetry.span("first"):
            pass
        telemetry.finalize()
        with telemetry.span("second"):
            pass
        assert list(tmp_path.glob("spans-*.jsonl"))
        merged = [json.loads(line) for line in
                  (tmp_path / telemetry.SPANS_FILE)
                  .read_text().splitlines()]
        assert [r["name"] for r in merged] == ["first"]

    def test_environment_block_records_numpy_presence(self):
        block = telemetry.environment_block()
        assert "numpy" in block
        assert block["python"]
        import numpy
        assert block["numpy"] == numpy.__version__


class TestProcessHandoff:
    def test_child_process_arms_from_environment(self, tmp_path):
        telemetry.install(tmp_path)
        src = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(src) + os.pathsep
                             + env.get("PYTHONPATH", ""))
        code = ("from repro import telemetry\n"
                "assert telemetry.enabled()\n"
                "with telemetry.span('child.work'):\n"
                "    telemetry.inc('child.counter')\n"
                "telemetry.flush()\n")
        subprocess.run([sys.executable, "-c", code], env=env,
                       check=True)
        merged = telemetry.finalize()
        assert merged["counters"]["child.counter"] == 1
        names = [json.loads(line)["name"] for line in
                 (tmp_path / telemetry.SPANS_FILE)
                 .read_text().splitlines()]
        assert "child.work" in names

    def test_recorder_rebuilds_after_simulated_fork(self, tmp_path):
        telemetry.install(tmp_path)
        with telemetry.span("parent.work"):
            pass
        parent = telemetry._current()
        # A forked child inherits the module state but has a new pid:
        # the lazy lookup must hand it a fresh recorder (new shard,
        # non-colliding span ids), never the parent's.
        parent.pid = os.getpid() + 1
        child = telemetry._current()
        assert child is not parent
        assert child.pid == os.getpid()


class TestReport:
    def _run(self, run_root):
        run_dir = run_root / "abc123"
        telemetry.install(run_dir / "telemetry")
        with telemetry.span("harness.run", jobs=1):
            with telemetry.span("harness.task", task="FIG-10",
                                mode="serial"):
                telemetry.inc("harness.tasks")
                with telemetry.span("sweep.run", cache="itlb"):
                    pass
        telemetry.inc("store.hit", 3)
        telemetry.inc("store.miss", 1)
        telemetry.event("store.quarantine", file="x.trace", reason="crc")
        telemetry.finalize()
        telemetry.install(None)
        return run_dir

    def test_build_report_tree_reconciles_with_wall(self, tmp_path):
        run_dir = self._run(tmp_path)
        data = telemetry_report.load_run(run_dir)
        report = telemetry_report.build_report(data)
        assert report["run"] == "abc123"
        assert report["wall_seconds"] > 0
        paths = {p["path"]: p for p in report["phases"]}
        assert paths["harness.run"]["fraction_of_wall"] == 1.0
        assert ("harness.run/harness.task/sweep.run" in paths)
        # Self time never exceeds total, children nest under parent.
        for phase in report["phases"]:
            assert phase["self_seconds"] <= phase["total_seconds"] + 1e-9
        assert report["task_spans"] == 1
        assert report["task_counter"] == 1
        assert report["store"]["hit_rate"] == 0.75
        assert report["store"]["quarantined"] == 1
        (slowest,) = report["slowest_tasks"]
        assert slowest["task"] == "FIG-10"
        text = telemetry_report.render(report)
        assert "phase-time breakdown" in text
        assert "MISMATCH" not in text

    def test_load_run_reads_unmerged_shards_nondestructively(
            self, tmp_path):
        run_dir = tmp_path / "xyz"
        telemetry.install(run_dir / "telemetry")
        with telemetry.span("harness.run"):
            pass
        telemetry.flush()
        # No finalize: the run "crashed".  Reporting still works and
        # leaves the shards in place.
        data = telemetry_report.load_run(run_dir)
        assert [s["name"] for s in data["spans"]] == ["harness.run"]
        assert list((run_dir / "telemetry").glob("spans-*.jsonl"))

    def test_find_run_directory_prefers_newest_and_honors_prefix(
            self, tmp_path):
        old = tmp_path / "aaa111" / "telemetry"
        new = tmp_path / "bbb222" / "telemetry"
        old.mkdir(parents=True)
        new.mkdir(parents=True)
        os.utime(old, (1, 1))
        assert telemetry_report.find_run_directory(
            tmp_path).name == "bbb222"
        assert telemetry_report.find_run_directory(
            tmp_path, run="aaa").name == "aaa111"
        with pytest.raises(FileNotFoundError):
            telemetry_report.find_run_directory(tmp_path, run="zzz")


class TestCli:
    def test_version_flag_prints_versioned_surfaces(self, capsys):
        assert cli.main(["--version"]) == 0
        out = capsys.readouterr().out
        assert f"repro {repro.__version__}" in out
        assert "trace format:" in out
        assert "semantics:" in out
        assert "engines:" in out

    def test_list_versions_matches_version_flag(self, capsys):
        assert cli.main(["--version"]) == 0
        version_out = capsys.readouterr().out
        assert cli.main(["list", "--versions"]) == 0
        assert capsys.readouterr().out == version_out

    def test_report_without_telemetry_runs_errors_cleanly(
            self, tmp_path, capsys):
        code = cli.main(["report", "--run-dir", str(tmp_path)])
        assert code == 2
        assert "repro run --telemetry" in capsys.readouterr().err

    def test_report_renders_text_and_json(self, tmp_path, capsys):
        run_dir = tmp_path / "feed01"
        telemetry.install(run_dir / "telemetry")
        with telemetry.span("harness.run"):
            telemetry.inc("harness.tasks")
        telemetry.finalize()
        telemetry.install(None)
        assert cli.main(["report", "--run-dir", str(tmp_path)]) == 0
        assert "phase-time breakdown" in capsys.readouterr().out
        assert cli.main(["report", "--run-dir", str(tmp_path),
                         "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["run"] == "feed01"
        assert document["span_count"] == 1
