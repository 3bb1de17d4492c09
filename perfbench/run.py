"""The repository's benchmark: ``repro run``, the sweep planner and
``repro serve``, end to end and (with ``--trace 1``) layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of BENCHMARK.json, or with
``--trace 1`` the per-layer ones).  The line before it holds host
diagnostics: versions, calibration samples, raw times and the
simulated-statistics fingerprint.  Every time is host-normalized (see
calib.py).  README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import resource
import select
import shutil
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import calib  # noqa: E402
import checks  # noqa: E402
import loadgen  # noqa: E402
import spans  # noqa: E402
from client import ServeClient, nproc  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Fewest timed ops a reproduce run makes, however short --seconds is.
MIN_OPS = 3
#: Serve blocks per second of --seconds (about one block per 0.7 s on
#: the reference host).
SERVE_BLOCKS_PER_S = 1.4
#: Oracle cells checked per sweep-explore run (LRU, OPT).
ORACLE_CELLS = (6, 2)

#: Every trace-0 run reports these, whatever the workload (README.md).
END_TO_END = ("setup_s", "op_ms", "throughput_per_s", "peak_rss_mb")


class Run:
    """One benchmark run: arguments, scratch space, calibration,
    op accounting and the metrics to print."""

    def __init__(self, args) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.traced = args.trace == 1
        self.work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
        self.cal = calib.Calibrator()
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.diagnostics: Dict[str, object] = {}
        #: (start, end, factor) of every timed interval.
        self.intervals: List[Tuple[float, float, float]] = []
        #: Every child started; :func:`main` reaps any still running.
        self.children: List["Child"] = []
        self._dirs = 0

    def tempdir(self, prefix: str) -> Path:
        self._dirs += 1
        path = self.work / f"{prefix}{self._dirs}"
        path.mkdir(parents=True)
        return path

    def op(self, problems: List[str]) -> None:
        """Account one attempted op; any problem fails it, loudly."""
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"perfbench: FAILED: {problem}", file=sys.stderr)

    def timed(self, fn: Callable):
        """Run *fn* as one timed interval, bracketed by calibration;
        returns ``(result, raw seconds, factor)``.  The left bracket is
        the previous interval's right one unless :meth:`calib.
        Calibrator.mark` was called since."""
        start = time.perf_counter()
        result = fn()
        end = time.perf_counter()
        factor = self.cal.close()
        self.intervals.append((start, end, factor))
        return result, end - start, factor

    def setups(self, count: int, fn: Callable) -> list:
        """*count* set-ups, each timed; ``setup_s`` is their median."""
        results, times = [], []
        for _ in range(count):
            self.cal.mark()
            result, raw, factor = self.timed(fn)
            results.append(result)
            times.append(raw * factor)
        self.metric("setup_s", calib.median(times), "s")
        self.diagnostics["setup_s"] = times
        return results

    def report(self, estimates: Dict[str, Tuple[float, float]],
               **diagnostics) -> None:
        """``op_ms`` and ``throughput_per_s`` from the "normalized"
        ``(op seconds, throughput)`` of *estimates*; the "raw" pair goes
        to the diagnostics beside them."""
        op_s, throughput = estimates["normalized"]
        self.metric("op_ms", op_s * 1000.0, "ms")
        self.metric("throughput_per_s", throughput, "1/s")
        self.diagnostics["estimates"] = {
            name: {"op_ms": op * 1000.0, "throughput_per_s": rate}
            for name, (op, rate) in estimates.items()}
        self.diagnostics.update(diagnostics)

    def factor_at(self, moment: float) -> Optional[float]:
        for start, end, factor in self.intervals:
            if start <= moment <= end:
                return factor
        return None

    def layers_since(self, first: int, recorded, counts) -> Dict[str, float]:
        """Per-layer metrics from the spans that start in the timed
        intervals from index *first* on, each normalized by its own."""
        intervals = self.intervals[first:]
        inside = [span for span in recorded
                  if any(lo <= span[2] <= hi for lo, hi, _ in intervals)]
        layers = spans.layer_metrics(inside, counts, self.factor_at)
        layers.update(serve_zeros())
        return layers

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def env(self, journal: Path) -> dict:
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["REPRO_RUN_DIR"] = str(journal)
        return env


# -- children ----------------------------------------------------------------

class Child:
    """A ``repro`` process started through launcher.py."""

    def __init__(self, run: Run, argv: List[str], traced: bool,
                 stdout=None, cpu: Optional[int] = None) -> None:
        self.dir = run.tempdir("child")
        self.record = self.dir / "record.json"
        self.stdout_path = self.dir / "stdout.txt"
        self.stderr_path = self.dir / "stderr.txt"
        self.started = time.perf_counter()
        with open(self.stderr_path, "wb") as err:
            out = stdout if stdout is not None \
                else open(self.stdout_path, "wb")
            try:
                self.proc = subprocess.Popen(
                    [sys.executable, str(HERE / "launcher.py"),
                     str(self.record), "1" if traced else "0", "--", *argv],
                    cwd=ROOT, env=run.env(self.dir / "journal"),
                    stdout=out, stderr=err,
                    preexec_fn=None if cpu is None
                    else lambda: os.sched_setaffinity(0, {cpu}))
            finally:
                if stdout is None:
                    out.close()
        self.returncode: Optional[int] = None
        self.rss_mb = 0.0
        self.ended = self.started
        run.children.append(self)

    def wait(self, timeout: float = 170.0) -> int:
        """Reap the child; records its exit code, peak RSS and end."""
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.002)
        self.ended = time.perf_counter()
        self.returncode = self.proc.returncode = \
            os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        return self.returncode

    def stdout(self) -> str:
        return self.stdout_path.read_text(errors="replace")

    def stderr_tail(self) -> str:
        tail = self.stderr_path.read_text(errors="replace")[-2000:]
        return f"stderr of {' '.join(self.proc.args[4:])}: {tail}"

    def recorded(self) -> dict:
        try:
            document = json.loads(self.record.read_text())
        except (OSError, ValueError):
            return {"spans": [], "counts": {}, "fingerprint": {}}
        document["spans"] = [tuple(span) for span in document["spans"]]
        return document


def repro_run(run: Run, store: Path, traced: bool) -> Child:
    child = Child(run, ["run", "--jobs", "1", "--trace-dir", str(store)],
                  traced)
    child.wait()
    return child


# -- fingerprint -------------------------------------------------------------

def code_hash() -> str:
    """Hash of the program and of the benchmark that drives it."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_fingerprint(run: Run, fingerprint: dict) -> List[str]:
    """Compare with the last run of the same code and settings in this
    checkout; any difference in a simulated statistic is a failure."""
    run.diagnostics["fingerprint"] = fingerprint
    ledger = ROOT / ".perfbench_work" / "fingerprints.json"
    key = f"{code_hash()}:{run.workload}:{run.seconds}:{int(run.traced)}"
    try:
        known = json.loads(ledger.read_text())
    except (OSError, ValueError):
        known = {}
    previous = known.setdefault(key, fingerprint)
    ledger.write_text(json.dumps(known, sort_keys=True))
    if previous != fingerprint:
        changed = sorted(name for name in set(previous) | set(fingerprint)
                         if previous.get(name) != fingerprint.get(name))
        return [f"simulated-statistics fingerprint differs from an earlier "
                f"run of the same code: {changed}"]
    return []


# -- reproduce-cold / reproduce-warm -----------------------------------------

def reproduce(run: Run, warm: bool) -> None:
    """Closed loop of ``repro run --jobs 1`` children, one at a time."""

    def setup() -> Path:
        store = run.tempdir("store")
        if warm:
            child = repro_run(run, store, traced=False)
            problems = checks.check_claims(child.stdout(), child.returncode)
            if problems:
                raise SetupFailed(problems + [child.stderr_tail()])
        else:
            child = Child(run, ["--version"], traced=False)
            if child.wait() != 0:
                raise SetupFailed([f"repro --version exited with "
                                   f"{child.returncode}",
                                   child.stderr_tail()])
        return store

    store = run.setups(1 if run.traced else SETUPS, setup)[-1]
    ops: List[Tuple[Child, float, float, bool]] = []
    run.cal.mark()
    deadline = time.perf_counter() + run.seconds
    while len(ops) < MIN_OPS or time.perf_counter() < deadline:
        traced = run.traced and len(ops) % 2 == 1
        op_store = store if warm else run.tempdir("store")
        child, raw, factor = run.timed(
            lambda: repro_run(run, op_store, traced))
        ops.append((child, raw, factor, traced))

    fingerprints = []
    for child, _, _, _ in ops:
        problems = checks.check_claims(child.stdout(), child.returncode)
        if problems:
            problems.append(child.stderr_tail())
        record = child.recorded()
        fingerprints.append(record["fingerprint"])
        if record["fingerprint"] != fingerprints[0]:
            problems.append("fingerprint differs between ops of one run")
        run.op(problems)
    if fingerprints and run.failed == 0:
        run.op(check_fingerprint(run, fingerprints[0]))
        run.attempted -= 1  # the ledger check is not an op
    run.diagnostics["op_raw_s"] = [round(raw, 6) for _, raw, _, _ in ops]
    run.diagnostics["op_factor"] = [round(f, 6) for _, _, f, _ in ops]

    plain = [raw * factor for _, raw, factor, traced in ops if not traced]
    raws = [raw for _, raw, _, traced in ops if not traced]
    run.report({"normalized": (calib.median(plain),
                               1.0 / calib.median(plain)),
                "raw": (calib.median(raws), 1.0 / calib.median(raws))},
               ops=len(plain))
    run.metric("peak_rss_mb", calib.median(
        [child.rss_mb for child, _, _, traced in ops if not traced]), "MB")
    if not run.traced:
        return

    traced_ops = [(child, raw, factor) for child, raw, factor, traced in ops
                  if traced]
    per_op, attributed = [], []
    for child, raw, factor in traced_ops:
        record = child.recorded()
        per_op.append(spans.layer_metrics(record["spans"], record["counts"],
                                          lambda start: factor))
        top = [span for span in record["spans"] if span[4] is None]
        attributed.append(spans.covered(top, child.started, child.ended)
                          / (child.ended - child.started))
    layers = {key: calib.median([metrics[key] for metrics in per_op])
              for key in per_op[0]}
    layers.update(serve_zeros())
    layers["tracing.overhead_frac"] = calib.median(
        [raw * factor for _, raw, factor in traced_ops]) \
        / calib.median(plain) - 1.0
    layers["tracing.attributed_frac"] = calib.median(attributed)
    report_layers(run, layers)


class SetupFailed(Exception):
    """A set-up step failed its check; the run fails without timing."""


# -- sweep-explore -------------------------------------------------------------

def sweep_explore(run: Run) -> None:
    """In-process ``planner.run_batch`` over a seeded batch list, every
    query a cache miss."""
    from repro.sweep import planner
    from repro.trace.columnar import Trace
    from repro.workloads.store import TraceStore

    recorder = spans.install(traced=False)
    share = 2 if run.traced else 1
    cycles = max(1, round(run.seconds / share / loadgen.SWEEP_CYCLE_S))
    batches = loadgen.sweep_batches(run.seed, cycles)
    queries = [[planner.query_from_request(query)
                for query in batch["queries"]] for batch in batches]

    stores: List[TraceStore] = []

    def setup() -> TraceStore:
        for old in stores:
            old.close()
        store = TraceStore(run.tempdir("store"))
        for trace in loadgen.TRACES:
            store.load(trace)
        stores.append(store)
        return store

    store = run.setups(1 if run.traced else SETUPS, setup)[-1]
    results, times, problems = sweep_pass(run, store, batches, queries)
    fingerprint = {"planner.replays": sum(r.report.replays for r in results
                                          if r is not None),
                   "sweep.refs": recorder.fingerprint.get("sweep.refs", 0)}
    traces = {name: Trace.from_bytes(store.load(name).to_bytes())
              for name in loadgen.TRACES}
    if all(result is not None for result in results):
        for b, message in checks.check_sweep_cells(
                batches, queries, results, traces, run.seed, *ORACLE_CELLS):
            problems[b].append(message)
    for batch_problems in problems:
        run.op(batch_problems)
    if run.failed == 0:
        run.op(check_fingerprint(run, fingerprint))
        run.attempted -= 1
    answered = sum(len(q) for q in queries)
    run.report(sweep_estimates(times, answered), batches=len(times),
               batch_s=[(round(raw, 6), round(factor, 6))
                        for raw, factor in times])
    run.metric("peak_rss_mb", resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    if not run.traced:
        return

    # The traced half: the same batches on a fresh store, after one
    # traced set-up (so trace generation shows as fith/store time).
    spans.install_timers(recorder)
    recorder.traced = True
    counts_before = dict(recorder.counts)
    first = len(run.intervals)
    run.cal.mark()
    traced_store, _, _ = run.timed(setup)
    _, traced_times, traced_problems = sweep_pass(run, traced_store,
                                                  batches, queries)
    for batch_problems in traced_problems:
        run.op(batch_problems)
    recorder.traced = False
    counts = {key: value - counts_before.get(key, 0)
              for key, value in recorder.counts.items()}
    layers = run.layers_since(first, recorder.spans, counts)
    layers["tracing.overhead_frac"] = \
        sweep_estimates(times, answered)["normalized"][1] \
        / sweep_estimates(traced_times, answered)["normalized"][1] - 1.0
    top = [span for span in recorder.spans if span[4] is None]
    layers["tracing.attributed_frac"] = calib.median(
        [spans.covered(top, lo, hi) / (hi - lo) for lo, hi, _
         in run.intervals[first + 1:]])
    report_layers(run, layers)


def sweep_pass(run: Run, store, batches, queries):
    """Every batch once, each its own timed interval, on a fresh
    in-memory tier; returns the results, ``(raw, factor)`` per batch
    and the problems."""
    from repro.sweep import planner

    cache = planner.SurfaceCache()
    results, times = [], []
    problems: List[List[str]] = [[] for _ in batches]
    run.cal.mark()
    for b, (batch, parsed) in enumerate(zip(batches, queries)):
        def one():
            try:
                return planner.run_batch(parsed,
                                         store.load(batch["workload"]),
                                         surface_cache=cache)
            except Exception:
                problems[b].append(traceback.format_exc())
                return None
        result, raw, factor = run.timed(one)
        results.append(result)
        times.append((raw, factor))
        if result is not None:
            hits = (result.report.memory_hits + result.report.disk_hits
                    + result.report.superset_hits)
            if hits:
                problems[b].append(f"batch {b}: {hits} cache hit(s); "
                                   f"every query must replay")
    return results, times, problems


def sweep_estimates(times, answered: int):
    """op_ms is the median batch time, throughput the queries over the
    sum of batch times; normalized or raw."""
    estimates = {}
    for name, value in (("normalized", lambda raw, factor: raw * factor),
                        ("raw", lambda raw, factor: raw)):
        per_batch = [value(*time_) for time_ in times]
        estimates[name] = (calib.median(per_batch),
                           answered / sum(per_batch))
    return estimates


# -- serve-mixed ----------------------------------------------------------------

class Server:
    """``repro serve`` on a fresh store, with its popular set cached."""

    def __init__(self, run: Run, traced: bool) -> None:
        self.store = run.tempdir("store")
        self.child = Child(run, ["serve", "--port", "0", "--trace-dir",
                                 str(self.store)], traced,
                           stdout=subprocess.PIPE, cpu=run.cal.cpu)
        self.client = None
        try:
            port = self._port()
            self.client = ServeClient(port, min(2, nproc()))
            for trace, queries in loadgen.popular_set(run.seed).items():
                reply = self.client.send({"id": f"warm-{trace}",
                                          "workload": trace,
                                          "queries": queries})
                if not reply.get("ok") or not all(
                        result.get("ok") for result in reply["results"]):
                    raise SetupFailed([f"warm-up of {trace} failed: "
                                       f"{checks.canonical(reply)[:500]}"])
        except BaseException:
            self.stop()
            raise

    def _port(self) -> int:
        stream = self.child.proc.stdout
        ready, _, _ = select.select([stream], [], [], 120)
        line = stream.readline().decode() if ready else ""
        if not line.startswith("serving on "):
            raise SetupFailed([f"repro serve did not start: {line!r}",
                               self.child.stderr_tail()])
        return int(line.split()[2].rsplit(":", 1)[1])

    def stop(self) -> dict:
        """SIGINT, reap, and parse the server's own request counts."""
        try:
            if self.client is not None:
                self.client.close()
        finally:
            self.client = None
            if self.child.returncode is None:
                self.child.proc.send_signal(signal.SIGINT)
                self.child.wait(60)
        tail = self.child.proc.stdout.read().decode(errors="replace")
        self.child.proc.stdout.close()
        summary = {"requests": 0, "rejected": 0, "errors": 0}
        for line in tail.splitlines():
            if line.startswith("served "):
                words = line.replace(",", "").split()
                summary = {"requests": int(words[1]),
                           "rejected": int(words[3]),
                           "errors": int(words[5])}
        return summary


def serve_phase(run: Run, server: Server, seconds: float):
    """A fixed number of request blocks for *seconds* (the server slows
    as its caches fill, so every run must do the same work), each
    block one timed interval; returns ``[(start, end, factor,
    exchanges)]`` per block and whether a connection was dropped."""
    blocks = loadgen.serve_blocks(run.seed)
    done = []
    run.cal.mark()
    for _ in range(max(2, round(seconds * SERVE_BLOCKS_PER_S))):
        requests = next(blocks)
        try:
            exchanges, _, factor = run.timed(
                lambda: server.client.run(requests))
        except (ConnectionError, OSError) as error:
            run.op([f"connection dropped: {error}"])
            return done, True
        start, end, _ = run.intervals[-1]
        done.append((start, end, factor, exchanges))
    return done, False


def serve_estimates(blocks) -> Dict[str, Tuple[float, float]]:
    """p50 of every latency and requests per second over all blocks,
    normalized or raw."""
    estimates = {}
    for name, scaled in (("normalized", True), ("raw", False)):
        latencies = [latency * (factor if scaled else 1.0)
                     for _, _, factor, exchanges in blocks
                     for _, _, latency in exchanges]
        busy = sum((end - start) * (factor if scaled else 1.0)
                   for start, end, factor, _ in blocks)
        estimates[name] = (percentile(latencies, 50)[0],
                           len(latencies) / busy)
    return estimates


def serve_mixed(run: Run) -> None:
    """``repro serve`` driven by 2 closed-loop JSON-lines connections."""
    from repro.trace.columnar import Trace
    from repro.workloads.store import TraceStore

    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) > 1:
        # The server gets one CPU, the client another, and the brackets
        # time the server's.
        run.cal.cpu = cpus[0]
        os.sched_setaffinity(0, {cpus[1]})
    servers: List[Server] = []

    def setup() -> Server:
        for old in servers:
            old.stop()
        servers[:] = [Server(run, traced=False)]
        return servers[0]

    server = run.setups(1 if run.traced else SETUPS, setup)[-1]
    phase = run.seconds / 2 if run.traced else run.seconds
    try:
        blocks, dropped = serve_phase(run, server, phase)
    finally:
        summary = server.stop()
    exchanges = [item for block in blocks for item in block[3]]
    judge_serve(run, exchanges, summary)
    answers, problems = checks.collect_answers(exchanges)
    if not dropped and not problems:
        store = TraceStore(server.store)
        traces = {name: Trace.from_bytes(store.load(name).to_bytes())
                  for name in {workload for workload, _ in answers}}
        store.close()
        problems += checks.check_serve_answers(answers, traces)
    if problems:
        run.op(problems)
        run.attempted -= 1  # charged to the run, not an extra request
    latencies = [latency * factor for *_, factor, done in blocks
                 for _, _, latency in done]
    estimates = serve_estimates(blocks)
    run.report(estimates, blocks=len(blocks), requests=len(latencies),
               req_p99_ms=tail_percentile(latencies)[0] * 1000.0,
               block_raw=[(round(end - start, 6),
                           percentile([x[2] for x in done], 50)[0])
                          for start, end, _, done in blocks],
               block_factor=[round(block[2], 6) for block in blocks],
               server_summary=summary)
    run.metric("peak_rss_mb", server.child.rss_mb, "MB")
    if not run.traced:
        return

    first = len(run.intervals)
    run.cal.mark()
    traced_server, _, _ = run.timed(lambda: Server(run, traced=True))
    try:
        traced_blocks, _ = serve_phase(run, traced_server, phase)
    finally:
        traced_summary = traced_server.stop()
    traced_exchanges = [item for block in traced_blocks
                        for item in block[3]]
    judge_serve(run, traced_exchanges, traced_summary)
    record = traced_server.child.recorded()
    layers = run.layers_since(first, record["spans"], record["counts"])
    batch_s: Dict[object, float] = {}
    answer_s: Dict[object, float] = {}
    for span in record["spans"]:
        if span[1] == "planner.batch":
            batch_s[span[5]] = batch_s.get(span[5], 0.0) + span[3] - span[2]
        elif span[1] == "serve.answer":
            answer_s[span[5]] = span[3] - span[2]
    overheads, attributed = [], []
    for *_, factor, done in traced_blocks:
        for request, reply, latency in done:
            overheads.append((latency - batch_s.get(request["id"], 0.0))
                             * factor)
            attributed.append(answer_s.get(request["id"], 0.0) / latency)
    replaying = sum(1 for _, reply, _ in traced_exchanges
                    if reply.get("stats", {}).get("replays"))
    layers["serve.overhead_p50_ms"] = percentile(overheads, 50)[0] * 1000.0
    layers["serve.overhead_p99_ms"] = tail_percentile(overheads)[0] * 1000.0
    layers["serve.replay_requests"] = replaying
    layers["serve.inline_requests"] = len(traced_exchanges) - replaying
    layers["serve.rejected"] = traced_summary["rejected"]
    layers["serve.errors"] = traced_summary["errors"]
    layers["tracing.overhead_frac"] = estimates["normalized"][1] \
        / serve_estimates(traced_blocks)["normalized"][1] - 1.0
    layers["tracing.attributed_frac"] = calib.median(attributed)
    report_layers(run, layers)


def judge_serve(run: Run, exchanges, summary: dict) -> None:
    """One op per request: ``ok:false``, an overload reply or a failed
    query fails it.  Novel requests must replay exactly once, popular
    ones never."""
    replays = novel = 0
    for request, reply, _ in exchanges:
        problems = []
        if not reply.get("ok") or reply.get("id") != request["id"]:
            problems.append(f"{request['id']}: {checks.canonical(reply)[:300]}")
        elif not all(result.get("ok") for result in reply["results"]):
            problems.append(f"{request['id']}: a query failed")
        else:
            replays += reply["stats"]["replays"]
            novel += any(map(loadgen.is_novel, request["queries"]))
        run.op(problems)
    run.diagnostics["fingerprint"] = {"planner.replays": replays,
                                      "novel_requests": novel}
    if replays != novel:
        run.op([f"{replays} replays for {novel} novel requests"])
        run.attempted -= 1
    if summary["rejected"] or summary["errors"]:
        run.op([f"server reported {summary}"])
        run.attempted -= 1


def percentile(values: List[float], level: float) -> Tuple[float, float]:
    """Nearest-rank percentile."""
    if not values:
        return 0.0, level
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * level // 100))
    return ordered[int(rank) - 1], level


def tail_percentile(values: List[float]) -> Tuple[float, float]:
    """p99, or the highest percentile with at least ten samples beyond
    it when there are fewer than 1000."""
    if not values:
        return 0.0, 99.0
    level = min(99.0, max(50.0, 100.0 * (1.0 - 10.0 / len(values))))
    return percentile(values, level)


# -- output ----------------------------------------------------------------------

def _layer(names: str, unit: str, better: str):
    return [(name, unit, better) for name in names.split()]


#: Every per-layer metric a traced run prints, with unit and direction
#: (BENCHMARK.json lists the same).  A layer a workload never enters
#: reads 0.
PER_LAYER = (
    _layer(" ".join(f"experiments.{exp_id}_s"
                    for exp_id in spans.EXPERIMENT_IDS), "s", "lower")
    + _layer("experiments.cache_served", "count", "higher")
    + _layer("fith.run_s", "s", "lower")
    + _layer("fith.events", "count", "lower")
    + _layer("fith.events_per_s", "1/s", "higher")
    + _layer("smalltalk.compile_s smalltalk.stackvm_s core.run_s", "s",
             "lower")
    + _layer("core.instructions core.sim_cycles caches.probes", "count",
             "lower")
    + _layer("core.instructions_per_s", "1/s", "higher")
    + _layer("caches.probe_s", "s", "lower")
    + _layer("caches.itlb_hit_ratio caches.icache_hit_ratio", "ratio",
             "higher")
    + _layer("trace.encode_s trace.open_s", "s", "lower")
    + _layer("trace.bytes", "bytes", "lower")
    + _layer("store.load_s store.generate_s result_cache.get_s "
             "result_cache.put_s", "s", "lower")
    + _layer("store.hits result_cache.hits", "count", "higher")
    + _layer("store.misses result_cache.misses", "count", "lower")
    + _layer("sweep.run_sweep_s sweep.lru_replay_s sweep.next_use_s "
             "sweep.opt_self_s", "s", "lower")
    + _layer("sweep.replays sweep.refs", "count", "lower")
    + _layer("sweep.lru_refs_per_s", "1/s", "higher")
    + _layer("planner.batch_s", "s", "lower")
    + _layer("planner.queries planner.memory_hits planner.disk_hits "
             "planner.superset_hits planner.singleflight_shared", "count",
             "higher")
    + _layer("planner.replays planner.fallbacks", "count", "lower")
    + _layer("planner.queries_per_replay", "ratio", "higher")
    + _layer("serve.overhead_p50_ms serve.overhead_p99_ms", "ms", "lower")
    + _layer("serve.replay_requests serve.rejected serve.errors", "count",
             "lower")
    + _layer("serve.inline_requests", "count", "higher")
    + _layer("tracing.overhead_frac", "ratio", "lower")
    + _layer("tracing.attributed_frac", "ratio", "higher")
)


def serve_zeros() -> Dict[str, float]:
    return {key: 0.0 for key in (
        "serve.overhead_p50_ms", "serve.overhead_p99_ms",
        "serve.replay_requests", "serve.inline_requests", "serve.rejected",
        "serve.errors")}


def report_layers(run: Run, layers: Dict[str, float]) -> None:
    for name, unit, _ in PER_LAYER:
        run.metric(name, layers[name], unit)


WORKLOADS = {
    "reproduce-cold": lambda run: reproduce(run, warm=False),
    "reproduce-warm": lambda run: reproduce(run, warm=True),
    "sweep-explore": sweep_explore,
    "serve-mixed": serve_mixed,
}
#: Workloads whose program runs on one CPU at a time.  They pin the
#: benchmark process, and so its children, to one CPU, so that the
#: calibration brackets time the CPU the program runs on.  serve-mixed
#: pins its server and its client to one CPU each instead.
PINNED = ("reproduce-cold", "reproduce-warm", "sweep-explore")


def host_diagnostics() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": nproc(), "python": platform.python_version(),
            "numpy": numpy_version, "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is "
              f"missing (run from the root of a checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    # The build: byte-compile once, outside every timed interval.
    compileall.compile_dir(str(SRC), quiet=1)

    if args.workload in PINNED:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # SIGTERM unwinds like ^C, so every child is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run(args)
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        WORKLOADS[args.workload](run)
    except SetupFailed as error:
        run.op([str(problem) for problem in error.args[0]])
    finally:
        for child in run.children:
            if child.returncode is None:
                child.proc.kill()
                child.wait()
        shutil.rmtree(run.work, ignore_errors=True)
    run.diagnostics["intervals"] = [(round(end - start, 6), round(factor, 6))
                                    for start, end, factor in run.intervals]
    diagnostics = dict(host_diagnostics(), workload=run.workload,
                       seed=run.seed, seconds=run.seconds,
                       traced=run.traced, calibration=run.cal.diagnostics(),
                       **run.diagnostics)
    print("perfbench-diagnostics " + json.dumps(diagnostics, sort_keys=True))
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in run.metrics.items()}
    if run.traced:
        for name in END_TO_END:
            metrics.pop(name, None)
    print(json.dumps({"correct": run.failed == 0 and run.attempted > 0,
                      "attempted": max(1, run.attempted),
                      "failed": run.failed if run.attempted else 1,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
