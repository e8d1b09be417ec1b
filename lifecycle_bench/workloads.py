"""The three closed-loop workloads: set-up, output oracle, timed loop.

Each workload object is driven the same way by ``run.py``::

    workload.setup()            # timed as setup_s (several times per run)
    workload.oracle()           # before timing: outputs against a reference
    workload.run(seconds=...)   # closed loop for a duration ...
    workload.run(ops=...)       # ... or for a fixed amount of work (traced pass)
    workload.verify()           # outputs of the loop that differ from the oracle's
    workload.teardown()

A timed loop runs past its deadline until it holds the samples its
figures need (a p99 needs 1000 latencies, see :mod:`stats`), so a slower
commit gives a longer run, never a refusal to report.

Only HTML strings and canonical paths from :mod:`inputs` reach the
program; the measured code re-parses pages and re-locates targets.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro import RemoteWrapperClient, Sample, WrapperClient, mark_volatile, parse_html
from repro.api.results import FacadeError, extraction_wrappers, result_from_records
from repro.dom.node import AttributeNode
from repro.runtime.artifact import resolve_path
from repro.runtime.extractor import ExtractionRecord
from repro.xpath.canonical import canonical_path
from repro.xpath.evaluator import evaluate as reference_evaluate
from repro.xpath.parser import parse_query

import inputs as gen
from stats import (
    median,
    min_samples,
    percentile,
    windowed_median,
    windowed_percentile,
    windowed_rate,
)

BENCH_DIR = pathlib.Path(__file__).resolve().parent
#: Seconds to wait for a spawned server to report its address.
SERVER_READY_TIMEOUT_S = 60.0
SERVER_STOP_TIMEOUT_S = 20.0


@dataclass
class LoopResult:
    """What one closed loop produced."""

    ops: int
    wall_s: float
    #: Journey-specific end-to-end figures: name → (value, unit, samples).
    journey: dict = field(default_factory=dict)
    #: Thread idents of the calling threads and the loop's time window.
    threads: set = field(default_factory=set)
    window: tuple = (0.0, 0.0)


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """VmHWM of a process (this one by default), in MB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def reset_peak_rss() -> None:
    """Restart this process's VmHWM at its current RSS (Linux >= 4.0),
    so the peak covers only what runs next, not set-up or the oracle."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def _annotated_sample(html: str, paths) -> Sample:
    """Parse a page, re-locate its targets and mark their text volatile,
    as the quickstart does."""
    doc = parse_html(html)
    targets = [resolve_path(doc, path) for path in paths]
    mark_volatile(*targets)
    return Sample(doc, targets)


def deploy(client: WrapperClient, annotations) -> None:
    for annotation in annotations:
        client.induce(
            annotation.key,
            [_annotated_sample(annotation.html, annotation.paths)],
            options=dict(annotation.options) or None,
        )


def reference_payload(client: WrapperClient, key: str, html: str) -> dict:
    """The extraction payload rebuilt from the reference evaluator's
    node sets (``repro.xpath.evaluator``) on the same page."""
    artifact = client.artifact(key)
    doc = parse_html(html)
    records = []
    for wrapper_id, text in extraction_wrappers(artifact):
        nodes = reference_evaluate(parse_query(text), doc.root, doc)
        paths = tuple(str(canonical_path(node)) for node in nodes)
        values = tuple(
            node.value if isinstance(node, AttributeNode) else doc.normalized_text(node)
            for node in nodes
        )
        records.append(ExtractionRecord("", wrapper_id, paths, values))
    return result_from_records(artifact, records, client.drift).to_payload()


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _default_sigint() -> None:
    """Run in a spawned server before it starts: a process started in
    the background inherits SIGINT ignored, and then neither stops on
    ``stop_server``'s SIGINT nor, traced, writes its spans."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _stop(deadline: Optional[float], done: int, ops: Optional[int], unit: int,
          least: int = 0) -> bool:
    """Whether a loop is done: after ``ops`` operations on a fixed-work
    pass; on a timed one, at the first end of a pass of ``unit``
    operations that is past the deadline with at least ``least`` done."""
    if ops is not None:
        return done >= ops
    return done % unit == 0 and done >= least and time.perf_counter() >= deadline


class ExtractFresh:
    """In process, one caller: a crawl stream of pages, each served to
    all of its site's wrappers in one ``extract_many`` call."""

    name = "extract-fresh"
    #: Archive length per family site: 30 stream pages per site.
    SNAPSHOTS = 32
    LISTING_PAGES = 64

    def __init__(self, seed: int, workdir: pathlib.Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        self.inputs = gen.extraction_inputs(self.seed, self.SNAPSHOTS, self.LISTING_PAGES)
        self.client = WrapperClient()
        deploy(self.client, self.inputs.annotations)
        self.items = [[(key, page.html) for key in page.keys] for page in self.inputs.pages]
        for page in self.inputs.warmup:
            self.client.extract_many([(key, page.html) for key in page.keys])

    def inputs_digest(self) -> str:
        return gen.digest(self.inputs.to_json())

    def oracle(self) -> int:
        """Serve every distinct page once and compare with the reference
        evaluator; the verified results are what the loop must repeat."""
        failures = 0
        self.expected = []
        for page, items in zip(self.inputs.pages, self.items):
            results = self.client.extract_many(items)
            reference = [reference_payload(self.client, key, page.html) for key in page.keys]
            if [result.to_payload() for result in results] != reference:
                failures += 1
            self.expected.append(results)
        self.outputs_digest = gen.digest(
            [[result.to_payload() for result in results] for results in self.expected]
        )
        return failures

    def run(self, seconds: Optional[float] = None, ops: Optional[int] = None) -> LoopResult:
        extract_many = self.client.extract_many
        items = self.items
        expected = self.expected
        n_items = len(items)
        least = min_samples(99)
        clock = time.perf_counter
        latencies: list[float] = []
        ends: list[float] = []
        # Each answer is checked as it comes and then dropped, so the
        # process's peak RSS does not grow with the pages a run serves.
        self.failed = 0
        start = clock()
        deadline = None if seconds is None else start + seconds
        done = 0
        while not _stop(deadline, done, ops, n_items, least):
            index = done % n_items
            t0 = clock()
            try:
                results = extract_many(items[index])
            except Exception:  # noqa: BLE001 - counted as a failed operation
                results = None
            t1 = clock()
            latencies.append(t1 - t0)
            ends.append(t1)
            self.failed += results != expected[index]
            done += 1
        end = clock()
        wall = end - start
        return LoopResult(
            ops=done,
            wall_s=wall,
            # Latency figures belong to timed runs; a fixed-work pass
            # may hold too few samples for a tail percentile.  A timed
            # run ends on a whole pass over the stream; rate and median
            # are taken per pass (identical work) and the median pass
            # is reported.
            journey={
                "extract_pages_per_s": (windowed_rate(start, ends, n_items), "pages/s", done),
                "extract_page_p50_ms": (_ms(windowed_median(latencies, n_items)), "ms", done),
                "extract_page_p99_ms": (_ms(percentile(latencies, 99)), "ms", done),
            } if ops is None else {},
            threads={threading.get_ident()},
            window=(start, end),
        )

    def verify(self) -> int:
        return self.failed

    def reset_rss(self) -> None:
        reset_peak_rss()

    def rss_mb(self) -> float:
        return peak_rss_mb()

    def teardown(self) -> None:
        self.client = None


class ServeRepeat:
    """Over HTTP: one caller with one keep-alive ``RemoteWrapperClient``
    against one ``serve --listen`` subprocess over a sharded store.  One
    request per (wrapper, page); pages are polled in blocks, each page
    ``POLLS`` times within its block, and the stream repeats.  The whole
    page set fits the parse cache, so after the first pass every page is
    a cache hit, and the server's memory stops growing after the first
    pass, however fast the host.

    One caller, not one per CPU: the server process needs a CPU of its
    own, and on a 2-CPU host a second client thread added about 10% to
    the request rate but doubled the median latency and quadrupled the
    p90 (requests queued behind the other caller's listing pages), and
    its p99 then measured how the scheduler interleaved the two."""

    name = "serve-repeat"
    SNAPSHOTS = 32
    LISTING_PAGES = 64
    POLLS = 3
    BLOCK_PAGES = 8

    def __init__(self, seed: int, workdir: pathlib.Path, traced: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.traced = traced
        self._setups = 0
        self.server: Optional[subprocess.Popen] = None

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> None:
        self._setups += 1
        self.inputs = gen.extraction_inputs(self.seed, self.SNAPSHOTS, self.LISTING_PAGES)
        store = self.workdir / f"store-{self._setups}"
        self.local = WrapperClient(store=store)
        deploy(self.local, self.inputs.annotations)
        self._spawn(store)
        self.remote = RemoteWrapperClient(self.host, self.port)
        self.scraper = RemoteWrapperClient(self.host, self.port)
        self.warmup_outputs = [
            (key, page.html, self.remote.extract(key, page.html))
            for page in self.inputs.warmup
            for key in page.keys
        ]
        self.sequence = [
            (key, index)
            for block in range(0, len(self.inputs.pages), self.BLOCK_PAGES)
            for _ in range(self.POLLS)
            for index in range(block, min(block + self.BLOCK_PAGES, len(self.inputs.pages)))
            for key in self.inputs.pages[index].keys
        ]

    def _spawn(self, store: pathlib.Path) -> None:
        tag = f"server-{self._setups}"
        self.spans_path = self.workdir / f"{tag}-spans.json"
        serve = ["serve", "--listen", "127.0.0.1:0", "--artifacts", str(store)]
        if self.traced:
            command = [sys.executable, str(BENCH_DIR / "launcher.py"), str(self.spans_path), *serve]
        else:
            command = [sys.executable, "-m", "repro.runtime", *serve]
        env = dict(os.environ)
        src = str(BENCH_DIR.parent / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        out_path = self.workdir / f"{tag}.out"
        with open(out_path, "w", encoding="utf-8") as out:
            self.server = subprocess.Popen(
                command, stdout=out, stderr=subprocess.STDOUT, env=env,
                cwd=str(BENCH_DIR.parent), preexec_fn=_default_sigint,
            )
        deadline = time.monotonic() + SERVER_READY_TIMEOUT_S
        while time.monotonic() < deadline:
            text = out_path.read_text(encoding="utf-8", errors="replace")
            for line in text.splitlines():
                if line.startswith("listening on "):
                    address = line.split()[2]
                    host, _, port = address.rpartition(":")
                    self.host, self.port = host, int(port)
                    return
            if self.server.poll() is not None:
                break
            time.sleep(0.02)
        self.stop_server()
        raise RuntimeError(f"server did not become ready:\n{out_path.read_text()[-2000:]}")

    def stop_server(self) -> None:
        if self.server is None:
            return
        if self.server.poll() is None:
            self.server.send_signal(signal.SIGINT)
            try:
                self.server.wait(timeout=SERVER_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
        self.server = None

    def inputs_digest(self) -> str:
        return gen.digest(self.inputs.to_json())

    # -- oracle -----------------------------------------------------------------

    def _expected(self, key: str, index: int) -> str:
        cached = self._expected_cache.get((key, index))
        if cached is None:
            html = self.inputs.pages[index].html
            cached = json.dumps(self.local.extract(key, html).to_payload())
            self._expected_cache[(key, index)] = cached
        return cached

    def oracle(self) -> int:
        """Warm-up answers must be byte-identical to the in-process
        facade's payloads (the stream's own pages are checked after the
        loop, so the oracle does not warm the parse cache with them)."""
        self._expected_cache: dict = {}
        failures = 0
        digests = []
        for key, html, result in self.warmup_outputs:
            local = json.dumps(self.local.extract(key, html).to_payload())
            remote = json.dumps(result.to_payload())
            failures += local != remote
            digests.append(remote)
        self._warmup_digest = self.outputs_digest = gen.digest(digests)
        self.digest_scope = "warm-up"
        return failures

    # -- loop --------------------------------------------------------------------

    def metrics(self) -> dict:
        return self.scraper.metrics()

    def run(self, seconds: Optional[float] = None, ops: Optional[int] = None) -> LoopResult:
        extract = self.remote.extract
        sequence = self.sequence
        n_sequence = len(sequence)
        htmls = [page.html for page in self.inputs.pages]
        least = min_samples(99)
        clock = time.perf_counter
        latencies: list[float] = []
        ends: list[float] = []
        # Answers are checked after the loop (``verify``): building the
        # expected payloads in the loop would slow the caller it times.
        self.outputs = []
        start = clock()
        deadline = None if seconds is None else start + seconds
        done = 0
        while not _stop(deadline, done, ops, n_sequence, least):
            key, index = sequence[done % n_sequence]
            t0 = clock()
            try:
                result = extract(key, htmls[index])
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                result = exc
            t1 = clock()
            latencies.append(t1 - t0)
            ends.append(t1)
            self.outputs.append(result)
            done += 1
        end = clock()
        wall = end - start
        return LoopResult(
            ops=done,
            wall_s=wall,
            # Latency figures belong to timed runs; a fixed-work pass
            # may hold too few samples for a tail percentile.  A timed
            # run ends on a whole pass over the stream; every figure is
            # taken per pass (identical requests, about 2000 of them)
            # and the median pass is reported, so a neighbour's burst on
            # a shared host, or the first pass's parse-cache misses,
            # move one pass and not the figure.
            journey={
                "http_requests_per_s": (windowed_rate(start, ends, n_sequence), "req/s", done),
                "http_extract_p50_ms": (
                    _ms(windowed_median(latencies, n_sequence)), "ms", done
                ),
                "http_extract_p99_ms": (
                    _ms(windowed_percentile(latencies, 99, n_sequence)), "ms", done
                ),
            } if ops is None else {},
            threads={threading.get_ident()},
            window=(start, end),
        )

    def verify(self) -> int:
        failed = 0
        for position, result in enumerate(self.outputs):
            if isinstance(result, Exception):
                failed += 1
                continue
            key, index = self.sequence[position % len(self.sequence)]
            failed += json.dumps(result.to_payload()) != self._expected(key, index)
        # Stream outputs enter the digest once verified; every timed run
        # serves at least one whole pass, so it covers the same ones.
        covered = min(len(self.outputs), len(self.sequence))
        self.digest_scope = f"warm-up and the first {covered} stream requests"
        self.outputs_digest = gen.digest(
            [self._warmup_digest]
            + [self._expected(*self.sequence[position]) for position in range(covered)]
        )
        return failed

    def reset_rss(self) -> None:
        """The figure is the server's peak over its whole life: set-up
        loads its wrappers and the stream soon repeats, so the peak does
        not grow with the requests a run completes."""

    def rss_mb(self) -> float:
        return peak_rss_mb(self.server.pid)

    def teardown(self) -> None:
        if getattr(self, "remote", None) is not None:
            self.remote.close()
        if getattr(self, "scraper", None) is not None:
            self.scraper.close()
        self.stop_server()


class Maintain:
    """In process, one caller, a store-backed client: for every task,
    induce an ensemble from the snapshot-0 annotation, check every later
    snapshot, heal each flagged check (ensemble-vote repair, re-annotation
    from ground truth when the vote is empty or wrong), and go on."""

    name = "maintain"

    def __init__(self, seed: int, workdir: pathlib.Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self._setups = 0

    def setup(self) -> None:
        self._setups += 1
        self.tasks = gen.maintain_inputs(self.seed)
        self.client = WrapperClient(store=self.workdir / f"store-{self._setups}")
        # Warm-up: one family task and one listing task, off the books.
        family = next(task for task in self.tasks if task.break_at is not None)
        listing = next(task for task in self.tasks if task.break_at is None)
        for task in (family, listing):
            self._run_task(task, _TaskLog())

    def inputs_digest(self) -> str:
        return gen.digest([task.to_json() for task in self.tasks])

    def oracle(self) -> int:
        """Carry every task through the loop once: each scripted break
        must be flagged and each repair must re-check healthy with exact
        precision and recall (``_run_task`` checks both, and the timed
        loop checks them again).  The outputs of this pass are what the
        loop must repeat."""
        self.expected = []
        failures = 0
        for task in self.tasks:
            log = _TaskLog()
            try:
                self._run_task(task, log)
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                log.failures.append(f"{type(exc).__name__}: {exc}")
            failures += bool(log.failures)
            self.expected.append(log.out)
        self.outputs_digest = gen.digest(self.expected)
        return failures

    @staticmethod
    def _exact(result, truth) -> bool:
        return sorted(result.paths) == sorted(truth)

    def _heal(self, task, index: int, log: "_TaskLog") -> bool:
        """Repair at a flagged check until the wrapper re-checks healthy
        with exact precision and recall on this snapshot."""
        key, html, truth = task.key, task.snapshots[index], task.truth[index]
        client = self.client
        log.repairs += 1
        try:
            handle = client.repair(key, html)
            result = client.extract(key, html)
            if not result.drift_signals and self._exact(result, truth):
                log.vote_repairs += 1
                log.out.append(["vote", handle.query])
                return True
        except FacadeError:
            pass  # the vote is empty: re-annotation is required
        log.fallbacks += 1
        handle = client.repair(key, html, target_paths=list(truth))
        result = client.extract(key, html)
        log.out.append(["annotation", handle.query])
        return not result.drift_signals and self._exact(result, truth)

    def _run_task(self, task, log: "_TaskLog") -> None:
        clock = time.perf_counter
        client = self.client
        sample = _annotated_sample(task.snapshots[0], task.truth[0])
        t0 = clock()
        handle = client.induce(task.key, [sample], mode="ensemble",
                               options=dict(task.options) or None)
        log.induce_s = clock() - t0
        log.out.append([handle.query, list(handle.ensemble)])
        if task.break_at is None:
            if not self._exact(client.extract(task.key, task.snapshots[0]), task.truth[0]):
                log.failures.append("induced wrapper is not exact on its annotation")
            return
        flagged_break = False
        for index in range(1, len(task.snapshots)):
            t0 = clock()
            check = client.check(task.key, task.snapshots[index])
            log.out.append(list(check.signals))
            if check.healthy:
                continue
            flagged_break |= index == task.break_at
            if not self._heal(task, index, log):
                log.failures.append(f"repair at snapshot {index} never re-checked healthy")
            log.heal_s.append(clock() - t0)
        if not flagged_break:
            log.failures.append(f"break at snapshot {task.break_at} was not flagged")

    def run(self, seconds: Optional[float] = None, ops: Optional[int] = None) -> LoopResult:
        clock = time.perf_counter
        n_tasks = len(self.tasks)
        self.logs: list[tuple[int, _TaskLog]] = []
        self.failed = 0
        start = clock()
        deadline = None if seconds is None else start + seconds
        done = 0
        while not _stop(deadline, done, ops, n_tasks, n_tasks):
            index = done % n_tasks
            log = _TaskLog()
            t0 = clock()
            try:
                self._run_task(self.tasks[index], log)
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                log.failures.append(f"{type(exc).__name__}: {exc}")
            log.task_s = clock() - t0
            # Checked as it comes; only the timings and counts are kept.
            self.failed += bool(log.failures) or log.out != self.expected[index]
            log.out = None
            self.logs.append((index, log))
            done += 1
        end = clock()
        wall = end - start
        # Tasks differ tenfold in cost and a run makes only a few passes,
        # so each figure is taken per task first (the median of its
        # passes) and then across tasks: a burst on a shared host then
        # moves one pass of one task, not the run's figure.  A timed run
        # ends on a whole pass, so every task has the same passes.
        per_task: dict[int, list] = {}
        for index, log in self.logs:
            per_task.setdefault(index, []).append(log)
        task_s = [median([log.task_s for log in logs]) for logs in per_task.values()]
        induces = [
            median([log.induce_s for log in logs])
            for logs in per_task.values() if logs[0].induce_s is not None
        ]
        per_heal: dict[tuple[int, int], list] = {}
        for index, log in self.logs:
            for ordinal, heal_s in enumerate(log.heal_s):
                per_heal.setdefault((index, ordinal), []).append(heal_s)
        heals = [median(times) for times in per_heal.values()]
        n_heals = sum(len(times) for times in per_heal.values())
        return LoopResult(
            ops=done,
            wall_s=wall,
            # Latency figures belong to timed runs.
            journey={
                "maintain_tasks_per_s": (len(task_s) / sum(task_s), "tasks/s", done),
                "induce_p50_ms": (_ms(median(induces)), "ms", len(induces)),
                "heal_p50_ms": (_ms(median(heals)), "ms", n_heals),
            } if ops is None else {},
            threads={threading.get_ident()},
            window=(start, end),
        )

    def verify(self) -> int:
        return self.failed

    def failure_notes(self) -> list[str]:
        return [
            f"{self.tasks[index].key}: {note}"
            for index, log in self.logs
            for note in log.failures
        ]

    def vote_repair_share(self) -> float:
        attempted = sum(log.repairs for _, log in self.logs)
        return sum(log.vote_repairs for _, log in self.logs) / attempted if attempted else 0.0

    def fallbacks(self) -> int:
        return sum(log.fallbacks for _, log in self.logs)

    def reset_rss(self) -> None:
        reset_peak_rss()

    def rss_mb(self) -> float:
        return peak_rss_mb()

    def teardown(self) -> None:
        self.client = None


@dataclass
class _TaskLog:
    task_s: float = 0.0
    induce_s: Optional[float] = None
    heal_s: list = field(default_factory=list)
    repairs: int = 0
    vote_repairs: int = 0
    fallbacks: int = 0
    failures: list = field(default_factory=list)
    out: list = field(default_factory=list)


WORKLOADS = {cls.name: cls for cls in (ExtractFresh, ServeRepeat, Maintain)}
