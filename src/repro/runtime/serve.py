"""Async serving layer over the per-page extraction kernel.

:func:`~repro.runtime.extractor.extract_records` is a *batch* API: the
caller already holds every (wrapper, page) pair and wants them all.  A
serving deployment sees the opposite shape — many independent callers
each asking "run this wrapper on this page, now".

:class:`AsyncExtractionServer` answers that shape behind a
request/response front-end:

* **admission** — ``await extract_info(job)`` enqueues onto a bounded
  queue; a full queue suspends the caller (backpressure, not buffering
  bloat);
* **micro-batching** — a dispatcher drains whatever is queued (up to
  :data:`MAX_BATCH` requests) into one batch, so concurrent callers
  share one hop to the worker thread; a lone request dispatches
  immediately;
* **parse caching** — a :class:`ParseCache` (content-hash-keyed LRU
  bounded by estimated document bytes) is the one way requests share
  a parse: the first request carrying a page's bytes parses it, and
  every later request with the same bytes — later in the same batch or
  in any later batch — finds the cached document.  See the class
  docstring for the invalidation contract;
* **execution** — each request is one page entry for the per-page
  kernel (:func:`~repro.runtime.extractor.extract_pages`, which
  isolates failures per wrapper: a malformed query fails only the
  request that sent it, as a :class:`RequestError`), run on one
  in-process thread that outlives requests — no pickling, and the
  parse cache's documents stay usable.

``benchmarks/bench_serving.py`` measures the result on the full corpus
and writes ``BENCH_serving.json``: at client concurrency 8 the server
must clear ≥ 1.5× the throughput of serial per-request
``extract_records`` calls.
"""

from __future__ import annotations

import asyncio
import hashlib
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.dom.node import Document
from repro.runtime.extractor import ExtractionRecord, PageJob, extract_pages


class RequestError(RuntimeError):
    """One serving request failed (bad query, unparseable page, ...).

    Scoped to the request: other requests in the same dispatch batch —
    including ones for the same page — are unaffected.
    """


@dataclass(frozen=True)
class ParseCacheInfo:
    """Counters for a :class:`ParseCache` (surfaced via ``/metrics``)."""

    hits: int
    misses: int
    evictions: int
    entries: int
    bytes: int
    capacity_bytes: int


#: What a cached document is charged beyond its HTML bytes: its
#: estimated memory once parsed, indexed and extracted from.  Measured
#: with tracemalloc over the 317 pages of the lifecycle benchmark's
#: serve-repeat workload (59-1,199 nodes each; 1.32 MB of HTML held
#: 37.7 MB): memory less HTML bytes fits 555 B per index node plus
#: 1.86 KB per document.  The HTML term covers text and attribute
#: values, which a node count misses (1 MB of text is one node); the
#: node terms cover the tree, which HTML bytes miss (a 3-node page of
#: 8 bytes holds 2.7 KB).
_BYTES_PER_NODE = 555
_BYTES_PER_DOCUMENT = 1860


class ParseCache:
    """Content-hash-keyed LRU of parsed documents, bounded by their
    estimated memory.

    Keys are SHA-1 of the page's HTML bytes — *content identity*, not
    page id — so a mutated page (a re-render, a drifted template) can
    never be served a stale document: different bytes simply miss.
    Each entry is charged its estimated memory — its HTML bytes plus
    1.86 KB plus 555 B per node of its document index — and
    ``capacity_bytes`` caps the sum; inserting past it evicts
    least-recently-used entries, and a single page larger than the
    whole budget is served uncached.

    Invalidation contract (extends the ``DocumentIndex`` memo contract
    in docs/PERFORMANCE.md): document-owned memos — the index itself,
    its ``filter_cache`` of per-(document, step) filtered lists — stay
    owned by the document and now live exactly as long as its cache
    entry, bounded by ``capacity_bytes``; nothing is pinned in
    module-global state keyed by document.  Artifact redeploys need no
    invalidation: the cache holds *pages*, never extraction results —
    every request evaluates its wrappers against the (possibly cached)
    document afresh.  Serving never mutates cached documents (the
    volatile ``meta`` re-marking happens only in induction-side sample
    restore, which parses its own copy), so ``Document.invalidate()``
    never needs to be called on a cache resident.

    Thread-safe: the serving worker thread and ``/metrics`` scrapes on
    the event loop may touch it concurrently.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be >= 0")
        self.capacity_bytes = capacity_bytes
        self._entries: OrderedDict[bytes, tuple[Document, int]] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def _key(html: str) -> tuple[bytes, int]:
        raw = html.encode("utf-8", "surrogatepass")
        return hashlib.sha1(raw).digest(), len(raw)

    def get(self, html: str) -> Optional[Document]:
        key, _ = self._key(html)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, html: str, doc: Document) -> int:
        """Insert a parsed page; returns how many entries were evicted."""
        key, size = self._key(html)
        size += _BYTES_PER_DOCUMENT + _BYTES_PER_NODE * len(doc.index.nodes)
        if size > self.capacity_bytes:
            return 0
        evicted = 0
        with self._lock:
            if key in self._entries:
                return 0
            self._entries[key] = (doc, size)
            self._bytes += size
            while self._bytes > self.capacity_bytes:
                _, (_, dropped) = self._entries.popitem(last=False)
                self._bytes -= dropped
                self.evictions += 1
                evicted += 1
        return evicted

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def info(self) -> ParseCacheInfo:
        with self._lock:
            return ParseCacheInfo(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                entries=len(self._entries),
                bytes=self._bytes,
                capacity_bytes=self.capacity_bytes,
            )


#: How many queued requests one dispatch drains into a single batch.
MAX_BATCH = 16


@dataclass(frozen=True)
class ServingConfig:
    """Knobs for the serving layer.

    ``max_pending`` bounds the admission queue — when full,
    ``extract_info()`` awaits instead of buffering without limit.
    ``parse_cache_bytes`` is the budget of the :class:`ParseCache` in
    estimated document bytes (0 disables it, and then every request
    parses its page); the default holds the lifecycle benchmark's
    serve-repeat page set (37.7 MB) whole.
    """

    max_pending: int = 64
    parse_cache_bytes: int = 64 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if self.parse_cache_bytes < 0:
            raise ValueError("parse_cache_bytes must be >= 0")


@dataclass
class ServerStats:
    """Observability counters, updated as the dispatcher runs.

    ``pages_parsed`` counts parses actually performed;
    ``parse_cache_hits`` counts requests that found their page in the
    :class:`ParseCache` instead of parsing it.
    """

    requests: int = 0
    pages_parsed: int = 0
    parse_cache_hits: int = 0
    parse_cache_evictions: int = 0
    batches: int = 0
    peak_pending: int = 0

    def as_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class _Pending:
    """One admitted request waiting for its records."""

    job: PageJob
    future: "asyncio.Future[list[ExtractionRecord]]" = field(repr=False)


class AsyncExtractionServer:
    """Request/response extraction over one shared, bounded worker thread.

    Use as an async context manager::

        async with AsyncExtractionServer(ServingConfig()) as server:
            records = await server.extract_info(job)

    The server must be started from within a running event loop; the
    dispatcher task and the worker thread live until ``aclose()``.
    """

    def __init__(self, config: Optional[ServingConfig] = None) -> None:
        self.config = config or ServingConfig()
        self.stats = ServerStats()
        #: The cross-request page cache (``None`` when disabled).
        self.parse_cache: Optional[ParseCache] = None
        self._queue: Optional[asyncio.Queue[_Pending]] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    async def __aenter__(self) -> "AsyncExtractionServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    async def start(self) -> None:
        if self._dispatcher is not None:
            raise RuntimeError("server already started")
        if self._closed:
            raise RuntimeError("server already closed")
        self._queue = asyncio.Queue(maxsize=self.config.max_pending)
        if self.config.parse_cache_bytes > 0:
            self.parse_cache = ParseCache(self.config.parse_cache_bytes)
        # One worker thread keeps the event loop responsive, and the
        # parse cache's documents are usable from it without pickling.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch_loop()
        )

    async def aclose(self) -> None:
        """Drain nothing, stop everything: pending requests are failed."""
        if self._closed:
            return
        self._closed = True
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        if self._queue is not None:
            # Drain-and-yield until quiescent: freeing queue slots wakes
            # callers suspended in put(); they re-enqueue on the next
            # loop tick and must be failed too, not left awaiting a
            # future no dispatcher will ever resolve.
            while True:
                while not self._queue.empty():
                    pending = self._queue.get_nowait()
                    if not pending.future.done():
                        pending.future.set_exception(
                            RuntimeError("server closed before request was served")
                        )
                await asyncio.sleep(0)
                if self._queue.empty():
                    break
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # -- request API --------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting in the admission queue (0 when
        the server is not running) — scraped by ``GET /metrics``."""
        return self._queue.qsize() if self._queue is not None else 0

    def parse_cache_info(self) -> ParseCacheInfo:
        """Parse-cache counters — scraped by ``GET /metrics``.

        An enabled cache reports itself.  A disabled cache reports the
        dispatcher's aggregate counters with zero entries/bytes and
        ``capacity_bytes`` 0.
        """
        if self.parse_cache is not None:
            return self.parse_cache.info()
        return ParseCacheInfo(
            hits=self.stats.parse_cache_hits,
            misses=self.stats.pages_parsed,
            evictions=self.stats.parse_cache_evictions,
            entries=0,
            bytes=0,
            capacity_bytes=0,
        )

    async def extract_info(self, job: PageJob) -> list[ExtractionRecord]:
        """Serve one request; resolves to the records for *this* job's
        wrappers, in job order."""
        if self._queue is None or self._closed:
            raise RuntimeError("server is not running (use 'async with')")
        pending = _Pending(job, asyncio.get_running_loop().create_future())
        await self._queue.put(pending)
        # put() may have suspended across aclose(); nothing will
        # dispatch this request anymore, so fail it now.
        if self._closed and not pending.future.done():
            pending.future.set_exception(
                RuntimeError("server closed before request was served")
            )
        self.stats.peak_pending = max(self.stats.peak_pending, self._queue.qsize())
        return await pending.future

    # -- dispatcher ---------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._queue is not None
        while True:
            batch = [await self._queue.get()]
            while len(batch) < MAX_BATCH:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            await self._run_batch(batch)

    async def _run_batch(self, batch: list[_Pending]) -> None:
        # One kernel entry per request: a page repeated in the batch is
        # parsed for its first request and a parse-cache hit after that.
        payload = [
            (pending.job.page_id, pending.job.html, pending.job.wrappers)
            for pending in batch
        ]
        self.stats.batches += 1
        self.stats.requests += len(batch)

        loop = asyncio.get_running_loop()
        try:
            pages, stats = await loop.run_in_executor(
                self._executor, extract_pages, payload, self.parse_cache
            )
        except BaseException as exc:
            # Only infrastructure failures (cancellation, a closed
            # executor) reach here — per-request errors come back as
            # exceptions in the kernel's slots.
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(
                        exc if isinstance(exc, Exception) else RuntimeError(str(exc))
                    )
            if isinstance(exc, asyncio.CancelledError):
                raise
            return
        self.stats.pages_parsed += stats["parsed"]
        self.stats.parse_cache_hits += stats["cache_hits"]
        self.stats.parse_cache_evictions += stats["cache_evictions"]

        for pending, page in zip(batch, pages):
            if pending.future.done():
                continue
            if isinstance(page, Exception):
                pending.future.set_exception(RequestError(
                    f"page {pending.job.page_id!r} failed to parse: {page}"
                ))
                continue
            for (wrapper_id, _), slot in zip(pending.job.wrappers, page):
                if isinstance(slot, Exception):
                    pending.future.set_exception(
                        RequestError(f"wrapper {wrapper_id!r}: {slot}")
                    )
                    break
            else:
                pending.future.set_result(page)


async def serve_jobs(
    jobs: Sequence[PageJob],
    config: Optional[ServingConfig] = None,
    concurrency: int = 8,
) -> tuple[list[list[ExtractionRecord]], ServerStats]:
    """Run a request stream through a fresh server at bounded client
    concurrency: returns per-request records, aligned with ``jobs``,
    plus the server's counters.  Per-request failures propagate."""
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    gate = asyncio.Semaphore(concurrency)
    async with AsyncExtractionServer(config) as server:

        async def one(job: PageJob) -> list[ExtractionRecord]:
            async with gate:
                return await server.extract_info(job)

        results = await asyncio.gather(*(one(job) for job in jobs))
        return list(results), server.stats


def serve_jobs_sync(
    jobs: Sequence[PageJob],
    config: Optional[ServingConfig] = None,
    concurrency: int = 8,
) -> tuple[list[list[ExtractionRecord]], ServerStats]:
    """Blocking wrapper for callers without an event loop."""
    return asyncio.run(serve_jobs(jobs, config=config, concurrency=concurrency))


__all__ = [
    "AsyncExtractionServer",
    "ParseCache",
    "ParseCacheInfo",
    "RequestError",
    "ServerStats",
    "ServingConfig",
    "serve_jobs",
    "serve_jobs_sync",
]
