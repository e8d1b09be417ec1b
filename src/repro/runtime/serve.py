"""Async serving layer over the batch extraction engine.

:class:`~repro.runtime.extractor.BatchExtractor` is a *batch* API: the
caller already holds every (wrapper, page) pair and wants them all.  A
serving deployment sees the opposite shape — many independent callers
each asking "run this wrapper on this page, now" — and calling the batch
engine once per request throws away exactly the amortization it exists
for (one parse per request instead of one parse per page).

:class:`AsyncExtractionServer` restores the batch shape *behind* a
request/response front-end:

* **admission** — ``await extract(job)`` enqueues onto a bounded queue;
  a full queue suspends the caller (backpressure, not buffering bloat),
  and a per-site semaphore caps how many requests a single site may
  hold in flight, so one hot site cannot starve the fleet;
* **micro-batching** — a dispatcher drains whatever is queued (up to
  ``max_batch_pages`` pages) into one batch, so concurrency the clients
  already exhibit becomes per-page amortization with no added latency
  when the queue is empty (a lone request dispatches immediately);
* **coalescing** — requests in a batch that target the same page (same
  ``page_id`` + identical HTML) share one parse + one document index:
  their wrapper lists are merged (deduplicated by wrapper id + query
  text) and the records are demultiplexed back to each caller;
* **parse caching** — coalescing only dedups *within* one batch
  window; a :class:`ParseCache` (content-hash-keyed, byte-budget
  LRU) carries parsed documents *across* requests and batches, so the
  production-common case — a repeated page hitting a warm server —
  skips parsing entirely.  See the class docstring for the
  invalidation contract;
* **execution** — merged page groups run through the batch engine's
  per-page kernel (:func:`~repro.runtime.extractor.extract_pages`,
  which isolates failures per wrapper: a malformed query fails only
  the requests that sent it, as a :class:`RequestError`) on one
  in-process thread that outlives requests — no pickling, and the
  parse cache's documents stay usable.

``benchmarks/bench_serving.py`` measures the result on the full corpus
and writes ``BENCH_serving.json``: at client concurrency 8 the server
must clear ≥ 1.5× the throughput of serial per-request
``BatchExtractor`` calls.
"""

from __future__ import annotations

import asyncio
import hashlib
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from repro.dom.node import Document
from repro.runtime.extractor import ExtractionRecord, PageJob, extract_pages


class RequestError(RuntimeError):
    """One serving request failed (bad query, unparseable page, ...).

    Scoped to the request: other requests in the same dispatch batch —
    including ones coalesced onto the same page — are unaffected.
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


class ParseCache:
    """Content-hash-keyed LRU of parsed documents, byte-budget bounded.

    Keys are SHA-1 of the page's HTML bytes — *content identity*, not
    page id — so a mutated page (a re-render, a drifted template) can
    never be served a stale document: different bytes simply miss.
    The budget counts the HTML byte size of the cached pages (the
    portable proxy for the parsed tree's footprint); inserting past it
    evicts least-recently-used entries, and a single page larger than
    the whole budget is served uncached.

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


def default_site_key(job: PageJob) -> str:
    """Site key of a request for per-site limits.

    The runtime's page ids are ``<site_id>`` or ``<site_id>@<snapshot>``
    (see ``jobs_for_artifacts``); everything before the first ``@`` is
    the site.
    """
    return job.page_id.split("@", 1)[0]


@dataclass(frozen=True)
class ServingConfig:
    """Knobs for the serving layer.

    ``max_pending`` bounds the admission queue — when full,
    ``extract()`` awaits instead of buffering without limit.
    ``per_site_limit`` caps in-flight requests per site key.
    ``max_batch_pages`` caps how many queued requests one dispatch
    drains into a single batch.  ``parse_cache_bytes`` is the byte
    budget of the cross-request :class:`ParseCache` (0 disables it).
    """

    max_pending: int = 64
    per_site_limit: int = 8
    max_batch_pages: int = 16
    parse_cache_bytes: int = 16 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if self.per_site_limit < 1:
            raise ValueError("per_site_limit must be >= 1")
        if self.max_batch_pages < 1:
            raise ValueError("max_batch_pages must be >= 1")
        if self.parse_cache_bytes < 0:
            raise ValueError("parse_cache_bytes must be >= 0")


@dataclass
class ServerStats:
    """Observability counters, updated as the dispatcher runs.

    ``pages_parsed`` counts parses actually *performed* (historically it
    counted distinct pages per payload, silently including pages the
    worker never parsed once the cache landed).  ``parses_avoided``
    counts the parses the amortization machinery absorbed: requests
    coalesced onto another request's parse within a batch, plus
    :class:`ParseCache` hits across batches — so the cache's effect is
    directly observable as ``parses_avoided`` vs ``pages_parsed``.
    """

    requests: int = 0
    pages_parsed: int = 0
    parses_avoided: int = 0
    coalesced_requests: int = 0
    parse_cache_hits: int = 0
    parse_cache_evictions: int = 0
    batches: int = 0
    peak_pending: int = 0
    peak_site_inflight: int = 0

    def as_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class _Pending:
    """One admitted request waiting for its records.

    ``coalesced`` is set by the dispatcher when this request shared a
    page parse with another request in its batch — surfaced per
    request (access logs) next to the aggregate counter in stats.
    """

    job: PageJob
    future: "asyncio.Future[list[ExtractionRecord]]" = field(repr=False, default=None)
    coalesced: bool = False


class AsyncExtractionServer:
    """Request/response extraction over one shared, bounded worker thread.

    Use as an async context manager::

        async with AsyncExtractionServer(ServingConfig()) as server:
            records = await server.extract(job)           # one request
            all_records = await server.extract_many(jobs) # a stream

    The server must be started from within a running event loop; the
    dispatcher task and the worker thread live until ``aclose()``.
    """

    def __init__(
        self,
        config: Optional[ServingConfig] = None,
        site_key: Callable[[PageJob], str] = default_site_key,
    ) -> None:
        self.config = config or ServingConfig()
        self.site_key = site_key
        self.stats = ServerStats()
        #: The cross-request page cache (``None`` when disabled).
        self.parse_cache: Optional[ParseCache] = None
        self._queue: Optional[asyncio.Queue[_Pending]] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._site_sems: dict[str, asyncio.Semaphore] = {}
        self._site_inflight: dict[str, int] = {}
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

    async def extract(self, job: PageJob) -> list[ExtractionRecord]:
        """Serve one request; resolves to the records for *this* job's
        wrappers (in job order), however the page was batched."""
        records, _ = await self.extract_info(job)
        return records

    async def extract_info(self, job: PageJob) -> tuple[list[ExtractionRecord], bool]:
        """Like :meth:`extract`, also reporting whether this request
        coalesced onto another request's page parse."""
        if self._queue is None or self._closed:
            raise RuntimeError("server is not running (use 'async with')")
        site = self.site_key(job)
        sem = self._site_sems.setdefault(
            site, asyncio.Semaphore(self.config.per_site_limit)
        )
        async with sem:
            self._site_inflight[site] = self._site_inflight.get(site, 0) + 1
            self.stats.peak_site_inflight = max(
                self.stats.peak_site_inflight, self._site_inflight[site]
            )
            try:
                pending = _Pending(
                    job, asyncio.get_running_loop().create_future()
                )
                await self._queue.put(pending)
                # put() may have suspended across aclose(); nothing will
                # dispatch this request anymore, so fail it now.
                if self._closed and not pending.future.done():
                    pending.future.set_exception(
                        RuntimeError("server closed before request was served")
                    )
                self.stats.peak_pending = max(
                    self.stats.peak_pending, self._queue.qsize()
                )
                return await pending.future, pending.coalesced
            finally:
                self._site_inflight[site] -= 1

    async def extract_many(
        self, jobs: Sequence[PageJob], concurrency: int = 8
    ) -> list[list[ExtractionRecord]]:
        """Serve a request stream at bounded client concurrency; results
        align with ``jobs``.  Per-request failures propagate."""
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        gate = asyncio.Semaphore(concurrency)

        async def one(job: PageJob) -> list[ExtractionRecord]:
            async with gate:
                return await self.extract(job)

        return list(await asyncio.gather(*(one(job) for job in jobs)))

    # -- dispatcher ---------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._queue is not None
        while True:
            batch = [await self._queue.get()]
            while len(batch) < self.config.max_batch_pages:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            await self._run_batch(batch)

    async def _run_batch(self, batch: list[_Pending]) -> None:
        # Coalesce: requests for the same rendered page share one parse.
        # Key on page id *and* HTML — a page id reused with different
        # content (e.g. a re-render race) must not share records.
        groups: dict[tuple[str, str], dict[tuple[str, str], int]] = {}
        placements: list[list[tuple[tuple[str, str], tuple[str, str]]]] = []
        for pending in batch:
            key = (pending.job.page_id, pending.job.html)
            merged = groups.setdefault(key, {})
            if merged:
                self.stats.coalesced_requests += 1
                pending.coalesced = True
            placement = []
            for wrapper in pending.job.wrappers:
                if wrapper not in merged:
                    merged[wrapper] = len(merged)
                placement.append((key, wrapper))
            placements.append(placement)

        payload = [
            (page_id, html, tuple(merged.keys()))
            for (page_id, html), merged in groups.items()
        ]
        self.stats.batches += 1
        self.stats.requests += len(batch)
        # Requests that shared another request's parse in this batch —
        # the worker reports the cache's share after it runs.
        self.stats.parses_avoided += len(batch) - len(payload)

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
        self.stats.parses_avoided += stats["cache_hits"]
        self.stats.parse_cache_evictions += stats["cache_evictions"]

        # Demultiplex: the kernel answers per payload page, with one slot
        # per merged wrapper; index them by (page key, merged position).
        # A slot is a record or the error message its requests fail with.
        slots: dict[tuple[tuple[str, str], int], Union[ExtractionRecord, str]] = {}
        for (key, merged), page in zip(groups.items(), pages):
            for (wrapper_id, _), position in merged.items():
                if isinstance(page, Exception):
                    slot = f"page {key[0]!r} failed to parse: {page}"
                elif isinstance(page[position], Exception):
                    slot = f"wrapper {wrapper_id!r}: {page[position]}"
                else:
                    slot = page[position]
                slots[key, position] = slot
        for pending, placement in zip(batch, placements):
            if pending.future.done():
                continue
            result = [slots[key, groups[key][wrapper]] for key, wrapper in placement]
            error = next((slot for slot in result if isinstance(slot, str)), None)
            if error is not None:
                pending.future.set_exception(RequestError(error))
            else:
                pending.future.set_result(result)


async def serve_jobs(
    jobs: Sequence[PageJob],
    config: Optional[ServingConfig] = None,
    concurrency: int = 8,
) -> tuple[list[list[ExtractionRecord]], ServerStats]:
    """Run a request stream through a fresh server (the CLI/bench entry
    point): returns per-request records plus the server's counters."""
    async with AsyncExtractionServer(config) as server:
        results = await server.extract_many(jobs, concurrency=concurrency)
        return results, server.stats


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
    "default_site_key",
    "serve_jobs",
    "serve_jobs_sync",
]
