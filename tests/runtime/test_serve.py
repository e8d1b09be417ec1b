"""Async serving layer: request/response correctness, parse sharing
through the parse cache, micro-batching, backpressure, and failure
isolation."""

import asyncio
import inspect

import pytest

import repro.runtime
from repro.runtime import (
    AsyncExtractionServer,
    PageJob,
    RequestError,
    serve,
    serve_jobs,
    serve_jobs_sync,
)
from repro.runtime.extractor import extract_records

PAGE_A = """
<html><body>
<div class="a"><h1 itemprop="name">Alpha</h1><span class="price">10</span></div>
</body></html>
"""

PAGE_B = """
<html><body>
<div class="b"><h2 itemprop="name">Beta</h2><span class="price">20</span></div>
</body></html>
"""

TITLE = 'descendant::*[@itemprop="name"]'
PRICE = 'descendant::span[@class="price"]'


def job(page_id, html, *wrappers):
    return PageJob(page_id=page_id, html=html, wrappers=tuple(wrappers))


def run(coro):
    return asyncio.run(coro)


class TestCorrectness:
    def test_single_request_matches_batch_engine(self):
        request = job("site-a@0", PAGE_A, ("t", TITLE), ("p", PRICE))

        async def go():
            async with AsyncExtractionServer() as server:
                return await server.extract_info(request)

        assert run(go()) == extract_records([request])

    def test_stream_matches_serial_calls_request_for_request(self):
        requests = [
            job("site-a@0", PAGE_A, ("t", TITLE)),
            job("site-a@0", PAGE_A, ("p", PRICE)),
            job("site-b@0", PAGE_B, ("t", TITLE)),
            job("site-b@0", PAGE_B, ("p", PRICE)),
            job("site-a@1", PAGE_A, ("t", TITLE), ("p", PRICE)),
        ] * 4
        results, stats = serve_jobs_sync(requests, concurrency=4)
        assert results == [extract_records([request]) for request in requests]
        assert stats.requests == len(requests)

    def test_duplicate_wrapper_ids_with_different_queries_stay_distinct(self):
        # Same wrapper id, different query text, same page in one batch:
        # each request gets the records of its own query.
        requests = [
            job("site-a@0", PAGE_A, ("w", TITLE)),
            job("site-a@0", PAGE_A, ("w", PRICE)),
        ]
        results, _ = serve_jobs_sync(requests, concurrency=2)
        assert results[0][0].values != results[1][0].values

    def test_results_align_with_request_order(self):
        requests = [
            job("site-b@0", PAGE_B, ("t", TITLE)),
            job("site-a@0", PAGE_A, ("t", TITLE)),
        ]
        results, _ = serve_jobs_sync(requests, concurrency=2)
        assert results[0][0].values == ("Beta",)
        assert results[1][0].values == ("Alpha",)


class TestCoalescing:
    """Same-page requests share one parse through the parse cache, the
    serving layer's one way to share a parse."""

    def test_same_page_requests_share_one_parse(self):
        queries = [TITLE, PRICE] * 4
        requests = [
            job("site-a@0", PAGE_A, (f"w{i}", query)) for i, query in enumerate(queries)
        ]
        results, stats = serve_jobs_sync(requests, concurrency=8)
        assert stats.pages_parsed == 1
        assert stats.parse_cache_hits == len(requests) - 1
        for i, records in enumerate(results):
            assert records[0].wrapper_id == f"w{i}"
            assert records[0].values == (("Alpha",) if i % 2 == 0 else ("10",))

    def test_same_page_id_different_html_never_shares(self):
        requests = [
            job("site-a@0", PAGE_A, ("t", TITLE)),
            job("site-a@0", PAGE_B, ("t", TITLE)),  # re-rendered page
        ]
        results, stats = serve_jobs_sync(requests, concurrency=2)
        assert results[0][0].values == ("Alpha",)
        assert results[1][0].values == ("Beta",)
        assert stats.pages_parsed == 2

    def test_concurrent_requests_share_dispatch_batches(self):
        requests = [job(f"site-{i}@0", PAGE_A, ("t", TITLE)) for i in range(8)]
        results, stats = serve_jobs_sync(requests, concurrency=8)
        assert stats.batches < len(requests)
        assert all(records[0].values == ("Alpha",) for records in results)

    def test_lone_request_dispatches_without_batching_peers(self):
        results, stats = serve_jobs_sync(
            [job("site-a@0", PAGE_A, ("t", TITLE))], concurrency=1
        )
        assert stats.batches == 1
        assert stats.pages_parsed == 1
        assert results[0][0].values == ("Alpha",)


class TestLimits:
    def test_backpressure_bounds_the_queue(self, monkeypatch):
        monkeypatch.setattr(serve, "MAX_PENDING", 2)
        requests = [
            job(f"site-{i}@0", PAGE_A, ("t", TITLE)) for i in range(10)
        ]
        results, stats = serve_jobs_sync(requests, concurrency=8)
        assert stats.peak_pending <= 2
        assert len(results) == len(requests)

    def test_queue_bound_and_cache_budget_are_the_only_knobs(self):
        """Both are module constants; nothing configures a server."""
        assert (serve.MAX_PENDING, serve.PARSE_CACHE_BYTES) == (64, 64 * 1024 * 1024)
        assert list(inspect.signature(AsyncExtractionServer).parameters) == []
        assert list(inspect.signature(serve_jobs).parameters) == ["jobs", "concurrency"]
        assert not hasattr(repro.runtime, "ServingConfig")
        with pytest.raises(ImportError):
            from repro.runtime import ServingConfig  # noqa: F401


class TestFailureIsolation:
    def test_bad_query_fails_its_request_not_the_server(self):
        bad = job("site-a@0", PAGE_A, ("bad", "not a query (("))
        good = job("site-b@0", PAGE_B, ("t", TITLE))

        async def go():
            async with AsyncExtractionServer() as server:
                with pytest.raises(RequestError):
                    await server.extract_info(bad)
                return await server.extract_info(good)

        records = run(go())
        assert records[0].values == ("Beta",)

    def test_bad_query_spares_batched_and_coalesced_peers(self):
        """Isolation is per request even when the bad request shares a
        dispatch batch — and a parsed page — with healthy ones."""
        requests = [
            job("site-a@0", PAGE_A, ("t", TITLE)),          # same page as bad
            job("site-a@0", PAGE_A, ("bad", "not a query ((")),
            job("site-a@0", PAGE_A, ("p", PRICE)),          # same page as bad
            job("site-b@0", PAGE_B, ("t", TITLE)),          # same batch
        ]

        async def go():
            async with AsyncExtractionServer() as server:
                results = await asyncio.gather(
                    *(server.extract_info(r) for r in requests),
                    return_exceptions=True,
                )
                return results, server.stats

        results, stats = run(go())
        assert results[0][0].values == ("Alpha",)
        assert isinstance(results[1], RequestError)
        assert results[2][0].values == ("10",)
        assert results[3][0].values == ("Beta",)
        # One batch, and the bad request's page was parsed once for all
        # three requests that carry it.
        assert stats.batches == 1
        assert (stats.pages_parsed, stats.parse_cache_hits) == (2, 2)

    def test_aclose_fails_backpressured_waiters(self, monkeypatch):
        """Callers suspended in the bounded queue's put() at close time
        must be failed, not left awaiting a future forever."""
        import time as _time

        original = serve.extract_pages

        def slow_pages(pages, cache=None):
            _time.sleep(0.1)  # hold the dispatcher so the queue backs up
            return original(pages, cache)

        monkeypatch.setattr(serve, "extract_pages", slow_pages)
        monkeypatch.setattr(serve, "MAX_PENDING", 1)

        async def go():
            server = AsyncExtractionServer()
            await server.start()
            tasks = [
                asyncio.create_task(
                    server.extract_info(job(f"site-{i}@0", PAGE_A, ("t", TITLE)))
                )
                for i in range(6)
            ]
            await asyncio.sleep(0.02)  # first dispatched, rest backpressured
            await server.aclose()
            return await asyncio.wait_for(
                asyncio.gather(*tasks, return_exceptions=True), timeout=5
            )

        results = run(go())
        assert len(results) == 6
        closed = [r for r in results if isinstance(r, RuntimeError)]
        assert closed  # the backpressured waiters were failed, not hung

    def test_unparseable_page_fails_only_its_requests(self, monkeypatch):
        import repro.runtime.extractor as extractor_mod

        original = extractor_mod.parse_html

        def parse(html):
            if "Beta" in html:
                raise ValueError("garbled bytes")
            return original(html)

        monkeypatch.setattr(extractor_mod, "parse_html", parse)
        requests = [
            job("site-a@0", PAGE_A, ("t", TITLE)),
            job("site-b@0", PAGE_B, ("t", TITLE)),
            job("site-b@0", PAGE_B, ("p", PRICE)),
        ]

        async def go():
            async with AsyncExtractionServer() as server:
                return await asyncio.gather(
                    *(server.extract_info(r) for r in requests), return_exceptions=True
                )

        good, *bad = run(go())
        assert good[0].values == ("Alpha",)
        for error in bad:
            assert isinstance(error, RequestError)
            assert "'site-b@0' failed to parse: garbled bytes" in str(error)

    def test_requests_fail_fast_when_server_closes(self):
        async def go():
            server = AsyncExtractionServer()
            await server.start()
            await server.aclose()
            with pytest.raises(RuntimeError, match="not running"):
                await server.extract_info(job("site-a@0", PAGE_A, ("t", TITLE)))

        run(go())

    def test_double_start_is_rejected(self):
        async def go():
            async with AsyncExtractionServer() as server:
                with pytest.raises(RuntimeError, match="already started"):
                    await server.start()

        run(go())


class TestServeJobsHelpers:
    def test_serve_jobs_inside_running_loop(self):
        requests = [job("site-a@0", PAGE_A, ("t", TITLE))]

        async def go():
            return await serve_jobs(requests, concurrency=1)

        results, stats = run(go())
        assert results[0][0].values == ("Alpha",)
        assert stats.requests == 1
