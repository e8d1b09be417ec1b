"""The parse-cache tier: content-hash hits and misses, byte-budget
eviction, no stale extraction after redeploys, and /metrics counters
matching observed traffic."""

import asyncio
import json

import pytest

from repro import Sample, WrapperClient, mark_volatile, parse_html
from repro.dom.parser import parse_html as _parse
from repro.runtime import serve
from repro.runtime.net import WrapperHTTPServer
from repro.runtime.serve import AsyncExtractionServer, ParseCache, serve_jobs_sync
from repro.runtime.extractor import PageJob

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


@pytest.fixture
def budget(monkeypatch):
    """Set the parse cache's budget for one test."""
    return lambda size: monkeypatch.setattr(serve, "PARSE_CACHE_BYTES", size)


def charge(html: str) -> int:
    """What the cache charges for one parsed page (at the default
    budget, which any test page fits)."""
    cache = ParseCache()
    cache.put(html, _parse(html))
    return cache.info().bytes


class TestParseCacheUnit:
    def test_identical_html_hits_mutated_html_misses(self):
        cache = ParseCache()
        doc = _parse(PAGE_A)
        assert cache.get(PAGE_A) is None  # cold
        cache.put(PAGE_A, doc)
        assert cache.get(PAGE_A) is doc  # same bytes: same document
        # One mutated character is a different content hash: a miss,
        # never a stale document.
        assert cache.get(PAGE_A.replace("Alpha", "Alpha!")) is None
        info = cache.info()
        assert (info.hits, info.misses, info.entries) == (1, 2, 1)

    def test_eviction_under_byte_budget_is_lru(self, budget):
        pages = [f"<html><body><p>page {i:04d}</p></body></html>" for i in range(4)]
        size = charge(pages[0])  # the pages share one shape, so one charge
        budget(3 * size)
        cache = ParseCache()
        for page in pages[:3]:
            assert cache.put(page, _parse(page)) == 0  # fits
        assert cache.get(pages[0]) is not None  # 0 is now most recent
        evicted = cache.put(pages[3], _parse(pages[3]))
        assert evicted == 1
        info = cache.info()
        assert info.evictions == 1
        assert info.bytes <= info.capacity_bytes
        # LRU order: page 1 (least recently touched) was the victim.
        assert cache.get(pages[1]) is None
        assert cache.get(pages[0]) is not None
        assert cache.get(pages[3]) is not None

    def test_page_larger_than_the_budget_is_served_uncached(self, budget):
        budget(16)
        cache = ParseCache()
        assert cache.put(PAGE_A, _parse(PAGE_A)) == 0
        assert cache.info().entries == 0

    def test_text_heavy_pages_are_charged_at_least_their_html(self, budget):
        """A run of text is one node however long, so the charge counts
        the page's HTML bytes too: 100 KB of text holds about 100 KB."""
        limit = 256 * 1024
        budget(limit)
        pages = [f"<p>{i}{'x' * 100_000}</p>" for i in range(5)]
        cache = ParseCache()
        for page in pages:
            cache.put(page, _parse(page))
        info = cache.info()
        assert info.entries == 2
        assert sum(map(len, pages[-2:])) <= info.bytes <= limit
        # One such page larger than the whole budget stays uncached.
        huge = "<p>" + "y" * limit + "</p>"
        assert cache.put(huge, _parse(huge)) == 0
        assert cache.get(huge) is None
        assert cache.info().entries == 2

    def test_many_tiny_pages_stay_within_the_budget(self, budget):
        """The budget bounds what the cache holds, not its pages' HTML:
        a cached ``<p>n</p>`` page holds about 2.9 KB (tracemalloc,
        parsed and indexed), some 300x its HTML."""
        limit = 256 * 1024
        budget(limit)
        cache = ParseCache()
        for i in range(20_000):
            page = f"<p>{i}</p>"
            cache.put(page, _parse(page))
        info = cache.info()
        assert info.bytes <= limit
        # Charged under 2.5 KB, an entry would cost more than it says.
        assert info.entries * 2_500 <= info.bytes
        assert info.evictions == 20_000 - info.entries

    def test_clear_resets_entries_and_bytes(self):
        cache = ParseCache()
        cache.put(PAGE_A, _parse(PAGE_A))
        cache.clear()
        info = cache.info()
        assert (info.entries, info.bytes) == (0, 0)


class TestServingIntegration:
    """Client concurrency 1: every request is its own dispatch batch, so
    these tests see what the cache does across batches."""

    def test_repeated_page_across_batches_parses_once(self):
        n = 6
        requests = [job(f"site-{i}@0", PAGE_A, ("t", TITLE)) for i in range(n)]
        results, stats = serve_jobs_sync(requests, concurrency=1)
        assert all(records[0].values == ("Alpha",) for records in results)
        assert stats.batches == n
        assert stats.pages_parsed == 1  # the cold request
        assert stats.parse_cache_hits == n - 1

    def test_every_server_holds_a_cache(self):
        """The cache cannot be switched off: a server holds one from
        construction, and its counters are what ``/metrics`` reports."""
        server = AsyncExtractionServer()
        assert isinstance(server.parse_cache, ParseCache)
        info = server.parse_cache_info()
        assert info == server.parse_cache.info()
        assert info.capacity_bytes == serve.PARSE_CACHE_BYTES

    def test_disabled_cache_parses_every_request(self, budget):
        """A zero budget (what ``benchmarks/bench_net.py``'s cold pass
        sets) fits no page, so every request parses its own."""
        budget(0)
        n = 4
        requests = [job(f"site-{i}@0", PAGE_A, ("t", TITLE)) for i in range(n)]
        _, stats = serve_jobs_sync(requests, concurrency=1)
        assert stats.pages_parsed == n
        assert stats.parse_cache_hits == 0

    def test_mutated_page_misses_and_serves_fresh_content(self):
        requests = [
            job("site-a@0", PAGE_A, ("t", TITLE)),
            job("site-a@1", PAGE_B, ("t", TITLE)),  # re-rendered page
        ]
        results, stats = serve_jobs_sync(requests, concurrency=1)
        assert results[0][0].values == ("Alpha",)
        assert results[1][0].values == ("Beta",)
        assert stats.pages_parsed == 2

    def test_cached_page_serves_new_wrappers_not_stale_results(self):
        # A redeploy swaps the wrappers, not the page: the second
        # request hits the cached document and must evaluate the *new*
        # query against it.
        requests = [
            job("site-a@0", PAGE_A, ("w", TITLE)),
            job("site-a@0", PAGE_A, ("w", PRICE)),
        ]
        results, stats = serve_jobs_sync(requests, concurrency=1)
        assert results[0][0].values == ("Alpha",)
        assert results[1][0].values == ("10",)
        assert stats.parse_cache_hits == 1

    def test_eviction_counter_reaches_server_stats(self, budget):
        pages = [
            f"<html><body><p itemprop='name'>page {i:06d}</p></body></html>" * 40
            for i in range(4)
        ]
        budget(2 * charge(pages[0]) + 1)
        requests = [job(f"site-{i}@0", page, ("t", TITLE)) for i, page in enumerate(pages)]
        _, stats = serve_jobs_sync(requests, concurrency=1)
        assert stats.pages_parsed == 4  # all distinct
        assert stats.parse_cache_evictions >= 1


TITLE_PAGE = """
<html><body>
<div class="item"><h1 class="name">Alpha</h1><span class="price">10</span></div>
</body></html>
"""


def deployed_client() -> WrapperClient:
    client = WrapperClient()
    doc = parse_html(TITLE_PAGE)
    name = doc.find(tag="h1", class_="name")
    price = doc.find(tag="span", class_="price")
    mark_volatile(name, price)
    client.induce("shop/name", [Sample(doc, [name])])
    client.induce("shop/price", [Sample(doc, [price])])
    return client


async def raw_request(host, port, payload: bytes):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(payload)
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        headers = {}
        for line in lines[1:]:
            if ":" in line:
                name, value = line.split(":", 1)
                headers[name.strip().lower()] = value.strip()
        body = await reader.readexactly(int(headers["content-length"]))
        return status, headers, json.loads(body)
    finally:
        writer.close()


def post(path: str, payload: dict) -> bytes:
    body = json.dumps(payload).encode()
    return (
        f"POST {path} HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode() + body


class TestMetricsSurface:
    def test_metrics_counters_match_observed_traffic(self):
        n = 5

        async def go():
            async with WrapperHTTPServer(deployed_client()) as server:
                host, port = server.address
                for _ in range(n):
                    status, _, body = await raw_request(
                        host, port,
                        post("/extract", {"site_key": "shop/name", "html": TITLE_PAGE}),
                    )
                    assert status == 200
                    assert body["values"] == ["Alpha"]
                status, _, metrics = await raw_request(
                    host, port, b"GET /metrics HTTP/1.1\r\n\r\n"
                )
                assert status == 200
                return metrics

        metrics = run(go())
        cache = metrics["parse_cache"]
        # Serial requests: the first parse is the only miss; every
        # repeat is a hit. The serving stats must agree with the cache.
        assert cache["misses"] == 1
        assert cache["hits"] == n - 1
        assert cache["entries"] == 1
        assert cache["evictions"] == 0
        assert metrics["serving"]["pages_parsed"] == 1
        assert metrics["serving"]["parse_cache_hits"] == n - 1

    def test_no_stale_extraction_after_artifact_redeploy(self):
        async def go():
            client = deployed_client()
            async with WrapperHTTPServer(client) as server:
                host, port = server.address
                payload = post(
                    "/extract", {"site_key": "shop/name", "html": TITLE_PAGE}
                )
                _, _, before = await raw_request(host, port, payload)
                assert before["values"] == ["Alpha"]
                # Redeploy shop/name to target the price node instead.
                doc = parse_html(TITLE_PAGE)
                price = doc.find(tag="span", class_="price")
                client.induce("shop/name", [Sample(doc, [price])])
                # Same page bytes — the document comes from the cache —
                # but the redeployed wrapper must drive the answer.
                _, _, after = await raw_request(host, port, payload)
                assert after["values"] == ["10"]

        run(go())
