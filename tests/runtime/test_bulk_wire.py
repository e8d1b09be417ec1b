"""``/extract_many``, the one transport of every remote batch: the JSON
answer (whatever ``Accept`` asks for), per-item failure slots, the
server's in-flight bound, and the clients' side of it — parity with
per-item ``extract``, packing under the body limit, 429 retries and
whole-request failures."""

import asyncio
import dataclasses
import json
import time

import pytest

from repro import (
    ClusterMap,
    RouterClient,
    Sample,
    WrapperClient,
    mark_volatile,
    parse_html,
)
from repro.api import remote as remote_module
from repro.api import results as results_module
from repro.api.remote import AuthError, RateLimitError, RemoteWrapperClient
from repro.api.results import MAX_BATCH_ITEMS, FacadeError
from repro.runtime.auth import QuotaConfig
from repro.runtime.net import NetConfig, WrapperHTTPServer
from repro.runtime.serve import ServingConfig
from tests.serving_utils import spawn_listen, terminate

TITLE_PAGE = """
<html><body>
<div class="item"><h1 class="name">Alpha</h1><span class="price">10</span></div>
</body></html>
"""

OTHER_PAGE = """
<html><body>
<div class="item"><h1 class="name">Beta</h1><span class="price">20</span></div>
</body></html>
"""


def run(coro):
    return asyncio.run(coro)


def deployed_client() -> WrapperClient:
    client = WrapperClient()
    doc = parse_html(TITLE_PAGE)
    name = doc.find(tag="h1", class_="name")
    price = doc.find(tag="span", class_="price")
    mark_volatile(name, price)
    client.induce("shop/name", [Sample(doc, [name])])
    client.induce("shop/price", [Sample(doc, [price])])
    return client


def request_bytes(path: str, payload: dict, accept: str = "") -> bytes:
    body = json.dumps(payload).encode()
    head = f"POST {path} HTTP/1.1\r\nContent-Length: {len(body)}\r\n"
    if accept:
        head += f"Accept: {accept}\r\n"
    return (head + "\r\n").encode() + body


async def read_head(reader):
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        if ":" in line:
            name, value = line.split(":", 1)
            headers[name.strip().lower()] = value.strip()
    return status, headers


async def json_exchange(host, port, payload: bytes):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(payload)
        await writer.drain()
        status, headers = await read_head(reader)
        body = await reader.readexactly(int(headers["content-length"]))
        return status, headers, json.loads(body)
    finally:
        writer.close()


class TestWireProtocol:
    def test_json_default_slots_match_single_extract(self):
        async def go():
            async with WrapperHTTPServer(deployed_client()) as server:
                host, port = server.address
                _, _, single = await json_exchange(
                    host, port,
                    request_bytes(
                        "/extract", {"site_key": "shop/name", "html": TITLE_PAGE}
                    ),
                )
                items = [
                    {"site_key": "shop/name", "html": TITLE_PAGE},
                    {"site_key": "shop/price", "html": TITLE_PAGE},
                ]
                status, headers, body = await json_exchange(
                    host, port, request_bytes("/extract_many", {"items": items})
                )
                assert status == 200
                assert headers["content-type"] == "application/json"
                slots = body["results"]
                assert [slot["status"] for slot in slots] == [200, 200]
                # The bulk slot carries the byte-identical /extract payload.
                assert slots[0]["result"] == single
                assert slots[1]["result"]["values"] == ["10"]

        run(go())

    def test_ndjson_accept_gets_the_json_body(self):
        """The NDJSON stream mode is gone; a client that still asks for
        it gets the JSON answer on a kept-alive connection."""

        async def go():
            async with WrapperHTTPServer(deployed_client()) as server:
                host, port = server.address
                items = [
                    {"site_key": "shop/name", "html": TITLE_PAGE},
                    {"site_key": "shop/price", "html": OTHER_PAGE},
                ]
                _, _, json_body = await json_exchange(
                    host, port, request_bytes("/extract_many", {"items": items})
                )
                status, headers, body = await json_exchange(
                    host, port,
                    request_bytes(
                        "/extract_many", {"items": items},
                        accept="application/x-ndjson",
                    ),
                )
                assert status == 200
                assert headers["content-type"] == "application/json"
                assert headers["connection"] == "keep-alive"
                assert body == json_body
                assert [slot["status"] for slot in body["results"]] == [200, 200]

        run(go())

    def test_per_item_failures_fail_the_slot_not_the_batch(self):
        client = deployed_client()
        # A deployed wrapper whose ensemble member does not parse: its
        # slot fails with the same 422 /extract answers it with.
        broken = client.artifact("shop/price")
        client.deploy(dataclasses.replace(
            broken, task_id="shop/broken", ensemble=("child::(((",), quorum=1
        ))

        async def go():
            async with WrapperHTTPServer(client) as server:
                host, port = server.address
                items = [
                    {"site_key": "no/such", "html": TITLE_PAGE},
                    {"site_key": "shop/name"},  # missing html
                    {"site_key": "shop/name", "html": TITLE_PAGE},
                    {"site_key": "shop/broken", "html": TITLE_PAGE},
                ]
                status, _, body = await json_exchange(
                    host, port, request_bytes("/extract_many", {"items": items})
                )
                assert status == 200  # the batch itself succeeds
                slots = body["results"]
                assert slots[0]["status"] == 404
                assert slots[0]["code"] == "unknown_wrapper"
                assert slots[1]["status"] == 400
                assert slots[2]["status"] == 200
                assert slots[2]["result"]["values"] == ["Alpha"]
                assert slots[3]["status"] == 422
                assert slots[3]["code"] == "unprocessable"
                assert "'m0'" in slots[3]["error"]

        run(go())

    def test_in_flight_items_are_bounded_by_max_pending(self):
        """A 300-item request never runs more than ``max_pending`` items
        at once, and its slots keep item order."""
        server = WrapperHTTPServer(
            deployed_client(), NetConfig(serving=ServingConfig(max_pending=16))
        )
        op_extract = server._op_extract
        running = peak = 0

        async def counted(*args, **kwargs):
            nonlocal running, peak
            running += 1
            peak = max(peak, running)
            try:
                return await op_extract(*args, **kwargs)
            finally:
                running -= 1

        server._op_extract = counted
        items = [
            {"site_key": "shop/name", "html": (TITLE_PAGE, OTHER_PAGE)[i % 2]}
            for i in range(300)
        ]

        async def go():
            async with server:
                host, port = server.address
                status, _, body = await json_exchange(
                    host, port, request_bytes("/extract_many", {"items": items})
                )
                assert status == 200
                values = [slot["result"]["values"] for slot in body["results"]]
                assert values == [["Alpha"], ["Beta"]] * 150

        run(go())
        assert 1 < peak <= 16

    def test_a_batch_never_throttles_its_own_items(self):
        """With a per-tenant in-flight cap below ``max_pending``, a
        20-item request runs no wider than the cap, so none of its
        slots is refused with 429."""
        server = WrapperHTTPServer(
            deployed_client(), NetConfig(quota=QuotaConfig(max_inflight=2))
        )
        items = [{"site_key": "shop/name", "html": TITLE_PAGE}] * 20

        async def go():
            async with server:
                host, port = server.address
                status, _, body = await json_exchange(
                    host, port, request_bytes("/extract_many", {"items": items})
                )
                assert status == 200
                assert [slot["status"] for slot in body["results"]] == [200] * 20

        run(go())

    def test_items_must_be_a_list(self):
        async def go():
            async with WrapperHTTPServer(deployed_client()) as server:
                host, port = server.address
                status, _, body = await json_exchange(
                    host, port, request_bytes("/extract_many", {"items": "nope"})
                )
                assert status == 400
                assert body["code"] == "bad_request"

        run(go())

    def test_a_request_over_the_item_cap_is_refused_whole(self):
        """One item more than ``MAX_BATCH_ITEMS``: 413, before any item
        reaches the serving layer."""
        items = [{"site_key": "shop/name", "html": TITLE_PAGE}] * (MAX_BATCH_ITEMS + 1)

        async def go():
            async with WrapperHTTPServer(deployed_client()) as server:
                host, port = server.address
                status, _, body = await json_exchange(
                    host, port, request_bytes("/extract_many", {"items": items})
                )
                assert status == 413
                assert body["code"] == "payload_too_large"
                assert f"limit of {MAX_BATCH_ITEMS} items" in body["error"]
                assert server.serving_stats.requests == 0

        run(go())

    def test_a_request_at_the_item_cap_is_served(self):
        items = [{"site_key": "shop/name", "html": TITLE_PAGE}] * MAX_BATCH_ITEMS

        async def go():
            async with WrapperHTTPServer(deployed_client()) as server:
                host, port = server.address
                status, _, body = await json_exchange(
                    host, port, request_bytes("/extract_many", {"items": items})
                )
                assert status == 200
                assert len(body["results"]) == MAX_BATCH_ITEMS
                assert {slot["status"] for slot in body["results"]} == {200}
                assert server.serving_stats.requests == MAX_BATCH_ITEMS

        run(go())


@pytest.fixture(scope="module")
def live_server():
    proc, host, port = spawn_listen()
    remote = RemoteWrapperClient(host, port)
    doc = parse_html(TITLE_PAGE)
    name = doc.find(tag="h1", class_="name")
    price = doc.find(tag="span", class_="price")
    mark_volatile(name, price)
    remote.induce("shop/name", [Sample(doc, [name])])
    remote.induce("shop/price", [Sample(doc, [price])])
    try:
        yield remote, host, port
    finally:
        remote.close()
        terminate([proc])


class TestClientWireModes:
    ITEMS = [
        ("shop/name", TITLE_PAGE),
        ("shop/price", TITLE_PAGE),
        ("shop/name", OTHER_PAGE),
    ]

    def test_bulk_matches_pipeline(self, live_server):
        """``extract_many`` answers byte-identically to per-item
        ``extract``."""
        remote, _, _ = live_server
        expected = [remote.extract(key, page).to_payload() for key, page in self.ITEMS]
        results = remote.extract_many(self.ITEMS)
        assert [r.to_payload() for r in results] == expected

    def test_bulk_modes_raise_the_same_typed_errors(self, live_server):
        remote, _, _ = live_server
        items = [("shop/name", TITLE_PAGE), ("no/such", TITLE_PAGE)]
        results = remote.extract_many(items, return_errors=True)
        assert results[0].values == ("Alpha",)
        assert isinstance(results[1], KeyError)
        with pytest.raises(KeyError):
            remote.extract_many(items)

    def test_invalid_wire_is_rejected_by_every_backend(self, live_server):
        """``extract_many`` takes only ``items`` and ``return_errors``:
        the removed transport options are a TypeError on every client."""
        remote, host, port = live_server
        cluster = ClusterMap((f"{host}:{port}",), n_shards=8)
        with RouterClient(cluster) as router:
            for client in (remote, router, WrapperClient()):
                for option in ({"wire": "bulk"}, {"wire": "pipeline"}, {"concurrency": 4}):
                    with pytest.raises(TypeError):
                        client.extract_many(self.ITEMS, **option)

    def test_router_passes_wire_through(self, live_server):
        """The router's ``extract_many`` answers byte-identically to its
        per-item ``extract``."""
        _, host, port = live_server
        cluster = ClusterMap((f"{host}:{port}",), n_shards=8)
        with RouterClient(cluster) as router:
            expected = [
                router.extract(key, page).to_payload() for key, page in self.ITEMS
            ]
            results = router.extract_many(self.ITEMS)
            assert [r.to_payload() for r in results] == expected


def run_client_against(server: WrapperHTTPServer, fn):
    """``fn(remote)`` in a worker thread while ``server`` serves."""

    async def go():
        async with server:
            with RemoteWrapperClient(*server.address) as remote:
                return await asyncio.to_thread(fn, remote)

    return run(go())


class TestBatchPacking:
    LIMIT = 2048
    ITEMS = [("shop/name", TITLE_PAGE), ("shop/price", OTHER_PAGE)] * 20

    def test_batches_are_packed_under_the_body_limit(self, monkeypatch):
        # One constant bounds both ends: the client packs under it and
        # the server refuses bodies above it.
        monkeypatch.setattr(results_module, "MAX_BODY_BYTES", self.LIMIT)
        server = WrapperHTTPServer(deployed_client())
        op_extract_many = server._op_extract_many
        sizes = []

        async def counted(payload, *args):
            sizes.append(len(payload["items"]))
            return await op_extract_many(payload, *args)

        server._op_extract_many = counted
        results = run_client_against(server, lambda r: r.extract_many(self.ITEMS))
        assert [r.values for r in results] == [("Alpha",), ("20",)] * 20
        assert len(sizes) > 1 and sum(sizes) == len(self.ITEMS)
        assert server.metrics.as_payload()["by_status"] == {"200": len(sizes)}

    def test_batches_are_capped_in_items(self, monkeypatch):
        monkeypatch.setattr(remote_module, "MAX_BATCH_ITEMS", 7)
        server = WrapperHTTPServer(deployed_client())
        op_extract_many = server._op_extract_many
        sizes = []

        async def counted(payload, *args):
            sizes.append(len(payload["items"]))
            return await op_extract_many(payload, *args)

        server._op_extract_many = counted
        results = run_client_against(server, lambda r: r.extract_many(self.ITEMS))
        assert [r.values for r in results] == [("Alpha",), ("20",)] * 20
        assert sizes == [7] * 5 + [5]

    def test_an_oversized_item_fails_only_its_own_slot(self, monkeypatch):
        monkeypatch.setattr(results_module, "MAX_BODY_BYTES", self.LIMIT)
        server = WrapperHTTPServer(deployed_client())
        huge = TITLE_PAGE.replace("<body>", "<body>" + "<p>x</p>" * self.LIMIT)
        items = [*self.ITEMS[:2], ("shop/name", huge), *self.ITEMS[:2]]
        results = run_client_against(
            server, lambda r: r.extract_many(items, return_errors=True)
        )
        assert isinstance(results[2], FacadeError)
        values = [r.values for i, r in enumerate(results) if i != 2]
        assert values == [("Alpha",), ("20",)] * 2


TEST_KEY = "k-batch-test-0001"


def seeded_store(root):
    """A store holding the two test wrappers, so a quota-guarded server
    spends no request on setup."""
    store = root / "store"
    local = deployed_client()
    seeded = WrapperClient(store=store)
    for key in local.keys():
        seeded.deploy(local.artifact(key))
    return store


def test_a_batch_completes_under_a_low_in_flight_quota(tmp_path):
    """``serve --listen --max-inflight 2`` answers every item of a
    20-item ``extract_many``."""
    proc, host, port = spawn_listen(
        "--artifacts", str(seeded_store(tmp_path)), "--max-inflight", "2"
    )
    items = [("shop/name", TITLE_PAGE), ("shop/price", OTHER_PAGE)] * 10
    try:
        with RemoteWrapperClient(host, port) as remote:
            results = remote.extract_many(items)
    finally:
        terminate([proc])
    assert [r.values for r in results] == [("Alpha",), ("20",)] * 10


@pytest.fixture(scope="module")
def guarded_server(tmp_path_factory):
    """A ``serve --listen`` process with API keys and a 5/s, burst-2
    rate limit over a store the two test wrappers were induced into
    (no rate-limited request is spent on setup)."""
    root = tmp_path_factory.mktemp("guarded")
    store = seeded_store(root)
    keys = root / "keys.txt"
    keys.write_text(f"{TEST_KEY} *\n")
    proc, host, port = spawn_listen(
        "--artifacts", str(store), "--auth-keys", str(keys),
        "--rate-limit", "5", "--burst", "2",
    )
    try:
        yield host, port
    finally:
        terminate([proc])


class TestBatchRetriesAndFailures:
    ITEMS = [
        ("shop/name", TITLE_PAGE),
        ("shop/price", TITLE_PAGE),
        ("shop/name", OTHER_PAGE),
    ]
    VALUES = [("Alpha",), ("10",), ("Beta",)]

    def test_throttled_items_are_resent_after_retry_after(self, guarded_server):
        time.sleep(0.5)  # let the token bucket refill to its burst of 2
        with RemoteWrapperClient(*guarded_server, api_key=TEST_KEY) as remote:
            started = time.monotonic()
            results = remote.extract_many(self.ITEMS)
            elapsed = time.monotonic() - started
        assert [r.values for r in results] == self.VALUES
        assert elapsed >= 0.2  # the third item waited for a token

    def test_exhausted_retries_return_the_rate_limit_error(
        self, guarded_server, monkeypatch
    ):
        monkeypatch.setattr(remote_module, "_RATE_LIMIT_WAIT_CAP_S", 0.001)
        items = self.ITEMS * 3
        with RemoteWrapperClient(*guarded_server, api_key=TEST_KEY) as remote:
            results = remote.extract_many(items, return_errors=True)
        throttled = [r for r in results if isinstance(r, RateLimitError)]
        assert throttled and all(r.retry_after_s > 0 for r in throttled)
        for result, values in zip(results, self.VALUES * 3):
            assert isinstance(result, RateLimitError) or result.values == values

    def test_a_batch_past_burst_and_retries_completes(self, guarded_server):
        """Rounds that get any item through do not use up the retries:
        nine items against a burst of 2 all come back, at the rate."""
        items = self.ITEMS * 3
        with RemoteWrapperClient(*guarded_server, api_key=TEST_KEY) as remote:
            results = remote.extract_many(items)
        assert [r.values for r in results] == self.VALUES * 3

    def test_a_refused_request_fails_every_item(self, guarded_server):
        with RemoteWrapperClient(*guarded_server) as keyless:
            results = keyless.extract_many(self.ITEMS, return_errors=True)
            assert all(isinstance(r, AuthError) and r.status == 401 for r in results)
            with pytest.raises(AuthError):
                keyless.extract_many(self.ITEMS)
