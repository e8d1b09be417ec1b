"""The bulk wire mode of ``/extract_many``: the JSON answer (whatever
``Accept`` asks for), per-item failure slots, and client/router parity
across ``wire="pipeline"|"bulk"``."""

import asyncio
import dataclasses
import json

import pytest

from repro import (
    ClusterMap,
    RouterClient,
    Sample,
    WrapperClient,
    mark_volatile,
    parse_html,
)
from repro.api.remote import RemoteWrapperClient
from repro.api.results import FacadeError
from repro.runtime.net import WrapperHTTPServer
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
        remote, _, _ = live_server
        baseline = remote.extract_many(self.ITEMS, wire="pipeline")
        results = remote.extract_many(self.ITEMS, wire="bulk")
        assert [r.to_payload() for r in results] == [
            r.to_payload() for r in baseline
        ]

    def test_bulk_modes_raise_the_same_typed_errors(self, live_server):
        remote, _, _ = live_server
        items = [("shop/name", TITLE_PAGE), ("no/such", TITLE_PAGE)]
        results = remote.extract_many(items, wire="bulk", return_errors=True)
        assert results[0].values == ("Alpha",)
        assert isinstance(results[1], KeyError)
        with pytest.raises(KeyError):
            remote.extract_many(items, wire="bulk")

    def test_invalid_wire_is_rejected_by_every_backend(self, live_server):
        remote, host, port = live_server
        cluster = ClusterMap((f"{host}:{port}",), n_shards=8)
        with RouterClient(cluster) as router:
            for client in (remote, router, WrapperClient()):
                for wire in ("telepathy", "stream"):
                    with pytest.raises(FacadeError, match="wire"):
                        client.extract_many(self.ITEMS, wire=wire)
                for concurrency in (0, -5):
                    with pytest.raises(FacadeError, match="concurrency"):
                        client.extract_many([], concurrency=concurrency)

    def test_router_passes_wire_through(self, live_server):
        _, host, port = live_server
        cluster = ClusterMap((f"{host}:{port}",), n_shards=8)
        with RouterClient(cluster) as router:
            baseline = router.extract_many(self.ITEMS, wire="pipeline")
            results = router.extract_many(self.ITEMS, wire="bulk")
            assert [r.to_payload() for r in results] == [
                r.to_payload() for r in baseline
            ]
