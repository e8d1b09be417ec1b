"""The HTTP front-end: protocol correctness and failure containment.

Covers the satellite failure paths: malformed JSON requests, unknown
site keys, oversized payloads, clients disconnecting mid-request, and
concurrent clients hitting the same page (one parse, yet every caller
gets its own wrapper's records)."""

import asyncio
import json

import pytest

from repro import Sample, WrapperClient, mark_volatile, parse_html
from repro.api import results
from repro.induction.config import MAX_K
from repro.runtime.net import INDUCE_WORKERS, NetConfig, WrapperHTTPServer
from repro.runtime.serve import ServingConfig

TITLE_PAGE = """
<html><body>
<div class="head"><p>nav</p></div>
<div class="item"><h1 class="name">Alpha</h1><span class="price">10</span></div>
<div class="foot"><p>imprint</p></div>
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


async def raw_request(host, port, payload: bytes):
    """One raw HTTP exchange; returns (status, headers, body_json)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(payload)
        await writer.drain()
        return await read_response(reader)
    finally:
        writer.close()


async def read_response(reader):
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


def post(path: str, payload: dict) -> bytes:
    body = json.dumps(payload).encode()
    return (
        f"POST {path} HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode() + body


class TestFailurePaths:
    def test_malformed_json_is_400_and_connection_survives(self):
        async def go():
            async with WrapperHTTPServer(WrapperClient()) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                bad = b"POST /extract HTTP/1.1\r\nContent-Length: 7\r\n\r\nnotjson"
                writer.write(bad)
                status, _, body = await read_response(reader)
                assert status == 400
                assert body["code"] == "bad_request"
                assert "JSON" in body["error"]
                # The same connection keeps serving after the bad request.
                writer.write(b"GET /healthz HTTP/1.1\r\n\r\n")
                status2, _, body2 = await read_response(reader)
                writer.close()
                assert status2 == 200 and body2["ok"] is True

        run(go())

    def test_unknown_site_key_is_404_unknown_wrapper(self):
        async def go():
            async with WrapperHTTPServer(WrapperClient()) as server:
                host, port = server.address
                status, _, body = await raw_request(
                    host, port, post("/extract", {"site_key": "no/such", "html": "<p>x</p>"})
                )
                assert status == 404
                assert body["code"] == "unknown_wrapper"
                status2, _, body2 = await raw_request(
                    host, port, b"GET /wrappers/no%2Fsuch HTTP/1.1\r\n\r\n"
                )
                assert status2 == 404 and body2["code"] == "unknown_wrapper"

        run(go())

    def test_unknown_endpoint_and_wrong_method(self):
        async def go():
            async with WrapperHTTPServer(WrapperClient()) as server:
                host, port = server.address
                status, _, body = await raw_request(
                    host, port, b"GET /nothing HTTP/1.1\r\n\r\n"
                )
                assert status == 404 and body["code"] == "not_found"
                status2, _, body2 = await raw_request(
                    host, port, b"GET /extract HTTP/1.1\r\n\r\n"
                )
                assert status2 == 405 and body2["code"] == "method_not_allowed"

        run(go())

    def test_oversized_payload_is_413_without_reading_the_body(self, monkeypatch):
        monkeypatch.setattr(results, "MAX_BODY_BYTES", 1024)

        async def go():
            async with WrapperHTTPServer(WrapperClient()) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                # Announce a huge body but never send it: the server must
                # answer from the Content-Length alone.
                writer.write(
                    b"POST /extract HTTP/1.1\r\nContent-Length: 10000000\r\n\r\n"
                )
                status, headers, body = await read_response(reader)
                writer.close()
                assert status == 413
                assert body["code"] == "payload_too_large"
                assert headers["connection"] == "close"

        run(go())

    def test_client_disconnect_mid_request_leaves_server_serving(self):
        async def go():
            async with WrapperHTTPServer(deployed_client()) as server:
                host, port = server.address
                # Disconnect mid-head.
                _, w1 = await asyncio.open_connection(host, port)
                w1.write(b"POST /extract HTT")
                await w1.drain()
                w1.close()
                # Disconnect mid-body (Content-Length promised, not kept).
                _, w2 = await asyncio.open_connection(host, port)
                w2.write(b"POST /extract HTTP/1.1\r\nContent-Length: 500\r\n\r\n{...")
                await w2.drain()
                w2.close()
                await asyncio.sleep(0.05)
                # The server still answers real requests.
                status, _, body = await raw_request(
                    host, port, post("/extract", {"site_key": "shop/name", "html": TITLE_PAGE})
                )
                assert status == 200
                assert body["values"] == ["Alpha"]

        run(go())

    def test_missing_fields_are_400(self):
        async def go():
            async with WrapperHTTPServer(deployed_client()) as server:
                host, port = server.address
                status, _, body = await raw_request(
                    host, port, post("/extract", {"site_key": "shop/name"})
                )
                assert status == 400 and "html" in body["error"]
                status2, _, body2 = await raw_request(
                    host, port, post("/induce", {"site_key": "x", "samples": []})
                )
                assert status2 == 400 and "samples" in body2["error"]

        run(go())

    def test_facade_errors_are_422(self):
        async def go():
            async with WrapperHTTPServer(deployed_client()) as server:
                host, port = server.address
                status, _, body = await raw_request(
                    host,
                    port,
                    post(
                        "/induce",
                        {"site_key": "x", "mode": "magic", "samples": [{"bogus": 1}]},
                    ),
                )
                assert status == 422
                assert body["code"] == "unprocessable"

        run(go())


class TestConcurrency:
    def test_concurrent_clients_on_one_page_coalesce_and_demux(self):
        """Many clients hit the same rendered page at once: the serving
        layer parses it once (the parse cache answers every repeat)
        while every caller still gets the records for *its* wrapper."""
        client = deployed_client()
        config = NetConfig(serving=ServingConfig())

        async def one(host, port, site_key):
            return await raw_request(
                host, port, post("/extract", {"site_key": site_key, "html": TITLE_PAGE})
            )

        async def go():
            async with WrapperHTTPServer(client, config) as server:
                host, port = server.address
                keys = ["shop/name", "shop/price"] * 6
                answers = await asyncio.gather(*(one(host, port, k) for k in keys))
                return answers, server.serving_stats

        answers, stats = run(go())
        for (status, _, body), key in zip(answers, ["shop/name", "shop/price"] * 6):
            assert status == 200
            expected = ["Alpha"] if key == "shop/name" else ["10"]
            assert body["values"] == expected, f"wrong records for {key}"
        assert stats.requests == 12
        assert stats.pages_parsed == 1
        assert stats.parse_cache_hits == 11

    def test_keep_alive_serves_sequential_requests(self):
        async def go():
            async with WrapperHTTPServer(deployed_client()) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                for _ in range(3):
                    writer.write(
                        post("/extract", {"site_key": "shop/name", "html": TITLE_PAGE})
                    )
                    status, _, body = await read_response(reader)
                    assert status == 200 and body["values"] == ["Alpha"]
                writer.close()

        run(go())

    def test_healthz_reports_wrappers_and_serving_stats(self):
        async def go():
            async with WrapperHTTPServer(deployed_client()) as server:
                host, port = server.address
                await raw_request(
                    host, port, post("/extract", {"site_key": "shop/name", "html": TITLE_PAGE})
                )
                status, _, body = await raw_request(
                    host, port, b"GET /healthz HTTP/1.1\r\n\r\n"
                )
                assert status == 200
                assert body["ok"] is True and body["wrappers"] == 2
                assert body["serving"]["requests"] >= 1

        run(go())

    def test_wrappers_listing_and_delete(self):
        async def go():
            async with WrapperHTTPServer(deployed_client()) as server:
                host, port = server.address
                status, _, body = await raw_request(
                    host, port, b"GET /wrappers HTTP/1.1\r\n\r\n"
                )
                assert status == 200
                assert {w["site_key"] for w in body["wrappers"]} == {
                    "shop/name",
                    "shop/price",
                }
                status2, _, body2 = await raw_request(
                    host, port, b"DELETE /wrappers/shop%2Fname HTTP/1.1\r\n\r\n"
                )
                assert status2 == 200 and body2["deleted"] == "shop/name"
                status3, _, _ = await raw_request(
                    host, port, b"GET /wrappers/shop%2Fname HTTP/1.1\r\n\r\n"
                )
                assert status3 == 404

        run(go())


def get(path: str, headers: dict = None) -> bytes:
    extra = "".join(f"{k}: {v}\r\n" for k, v in (headers or {}).items())
    return f"GET {path} HTTP/1.1\r\n{extra}\r\n".encode()


def post_with_headers(path: str, payload: dict, headers: dict) -> bytes:
    body = json.dumps(payload).encode()
    extra = "".join(f"{k}: {v}\r\n" for k, v in headers.items())
    return (
        f"POST {path} HTTP/1.1\r\nContent-Length: {len(body)}\r\n{extra}\r\n"
    ).encode() + body


class TestRawPathRouting:
    """Regression: routing happens on the RAW path; only the
    /wrappers/<key> remainder is percent-decoded.  Decoding the whole
    path first let %2F grow extra segments and %-encoding alias fixed
    endpoints."""

    def test_encoded_key_on_every_wrappers_verb(self):
        async def go():
            async with WrapperHTTPServer(deployed_client()) as server:
                host, port = server.address
                status, _, body = await raw_request(
                    host, port, get("/wrappers/shop%2Fname")
                )
                assert status == 200 and body["site_key"] == "shop/name"
                status2, _, body2 = await raw_request(
                    host, port, b"DELETE /wrappers/shop%2Fname HTTP/1.1\r\n\r\n"
                )
                assert status2 == 200 and body2["deleted"] == "shop/name"
                status3, _, body3 = await raw_request(
                    host, port, get("/wrappers/shop%2Fname")
                )
                assert status3 == 404 and body3["code"] == "unknown_wrapper"

        run(go())

    def test_encoded_slash_cannot_grow_path_segments(self):
        """``/wrappers%2Fx`` is NOT ``/wrappers/x`` — it must miss every
        route (previously it decoded early and was misrouted into a key
        lookup)."""

        async def go():
            async with WrapperHTTPServer(deployed_client()) as server:
                host, port = server.address
                status, _, body = await raw_request(
                    host, port, get("/wrappers%2Fshop%2Fname")
                )
                assert status == 404 and body["code"] == "not_found"

        run(go())

    def test_encoded_endpoint_name_is_not_an_alias(self):
        async def go():
            async with WrapperHTTPServer(deployed_client()) as server:
                host, port = server.address
                status, _, body = await raw_request(
                    host,
                    port,
                    post("/%65xtract", {"site_key": "shop/name", "html": "<p/>"}),
                )
                assert status == 404 and body["code"] == "not_found"

        run(go())

    def test_encoded_question_mark_stays_in_the_key(self):
        """``%3F`` in a key segment is key data, never a query split."""

        async def go():
            async with WrapperHTTPServer(deployed_client()) as server:
                host, port = server.address
                status, _, body = await raw_request(
                    host, port, get("/wrappers/a%3Fb")
                )
                assert status == 404 and body["code"] == "unknown_wrapper"
                assert "a?b" in body["error"]

        run(go())

    def test_traversal_shaped_key_is_a_key_not_a_path(self):
        async def go():
            async with WrapperHTTPServer(deployed_client()) as server:
                host, port = server.address
                status, _, body = await raw_request(
                    host, port, get("/wrappers/a%2F..%2Fb")
                )
                assert status == 404 and body["code"] == "unknown_wrapper"
                assert "a/../b" in body["error"]

        run(go())


class TestBodyFraming:
    """The 411/400 satellite: bodies are framed by Content-Length only,
    and a POST that cannot be framed gets a typed answer — not a
    confusing JSON-parse 400 on an empty body."""

    def test_post_without_content_length_is_411(self):
        async def go():
            async with WrapperHTTPServer(deployed_client()) as server:
                host, port = server.address
                status, headers, body = await raw_request(
                    host, port, b"POST /extract HTTP/1.1\r\n\r\n"
                )
                assert status == 411 and body["code"] == "length_required"
                assert "Content-Length" in body["error"]
                assert headers["connection"] == "close"

        run(go())

    def test_chunked_transfer_encoding_is_411(self):
        async def go():
            async with WrapperHTTPServer(deployed_client()) as server:
                host, port = server.address
                status, _, body = await raw_request(
                    host,
                    port,
                    b"POST /extract HTTP/1.1\r\n"
                    b"Transfer-Encoding: chunked\r\n\r\n"
                    b"0\r\n\r\n",
                )
                assert status == 411 and body["code"] == "length_required"
                assert "Transfer-Encoding" in body["error"]

        run(go())

    def test_negative_and_garbage_content_length_are_400(self):
        async def go():
            async with WrapperHTTPServer(deployed_client()) as server:
                host, port = server.address
                status, _, body = await raw_request(
                    host,
                    port,
                    b"POST /extract HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
                )
                assert status == 400 and "negative" in body["error"]
                status2, _, body2 = await raw_request(
                    host,
                    port,
                    b"POST /extract HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
                )
                assert status2 == 400 and "invalid" in body2["error"]

        run(go())

    def test_bodyless_get_still_fine_without_content_length(self):
        async def go():
            async with WrapperHTTPServer(deployed_client()) as server:
                host, port = server.address
                status, _, body = await raw_request(host, port, get("/healthz"))
                assert status == 200 and body["ok"] is True

        run(go())


class TestReasonPhrases:
    def test_new_statuses_have_phrases(self):
        from repro.runtime.net import _reason

        assert _reason(401) == "Unauthorized"
        assert _reason(403) == "Forbidden"
        assert _reason(411) == "Length Required"
        assert _reason(429) == "Too Many Requests"

    def test_unlisted_status_falls_back_and_never_crashes(self):
        from repro.runtime.net import _reason

        assert _reason(418)  # stdlib-known, not in _REASONS
        assert _reason(599) == "Unknown"
        assert _reason(999) == "Unknown"

    def test_status_line_carries_the_phrase_on_the_wire(self):
        async def go():
            async with WrapperHTTPServer(WrapperClient()) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"POST /extract HTTP/1.1\r\n\r\n")
                head = await reader.readuntil(b"\r\n\r\n")
                writer.close()
                assert head.split(b"\r\n")[0] == b"HTTP/1.1 411 Length Required"

        run(go())


def _keyed_config(**kwargs) -> NetConfig:
    from repro.runtime.auth import ApiKeyTable

    return NetConfig(
        auth=ApiKeyTable.from_lines(
            [
                "k-admin-aaaaaaaa *",
                "k-acme-bbbbbbbb acme",
                "k-open-cccccccc",
            ]
        ),
        **kwargs,
    )


class TestAuth:
    def test_missing_key_is_401_before_any_routing(self):
        async def go():
            async with WrapperHTTPServer(deployed_client(), _keyed_config()) as server:
                host, port = server.address
                for request in (
                    get("/wrappers"),
                    get("/wrappers/shop%2Fname"),
                    post("/extract", {"site_key": "shop/name", "html": "<p/>"}),
                    post("/induce", {}),
                    get("/nothing"),  # even unknown endpoints answer 401
                ):
                    status, headers, body = await raw_request(host, port, request)
                    assert status == 401, body
                    assert body["code"] == "unauthorized"
                    assert headers["www-authenticate"] == "Bearer"

        run(go())

    def test_unknown_key_is_401(self):
        async def go():
            async with WrapperHTTPServer(deployed_client(), _keyed_config()) as server:
                host, port = server.address
                status, _, body = await raw_request(
                    host,
                    port,
                    get("/wrappers", {"Authorization": "Bearer k-wrong-ffffffff"}),
                )
                assert status == 401 and body["code"] == "unauthorized"

        run(go())

    def test_wrong_tenant_key_is_403(self):
        async def go():
            async with WrapperHTTPServer(deployed_client(), _keyed_config()) as server:
                host, port = server.address
                # "shop/name" lives in the default namespace; acme's key
                # must not reach it.
                status, _, body = await raw_request(
                    host,
                    port,
                    get(
                        "/wrappers/shop%2Fname",
                        {"Authorization": "Bearer k-acme-bbbbbbbb"},
                    ),
                )
                assert status == 403 and body["code"] == "forbidden"

        run(go())

    def test_keyed_gates_answer_422_403_429_421_in_order(self):
        """A keyed request is qualified into the server's namespace once,
        then gated: malformed key, wrong tenant, quota, shard owner."""
        from repro.cluster.placement import ShardOwnership, shard_of_task
        from repro.runtime.auth import QuotaConfig

        key = "shop/name"
        unowned = ShardOwnership.parse(
            str((shard_of_task(f"acme::{key}", 8) + 1) % 8), 8
        )
        config = _keyed_config(quota=QuotaConfig(rate=0.001, burst=1))

        def fetch(site_key, api_key):
            quoted = site_key.replace("/", "%2F")
            return get(f"/wrappers/{quoted}", {"Authorization": f"Bearer {api_key}"})

        async def go():
            server = WrapperHTTPServer(
                WrapperClient(tenant="acme"), config, ownership=unowned
            )
            async with server:
                host, port = server.address
                answers = [
                    await raw_request(host, port, request)
                    for request in (
                        fetch(f"globex::{key}", "k-open-cccccccc"),  # cross-tenant
                        fetch(key, "k-open-cccccccc"),  # qualifies into acme
                        fetch(key, "k-acme-bbbbbbbb"),  # the one token, then 421
                        fetch(key, "k-acme-bbbbbbbb"),  # the bucket is dry
                    )
                ]
            return [(status, body.get("code")) for status, _, body in answers]

        statuses = run(go())
        assert [status for status, _ in statuses] == [422, 403, 421, 429]
        assert statuses[2][1] == "shard_not_owned"

    def test_matching_and_admin_keys_pass(self):
        async def go():
            async with WrapperHTTPServer(deployed_client(), _keyed_config()) as server:
                host, port = server.address
                for key in ("k-open-cccccccc", "k-admin-aaaaaaaa"):
                    status, _, body = await raw_request(
                        host,
                        port,
                        get(
                            "/wrappers/shop%2Fname",
                            {"Authorization": f"Bearer {key}"},
                        ),
                    )
                    assert status == 200 and body["site_key"] == "shop/name"

        run(go())

    def test_x_api_key_header_works_too(self):
        async def go():
            async with WrapperHTTPServer(deployed_client(), _keyed_config()) as server:
                host, port = server.address
                status, _, body = await raw_request(
                    host,
                    port,
                    get("/wrappers", {"X-API-Key": "k-open-cccccccc"}),
                )
                assert status == 200 and len(body["wrappers"]) == 2

        run(go())

    def test_healthz_and_metrics_stay_open(self):
        async def go():
            async with WrapperHTTPServer(deployed_client(), _keyed_config()) as server:
                host, port = server.address
                status, _, body = await raw_request(host, port, get("/healthz"))
                assert status == 200 and body["ok"] is True
                status2, _, body2 = await raw_request(host, port, get("/metrics"))
                assert status2 == 200 and body2["ok"] is True

        run(go())

    def test_no_auth_launch_is_backward_compatible(self):
        async def go():
            async with WrapperHTTPServer(deployed_client()) as server:
                host, port = server.address
                # Keyless requests pass; a stray key header is ignored.
                status, _, _ = await raw_request(host, port, get("/wrappers"))
                assert status == 200
                status2, _, _ = await raw_request(
                    host, port, get("/wrappers", {"Authorization": "Bearer whatever"})
                )
                assert status2 == 200

        run(go())


class TestQuotas:
    def test_rate_limit_answers_429_with_retry_after(self):
        from repro.runtime.auth import QuotaConfig

        config = NetConfig(quota=QuotaConfig(rate=0.01, burst=2))

        async def go():
            async with WrapperHTTPServer(deployed_client(), config) as server:
                host, port = server.address
                for _ in range(2):
                    status, _, _ = await raw_request(host, port, get("/wrappers"))
                    assert status == 200
                status, headers, body = await raw_request(
                    host, port, get("/wrappers")
                )
                assert status == 429 and body["code"] == "rate_limited"
                assert body["retry_after"] > 0
                assert int(headers["retry-after"]) >= 1
                # /healthz and /metrics are never throttled.
                status2, _, _ = await raw_request(host, port, get("/healthz"))
                assert status2 == 200

        run(go())

    def test_quota_is_per_tenant_namespace(self):
        from repro.runtime.auth import QuotaConfig

        client = WrapperClient()
        config = NetConfig(quota=QuotaConfig(rate=0.01, burst=1))

        async def go():
            async with WrapperHTTPServer(client, config) as server:
                host, port = server.address
                # Drain the default tenant's bucket...
                status, _, _ = await raw_request(
                    host, port, get("/wrappers/some%2Fkey")
                )
                assert status == 404
                status2, _, body2 = await raw_request(
                    host, port, get("/wrappers/some%2Fkey")
                )
                assert status2 == 429, body2
                # ...while another tenant's bucket is untouched.
                status3, _, _ = await raw_request(
                    host, port, get("/wrappers/acme%3A%3Asome%2Fkey")
                )
                assert status3 == 404

        run(go())


class TestMetricsEndpoint:
    def test_metrics_reports_counters_and_state(self):
        async def go():
            async with WrapperHTTPServer(deployed_client(), _keyed_config()) as server:
                host, port = server.address
                await raw_request(
                    host,
                    port,
                    post_with_headers(
                        "/extract",
                        {"site_key": "shop/name", "html": TITLE_PAGE},
                        {"Authorization": "Bearer k-open-cccccccc"},
                    ),
                )
                await raw_request(host, port, get("/wrappers"))  # 401
                status, _, body = await raw_request(host, port, get("/metrics"))
                assert status == 200
                assert body["ok"] is True
                assert body["queue_depth"] >= 0
                assert body["serving"]["requests"] >= 1
                assert set(body["serving"]) == {
                    "requests", "pages_parsed", "parse_cache_hits",
                    "parse_cache_evictions", "batches", "peak_pending",
                }
                assert "coalescing_rate" not in body
                assert body["requests_total"] >= 2
                assert body["by_status"]["200"] >= 1
                assert body["auth"]["unauthorized_401"] >= 1
                assert body["tenants"][""]["requests"] >= 2
                assert body["tenant_state"]["cap"] >= 1

        run(go())


class TestAccessLogWire:
    def test_one_jsonl_record_per_answered_request(self):
        import io

        from repro.runtime.auth import AccessLog

        stream = io.StringIO()
        config = NetConfig(access_log=AccessLog(stream=stream))

        async def go():
            async with WrapperHTTPServer(deployed_client(), config) as server:
                host, port = server.address
                await raw_request(
                    host,
                    port,
                    post("/extract", {"site_key": "shop/name", "html": TITLE_PAGE}),
                )
                await raw_request(host, port, get("/wrappers/no%2Fsuch"))
                # aclose() closes the log stream; read it while live.
                return stream.getvalue()

        text = run(go())
        records = [json.loads(line) for line in text.splitlines()]
        assert len(records) == 2
        assert records[0]["verb"] == "POST /extract"
        assert records[0]["status"] == 200
        assert records[0]["latency_ms"] >= 0
        assert "coalesced" not in records[0]
        assert records[1]["verb"] == "GET /wrappers/no%2Fsuch"
        assert records[1]["status"] == 404


class TestConfig:
    def test_invalid_net_config_rejected(self):
        with pytest.raises(ValueError):
            NetConfig(max_header_bytes=8)
        with pytest.raises(TypeError):
            NetConfig(max_body_bytes=1024)  # the protocol's limit, not an option
        with pytest.raises(TypeError):
            NetConfig(induce_workers=4)  # a fixed pool size, not an option

    def test_double_start_rejected(self):
        async def go():
            async with WrapperHTTPServer(WrapperClient()) as server:
                with pytest.raises(RuntimeError, match="already started"):
                    await server.start()

        run(go())


class TestShutdown:
    def test_sigint_stops_a_server_with_a_keep_alive_client_connected(self):
        """An idle keep-alive connection must not hold ``serve --listen``
        open after SIGINT, nor make its shutdown print a traceback."""
        import signal
        import subprocess

        from repro import RemoteWrapperClient
        from tests.serving_utils import spawn_listen, terminate

        proc, host, port = spawn_listen()
        try:
            with RemoteWrapperClient(host, port) as client:
                assert client.healthz()["ok"] is True
                proc.send_signal(signal.SIGINT)
                try:
                    output, _ = proc.communicate(timeout=10)
                except subprocess.TimeoutExpired:
                    pytest.fail("serve --listen still running 10 s after SIGINT")
        finally:
            terminate([proc])
        assert proc.returncode == 0
        assert "shutting down" in output
        assert "Traceback" not in output


class TestInduceWire:
    """The induce-side fast-path surface: dedicated executor metrics,
    the ``options`` wire field, and ``induce_ms`` in the access log."""

    def _wire_sample(self) -> dict:
        from repro import Sample as FacadeSample

        doc = parse_html(TITLE_PAGE)
        price = doc.find(tag="span", class_="price")
        mark_volatile(price)
        return FacadeSample(doc, [price]).to_payload()

    def test_metrics_grow_an_induction_block(self):
        sample = self._wire_sample()

        async def go():
            async with WrapperHTTPServer(deployed_client()) as server:
                host, port = server.address
                status, _, body = await raw_request(
                    host,
                    port,
                    post("/induce", {"site_key": "shop/wire", "samples": [sample]}),
                )
                assert status == 200, body
                status2, _, metrics = await raw_request(host, port, get("/metrics"))
                assert status2 == 200
                return metrics["induction"]

        block = run(go())
        # Client-level counters (deployed_client() already induced twice).
        assert block["inductions"] >= 3
        # Exhaustive default: the pruner (which owns these counters)
        # never runs, so both stay zero.
        assert block["candidates_considered"] == 0
        assert block["pruned_candidates_skipped"] == 0
        assert block["repairs"] == 0
        # Executor-level gauges.
        assert block["induce_pool_workers"] == INDUCE_WORKERS
        assert block["induce_pool_depth"] == 0  # idle at scrape time
        assert block["induce_pool_depth_peak"] >= 1
        assert block["induce_requests"] == 1
        assert block["induce_latency_avg_ms"] > 0
        assert block["induce_latency_max_ms"] >= block["induce_latency_avg_ms"]

    def test_options_reach_the_inducer(self):
        sample = self._wire_sample()

        async def go():
            async with WrapperHTTPServer(deployed_client()) as server:
                host, port = server.address
                status, _, body = await raw_request(
                    host,
                    port,
                    post(
                        "/induce",
                        {
                            "site_key": "shop/pruned",
                            "samples": [sample],
                            "options": {"search": "pruned", "diversity": 2.0},
                        },
                    ),
                )
                assert status == 200, body
                # The stats land in the stored artifact's provenance.
                artifact = server.client.artifact("shop/pruned")
                stamped = artifact.provenance["facade"]["induction"]
                assert stamped["search"] == "pruned"
                _, _, metrics = await raw_request(host, port, get("/metrics"))
                return metrics["induction"]

        block = run(go())
        assert block["inductions"] >= 3
        assert block["candidates_considered"] > 0

    def test_bad_options_rejected(self):
        sample = self._wire_sample()

        async def go():
            async with WrapperHTTPServer(deployed_client()) as server:
                host, port = server.address
                status, _, body = await raw_request(
                    host,
                    port,
                    post(
                        "/induce",
                        {
                            "site_key": "shop/x",
                            "samples": [sample],
                            "options": "pruned",
                        },
                    ),
                )
                assert status == 400 and "options" in body["error"]
                status2, _, body2 = await raw_request(
                    host,
                    port,
                    post(
                        "/induce",
                        {
                            "site_key": "shop/x",
                            "samples": [sample],
                            "options": {"beem_width": 4},
                        },
                    ),
                )
                assert status2 == 422, body2
                assert "unknown induction options" in body2["error"]

        run(go())

    def test_k_outside_its_bound_is_422(self):
        """``k`` is the one work size a client chooses: the config
        refuses it above ``MAX_K`` before any induction runs."""
        sample = self._wire_sample()

        async def go():
            async with WrapperHTTPServer(deployed_client()) as server:
                host, port = server.address
                answers = []
                for k in (65, 0):
                    answers.append(
                        await raw_request(
                            host,
                            port,
                            post(
                                "/induce",
                                {"site_key": "shop/k", "samples": [sample], "k": k},
                            ),
                        )
                    )
                return answers, server.client.keys()

        answers, keys = run(go())
        for status, _, body in answers:
            assert status == 422, body
            assert body["code"] == "unprocessable"
            assert "k must be an integer from 1 to 64" in body["error"]
        assert "shop/k" not in keys

    def test_wrongly_typed_option_is_422_not_500(self):
        """Malformed ``/induce`` and ``/repair`` bodies get a typed 4xx:
        400 for a wrongly typed integer field, 422 for a sample, path
        or option the facade cannot use — never a 500."""
        sample = self._wire_sample()
        doc = parse_html(TITLE_PAGE)
        price = doc.find(tag="span", class_="price")
        name = doc.find(tag="h1", class_="name")
        mark_volatile(price, name)
        record = Sample(doc, [price], fields={"name": [name]}).to_payload()

        def induce(**changes):
            return "/induce", {"site_key": "shop/x", "samples": [sample], **changes}

        def induce_sample(mode="node", **changes):
            return "/induce", {
                "site_key": "shop/x",
                "mode": mode,
                "samples": [{**(record if mode == "record" else sample), **changes}],
            }

        table = [
            (induce(options={"search": "pruned", "diversity": "2"}), 422, "diversity"),
            (induce(options={"search": "pruned", "beam_width": 2.5}), 422, "beam_width"),
            (induce(k=65), 422, "k must be an integer from 1 to 64"),
            (induce(k="abc"), 400, "'k'"),
            (induce(k=None), 400, "'k'"),
            (induce(k=True), 400, "'k'"),
            (induce(ensemble_size="abc"), 400, "'ensemble_size'"),
            (induce(ensemble_size=None), 400, "'ensemble_size'"),
            (induce(max_queries="abc"), 400, "'max_queries'"),
            (induce(max_queries=None), 400, "'max_queries'"),
            (induce_sample(targets=[]), 422, "at least one target"),
            (induce_sample(targets=["child::((("]), 422, "'child::((('"),
            (induce_sample(context=5), 422, "'5'"),
            (induce_sample("record", fields=["name"]), 422, "'fields'"),
            (induce_sample("record", fields={"name": ["child::((("]}), 422, "'child::((('"),
            (
                ("/repair", {
                    "site_key": "shop/price",
                    "html": TITLE_PAGE,
                    "target_paths": ["child::((("],
                }),
                422,
                "'child::((('",
            ),
        ]

        async def go():
            async with WrapperHTTPServer(deployed_client()) as server:
                host, port = server.address
                answers = []
                for (path, body), _, _ in table:
                    status, _, answer = await raw_request(host, port, post(path, body))
                    answers.append((status, answer))
                return answers

        for row, ((_, status, fragment), (got, answer)) in enumerate(
            zip(table, run(go()))
        ):
            assert got == status, (row, answer)
            assert answer["code"] == ("bad_request" if status == 400 else "unprocessable")
            assert fragment in answer["error"], (row, answer)

    def test_access_log_stamps_induce_ms_only_on_induce(self):
        import io

        from repro.runtime.auth import AccessLog

        sample = self._wire_sample()
        stream = io.StringIO()
        config = NetConfig(access_log=AccessLog(stream=stream))

        async def go():
            async with WrapperHTTPServer(deployed_client(), config) as server:
                host, port = server.address
                await raw_request(
                    host,
                    port,
                    post("/induce", {"site_key": "shop/wire", "samples": [sample]}),
                )
                await raw_request(
                    host,
                    port,
                    post("/extract", {"site_key": "shop/name", "html": TITLE_PAGE}),
                )
                return stream.getvalue()

        text = run(go())
        records = [json.loads(line) for line in text.splitlines()]
        assert len(records) == 2
        induce_record, extract_record = records
        assert induce_record["verb"] == "POST /induce"
        assert induce_record["induce_ms"] >= 0
        assert induce_record["induce_ms"] <= induce_record["latency_ms"]
        assert "induce_ms" not in extract_record


class TestDeployCeilings:
    """``/deploy`` loads the artifact, and loading validates its config:
    a malformed one, or a ``k`` above ``MAX_K`` (the one work size left
    in a config, which every ``/repair`` re-induces under), is a 422.
    Keys an older writer stored are ignored, so an artifact deployed
    with raised generation caps repairs under the constants."""

    def _artifact_payload(self, task_id: str = "shop/deployed", **config) -> dict:
        payload = deployed_client().artifact("shop/price").to_payload()
        payload["task_id"] = task_id
        payload["config"] = {**payload["config"], "search": "pruned", **config}
        return payload

    def _deploy(self, *artifacts: dict):
        """Deploy each artifact and repair it when it deployed; returns
        ``(status, body, repaired)`` of the first and every repaired
        artifact's stored payload."""

        async def go():
            async with WrapperHTTPServer(deployed_client()) as server:
                host, port = server.address
                answers, stored = [], []
                for artifact in artifacts:
                    status, _, body = await raw_request(
                        host, port, post("/deploy", {"artifact": artifact})
                    )
                    repaired = None
                    if status == 200:
                        repaired = await raw_request(
                            host,
                            port,
                            post(
                                "/repair",
                                {"site_key": artifact["task_id"], "html": TITLE_PAGE},
                            ),
                        )
                        stored.append(
                            server.client.artifact(artifact["task_id"]).to_payload()
                        )
                    answers.append((status, body, repaired))
                return answers, stored

        answers, stored = run(go())
        status, body, repaired = answers[0]
        return status, body, repaired, stored

    @pytest.mark.parametrize("key,ceiling", [("k", MAX_K)])
    def test_config_at_the_ceiling_deploys_and_repairs(self, key, ceiling):
        status, body, repaired, _ = self._deploy(
            self._artifact_payload(**{key: ceiling})
        )
        assert status == 200, body
        assert body["site_key"] == "shop/deployed"
        repair_status, _, repair_body = repaired
        assert repair_status == 200, repair_body

    @pytest.mark.parametrize("key,ceiling", [("k", MAX_K)])
    def test_config_above_the_ceiling_is_422(self, key, ceiling):
        status, body, repaired, _ = self._deploy(
            self._artifact_payload(**{key: ceiling + 1})
        )
        assert status == 422, body
        assert body["code"] == "unprocessable"
        assert f"got {ceiling + 1}" in body["error"]
        assert repaired is None

    def test_invalid_config_is_422_not_500(self):
        payload = self._artifact_payload()
        payload["config"] = "pruned"  # not an object
        status, body, _, _ = self._deploy(payload)
        assert status == 422, body
        assert body["code"] == "unprocessable"

    @pytest.mark.parametrize(
        "key,bad",
        [("k", "10"), ("beta", "x"), ("enable_sideways", "no"), ("k", 1000)],
        ids=["k-str", "beta-str", "enable_sideways-str", "k-1000"],
    )
    def test_malformed_config_is_422(self, key, bad):
        status, body, repaired, _ = self._deploy(self._artifact_payload(**{key: bad}))
        assert status == 422, body
        assert body["code"] == "unprocessable"
        assert key in body["error"]
        assert repaired is None

    def test_raised_caps_repair_under_the_constants(self):
        raised = self._artifact_payload(
            max_sideways_patterns=10000,
            max_sideways_each_side=10000,
            max_node_patterns=10000,
        )
        plain = self._artifact_payload("shop/plain")
        status, body, repaired, (raised_after, plain_after) = self._deploy(
            raised, plain
        )
        assert status == 200, body
        assert repaired[0] == 200, repaired
        assert raised_after["generation"] == 1
        assert sorted(raised_after["config"]) == [
            "beta",
            "diversity",
            "enable_sideways",
            "k",
            "search",
        ]
        assert raised_after["config"] == plain_after["config"]
        assert raised_after["queries"] == plain_after["queries"]
        assert raised_after["ensemble"] == plain_after["ensemble"]
