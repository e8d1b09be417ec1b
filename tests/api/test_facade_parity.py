"""One facade, five backends: the identical test suite runs against

* a local in-memory :class:`WrapperClient`,
* a local store-backed :class:`WrapperClient`,
* a :class:`RemoteWrapperClient` talking to a **live** ``python -m
  repro.runtime serve --listen`` subprocess over real TCP,
* a :class:`RouterClient` over a **2-host cluster** of live ``serve
  --listen --own-shards`` subprocesses with disjoint shard groups, and
* a :class:`RouterClient` over a **replicated 3-host cluster** where
  every shard lives on two hosts (replica-union ownership) and writes
  go to both replicas.

Local, remote, and routed are interchangeable — that is the facade's
core contract (and the cluster PR's acceptance criterion).
Cross-backend tests at the end assert byte-identical result payloads
for the same inputs, single-host and routed alike — replication must
be invisible in results.
"""

import http.client
import json

import pytest

from repro import (
    AuthError,
    ClusterMap,
    FacadeError,
    RateLimitError,
    RemoteWrapperClient,
    RouterClient,
    Sample,
    WrapperClient,
    canonical_path,
    mark_volatile,
    parse_html,
)

from tests.api.pages import PRICE_GONE, PRICE_V1, PRICE_V2, RECORD_PAGE
from tests.serving_utils import spawn_listen as _spawn_server
from tests.serving_utils import terminate as _terminate


def _spawn_cluster(n_hosts=2, n_shards=8, extra_args=()):
    """``n_hosts`` live hosts over disjoint shard groups + the map."""
    procs, hosts = [], []
    for index in range(n_hosts):
        own = ",".join(str(s) for s in range(n_shards) if s % n_hosts == index)
        proc, host, port = _spawn_server(
            "--own-shards", own, "--shards", str(n_shards), *extra_args
        )
        procs.append(proc)
        hosts.append(f"{host}:{port}")
    return procs, ClusterMap(tuple(hosts), n_shards)


@pytest.fixture(
    scope="module",
    params=["local-memory", "local-store", "remote", "router", "router-replicated"],
)
def client(request, tmp_path_factory):
    if request.param == "local-memory":
        yield WrapperClient()
    elif request.param == "local-store":
        yield WrapperClient(store=tmp_path_factory.mktemp("parity") / "store")
    elif request.param == "remote":
        proc, host, port = _spawn_server()
        remote = RemoteWrapperClient(host, port)
        try:
            yield remote
        finally:
            remote.close()
            _terminate([proc])
    elif request.param == "router":
        procs, cluster_map = _spawn_cluster()
        router = RouterClient(cluster_map)
        try:
            yield router
        finally:
            router.close()
            _terminate(procs)
    else:
        from tests.cluster.faults import spawn_replicated

        cluster = spawn_replicated(n_hosts=3, n_shards=8)
        router = RouterClient(cluster.cluster_map)
        try:
            yield router
        finally:
            router.close()
            cluster.close()


def price_sample():
    doc = parse_html(PRICE_V1)
    target = doc.find(tag="span", class_="price")
    mark_volatile(target)
    return Sample(doc, [target])


def record_sample():
    doc = parse_html(RECORD_PAGE)
    items = list(doc.root.iter_find(tag="div", class_="s-item"))
    mark_volatile(items)
    return Sample(
        doc,
        items,
        fields={
            "title": [item.find(tag="a") for item in items],
            "price": [item.find(tag="span", class_="price") for item in items],
        },
    )


class TestFacadeContract:
    """Every test runs unchanged against all three backends."""

    def test_induce_get_extract_node_mode(self, client):
        handle = client.induce("parity/price", [price_sample()])
        assert handle.site_key == "parity/price"
        assert handle.mode == "node"
        assert handle.query and handle.queries[0] == handle.query
        assert handle.quorum >= 1

        fetched = client.get("parity/price")
        assert fetched == handle

        result = client.extract("parity/price", PRICE_V1)
        assert result.values == ("10",)
        assert result.query == handle.query
        assert not result.drifted
        assert result.mode == "node"

    def test_contains_and_listing(self, client):
        client.induce("parity/listing", [price_sample()])
        assert "parity/listing" in client
        assert "parity/never" not in client
        assert "parity/listing" in client.keys()
        assert any(h.site_key == "parity/listing" for h in client.handles())

    def test_ensemble_mode(self, client):
        handle = client.induce("parity/ens", [price_sample()], mode="ensemble")
        assert handle.mode == "ensemble"
        result = client.extract("parity/ens", PRICE_V1)
        assert result.mode == "ensemble"
        assert result.values == ("10",)

    def test_record_mode(self, client):
        handle = client.induce("parity/rec", [record_sample()], mode="record")
        assert handle.mode == "record"
        assert set(handle.fields) == {"title", "price"}
        result = client.extract("parity/rec", RECORD_PAGE)
        assert [row["title"] for row in result.records] == [
            "Quiet Tablet 300",
            "Rapid Phone 800",
            "Golden Laptop 200",
        ]
        assert result.records[0]["price"] == "$199.00"

    def test_drift_signals_on_changed_pages(self, client):
        client.induce("parity/drift", [price_sample()])
        healthy = client.check("parity/drift", PRICE_V1)
        assert not healthy.drifted and healthy.healthy

        drifted = client.check("parity/drift", PRICE_V2)
        assert drifted.drifted and drifted.signals

        gone = client.extract("parity/drift", PRICE_GONE)
        assert gone.drifted and "empty_result" in gone.drift_signals

    def test_repair_with_explicit_reannotation(self, client):
        client.induce("parity/repair", [price_sample()])
        doc2 = parse_html(PRICE_V2)
        new_target = doc2.find(tag="em", class_="cost")
        mark_volatile(new_target)
        handle = client.repair(
            "parity/repair", doc2, target_paths=[str(canonical_path(new_target))]
        )
        assert handle.generation == 1
        result = client.extract("parity/repair", PRICE_V2)
        assert result.values == ("12",)
        assert result.generation == 1
        assert not result.drifted

    def test_repair_with_unparseable_path_raises_facade_error(self, client):
        """An explicit re-annotation path that is not dsXPath is a bad
        annotation — FacadeError on every backend, never a raw
        XPathParseError from one side or a 500 from the other."""
        client.induce("parity/badpath", [price_sample()])
        with pytest.raises(FacadeError, match="does not parse"):
            client.repair("parity/badpath", PRICE_V2, target_paths=["child::((("])

    def test_delete(self, client):
        client.induce("parity/delete", [price_sample()])
        client.delete("parity/delete")
        assert "parity/delete" not in client
        with pytest.raises(KeyError):
            client.get("parity/delete")

    def test_extract_many_matches_per_item_extract(self, client):
        """A batch answers byte-identically to per-item ``extract``, in
        item order, with a failed item's typed error in its place."""
        client.induce("parity/many", [price_sample()])
        items = [("parity/many", page) for page in (PRICE_V1, PRICE_V2, PRICE_GONE)]
        results = client.extract_many(
            [*items, ("parity/unknown", PRICE_V1)], return_errors=True
        )
        assert isinstance(results[-1], KeyError)
        assert [json.dumps(r.to_payload()) for r in results[:-1]] == [
            json.dumps(client.extract(key, page).to_payload()) for key, page in items
        ]

    def test_unknown_site_key_raises_keyerror(self, client):
        with pytest.raises(KeyError):
            client.extract("parity/unknown", PRICE_V1)
        with pytest.raises(KeyError):
            client.get("parity/unknown")

    def test_invalid_mode_raises_facade_error(self, client):
        with pytest.raises(FacadeError):
            client.induce("parity/bad", [price_sample()], mode="magic")

    @pytest.mark.parametrize(
        "name, value",
        [
            ("k", "abc"),
            ("k", None),
            ("k", 2.5),
            ("k", True),
            ("k", 0),
            ("k", 65),
            ("ensemble_size", 0),
            ("ensemble_size", -1),
            ("max_queries", -1),
        ],
    )
    def test_invalid_induce_size_raises_facade_error(self, client, name, value):
        """A size that is a bool, not an int, below 1, or (for ``k``)
        above ``MAX_K`` is refused before any work — never a raw
        TypeError, never a silently clamped or truncated wrapper."""
        with pytest.raises(FacadeError, match=name):
            client.induce("parity/sizes", [price_sample()], **{name: value})
        assert "parity/sizes" not in client

    def test_cross_document_sample_raises_facade_error(self, client):
        """A target from a different parse of the page is a bad
        annotation — FacadeError on every backend, never a raw
        engine-layer ValueError."""
        doc = parse_html(PRICE_V1)
        alien = parse_html(PRICE_V1).find(tag="span", class_="price")
        with pytest.raises(FacadeError):
            client.induce("parity/alien", [Sample(doc, [alien])])


KEY_FILE = """\
k-admin-aaaaaaaa *
k-acme-bbbbbbbb acme
k-open-dddddddd
"""


def _raw_status_and_body(host, port, method, path, key=None, payload=None):
    """One raw exchange, returning (status, exact body bytes) — the
    byte-identity assertions compare these across backends."""
    conn = http.client.HTTPConnection(host, port, timeout=30)
    headers = {}
    if key:
        headers["Authorization"] = f"Bearer {key}"
    body = None
    if payload is not None:
        body = json.dumps(payload).encode()
        headers["Content-Type"] = "application/json"
    try:
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class TestAuthQuotaParity:
    """Failure-path parity, mirroring the 413/421 contract tests: every
    *networked* backend (single host, each member of a routed cluster)
    enforces auth and quotas identically, down to the error bytes.
    Local clients have no wire and stay keyless — a no-auth launch is
    the backward-compatible default the last test pins down."""

    def test_401_403_identical_across_backends(self, tmp_path):
        keys = tmp_path / "keys.txt"
        keys.write_text(KEY_FILE)
        proc, host, port = _spawn_server("--auth-keys", str(keys))
        procs, cluster_map = _spawn_cluster(
            extra_args=("--auth-keys", str(keys))
        )
        try:
            # Typed errors through the clients, single-host and routed.
            remote = RemoteWrapperClient(host, port)  # no key
            router_bad = RouterClient(cluster_map, api_key="k-wrong-ffffffff")
            sample = price_sample()
            for call in (
                lambda c: c.get("parity/auth"),
                lambda c: c.extract("parity/auth", PRICE_V1),
                lambda c: c.check("parity/auth", PRICE_V1),
                lambda c: c.delete("parity/auth"),
                lambda c: c.induce("parity/auth", [sample]),
                lambda c: c.repair("parity/auth", PRICE_V1),
                lambda c: c.handles(),
            ):
                for client in (remote, router_bad):
                    with pytest.raises(AuthError) as err:
                        call(client)
                    assert err.value.status == 401
            # A valid key whose tenant does not own the namespace: 403.
            acme = RemoteWrapperClient(host, port, api_key="k-acme-bbbbbbbb")
            with pytest.raises(AuthError) as err:
                acme.get("parity/auth")
            assert err.value.status == 403
            # A granted key serves normally, end to end, on both.
            for client in (
                RemoteWrapperClient(host, port, api_key="k-open-dddddddd"),
                RouterClient(cluster_map, api_key="k-admin-aaaaaaaa"),
            ):
                client.induce("parity/auth-ok", [price_sample()])
                assert client.extract("parity/auth-ok", PRICE_V1).values == ("10",)
                client.delete("parity/auth-ok")
                client.close()
            remote.close()
            router_bad.close()
            acme.close()
            # Byte-identical error bodies across all three server
            # processes, for every failure class.
            servers = [(host, port)] + [
                tuple(address.rsplit(":", 1)) for address in cluster_map.hosts
            ]
            servers = [(h, int(p)) for h, p in servers]
            for method, path, key, payload in (
                ("GET", "/wrappers", None, None),
                ("GET", "/wrappers/parity%2Fauth", "k-wrong-ffffffff", None),
                ("GET", "/wrappers/parity%2Fauth", "k-acme-bbbbbbbb", None),
                ("POST", "/extract", None,
                 {"site_key": "parity/auth", "html": "<p/>"}),
            ):
                answers = {
                    _raw_status_and_body(h, p, method, path, key, payload)
                    for h, p in servers
                }
                assert len(answers) == 1, (method, path, key, answers)
                status, _ = next(iter(answers))
                assert status in (401, 403)
        finally:
            _terminate([proc] + procs)

    def test_429_identical_and_retryable_across_backends(self, tmp_path):
        quota = ("--rate-limit", "0.01", "--burst", "2")
        proc, host, port = _spawn_server(*quota)
        procs, cluster_map = _spawn_cluster(extra_args=quota)
        try:
            remote = RemoteWrapperClient(host, port)
            # Burst of 2, then the bucket is dry (refill is ~never at
            # 0.01/s): the third keyed request is a typed 429 carrying
            # the server's Retry-After hint.
            for _ in range(2):
                with pytest.raises(KeyError):
                    remote.get("parity/throttle")
            with pytest.raises(RateLimitError) as err:
                remote.get("parity/throttle")
            assert err.value.retry_after_s > 0
            # healthz never throttles (routers must keep probing).
            assert remote.healthz()["ok"] is True
            remote.close()
            # The routed backend surfaces the same typed error once
            # every live owner throttled the tenant.
            router = RouterClient(cluster_map)
            for _ in range(2):
                with pytest.raises((KeyError, RateLimitError)):
                    router.get("parity/throttle")
            with pytest.raises(RateLimitError):
                router.get("parity/throttle")
            assert any(
                event["event"] == "rate_limited" for event in router.telemetry
            )
            router.close()
            # Byte-identical 429 bodies modulo the timing-variable
            # retry_after field.
            servers = [(host, port)] + [
                tuple(address.rsplit(":", 1)) for address in cluster_map.hosts
            ]
            bodies = set()
            for h, p in servers:
                h, p = h, int(p)
                status = 0
                for _ in range(4):  # drain whatever budget is left
                    status, raw = _raw_status_and_body(
                        h, p, "GET", "/wrappers/parity%2Fthrottle"
                    )
                    if status == 429:
                        break
                assert status == 429, (h, p)
                payload = json.loads(raw)
                assert payload.pop("retry_after") > 0
                bodies.add(json.dumps(payload, sort_keys=True))
            assert len(bodies) == 1
        finally:
            _terminate([proc] + procs)

    def test_no_auth_launch_stays_open(self):
        proc, host, port = _spawn_server()
        try:
            client = RemoteWrapperClient(host, port)
            client.induce("parity/open", [price_sample()])
            assert client.extract("parity/open", PRICE_V1).values == ("10",)
            client.close()
        finally:
            _terminate([proc])


class TestLocalRemoteEquivalence:
    """Same inputs through both backends → byte-identical payloads."""

    def test_results_are_payload_identical(self):
        local = WrapperClient()
        proc, host, port = _spawn_server()
        try:
            remote = RemoteWrapperClient(host, port)
            for backend in (local, remote):
                backend.induce("eq/price", [price_sample()])
                backend.induce("eq/rec", [record_sample()], mode="record")

            assert (
                local.get("eq/price").to_payload()
                == remote.get("eq/price").to_payload()
            )
            for page in (PRICE_V1, PRICE_V2, PRICE_GONE):
                assert (
                    local.extract("eq/price", page).to_payload()
                    == remote.extract("eq/price", page).to_payload()
                )
                assert (
                    local.check("eq/price", page).to_payload()
                    == remote.check("eq/price", page).to_payload()
                )
            assert (
                local.extract("eq/rec", RECORD_PAGE).to_payload()
                == remote.extract("eq/rec", RECORD_PAGE).to_payload()
            )
            remote.close()
        finally:
            _terminate([proc])

    def test_router_results_are_payload_identical(self):
        """The 2-host routed backend answers byte-for-byte what the
        local client answers — sharding must be invisible in results."""
        local = WrapperClient()
        procs, cluster_map = _spawn_cluster()
        try:
            router = RouterClient(cluster_map)
            for backend in (local, router):
                backend.induce("eq/price", [price_sample()])
                backend.induce("eq/rec", [record_sample()], mode="record")
            assert (
                local.get("eq/price").to_payload()
                == router.get("eq/price").to_payload()
            )
            for page in (PRICE_V1, PRICE_V2, PRICE_GONE):
                assert (
                    local.extract("eq/price", page).to_payload()
                    == router.extract("eq/price", page).to_payload()
                )
                assert (
                    local.check("eq/price", page).to_payload()
                    == router.check("eq/price", page).to_payload()
                )
            assert (
                local.extract("eq/rec", RECORD_PAGE).to_payload()
                == router.extract("eq/rec", RECORD_PAGE).to_payload()
            )
            # extract_many agrees with itself and with per-key extract,
            # across hosts, in item order.
            items = [("eq/price", PRICE_V1), ("eq/rec", RECORD_PAGE)] * 2
            batched = router.extract_many(items)
            assert [r.to_payload() for r in batched] == [
                local.extract(key, page).to_payload() for key, page in items
            ]
            router.close()
        finally:
            _terminate(procs)
