"""Cluster failure paths and tenancy, against live serving hosts.

Three contracts under test:

* a shard-owning host answers requests for keys it does not own with
  the *typed* ownership error (never data, never a generic 4xx blur);
* a dead host is a per-key failure: the router keeps serving every key
  owned by live hosts, and each failed item names the host that failed;
* tenants are isolated end to end — same bare site key, two tenants,
  distinct artifacts, distinct store paths, distinct telemetry streams,
  and no cross-namespace reads.
"""

import pytest

from repro import (
    ClusterMap,
    FacadeError,
    OwnershipError,
    RateLimitError,
    RemoteError,
    RemoteWrapperClient,
    RouterClient,
    Sample,
    WrapperClient,
    mark_volatile,
    parse_html,
)
from repro.cluster.placement import shard_of_task

from tests.api.pages import PRICE_V1
from tests.cluster.conftest import dead_address, spawn_listen, terminate

# Placement facts the tests below rely on (pinned by the golden
# fixture): "shop-1" → shard 6 (even → host 0 of a 2-host map),
# "shop-0"/"parity" → odd shards (host 1).
EVEN_KEY = "shop-1/price"  # shard 6
ODD_KEY = "shop-0/price"  # shard 7


def price_sample():
    doc = parse_html(PRICE_V1)
    target = doc.find(tag="span", class_="price")
    mark_volatile(target)
    return Sample(doc, [target])


class TestOwnershipRejection:
    def test_unowned_key_is_a_typed_error(self, cluster_hosts):
        even_host, _ = cluster_hosts
        with RemoteWrapperClient(even_host) as client:
            with pytest.raises(OwnershipError) as excinfo:
                client.induce(ODD_KEY, [price_sample()])
        err = excinfo.value
        assert err.shard == shard_of_task(ODD_KEY, 8) == 7
        assert err.owned == (0, 2, 4, 6)
        assert err.n_shards == 8
        assert err.site_key == ODD_KEY

    def test_every_keyed_verb_is_gated(self, cluster_hosts):
        even_host, _ = cluster_hosts
        with RemoteWrapperClient(even_host) as client:
            with pytest.raises(OwnershipError):
                client.extract(ODD_KEY, PRICE_V1)
            with pytest.raises(OwnershipError):
                client.check(ODD_KEY, PRICE_V1)
            with pytest.raises(OwnershipError):
                client.get(ODD_KEY)
            with pytest.raises(OwnershipError):
                client.delete(ODD_KEY)

    def test_owned_keys_still_serve(self, cluster_hosts):
        even_host, _ = cluster_hosts
        with RemoteWrapperClient(even_host) as client:
            handle = client.induce(EVEN_KEY, [price_sample()])
            assert handle.site_key == EVEN_KEY
            assert client.extract(EVEN_KEY, PRICE_V1).values == ("10",)

    def test_healthz_reports_owned_shards(self, cluster_hosts):
        even_host, odd_host = cluster_hosts
        with RemoteWrapperClient(even_host) as client:
            assert client.healthz()["shards"] == {
                "n_shards": 8,
                "owned": [0, 2, 4, 6],
            }
        with RemoteWrapperClient(odd_host) as client:
            assert client.healthz()["shards"]["owned"] == [1, 3, 5, 7]


class TestRouter:
    def test_routes_to_the_owner_and_scatter_gathers(self, cluster_hosts):
        with RouterClient(ClusterMap(cluster_hosts, 8)) as router:
            router.induce(EVEN_KEY, [price_sample()])
            router.induce(ODD_KEY, [price_sample()])
            # Each host holds exactly the key it owns...
            with RemoteWrapperClient(cluster_hosts[0]) as even:
                assert EVEN_KEY in even.keys() and ODD_KEY not in even.keys()
            # ...and the router's listing is the exact union.
            assert set(router.keys()) >= {EVEN_KEY, ODD_KEY}
            assert {h.site_key for h in router.handles()} == set(router.keys())
            assert router.extract(ODD_KEY, PRICE_V1).values == ("10",)
            assert EVEN_KEY in router
            router.delete(EVEN_KEY)
            assert EVEN_KEY not in router

    def test_extract_many_spans_hosts_in_item_order(self, cluster_hosts):
        with RouterClient(ClusterMap(cluster_hosts, 8)) as router:
            router.induce(EVEN_KEY, [price_sample()])
            router.induce(ODD_KEY, [price_sample()])
            items = [(EVEN_KEY, PRICE_V1), (ODD_KEY, PRICE_V1)] * 3
            results = router.extract_many(items)
            assert [r.site_key for r in results] == [key for key, _ in items]
            assert all(r.values == ("10",) for r in results)

    def test_dead_host_fails_per_key_without_poisoning_live_hosts(
        self, cluster_hosts
    ):
        live_even = cluster_hosts[0]
        dead = dead_address()
        # Host order matters for ownership: the live host keeps the even
        # shards it actually owns; the dead address owns the odd group.
        with RouterClient(
            ClusterMap((live_even, dead), 8), connect_timeout=2.0
        ) as router:
            router.induce(EVEN_KEY, [price_sample()])
            items = [(EVEN_KEY, PRICE_V1), (ODD_KEY, PRICE_V1), (EVEN_KEY, PRICE_V1)]
            results = router.extract_many(items, return_errors=True)
            assert results[0].values == ("10",)
            assert results[2].values == ("10",)
            assert isinstance(results[1], RemoteError)
            assert results[1].address == dead  # failure names its host
            # Single-key verbs: the dead host fails its keys only.
            with pytest.raises(RemoteError):
                router.extract(ODD_KEY, PRICE_V1)
            assert router.extract(EVEN_KEY, PRICE_V1).values == ("10",)

    def test_extract_many_without_return_errors_raises(self, cluster_hosts):
        live_even = cluster_hosts[0]
        with RouterClient(
            ClusterMap((live_even, dead_address()), 8), connect_timeout=2.0
        ) as router:
            router.induce(EVEN_KEY, [price_sample()])
            with pytest.raises(RemoteError):
                router.extract_many([(EVEN_KEY, PRICE_V1), (ODD_KEY, PRICE_V1)])

    def test_router_healthz_isolates_the_dead_host(self, cluster_hosts):
        live_even = cluster_hosts[0]
        dead = dead_address()
        with RouterClient(
            ClusterMap((live_even, dead), 8), connect_timeout=2.0
        ) as router:
            health = router.healthz()
            assert health[live_even]["ok"] is True
            assert health[dead]["ok"] is False and "error" in health[dead]


class _ErrorHost:
    """A stand-in host client whose every answer is one error."""

    def __init__(self, error: Exception):
        self.error = error

    def extract(self, site_key, page):
        raise self.error

    def delete(self, site_key):
        raise self.error

    def extract_many(self, items, *, return_errors=False):
        return [self.error] * len(items)

    def close(self):
        pass


def _dead(host):
    name, _, port = host.rpartition(":")
    return RemoteError(f"{host} refused the connection", host=name, port=int(port))


def _throttled(host):
    return RateLimitError(f"{host} throttled the tenant", retry_after_s=0.0)


def _misrouted(host):
    return OwnershipError(f"{host} does not own the key", site_key=EVEN_KEY)


class TestReplicaErrorPrecedence:
    """When no replica answers, ``extract_many`` surfaces the error
    ``extract`` raises: a throttle, else the dead host, else the
    ownership rejection."""

    @pytest.mark.parametrize(
        "primary, secondary, expected",
        [
            (_dead, _throttled, RateLimitError),
            (_throttled, _dead, RateLimitError),
            (_dead, _misrouted, RemoteError),
            (_misrouted, _throttled, RateLimitError),
        ],
        ids=["dead-throttled", "throttled-dead", "dead-misrouted", "misrouted-throttled"],
    )
    def test_both_verbs_raise_the_same_error(self, primary, secondary, expected):
        with RouterClient(ClusterMap(("127.0.0.1:1", "127.0.0.1:2"), 8)) as router:
            first, second = router.replica_hosts(EVEN_KEY)
            router._clients[first] = _ErrorHost(primary(first))
            router._clients[second] = _ErrorHost(secondary(second))
            with pytest.raises(FacadeError) as info:
                router.extract(EVEN_KEY, PRICE_V1)
            (batched,) = router.extract_many([(EVEN_KEY, PRICE_V1)], return_errors=True)
            with pytest.raises(FacadeError) as written:
                router.delete(EVEN_KEY)
        assert type(info.value) is expected
        assert type(batched) is expected
        assert type(written.value) is expected


class _EchoHost:
    """A stand-in live host: answers each batch item with its site key
    and reports itself healthy at epoch 1."""

    def extract_many(self, items, *, return_errors=False):
        return [site_key for site_key, _ in items]

    def healthz(self):
        return {"ok": True, "epoch": 1}

    def close(self):
        pass


class _StaleMapHost(_EchoHost):
    """A live host serving epoch 1 that owns none of the batch's keys."""

    def extract_many(self, items, *, return_errors=False):
        return [
            OwnershipError("not the owner at epoch 1", site_key=key, epoch=1)
            for key, _ in items
        ]


class TestReplicaWalk:
    """Every router verb walks replicas the same way; a batch is one
    walk per item, folded per host per round."""

    def test_a_dead_primary_is_one_failover_event_per_round(self):
        with RouterClient(ClusterMap(("127.0.0.1:1", "127.0.0.1:2"), 8)) as router:
            first, second = router.replica_hosts(EVEN_KEY)
            router._clients[first] = _ErrorHost(_dead(first))
            router._clients[second] = _EchoHost()
            results = router.extract_many([(EVEN_KEY, PRICE_V1)] * 2000)
            assert results == [EVEN_KEY] * 2000
            failovers = [e for e in router.telemetry if e["event"] == "failover"]
            assert len(failovers) == 1
            assert failovers[0]["host"] == first
            assert failovers[0]["items"] == 2000
            assert failovers[0]["site_key"] == EVEN_KEY
            assert router._breaker[first][0] == 1

    def test_a_stale_map_is_refreshed_once_per_batch(self):
        with RouterClient(ClusterMap(("127.0.0.1:1", "127.0.0.1:2"), 8)) as router:
            first, second = router.replica_hosts(EVEN_KEY)
            router._clients[first] = _StaleMapHost()
            router._clients[second] = _EchoHost()
            results = router.extract_many([(EVEN_KEY, PRICE_V1)] * 50)
            assert results == [EVEN_KEY] * 50
            refreshes = [e for e in router.telemetry if e["event"] == "map_refresh"]
            assert len(refreshes) == 1
            assert router.epoch == 1


class _OwnerHost(_EchoHost):
    """A live host at epoch 1 advertising the shards it owns."""

    def __init__(self, owned):
        self.owned = owned

    def healthz(self):
        return {"ok": True, "epoch": 1, "shards": {"n_shards": 8, "owned": self.owned}}


class TestRefreshedOverlay:
    def test_overlay_owners_are_walked_in_ring_order(self):
        hosts = ("127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3")
        with RouterClient(ClusterMap(hosts, 8)) as router:
            every = list(range(8))
            no_seven = [s for s in every if s != 7]
            for host, owned in zip(hosts, (every, no_seven, every)):
                router._clients[host] = _OwnerHost(owned)
            assert router.refresh_map() == 1
            # shard 6: ring from host 6 % 3 = 0; all three own it.
            assert router.replica_hosts(EVEN_KEY) == list(hosts)
            # shard 7: ring from host 1, which no longer owns it.
            assert router.replica_hosts(ODD_KEY) == [hosts[2], hosts[0]]


class TestSharedStoreCluster:
    def test_hosts_sharing_one_store_list_only_owned_shards(self, tmp_path):
        """The documented deployment: N hosts over ONE store, disjoint
        shard groups.  Each host's listing must cover only its group,
        so the router's scatter-gather union is exact (no duplicates)."""
        store_root = tmp_path / "store"
        seed = WrapperClient(store=store_root, shards=8)
        seed.induce(EVEN_KEY, [price_sample()])
        seed.induce(ODD_KEY, [price_sample()])

        procs, hosts = [], []
        try:
            for own in ("0,2,4,6", "1,3,5,7"):
                proc, host, port = spawn_listen(
                    "--artifacts", str(store_root), "--own-shards", own
                )
                procs.append(proc)
                hosts.append(f"{host}:{port}")
            with RemoteWrapperClient(hosts[0]) as even:
                assert even.keys() == [EVEN_KEY]
                assert even.healthz()["wrappers"] == 1
            with RemoteWrapperClient(hosts[1]) as odd:
                assert odd.keys() == [ODD_KEY]
            with RouterClient(ClusterMap(tuple(hosts), 8)) as router:
                assert router.keys() == sorted([EVEN_KEY, ODD_KEY])
                assert len(router) == 2  # union, not once-per-host
                assert router.extract(EVEN_KEY, PRICE_V1).values == ("10",)
        finally:
            terminate(procs)


class TestRemoteTimeoutsAndErrors:
    def test_connection_refused_is_a_remote_error_with_address(self):
        host, port = dead_address().rsplit(":", 1)
        client = RemoteWrapperClient(host, int(port), connect_timeout=2.0)
        with pytest.raises(RemoteError) as excinfo:
            client.healthz()
        assert excinfo.value.host == host
        assert excinfo.value.port == int(port)
        assert f"{host}:{port}" in str(excinfo.value)

    def test_timeout_split_defaults_from_legacy_timeout(self):
        # The legacy single ``timeout`` is gone from both clients.
        with pytest.raises(TypeError):
            RemoteWrapperClient("example.test", 80, timeout=7.5)
        with pytest.raises(TypeError):
            RouterClient(("example.test:80",), timeout=7.5)
        client = RemoteWrapperClient("example.test", 80)
        assert client.connect_timeout == 60.0 and client.read_timeout == 60.0
        split = RemoteWrapperClient(
            "example.test", 80, connect_timeout=1.0, read_timeout=30.0
        )
        assert split.connect_timeout == 1.0 and split.read_timeout == 30.0


class TestTenantIsolation:
    def test_same_site_key_two_tenants_no_cross_talk(self, tmp_path):
        store_root = tmp_path / "store"
        acme = WrapperClient(store=store_root, tenant="acme")
        globex = WrapperClient(store=acme.store, tenant="globex")

        acme_handle = acme.induce("shop-0/price", [price_sample()])
        globex_handle = globex.induce("shop-0/price", [price_sample()])
        assert acme_handle.site_key == "acme::shop-0/price"
        assert acme_handle.tenant == "acme"
        assert globex_handle.tenant == "globex"

        store = acme.store
        # Distinct artifacts at distinct store paths...
        path_a = store.path_of("acme::shop-0/price")
        path_b = store.path_of("globex::shop-0/price")
        assert path_a != path_b and path_a.exists() and path_b.exists()
        # ...and distinct per-tenant telemetry streams.
        assert store.reports_path("acme::shop-0/price") != store.reports_path(
            "globex::shop-0/price"
        )

        # Listings are namespace-scoped; payloads carry the tenant.
        assert acme.keys() == ["acme::shop-0/price"]
        assert globex.keys() == ["globex::shop-0/price"]
        assert acme.extract("shop-0/price", PRICE_V1).to_payload()["tenant"] == "acme"

        # Deleting one tenant's wrapper leaves the other's intact.
        acme.delete("shop-0/price")
        assert "shop-0/price" not in acme
        assert "shop-0/price" in globex

    def test_cross_tenant_access_is_rejected(self, tmp_path):
        acme = WrapperClient(store=tmp_path / "store", tenant="acme")
        acme.induce("shop-0/price", [price_sample()])
        globex = WrapperClient(store=acme.store, tenant="globex")
        with pytest.raises(FacadeError, match="cross-tenant"):
            globex.get("acme::shop-0/price")
        assert "acme::shop-0/price" not in globex

    def test_admin_default_tenant_sees_every_namespace(self, tmp_path):
        acme = WrapperClient(store=tmp_path / "store", tenant="acme")
        acme.induce("shop-0/price", [price_sample()])
        admin = WrapperClient(store=acme.store)
        assert admin.keys() == ["acme::shop-0/price"]
        assert admin.get("acme::shop-0/price").tenant == "acme"

    def test_deploy_qualifies_into_the_tenant_namespace(self, tmp_path):
        """A tenant-scoped client deploys prebuilt artifacts into its
        own namespace — otherwise the wrapper is stored under the bare
        key and unreachable through every tenant-qualified verb."""
        seed = WrapperClient()
        seed.induce("shop-0/price", [price_sample()])
        artifact = seed.artifact("shop-0/price")

        acme = WrapperClient(store=tmp_path / "store", tenant="acme")
        handle = acme.deploy(artifact)
        assert handle.site_key == "acme::shop-0/price"
        assert acme.keys() == ["acme::shop-0/price"]
        assert acme.extract("shop-0/price", PRICE_V1).values == ("10",)
        # An artifact already owned by another tenant is rejected.
        globex = WrapperClient(tenant="globex")
        with pytest.raises(FacadeError, match="cross-tenant"):
            globex.deploy(acme.artifact("shop-0/price"))

    def test_contains_parity_for_cross_tenant_keys(self, cluster_hosts):
        """`in` must answer False (not raise) for keys the client could
        never address, identically on all three backends."""
        even_host, _ = cluster_hosts
        alien = "globex::shop-0/price"
        assert alien not in WrapperClient(tenant="acme")
        with RemoteWrapperClient(even_host, tenant="acme") as remote:
            assert alien not in remote
        with RouterClient(ClusterMap(cluster_hosts, 8), tenant="acme") as router:
            assert alien not in router

    def test_router_extract_many_isolates_unroutable_items(self, cluster_hosts):
        """A cross-tenant item fails per item, not the whole batch —
        including the degenerate batch where NO item is routable."""
        with RouterClient(ClusterMap(cluster_hosts, 8), tenant="acme") as router:
            router.induce(EVEN_KEY, [price_sample()])
            results = router.extract_many(
                [(EVEN_KEY, PRICE_V1), ("globex::x/y", PRICE_V1)],
                return_errors=True,
            )
            assert results[0].values == ("10",)
            assert isinstance(results[1], FacadeError)
            all_bad = router.extract_many(
                [("globex::x/y", PRICE_V1)], return_errors=True
            )
            assert isinstance(all_bad[0], FacadeError)
            with pytest.raises(FacadeError):
                router.extract_many([("globex::x/y", PRICE_V1)])

    def test_extract_many_signature_is_uniform(self, tmp_path, cluster_hosts):
        """`extract_many(items, *, return_errors=)` must be accepted by
        all three clients — drop-in means its kwargs cannot TypeError
        when the backend is swapped."""
        local = WrapperClient()
        local.induce(EVEN_KEY, [price_sample()])
        assert local.extract_many([(EVEN_KEY, PRICE_V1)])[0].values == ("10",)
        with RouterClient(ClusterMap(cluster_hosts, 8)) as router:
            router.induce(EVEN_KEY, [price_sample()])
            with RemoteWrapperClient(router.replica_hosts(EVEN_KEY)[0]) as remote:
                for client in (remote, router):
                    results = client.extract_many(
                        [(EVEN_KEY, PRICE_V1)], return_errors=True
                    )
                    assert results[0].values == ("10",)

    def test_invalid_tenant_fails_fast_everywhere(self):
        import subprocess
        import sys

        with pytest.raises(FacadeError):
            WrapperClient(tenant="bad tenant")
        with pytest.raises(FacadeError):
            RemoteWrapperClient("h", 1, tenant="bad tenant")
        with pytest.raises(FacadeError):
            RouterClient(("h:1",), tenant="bad tenant")
        # The CLI turns it into a clean usage error, not a traceback.
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.runtime",
                "induce",
                "--store",
                "unused-dir",
                "--tenant",
                "bad tenant",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "invalid tenant" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_cluster_flags_without_listen_are_rejected(self):
        """`serve` without --listen must refuse --tenant/--own-shards/
        --shards instead of silently faking a scoped deployment: every
        serve flag needs --listen, which argparse requires."""
        import subprocess
        import sys

        for flags in (["--tenant", "acme"], ["--own-shards", "0"], ["--shards", "8"]):
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro.runtime",
                    "serve",
                    "--artifacts",
                    "unused-dir",
                    *flags,
                ],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 2
            assert "required: --listen" in proc.stderr
            assert "Traceback" not in proc.stderr

    def test_remote_tenants_are_isolated_over_the_wire(self, cluster_hosts):
        even_host, _ = cluster_hosts
        # "acme::shop-1" and "globex::shop-1" may place on any shard;
        # use whichever tenants land on this host's even shards.
        with RemoteWrapperClient(even_host) as admin:
            owned = set(admin.healthz()["shards"]["owned"])
        tenants = [
            t
            for t in ("t0", "t1", "t2", "t3", "t4", "t5")
            if shard_of_task(f"{t}::shop-1/price", 8) in owned
        ][:2]
        assert len(tenants) == 2, "need two tenants placing on the test host"
        first, second = tenants
        with RemoteWrapperClient(even_host, tenant=first) as a, RemoteWrapperClient(
            even_host, tenant=second
        ) as b:
            a.induce("shop-1/price", [price_sample()])
            assert b.keys() == []  # no cross-namespace listing
            with pytest.raises(KeyError):
                b.get("shop-1/price")
            b.induce("shop-1/price", [price_sample()])
            assert a.keys() == [f"{first}::shop-1/price"]
            assert b.extract("shop-1/price", PRICE_V1).tenant == second
