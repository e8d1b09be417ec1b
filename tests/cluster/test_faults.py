"""Fault injection against the replicated cluster: kill hosts, keep serving.

The robustness contracts of the failover PR, each tested against live
subprocesses and real SIGKILL:

* a host killed mid-``extract_many`` is invisible — the batch completes
  through the replicas with zero client-visible errors and results
  byte-identical to a healthy run;
* with BOTH replicas of a shard dead, its keys fail with typed,
  host-attributed errors (never a hang), while other shards keep
  serving;
* the per-host circuit breaker opens after consecutive failures so a
  dead host stops costing a connect timeout per request;
* after an operator re-shard (``migrate`` to a new epoch), a router
  holding the stale map learns the new topology from the first typed
  421 and keeps serving without a restart.
"""

import subprocess
import sys
import time

import pytest

from repro import (
    ClusterMap,
    RemoteError,
    RouterClient,
    Sample,
    WrapperClient,
    mark_volatile,
    parse_html,
)
from repro.cluster import router as router_module
from repro.cluster.placement import replica_indexes, shard_index
from repro.runtime.store import ShardedArtifactStore, migrate_store

from tests.api.pages import PRICE_V1
from tests.cluster.faults import env_telemetry_sink, spawn_replicated

# Placement facts (pinned by the golden fixture): at 8 shards / 3 hosts,
# "shop-1" → shard 6 → replicas (host 0, host 1); "shop-0" → shard 7 →
# replicas (host 1, host 2).
EVEN_KEY = "shop-1/price"
ODD_KEY = "shop-0/price"


def price_sample():
    doc = parse_html(PRICE_V1)
    target = doc.find(tag="span", class_="price")
    mark_volatile(target)
    return Sample(doc, [target])


@pytest.fixture()
def seeded_cluster(tmp_path):
    """A 3-host replicated cluster over one shared store holding both
    test wrappers, plus the local seed client (the byte-identical
    reference)."""
    store_root = tmp_path / "store"
    seed = WrapperClient(store=store_root, shards=8)
    seed.induce(EVEN_KEY, [price_sample()])
    seed.induce(ODD_KEY, [price_sample()])
    cluster = spawn_replicated(n_hosts=3, n_shards=8, store_root=store_root)
    try:
        yield cluster, seed
    finally:
        cluster.close()


def make_router(cluster, **overrides) -> RouterClient:
    options = dict(connect_timeout=2.0, telemetry_sink=env_telemetry_sink())
    options.update(overrides)
    return RouterClient(cluster.cluster_map, **options)


class TestKillMidBatch:
    def test_host_killed_mid_batch_is_invisible(self, seeded_cluster):
        cluster, seed = seeded_cluster
        items = [(EVEN_KEY, PRICE_V1), (ODD_KEY, PRICE_V1)] * 30
        expected = [seed.extract(key, page).to_payload() for key, page in items]
        with make_router(cluster) as router:
            victim = router.replica_hosts(EVEN_KEY)[0]
            killer = cluster.kill_after(victim, delay_s=0.15)
            try:
                results = router.extract_many(items, return_errors=True)
            finally:
                killer.join()
            errors = [r for r in results if isinstance(r, BaseException)]
            assert errors == [], f"failover leaked errors to the client: {errors[:3]}"
            assert [r.to_payload() for r in results] == expected

    def test_single_verb_fails_over_to_the_replica(self, seeded_cluster):
        cluster, _ = seeded_cluster
        with make_router(cluster) as router:
            victim = cluster.kill(router.replica_hosts(EVEN_KEY)[0])
            result = router.extract(EVEN_KEY, PRICE_V1)
            assert result.values == ("10",)
            failovers = [
                e for e in router.telemetry if e["event"] == "failover"
            ]
            assert any(e["host"] == victim for e in failovers)

    def test_replicated_writes_survive_a_dead_replica(self, seeded_cluster):
        cluster, _ = seeded_cluster
        with make_router(cluster) as router:
            secondary = router.replica_hosts(EVEN_KEY)[1]
            cluster.kill(secondary)
            handle = router.induce("shop-1/title", [price_sample()])
            assert handle.site_key == "shop-1/title"
            assert router.extract("shop-1/title", PRICE_V1).values == ("10",)
            repairs = [
                e
                for e in router.telemetry
                if e["event"] == "write_repair_needed"
            ]
            assert any(e["host"] == secondary for e in repairs)


class TestBothReplicasDead:
    def test_typed_per_key_errors_not_a_hang(self, seeded_cluster):
        cluster, _ = seeded_cluster
        with make_router(cluster) as router:
            doomed = router.replica_hosts(EVEN_KEY)
            assert len(doomed) == 2
            for host in doomed:
                cluster.kill(host)
            started = time.monotonic()
            results = router.extract_many(
                [(EVEN_KEY, PRICE_V1), (ODD_KEY, PRICE_V1)], return_errors=True
            )
            assert time.monotonic() - started < 60.0
            assert isinstance(results[0], RemoteError)
            assert results[0].address in doomed  # names a host that died
            # The other shard still has a live replica and keeps serving.
            assert results[1].values == ("10",)
            with pytest.raises(RemoteError):
                router.extract(EVEN_KEY, PRICE_V1)


class TestCircuitBreaker:
    def test_breaker_opens_and_skips_the_dead_host(self, seeded_cluster, monkeypatch):
        monkeypatch.setattr(router_module, "_BREAKER_THRESHOLD", 2)
        monkeypatch.setattr(router_module, "_BREAKER_RESET_S", 60.0)
        cluster, _ = seeded_cluster
        with make_router(cluster) as router:
            victim = cluster.kill(router.replica_hosts(EVEN_KEY)[0])
            for _ in range(3):
                assert router.extract(EVEN_KEY, PRICE_V1).values == ("10",)
            opened = [
                e for e in router.telemetry if e["event"] == "breaker_open"
            ]
            assert [e["host"] for e in opened] == [victim]
            # Once open, the dead host is skipped without a connect:
            # the verb is served by the replica alone, quickly.
            started = time.monotonic()
            assert router.extract(EVEN_KEY, PRICE_V1).values == ("10",)
            assert time.monotonic() - started < 2.0


class TestReshardEpochRefresh:
    @staticmethod
    def stale_miss_key(n_hosts=3, old_shards=8, new_shards=12) -> str:
        """A site key whose *old-map* primary does not own its
        *new-topology* shard — guaranteed to draw a 421 from a stale
        router, which is the refresh path under test.  (A doubling
        re-shard on 3 hosts can never miss — ``+8 ≡ +2 (mod 3)`` puts
        the old primary back in every replica pair — so this test
        re-shards 8 → 12.)"""
        for k in range(100):
            site = f"shop-{k}"
            stale_primary = shard_index(site, old_shards) % n_hosts
            new_owners = replica_indexes(shard_index(site, new_shards), n_hosts)
            if stale_primary not in new_owners:
                return f"{site}/price"
        raise AssertionError("no stale-miss key in range")  # pragma: no cover

    def test_router_follows_a_reshard_without_restart(self, tmp_path):
        key = self.stale_miss_key()
        src_root = tmp_path / "store-v0"
        seed = WrapperClient(store=src_root, shards=8)
        seed.induce(key, [price_sample()])

        dest_root = tmp_path / "store-v1"
        plan = migrate_store(src_root, dest_root, n_shards=12)
        assert plan.dest_epoch == 1

        cluster = spawn_replicated(n_hosts=3, n_shards=12, store_root=dest_root)
        try:
            # The router still holds the PRE-migration map: 8 shards,
            # epoch 0.  The first 421 carries epoch 1 and triggers one
            # /healthz refresh; the retry lands on the true owner.
            stale_map = ClusterMap(cluster.hosts, 8, epoch=0)
            with RouterClient(
                stale_map, connect_timeout=2.0, telemetry_sink=env_telemetry_sink()
            ) as router:
                assert router.extract(key, PRICE_V1).values == ("10",)
                assert router.epoch == 1
                events = [e["event"] for e in router.telemetry]
                assert "map_refresh" in events
        finally:
            cluster.close()

    def test_migrate_cli_dry_run_then_cutover(self, tmp_path):
        src_root = tmp_path / "store-v0"
        seed = WrapperClient(store=src_root, shards=8)
        seed.induce(EVEN_KEY, [price_sample()])
        seed.induce(ODD_KEY, [price_sample()])
        dest_root = tmp_path / "store-v1"

        def run_migrate(*flags):
            return subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro.runtime",
                    "migrate",
                    "--store",
                    str(src_root),
                    "--dest",
                    str(dest_root),
                    "--shards",
                    "16",
                    *flags,
                ],
                capture_output=True,
                text=True,
            )

        dry = run_migrate("--dry-run")
        assert dry.returncode == 0, dry.stderr
        assert "DRY RUN" in dry.stdout
        assert not dest_root.exists(), "dry run must not create the destination"

        real = run_migrate()
        assert real.returncode == 0, real.stderr
        migrated = ShardedArtifactStore(dest_root)
        assert migrated.epoch == 1
        assert migrated.n_shards == 16
        served = WrapperClient(store=dest_root, shards=16)
        assert sorted(served.keys()) == sorted([EVEN_KEY, ODD_KEY])
        assert served.extract(EVEN_KEY, PRICE_V1).values == ("10",)
