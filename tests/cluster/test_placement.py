"""Placement is frozen: golden fixture + pure-function invariants.

The shard assignment is load-bearing state — artifacts already on disk
live where yesterday's function put them — so the corpus-wide
``site_key → shard_index`` table is pinned the same way induction
scores are.  A failing golden test here means stored artifacts would be
orphaned; the fix is a store migration, not a fixture refresh.
"""

import json
import pathlib

import pytest

from repro.cluster.placement import (
    ClusterMap,
    DEFAULT_SHARDS,
    PlacementError,
    REPLICATION_FACTOR,
    ShardOwnership,
    qualify_key,
    replica_indexes,
    ring_indexes,
    shard_index,
    shard_of_task,
    site_key_of,
    split_tenant,
    tenant_of,
)

GOLDEN = pathlib.Path(__file__).parent.parent / "golden" / "placement.json"


class TestGoldenPlacement:
    def test_every_corpus_site_is_pinned_and_reproduced(self):
        payload = json.loads(GOLDEN.read_text())
        assert payload["n_shards"] == DEFAULT_SHARDS
        sites = payload["sites"]
        assert len(sites) == 84, "corpus size changed — regenerate deliberately"
        for site_id, pinned in sites.items():
            assert shard_index(site_id, DEFAULT_SHARDS) == pinned, (
                f"{site_id} moved off shard {pinned}: a placement change "
                "orphans stored artifacts and requires a store migration"
            )

    def test_fixture_covers_the_live_corpus(self):
        from repro.sites.corpus import build_corpus

        live = {spec.site_id for spec in build_corpus()}
        pinned = set(json.loads(GOLDEN.read_text())["sites"])
        assert live == pinned

    def test_every_shard_is_populated(self):
        sites = json.loads(GOLDEN.read_text())["sites"]
        assert set(sites.values()) == set(range(DEFAULT_SHARDS))

    def test_every_epoch_pins_shard_and_replica_set(self):
        """The epoch table freezes replica placement per topology: a
        silent change to replica derivation strands the secondary copy
        of every artifact exactly as a shard remap strands the primary."""
        payload = json.loads(GOLDEN.read_text())
        assert payload["replication"] == REPLICATION_FACTOR == 2
        epochs = payload["epochs"]
        assert set(epochs) == {"0", "1"}, "epoch set changed — migrate deliberately"
        for epoch, topology in epochs.items():
            n_shards, n_hosts = topology["n_shards"], topology["n_hosts"]
            sites = topology["sites"]
            assert len(sites) == 84
            for site_id, pinned in sites.items():
                assert shard_index(site_id, n_shards) == pinned["shard"], (
                    f"epoch {epoch}: {site_id} moved off shard "
                    f"{pinned['shard']} — requires a store migration"
                )
                assert (
                    list(replica_indexes(pinned["shard"], n_hosts))
                    == pinned["replicas"]
                )

    def test_pinned_replicas_are_on_distinct_hosts(self):
        epochs = json.loads(GOLDEN.read_text())["epochs"]
        for topology in epochs.values():
            for pinned in topology["sites"].values():
                replicas = pinned["replicas"]
                assert len(replicas) == 2
                assert replicas[0] != replicas[1], (
                    "secondary on the primary's host defeats replication"
                )

    def test_epoch_one_is_the_migrate_target_shape(self):
        epochs = json.loads(GOLDEN.read_text())["epochs"]
        assert epochs["0"]["n_shards"] == DEFAULT_SHARDS
        assert epochs["1"]["n_shards"] == 2 * DEFAULT_SHARDS


class TestKeys:
    def test_site_key_of_strips_role(self):
        assert site_key_of("movies-0/director") == "movies-0"
        assert site_key_of("movies-0") == "movies-0"

    def test_tenant_prefix_stays_in_site_key(self):
        assert site_key_of("acme::movies-0/director") == "acme::movies-0"

    def test_shard_of_task_matches_composition(self):
        task = "acme::movies-0/director"
        assert shard_of_task(task, 8) == shard_index(site_key_of(task), 8)

    def test_qualify_and_split_round_trip(self):
        qualified = qualify_key("shop-0/price", "acme")
        assert qualified == "acme::shop-0/price"
        assert split_tenant(qualified) == ("acme", "shop-0/price")
        assert tenant_of(qualified) == "acme"
        assert tenant_of("shop-0/price") == ""

    def test_qualify_is_idempotent_for_same_tenant(self):
        once = qualify_key("shop-0/price", "acme")
        assert qualify_key(once, "acme") == once

    def test_default_tenant_addresses_qualified_keys_verbatim(self):
        assert qualify_key("acme::shop-0/price", "") == "acme::shop-0/price"
        assert qualify_key("shop-0/price", "") == "shop-0/price"

    def test_cross_tenant_qualification_is_rejected(self):
        with pytest.raises(PlacementError, match="cross-tenant"):
            qualify_key("acme::shop-0/price", "globex")

    def test_invalid_tenant_names_are_rejected(self):
        for bad in ("with/slash", "::", ".hidden", "sp ace"):
            with pytest.raises(PlacementError):
                qualify_key("shop-0/price", bad)

    def test_stray_separator_inside_role_is_not_a_tenant(self):
        # Only a well-formed tenant name before any '/' re-partitions.
        assert split_tenant("shop-0/price::usd") == ("", "shop-0/price::usd")

    def test_two_tenants_same_site_key_may_shard_apart(self):
        a = shard_of_task(qualify_key("shop-0/price", "acme"), 64)
        b = shard_of_task(qualify_key("shop-0/price", "globex"), 64)
        assert a != b  # independent namespaces place independently


class TestShardOwnership:
    def test_parse_and_membership(self):
        own = ShardOwnership.parse("0,2,5", 8)
        assert own.sorted_owned() == [0, 2, 5]
        assert not own.is_total
        assert own.as_payload() == {"n_shards": 8, "owned": [0, 2, 5]}

    def test_owns_task_follows_placement(self):
        own = ShardOwnership.parse("0,1,2,3", 8)
        for task in ("movies-0/director", "acme::movies-0/director"):
            assert own.owns_task(task) == (shard_of_task(task, 8) in own.owned)

    def test_all_shards(self):
        assert ShardOwnership.parse("0,1,2,3", 4).is_total

    def test_validation(self):
        with pytest.raises(PlacementError):
            ShardOwnership.parse("9", 8)  # out of range
        with pytest.raises(PlacementError):
            ShardOwnership.parse("", 8)  # empty group
        with pytest.raises(PlacementError):
            ShardOwnership.parse("a,b", 8)  # not integers

    def test_healthz_payload_round_trips(self):
        own = ShardOwnership.parse("0,2,5", 8)
        assert ShardOwnership.from_payload(own.as_payload(), 4) == own
        # A host launched without --own-shards advertises no block.
        assert ShardOwnership.from_payload(None, 8).is_total
        for payload in ({"owned": [0]}, {"n_shards": 8}, {"n_shards": 8, "owned": ["x"]}):
            with pytest.raises(PlacementError):
                ShardOwnership.from_payload(payload, 8)


class TestClusterMap:
    def test_assignment_partitions_all_shards(self):
        # Every shard has exactly one primary, and launch groups cover
        # every shard (each REPLICATION_FACTOR times, see below).
        cmap = ClusterMap(("h0:1", "h1:2", "h2:3"), n_shards=8)
        groups = [cmap.replica_shards_of(host) for host in cmap.hosts]
        assert sorted(set(s for group in groups for s in group)) == list(range(8))
        primaries = [replica_indexes(shard, 3)[0] for shard in range(8)]
        assert primaries == [shard % 3 for shard in range(8)]

    def test_host_of_agrees_with_ownership(self):
        cmap = ClusterMap(("h0:1", "h1:2"), n_shards=8)
        for task in ("movies-0/director", "shop-1/title", "acme::shop-0/price"):
            for host in cmap.replica_hosts(task):
                assert cmap.replica_ownership_of(host).owns_task(task)

    def test_ownership_round_trips_through_cli_arg(self):
        cmap = ClusterMap(("h0:1", "h1:2", "h2:3"), n_shards=8)
        for host in cmap.hosts:
            arg = cmap.replica_own_shards_arg(host)
            assert ShardOwnership.parse(arg, 8) == cmap.replica_ownership_of(host)

    def test_assignment_is_pure_in_host_order(self):
        a = ClusterMap(("h0:1", "h1:2", "h2:3"), n_shards=8)
        b = ClusterMap(("h0:1", "h1:2", "h2:3"), n_shards=8)
        assert [a.replica_shards_of(h) for h in a.hosts] == [
            b.replica_shards_of(h) for h in b.hosts
        ]

    def test_more_hosts_than_shards_leaves_spares_idle(self):
        # 2 shards x 2 replicas fill hosts 0-2; host 3 has nothing to own.
        cmap = ClusterMap(("h0:1", "h1:2", "h2:3", "h3:4"), n_shards=2)
        assert cmap.replica_shards_of("h3:4") == ()

    def test_validation(self):
        with pytest.raises(PlacementError):
            ClusterMap((), n_shards=8)
        with pytest.raises(PlacementError):
            ClusterMap(("h0:1", "h0:1"), n_shards=8)
        with pytest.raises(PlacementError):
            ClusterMap(("not-an-address",), n_shards=8)

    def test_unknown_host_is_a_typed_error(self):
        cmap = ClusterMap(("h0:1", "h1:2"), n_shards=8)
        for call in (
            cmap.replica_shards_of,
            cmap.replica_ownership_of,
            cmap.replica_own_shards_arg,
        ):
            with pytest.raises(PlacementError, match="not in the cluster map"):
                call("typo:9")

    def test_primary_only_api_is_gone(self):
        cmap = ClusterMap(("h0:1", "h1:2"), n_shards=8)
        for name in (
            "owner_index_of_shard",
            "host_of_shard",
            "host_of",
            "shards_of",
            "ownership_of",
            "assignments",
            "own_shards_arg",
            "replica_indexes_of_shard",
            "replica_hosts_of_shard",
            "advanced",
        ):
            with pytest.raises(AttributeError):
                getattr(cmap, name)
        with pytest.raises(AttributeError):
            ShardOwnership.all_shards
        from repro.cluster.router import RouterClient

        # The primary is replica_hosts(key)[0].
        assert not hasattr(RouterClient, "host_of")


class TestReplicaPlacement:
    def test_replica_indexes_are_primary_plus_ring_successors(self):
        assert replica_indexes(0, 3) == (0, 1)
        assert replica_indexes(5, 3) == (2, 0)  # wraps the ring
        assert ring_indexes(4, 3) == (1, 2, 0)
        for n_hosts in (1, 2, 3, 5):
            for shard in range(16):
                ring = ring_indexes(shard, n_hosts)
                assert sorted(ring) == list(range(n_hosts))  # every host once
                assert ring[0] == shard % n_hosts  # primary first
                assert replica_indexes(shard, n_hosts) == ring[:REPLICATION_FACTOR]

    def test_secondary_is_never_the_primary_host(self):
        for n_hosts in (2, 3, 5):
            for shard in range(32):
                replicas = replica_indexes(shard, n_hosts)
                assert len(set(replicas)) == len(replicas)

    def test_replication_caps_at_host_count(self):
        assert replica_indexes(3, 1) == (0,)  # one host: no second copy
        assert len(replica_indexes(3, 2)) == REPLICATION_FACTOR == 2

    def test_validation(self):
        with pytest.raises(PlacementError):
            replica_indexes(0, 0)
        with pytest.raises(PlacementError):
            ring_indexes(0, 0)

    def test_cluster_map_replica_hosts_follow_indexes(self):
        cmap = ClusterMap(("h0:1", "h1:2", "h2:3"), n_shards=8)
        for task in ("movies-0/director", "shop-1/title", "acme::shop-0/price"):
            shard = cmap.shard_of(task)
            replicas = cmap.replica_hosts(task)
            assert replicas[0] == cmap.hosts[shard % 3]  # primary first
            assert replicas == tuple(
                cmap.hosts[i] for i in replica_indexes(shard, 3)
            )

    def test_replica_ownership_is_the_union_group(self):
        """A replicated host must be launched owning its primary shards
        PLUS every shard it seconds — otherwise it 421s replica traffic."""
        cmap = ClusterMap(("h0:1", "h1:2", "h2:3"), n_shards=8)
        for index, host in enumerate(cmap.hosts):
            union = cmap.replica_ownership_of(host)
            primaries = {s for s in range(8) if s % 3 == index}
            assert primaries <= set(union.owned)
            assert set(union.owned) == set(cmap.replica_shards_of(host))
        # Every shard is seconded somewhere: union groups cover each
        # shard exactly REPLICATION_FACTOR times.
        coverage = [0] * 8
        for host in cmap.hosts:
            for shard in cmap.replica_shards_of(host):
                coverage[shard] += 1
        assert coverage == [REPLICATION_FACTOR] * 8

    def test_epoch_is_carried_and_validated(self):
        assert ClusterMap(("h0:1",), 8).epoch == 0
        cmap = ClusterMap(("h0:1", "h1:2"), 8, epoch=3)
        assert cmap.epoch == 3
        with pytest.raises(PlacementError):
            ClusterMap(("h0:1",), 8, epoch=-1)
