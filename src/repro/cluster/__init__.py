"""``repro.cluster`` — cross-host sharded serving.

The store's SHA-1 placement needs no coordination, which makes scaling
out a routing problem instead of a consensus problem: launch N ``serve
--listen`` hosts with the shard groups the placement function gives
them (``ClusterMap.replica_own_shards_arg``) and teach one client the
same function.  This package holds that layer:

* :mod:`repro.cluster.placement` — the shared pure-function placement
  vocabulary (site keys, SHA-1 shard indexes, tenant namespaces,
  :class:`ShardOwnership`, the epoch-versioned :class:`ClusterMap`,
  and the host ring — :func:`replica_indexes` names each shard's
  primary plus its ring successor, :data:`REPLICATION_FACTOR` hosts);
* :mod:`repro.cluster.router` — :class:`RouterClient`, the full
  :class:`~repro.api.client.WrapperClient` surface routed per site key
  to the shard's primary with failover to the replica, writes fanned
  to every replica at write-quorum 1, a per-host circuit breaker, and
  scatter-gather listing / ``extract_many`` batch extraction fanned
  out concurrently across hosts.

Independent shard owners fail independently — one dead host degrades
only its own shard group, the same diversification argument the
ensemble layer makes for committee members; with replication, one dead
host degrades *nothing* until its replica dies too.
"""

from repro.cluster.placement import (
    ClusterMap,
    DEFAULT_SHARDS,
    DEFAULT_TENANT,
    PlacementError,
    REPLICATION_FACTOR,
    ShardOwnership,
    TENANT_SEP,
    qualify_key,
    replica_indexes,
    shard_index,
    shard_of_task,
    site_key_of,
    split_tenant,
    tenant_of,
    validate_tenant,
)

#: Lazily exported (PEP 562): the router imports ``repro.api.remote``,
#: which imports runtime modules that import this package's placement —
#: an eager import here would cycle during ``repro.api`` startup.
_ROUTER_EXPORTS = ("RouterClient",)


def __getattr__(name: str):
    if name in _ROUTER_EXPORTS:
        from repro.cluster import router

        return getattr(router, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ClusterMap",
    "DEFAULT_SHARDS",
    "DEFAULT_TENANT",
    "PlacementError",
    "REPLICATION_FACTOR",
    "RouterClient",
    "ShardOwnership",
    "TENANT_SEP",
    "qualify_key",
    "replica_indexes",
    "shard_index",
    "shard_of_task",
    "site_key_of",
    "split_tenant",
    "tenant_of",
    "validate_tenant",
]
