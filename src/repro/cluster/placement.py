"""Placement: the one pure function every layer agrees on.

Sharding decisions appear in four places — the artifact store lays
files out on disk, the sweep fleet assigns shards to worker processes,
a serving host decides which keys it owns, and a router client decides
which host to call.  All four MUST compute the same answer for the same
key, with no coordination service in between, or stored artifacts are
orphaned and requests are misrouted.  This module is that single
answer: a dependency-free pure-function vocabulary shared by
:mod:`repro.runtime.store`, :mod:`repro.runtime.fleet`,
:mod:`repro.runtime.net`, and :mod:`repro.cluster.router`.

* :func:`site_key_of` — the partition key of a task id (everything
  before the first ``/``, so co-located tasks share a shard);
* :func:`shard_index` — SHA-1 placement, immune to ``PYTHONHASHSEED``
  (Python's builtin ``hash`` is salted per process and would scatter
  the same key across shards in different processes);
* :func:`qualify_key` / :func:`split_tenant` — multi-tenant
  namespaces: ``<tenant>::<site_key>`` prefixes flow through
  :func:`site_key_of` unchanged, so two tenants' copies of the same
  site key shard (and store) independently with zero extra mechanism;
* :func:`ring_indexes` / :func:`replica_indexes` — the host ring: a
  shard's host indexes in ring order from its primary
  (``shard % n_hosts``), whose first :data:`REPLICATION_FACTOR`
  entries are the hosts that serve it;
* :class:`ShardOwnership` — the shard subset one serving host answers
  for (``serve --listen --own-shards``), and its ``/healthz`` form;
* :class:`ClusterMap` — which hosts serve a key, and which shards to
  launch each host with, derived purely from the host list order, so
  N ``serve --listen`` processes and a
  :class:`~repro.cluster.router.RouterClient` agree on ownership
  without ever talking to each other.

The assignment is pinned by the golden fixture
``tests/golden/placement.json`` — a refactor that silently remaps
shards would orphan every stored artifact, so the corpus-wide
``site_key → shard_index`` table is frozen the same way induction
scores are.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Iterable, Optional

#: Default shard count — small enough that an 84-site corpus keeps every
#: shard populated, large enough to feed a one-process-per-shard fleet.
DEFAULT_SHARDS = 8

#: Every shard lives on this many hosts (capped by the host count): a
#: primary and one independently-placed secondary.  The same redundancy
#: argument the ensemble layer makes for committee members, one layer
#: up — one dead host must never take out the only copy of a shard.
REPLICATION_FACTOR = 2

#: The unnamed namespace: keys stay bare, all seed-era behavior intact.
DEFAULT_TENANT = ""

#: Separator between a tenant name and the site key it namespaces.
#: Chosen to never collide with ``/`` (the task-id role separator) or
#: ``__`` (the store's filename encoding of ``/``), and to read like
#: the dsXPath axis separator the codebase already speaks.  Note the
#: colon makes tenant-qualified store filenames POSIX-only (NTFS
#: reserves ``:``) — the store, like the serving stack, targets POSIX
#: hosts.
TENANT_SEP = "::"

#: Tenant names must be safe on every POSIX layer that embeds them
#: (store paths, telemetry stream filenames, URL path segments).
_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


class PlacementError(ValueError):
    """A key, tenant, or shard specification is malformed."""


def site_key_of(task_id: str) -> str:
    """The partition key for a task id.

    Corpus task ids are ``<site_id>/<role>``; everything before the
    first ``/`` is the site key, so co-located tasks share a shard.  Ids
    without a ``/`` partition by the whole id.  A tenant prefix
    (``tenant::site/role``) stays part of the site key, so each
    tenant's fleet places independently.
    """
    return task_id.split("/", 1)[0]


def shard_index(site_key: str, n_shards: int) -> int:
    """Stable shard for a site key: same key → same shard, every
    process, every run (SHA-1 based, immune to hash salting)."""
    digest = hashlib.sha1(site_key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % n_shards


def shard_of_task(task_id: str, n_shards: int) -> int:
    """Shard of a (possibly tenant-qualified) task id."""
    return shard_index(site_key_of(task_id), n_shards)


def ring_indexes(shard: int, n_hosts: int) -> tuple[int, ...]:
    """Every host index in ring order from the shard's primary.

    The primary is the classic ``shard % n_hosts`` owner and each next
    entry is the next host on the ring.  This is the one place the ring
    is computed: the replica set (:func:`replica_indexes`) is its head,
    and a router that learned ownership from ``/healthz`` walks the same
    order over the hosts that actually own the shard.
    """
    if n_hosts < 1:
        raise PlacementError("replica placement needs at least one host")
    primary = shard % n_hosts
    return tuple((primary + offset) % n_hosts for offset in range(n_hosts))


def replica_indexes(shard: int, n_hosts: int) -> tuple[int, ...]:
    """Host indexes serving one shard: ``(primary, secondary)``.

    Pure and deterministic — every router and every launch script
    derive the same replica set with no coordination.  The first
    :data:`REPLICATION_FACTOR` entries of :func:`ring_indexes`, so with
    ≥ 2 hosts the secondary is never on the primary's host, and a
    1-host cluster (no independent second home to offer) has one.
    """
    return ring_indexes(shard, n_hosts)[:REPLICATION_FACTOR]


# -- tenant namespaces -------------------------------------------------------


def split_tenant(key: str) -> tuple[str, str]:
    """``(tenant, bare_key)`` for a possibly-qualified key.

    Unqualified keys belong to :data:`DEFAULT_TENANT`.  Only a
    well-formed tenant name before the first ``::`` (and before any
    ``/``) counts as a prefix — a stray ``::`` inside a role never
    re-partitions a key.
    """
    head, sep, rest = key.partition(TENANT_SEP)
    if sep and rest and _TENANT_RE.match(head) and "/" not in head:
        return head, rest
    return DEFAULT_TENANT, key


def tenant_of(key: str) -> str:
    """The namespace a key belongs to (``""`` for unqualified keys)."""
    return split_tenant(key)[0]


def validate_tenant(tenant: str) -> str:
    """``tenant`` back, or :class:`PlacementError` for names that would
    not survive store paths, telemetry filenames, or URL segments.
    Clients validate at construction so a bad namespace fails fast."""
    if tenant and not _TENANT_RE.match(tenant):
        raise PlacementError(
            f"invalid tenant name {tenant!r} (letters, digits, '._-', "
            "starting alphanumeric)"
        )
    return tenant


def qualify_key(site_key: str, tenant: str = DEFAULT_TENANT) -> str:
    """Prefix ``site_key`` into ``tenant``'s namespace.

    Idempotent for keys already carrying the same tenant prefix (so a
    tenant-scoped client and a tenant-scoped server can both qualify
    without double-prefixing).  A key already qualified for a
    *different* tenant raises — one tenant's client must never reach
    into another's namespace.
    """
    validate_tenant(tenant)
    existing, bare = split_tenant(site_key)
    if existing == tenant:
        return site_key
    if existing and not tenant:
        # The default (admin) namespace addresses qualified keys as-is.
        return site_key
    if existing:
        raise PlacementError(
            f"key {site_key!r} belongs to tenant {existing!r}, "
            f"not {tenant!r} (cross-tenant access)"
        )
    if not bare:
        raise PlacementError("site key must be non-empty")
    return f"{tenant}{TENANT_SEP}{bare}" if tenant else bare


# -- shard ownership ---------------------------------------------------------


@dataclass(frozen=True)
class ShardOwnership:
    """The shard subset one serving host answers for.

    ``serve --listen --own-shards 0,2,5`` builds one of these; every
    keyed request is checked with :meth:`owns_task` and rejected with a
    typed error when the key places outside ``owned`` — a misrouted
    request is a deployment bug the caller must see, not data served
    from the wrong host.
    """

    n_shards: int
    owned: frozenset[int]

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise PlacementError("n_shards must be >= 1")
        bad = sorted(s for s in self.owned if not 0 <= s < self.n_shards)
        if bad:
            raise PlacementError(
                f"owned shards {bad} out of range for {self.n_shards} shards"
            )
        if not self.owned:
            raise PlacementError("a serving host must own at least one shard")

    @classmethod
    def parse(cls, spec: str, n_shards: int) -> "ShardOwnership":
        """Parse a CLI ``--own-shards`` value like ``"0,2,5"``."""
        try:
            owned = frozenset(
                int(part) for part in spec.split(",") if part.strip() != ""
            )
        except ValueError as exc:
            raise PlacementError(
                f"--own-shards wants comma-separated shard indexes, got {spec!r}"
            ) from exc
        return cls(n_shards=n_shards, owned=owned)

    @property
    def is_total(self) -> bool:
        return len(self.owned) == self.n_shards

    def shard_of(self, task_id: str) -> int:
        return shard_of_task(task_id, self.n_shards)

    def owns_task(self, task_id: str) -> bool:
        return self.shard_of(task_id) in self.owned

    def sorted_owned(self) -> list[int]:
        return sorted(self.owned)

    def as_payload(self) -> dict:
        """The ``/healthz`` form: total shard count + owned subset."""
        return {"n_shards": self.n_shards, "owned": self.sorted_owned()}

    @classmethod
    def from_payload(cls, payload: Optional[dict], n_shards: int) -> "ShardOwnership":
        """Read a ``/healthz`` ``shards`` block back (:meth:`as_payload`).

        A host that advertises no block was launched without
        ``--own-shards`` and serves every one of ``n_shards`` shards.
        """
        if not payload:
            return cls(n_shards=n_shards, owned=frozenset(range(n_shards)))
        try:
            return cls(
                n_shards=int(payload["n_shards"]),
                owned=frozenset(int(s) for s in payload["owned"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PlacementError(f"malformed shards payload {payload!r}: {exc}") from exc


# -- cluster maps ------------------------------------------------------------


@dataclass(frozen=True)
class ClusterMap:
    """Host → shard-group assignment, derived purely from placement.

    ``hosts`` is an ordered tuple of ``"host:port"`` addresses; shard
    ``s`` lives on the hosts :func:`replica_indexes` names, primary
    ``hosts[s % len(hosts)]`` first.  Because the assignment is a pure
    function of the (ordered) host list and the shard count, every
    router client and every serving host given the same pair computes
    identical ownership with no coordination — the cross-host
    generalization of the store's coordination-free on-disk placement.

    ``epoch`` versions the map: two maps with different epochs describe
    the cluster at different points of its life (hosts joined/left, a
    store was re-sharded by ``python -m repro.runtime migrate``).
    Serving hosts advertise their epoch in ``/healthz`` and stamp it
    into every ``421 shard_not_owned`` payload, so a client holding a
    stale map can *detect* the mismatch and refresh instead of
    hammering the wrong owner.

    Replication: :meth:`replica_hosts` places every shard on
    :data:`REPLICATION_FACTOR` hosts — ``(primary, secondary)`` in ring
    order, the secondary never on the primary's host — and
    :meth:`replica_ownership_of` (as a CLI value,
    :meth:`replica_own_shards_arg`) is the shard group to *launch* one
    host with: its primary shards plus every shard it seconds.  A host
    launched with only its primary group would 421 the replica traffic
    the router sends it.  A disjoint layout (hand-picked
    ``--own-shards`` groups) serves too, without failover.
    """

    hosts: tuple[str, ...]
    n_shards: int = DEFAULT_SHARDS
    epoch: int = 0

    def __post_init__(self) -> None:
        if self.epoch < 0:
            raise PlacementError("cluster map epoch must be >= 0")
        if not self.hosts:
            raise PlacementError("a cluster map needs at least one host")
        if len(set(self.hosts)) != len(self.hosts):
            raise PlacementError(f"duplicate hosts in cluster map: {self.hosts}")
        if self.n_shards < 1:
            raise PlacementError("n_shards must be >= 1")
        for host in self.hosts:
            name, _, port = host.rpartition(":")
            if not name or not port.isdigit():
                raise PlacementError(
                    f"cluster hosts must be 'host:port' addresses, got {host!r}"
                )

    @classmethod
    def from_hosts(
        cls,
        hosts: Iterable[str],
        n_shards: Optional[int] = None,
        epoch: int = 0,
    ) -> "ClusterMap":
        return cls(
            hosts=tuple(hosts),
            n_shards=DEFAULT_SHARDS if n_shards is None else int(n_shards),
            epoch=int(epoch),
        )

    def shard_of(self, task_id: str) -> int:
        return shard_of_task(task_id, self.n_shards)

    def replica_hosts(self, task_id: str) -> tuple[str, ...]:
        """``(primary, secondary)`` hosts for a (qualified) task id —
        deterministic, and the secondary is never the primary's host
        (when the cluster has a second host to offer)."""
        return tuple(
            self.hosts[index]
            for index in replica_indexes(self.shard_of(task_id), len(self.hosts))
        )

    def replica_shards_of(self, host: str) -> tuple[int, ...]:
        """Every shard this host serves as *any* replica (primary or
        secondary) — the group a cluster member must own."""
        try:
            index = self.hosts.index(host)
        except ValueError:
            raise PlacementError(
                f"{host!r} is not in the cluster map {self.hosts}"
            ) from None
        return tuple(
            shard
            for shard in range(self.n_shards)
            if index in replica_indexes(shard, len(self.hosts))
        )

    def replica_ownership_of(self, host: str) -> ShardOwnership:
        """The :class:`ShardOwnership` to launch one host with (its
        primary shards plus the shards it seconds)."""
        return ShardOwnership(
            n_shards=self.n_shards, owned=frozenset(self.replica_shards_of(host))
        )

    def replica_own_shards_arg(self, host: str) -> str:
        """The ``--own-shards`` CLI value for one host (``"0,2,3,5"``)."""
        return ",".join(str(s) for s in self.replica_shards_of(host))


__all__ = [
    "ClusterMap",
    "DEFAULT_SHARDS",
    "DEFAULT_TENANT",
    "PlacementError",
    "REPLICATION_FACTOR",
    "ShardOwnership",
    "TENANT_SEP",
    "qualify_key",
    "replica_indexes",
    "ring_indexes",
    "shard_index",
    "shard_of_task",
    "site_key_of",
    "split_tenant",
    "tenant_of",
    "validate_tenant",
]
