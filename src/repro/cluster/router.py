""":class:`RouterClient` — one client object over N serving hosts.

The cross-host scale step: every :class:`~repro.cluster.placement.ClusterMap`
host runs ``python -m repro.runtime serve --listen --own-shards <group>``
and the router implements the full
:class:`~repro.api.client.WrapperClient` surface by computing the same
placement function the hosts enforce:

* keyed reads (``extract``/``check``/``get``) route to the shard's
  *primary* replica and fail over — one jittered-backoff retry — to the
  secondary when the primary is unreachable or rejects with a typed 421;
* writes (``induce``/``repair``/``deploy``/``delete``) go to **every**
  replica with write-quorum 1: the verb succeeds once any replica
  accepted it, and a replica that missed the write is logged to the
  router's telemetry stream as ``write_repair_needed`` (best-effort
  repair — the artifact is deterministic, so re-running the write on
  the recovered replica converges);
* ``keys()``/``handles()`` scatter-gather across every host and merge,
  de-duplicating by site key (replicas list the same wrappers twice);
* :meth:`extract_many` fans a batch out concurrently across hosts, one
  thread per host sending that host's slice as bounded
  ``/extract_many`` requests, re-queuing a failed item against its next
  replica between rounds.

Failure containment mirrors the placement function: a host with no live
replica fails *its* keys (as :class:`~repro.api.remote.RemoteError`
carrying the first failing host's address) and no others.  A per-host
circuit breaker opens after ``breaker_threshold`` consecutive transport
failures and skips the host for ``breaker_reset_s`` seconds, so a dead
host costs one connect timeout — not one per request.

Topology changes are detected without a coordination service: every
421 rejection and every ``/healthz`` answer carries the server's
``epoch`` (see :class:`~repro.cluster.placement.ClusterMap`).  When a
rejection proves the router's map is *stale* (server epoch newer), the
router refreshes its ownership table from the live hosts' ``/healthz``
— once — and retries the key against the new owner.

The router is drop-in interchangeable with the local and single-host
clients; the facade parity suite runs byte-identically against both a
disjoint 2-host and a replicated 3-host router backend.  Like
:class:`RemoteWrapperClient`, one router is not thread-safe (it owns
one keep-alive connection per host); ``extract_many`` gives each host's
connection to one thread of its own.
"""

from __future__ import annotations

import random
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Optional, Sequence, Union

from repro.cluster.placement import (
    ClusterMap,
    DEFAULT_TENANT,
    REPLICATION_FACTOR,
    qualify_key,
    shard_of_task,
    validate_tenant,
)
from repro.api.remote import (
    OwnershipError,
    Page,
    RateLimitError,
    RemoteError,
    RemoteWrapperClient,
)
from repro.api.results import (
    CheckResult,
    ExtractionResult,
    FacadeError,
    WrapperHandle,
)

_UNSET = object()

# Failover backoff: the base delay doubles per attempt (full jitter)
# but never past the ceiling.
_FAILOVER_BACKOFF_S = 0.05
_BACKOFF_CAP_S = 1.0


class RouterClient:
    """The facade, routed across a cluster of shard-owning hosts.

    ``cluster`` is a :class:`ClusterMap` (or a plain host list, sharded
    with ``n_shards``).  ``tenant`` scopes every verb into one
    namespace, exactly as on the other two clients.  The connect/read
    timeout split is forwarded to every per-host client so a dead host
    is detected on the connect phase without capping live work.

    ``replication`` is how many replicas each shard has (primary +
    ring-order successors; default :data:`REPLICATION_FACTOR`).  With
    ``replication=1`` failover is off and the router behaves exactly
    like the pre-replication strict router.  ``telemetry_sink``, when
    given, receives every telemetry event dict as it is emitted (the
    last 512 events are always kept on :attr:`telemetry`).
    """

    def __init__(
        self,
        cluster: Union[ClusterMap, Iterable[str]],
        *,
        n_shards: Optional[int] = None,
        tenant: str = DEFAULT_TENANT,
        timeout: float = 60.0,
        connect_timeout: Optional[float] = None,
        read_timeout: Optional[float] = None,
        replication: int = REPLICATION_FACTOR,
        api_key: str = "",
        breaker_threshold: int = 3,
        breaker_reset_s: float = 5.0,
        telemetry_sink: Optional[Callable[[dict], None]] = None,
    ) -> None:
        if not isinstance(cluster, ClusterMap):
            cluster = ClusterMap.from_hosts(cluster, n_shards)
        elif n_shards is not None and n_shards != cluster.n_shards:
            raise FacadeError(
                f"cluster map has {cluster.n_shards} shards; "
                f"n_shards={n_shards} would misroute keys"
            )
        self.cluster = cluster
        try:
            self.tenant = validate_tenant(tenant)
        except ValueError as exc:
            raise FacadeError(str(exc)) from exc
        if replication < 1:
            raise FacadeError("replication must be >= 1")
        if breaker_threshold < 1:
            raise FacadeError("breaker_threshold must be >= 1")
        self.replication = int(replication)
        # One credential for the whole cluster: forwarded to every
        # per-host client (hosts share one key table, so one key grants
        # the same tenant everywhere).
        self.api_key = str(api_key)
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_reset_s = float(breaker_reset_s)
        self._timeouts = {
            "timeout": timeout,
            "connect_timeout": connect_timeout,
            "read_timeout": read_timeout,
        }
        self._clients: dict[str, RemoteWrapperClient] = {}
        # Per-host breaker state: [consecutive failures, open-until].
        self._breaker: dict[str, list[float]] = {}
        # Topology the router currently believes.  ``_owned`` is the
        # overlay adopted from /healthz after an epoch refresh: host →
        # shards it actually owns.  ``None`` means "trust the map".
        self._epoch = cluster.epoch
        self._owned: Optional[dict[str, frozenset[int]]] = None
        self._owned_n_shards = cluster.n_shards
        self.telemetry: deque[dict] = deque(maxlen=512)
        self._telemetry_sink = telemetry_sink

    # -- telemetry ----------------------------------------------------------

    def _emit(self, event: str, **fields) -> None:
        record = {"event": event, "epoch": self._epoch, **fields}
        self.telemetry.append(record)
        if self._telemetry_sink is not None:
            try:
                self._telemetry_sink(record)
            except Exception:  # noqa: BLE001 - a broken sink must not break serving
                pass

    # -- circuit breaker ----------------------------------------------------

    def _breaker_open(self, host: str) -> bool:
        state = self._breaker.get(host)
        return (
            state is not None
            and state[0] >= self.breaker_threshold
            and time.monotonic() < state[1]
        )

    def _record_failure(self, host: str) -> None:
        state = self._breaker.setdefault(host, [0, 0.0])
        state[0] += 1
        if state[0] >= self.breaker_threshold:
            was_open = time.monotonic() < state[1]
            state[1] = time.monotonic() + self.breaker_reset_s
            if not was_open:
                self._emit(
                    "breaker_open", host=host, failures=int(state[0])
                )

    def _record_success(self, host: str) -> None:
        self._breaker.pop(host, None)

    def _breaker_error(self, host: str) -> RemoteError:
        name, _, port = host.rpartition(":")
        return RemoteError(
            f"{host} skipped: circuit breaker open after "
            f"{self.breaker_threshold} consecutive failures",
            host=name or host,
            port=int(port) if port.isdigit() else 0,
            attempts=0,
        )

    def _backoff_sleep(self, attempt: int) -> None:
        # Full-jitter exponential backoff before a failover retry.
        delay = min(_FAILOVER_BACKOFF_S * (2 ** max(attempt - 1, 0)), _BACKOFF_CAP_S)
        time.sleep(delay * random.uniform(0.5, 1.0))

    # -- routing ------------------------------------------------------------

    def _qualify(self, site_key: str) -> str:
        # Same surface as the other two clients: a cross-tenant or
        # malformed key is a FacadeError.
        try:
            return qualify_key(site_key, self.tenant)
        except ValueError as exc:
            raise FacadeError(str(exc)) from exc

    def host_of(self, site_key: str) -> str:
        """The *primary* serving host for ``site_key`` (tenant-qualified
        first, so two tenants' copies of one site may route apart)."""
        return self.cluster.host_of(self._qualify(site_key))

    def replica_hosts(self, site_key: str) -> list[str]:
        """Every host a key may be served from, primary first — the
        failover order keyed verbs walk."""
        return self._candidates(self._qualify(site_key))

    def _candidates(self, qualified: str) -> list[str]:
        """Replica hosts for a qualified key, primary first.

        After an epoch refresh the overlay (ground truth from the live
        hosts' ``/healthz``) wins over the map-derived placement — the
        map may predate a re-shard.
        """
        if self._owned:
            shard = shard_of_task(qualified, self._owned_n_shards)
            hosts = self.cluster.hosts
            start = shard % len(hosts)
            ring = [*hosts[start:], *hosts[:start]]
            owners = [h for h in ring if shard in self._owned.get(h, ())]
            if owners:
                return owners
        shard = self.cluster.shard_of(qualified)
        return list(self.cluster.replica_hosts_of_shard(shard, self.replication))

    def client_for_host(self, host: str) -> RemoteWrapperClient:
        """The router's keep-alive client for one cluster host."""
        if host not in self.cluster.hosts:
            raise FacadeError(f"{host!r} is not in the cluster map")
        client = self._clients.get(host)
        if client is None:
            client = RemoteWrapperClient(
                host, tenant=self.tenant, api_key=self.api_key, **self._timeouts
            )
            self._clients[host] = client
        return client

    def close(self) -> None:
        for client in self._clients.values():
            client.close()
        self._clients.clear()

    def __enter__(self) -> "RouterClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- epoch refresh ------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The topology epoch the router currently routes against."""
        return self._epoch

    def refresh_map(self) -> int:
        """Re-learn ownership from the live hosts' ``/healthz``.

        Adopts the newest epoch any live host advertises and the
        ownership table of the hosts serving it; hosts still on an
        older epoch (mid-rollout) are left out of the overlay until
        they catch up.  Returns the adopted epoch.  Called
        automatically — once per verb — when a 421 proves the router's
        map is stale; callable directly after an operator re-shard.
        """
        found: dict[str, tuple[int, int, Optional[frozenset[int]]]] = {}
        best = self._epoch
        for host, info in self.healthz().items():
            if not info.get("ok", False):
                continue
            epoch = int(info.get("epoch", 0))
            shards_info = info.get("shards")
            if shards_info:
                n = int(shards_info.get("n_shards", self.cluster.n_shards))
                owned: Optional[frozenset[int]] = frozenset(
                    int(s) for s in shards_info.get("owned", ())
                )
            else:
                n, owned = self.cluster.n_shards, None  # owns every shard
            found[host] = (epoch, n, owned)
            best = max(best, epoch)
        overlay: dict[str, frozenset[int]] = {}
        n_shards = self._owned_n_shards
        for host, (epoch, n, owned) in found.items():
            if epoch != best:
                continue
            n_shards = n
            overlay[host] = (
                owned if owned is not None else frozenset(range(n))
            )
        if overlay:
            self._owned = overlay
            self._owned_n_shards = n_shards
        self._epoch = best
        self._emit(
            "map_refresh",
            hosts=sorted(overlay),
            n_shards=n_shards,
        )
        return best

    # -- keyed reads: primary, then failover to the replica ------------------

    def _with_failover(self, site_key: str, fn):
        qualified = self._qualify(site_key)
        candidates = self._candidates(qualified)
        first_remote: Optional[RemoteError] = None
        last_ownership: Optional[OwnershipError] = None
        last_ratelimit: Optional[RateLimitError] = None
        refreshed = False
        tried = 0
        i = 0
        while i < len(candidates):
            host = candidates[i]
            if self._breaker_open(host):
                if first_remote is None:
                    first_remote = self._breaker_error(host)
                i += 1
                continue
            if tried:
                self._backoff_sleep(tried)
            tried += 1
            try:
                result = fn(self.client_for_host(host))
            except RemoteError as exc:
                self._record_failure(host)
                self._emit(
                    "failover", host=host, site_key=site_key, error=str(exc)
                )
                if first_remote is None:
                    first_remote = exc
                i += 1
                continue
            except RateLimitError as exc:
                # A 429 is a live, answering host — never a breaker
                # strike.  Another replica may still have budget for
                # this tenant, so the walk continues; the telemetry
                # event is what surfaces per-host throttling upstream.
                self._record_success(host)
                self._emit(
                    "rate_limited",
                    host=host,
                    site_key=site_key,
                    retry_after_s=exc.retry_after_s,
                )
                last_ratelimit = exc
                i += 1
                continue
            except OwnershipError as exc:
                self._record_success(host)  # the host is alive, just not the owner
                if exc.epoch > self._epoch and not refreshed:
                    # Stale map, not a misroute: learn the new topology
                    # once, then walk the fresh candidate list.
                    refreshed = True
                    self.refresh_map()
                    candidates = self._candidates(qualified)
                    i = 0
                    continue
                if last_ownership is None:
                    last_ownership = exc
                i += 1
                continue
            self._record_success(host)
            return result
        # Surfacing order: a transport failure names the host that
        # actually died; an OwnershipError only surfaces when every
        # replica answered and none owned the key (a real routing bug);
        # a RateLimitError means every live owner throttled the tenant
        # — the caller gets the Retry-After hint to honor.
        error: Optional[FacadeError] = (
            last_ratelimit or first_remote or last_ownership
        )
        if error is None:
            error = RemoteError(f"no live replica reachable for {site_key!r}")
        raise error

    def extract(self, site_key: str, page: Page) -> ExtractionResult:
        return self._with_failover(site_key, lambda c: c.extract(site_key, page))

    def check(self, site_key: str, page: Page) -> CheckResult:
        return self._with_failover(site_key, lambda c: c.check(site_key, page))

    def get(self, site_key: str) -> WrapperHandle:
        return self._with_failover(site_key, lambda c: c.get(site_key))

    def __contains__(self, site_key: str) -> bool:
        try:
            self._qualify(site_key)
        except FacadeError:
            return False  # parity: an unaddressable key is not contained
        try:
            self.get(site_key)
        except KeyError:
            return False
        return True

    # -- writes: every replica, quorum 1 ------------------------------------

    def _replicated_write(self, verb: str, site_key: str, fn):
        """Run a mutating verb against every replica of ``site_key``.

        Succeeds (returning the first replica's answer) as soon as ANY
        replica accepted the write; replicas that missed it are logged
        as ``write_repair_needed`` so an operator — or the next write —
        can converge them.  Raises only when no replica accepted: the
        first transport error (naming its host), else the ownership
        rejection, else the KeyError every replica agreed on.
        """
        qualified = self._qualify(site_key)
        candidates = self._candidates(qualified)
        result = _UNSET
        first_remote: Optional[RemoteError] = None
        last_ownership: Optional[OwnershipError] = None
        last_ratelimit: Optional[RateLimitError] = None
        missing: Optional[KeyError] = None
        repair_needed: list[tuple[str, Exception]] = []
        refreshed = False
        i = 0
        while i < len(candidates):
            host = candidates[i]
            if self._breaker_open(host):
                exc = self._breaker_error(host)
                repair_needed.append((host, exc))
                if first_remote is None:
                    first_remote = exc
                i += 1
                continue
            try:
                value = fn(self.client_for_host(host))
            except RemoteError as exc:
                self._record_failure(host)
                repair_needed.append((host, exc))
                if first_remote is None:
                    first_remote = exc
                i += 1
                continue
            except RateLimitError as exc:
                # The replica is alive but throttled this tenant: the
                # write did not land there, which is exactly the
                # write_repair_needed situation — another replica may
                # still accept it.
                self._record_success(host)
                self._emit(
                    "rate_limited",
                    host=host,
                    site_key=site_key,
                    retry_after_s=exc.retry_after_s,
                )
                repair_needed.append((host, exc))
                last_ratelimit = exc
                i += 1
                continue
            except OwnershipError as exc:
                self._record_success(host)
                if exc.epoch > self._epoch and not refreshed and result is _UNSET:
                    # Stale map and nothing written yet: safe to learn
                    # the new topology and restart the replica walk.
                    refreshed = True
                    self.refresh_map()
                    candidates = self._candidates(qualified)
                    i = 0
                    continue
                if last_ownership is None:
                    last_ownership = exc
                i += 1
                continue
            except KeyError as exc:
                # delete of a key this replica never had — agreement,
                # not divergence (the shared-store topology deletes the
                # artifact once and the second replica finds it gone).
                self._record_success(host)
                if missing is None:
                    missing = exc
                i += 1
                continue
            self._record_success(host)
            if result is _UNSET:
                result = value
            i += 1
        if result is not _UNSET:
            for host, exc in repair_needed:
                self._emit(
                    "write_repair_needed",
                    verb=verb,
                    host=host,
                    site_key=site_key,
                    error=str(exc),
                )
            return result
        error: Optional[Exception] = (
            last_ratelimit or first_remote or last_ownership or missing
        )
        if error is None:
            error = RemoteError(f"no live replica accepted {verb} of {site_key!r}")
        raise error

    def induce(self, site_key: str, samples, mode: str = "node", **options):
        return self._replicated_write(
            "induce", site_key, lambda c: c.induce(site_key, samples, mode, **options)
        )

    def repair(
        self,
        site_key: str,
        page: Page,
        target_paths: Optional[Sequence[str]] = None,
    ) -> WrapperHandle:
        return self._replicated_write(
            "repair", site_key, lambda c: c.repair(site_key, page, target_paths)
        )

    def deploy(self, artifact) -> WrapperHandle:
        """Deploy a prebuilt artifact to every replica of its shard."""
        return self._replicated_write(
            "deploy", artifact.task_id, lambda c: c.deploy(artifact)
        )

    def delete(self, site_key: str) -> None:
        result = self._replicated_write(
            "delete", site_key, lambda c: c.delete(site_key)
        )
        return result if result is not _UNSET else None

    # -- scatter-gather -----------------------------------------------------

    def _gather_parts(self, fn) -> dict[str, tuple[bool, object]]:
        """``fn(client)`` against every host concurrently; per-host
        ``(ok, value-or-error)`` so callers decide failure policy."""
        hosts = self.cluster.hosts

        def probe(host: str) -> tuple[bool, object]:
            try:
                return True, fn(self.client_for_host(host))
            except FacadeError as exc:
                return False, exc

        if len(hosts) == 1:
            return {hosts[0]: probe(hosts[0])}
        with ThreadPoolExecutor(max_workers=len(hosts)) as pool:
            return dict(zip(hosts, pool.map(probe, hosts)))

    def _tolerate_failures(self, parts: dict[str, tuple[bool, object]]) -> None:
        """Decide whether a listing may proceed without the dead hosts.

        A partial listing silently missing a shard group is worse than
        an error — so a failed host is tolerated only when the *live*
        hosts' ``/healthz`` ownership provably covers every shard (the
        replicated deployment).  In a disjoint deployment the dead
        host's shards are uncovered and its error surfaces, exactly as
        before replication existed.
        """
        failed = {host: part[1] for host, part in parts.items() if not part[0]}
        if not failed:
            return
        needed: Optional[set[int]] = None
        covered: set[int] = set()
        unsharded_live = False
        for host, (ok, _) in parts.items():
            if not ok:
                continue
            try:
                info = self.client_for_host(host).healthz()
            except FacadeError:
                continue
            shards_info = info.get("shards")
            if not shards_info:
                unsharded_live = True  # this host serves every shard
                continue
            needed = set(range(int(shards_info["n_shards"])))
            covered |= {int(s) for s in shards_info.get("owned", ())}
        if unsharded_live or (needed is not None and needed <= covered):
            for host, exc in failed.items():
                self._record_failure(host)
                self._emit("degraded_scan", host=host, error=str(exc))
            return
        raise next(iter(failed.values()))

    def handles(self) -> list[WrapperHandle]:
        parts = self._gather_parts(lambda c: c.handles())
        self._tolerate_failures(parts)
        merged: dict[str, WrapperHandle] = {}
        for ok, part in parts.values():
            if not ok:
                continue
            for handle in part:
                # Replicas list the same wrapper; first listing wins.
                merged.setdefault(handle.site_key, handle)
        return sorted(merged.values(), key=lambda handle: handle.site_key)

    def keys(self) -> list[str]:
        return [handle.site_key for handle in self.handles()]

    def healthz(self) -> dict:
        """Per-host health, keyed by address; a dead host reports its
        RemoteError string instead of poisoning the others."""
        parts = self._gather_parts(lambda c: c.healthz())
        return {
            host: (part if ok else {"ok": False, "error": str(part)})
            for host, (ok, part) in parts.items()
        }

    def metrics(self) -> dict:
        """Cluster-wide traffic counters: per-host ``GET /metrics``
        scatter-gather (dead hosts report their error, like healthz)
        plus the router's own view — breaker/failover/429/write-repair
        event counts from the retained telemetry window and which
        breakers are open right now."""
        parts = self._gather_parts(lambda c: c.metrics())
        events: dict[str, int] = {}
        for record in self.telemetry:
            name = str(record.get("event", ""))
            events[name] = events.get(name, 0) + 1
        return {
            "hosts": {
                host: (part if ok else {"ok": False, "error": str(part)})
                for host, (ok, part) in parts.items()
            },
            "router": {
                "epoch": self._epoch,
                "events": events,
                "breaker_open": sorted(
                    host for host in self.cluster.hosts if self._breaker_open(host)
                ),
            },
        }

    def __len__(self) -> int:
        if self.tenant or self.replication > 1:
            # Namespace filtering and replica de-duplication both happen
            # client-side; count the merged keys.
            return len(self.keys())
        # Disjoint groups: summing /healthz counters avoids shipping
        # every handle payload just to count them.
        parts = self._gather_parts(lambda c: c.healthz())
        self._tolerate_failures(parts)
        return sum(
            int(part.get("wrappers", 0)) for ok, part in parts.values() if ok
        )

    # -- batch extraction ---------------------------------------------------

    def extract_many(
        self, items: Sequence[tuple[str, Page]], *, return_errors: bool = False
    ) -> list:
        """Batch extraction, concurrent across hosts.

        Items are grouped by the first live replica of their shard;
        every host's slice goes through that host's
        :meth:`RemoteWrapperClient.extract_many` (bounded
        ``/extract_many`` requests) while the other hosts' slices run
        in parallel.
        An item whose host fails mid-batch is re-queued against its
        next replica in the following round (with jittered backoff), so
        a host dying under a batch costs a retry — not the batch.
        Results come back in item order.  An item no replica answered
        yields the error :meth:`extract` raises for its key: a
        throttling replica's :class:`RateLimitError`, else the first
        transport error (naming the host that died), else the ownership
        rejection; an unroutable (cross-tenant, malformed) key fails
        per item.
        With ``return_errors`` errors are returned in place, otherwise
        the first one raises after the batch drains.
        """
        results: list = [None] * len(items)
        qualified: dict[int, str] = {}
        pending: list[int] = []
        for index, (site_key, _) in enumerate(items):
            try:
                qualified[index] = self._qualify(site_key)
            except FacadeError as exc:
                # An unroutable key fails its own item only — exactly
                # like a failed request would.
                results[index] = exc
                continue
            pending.append(index)
        cands: dict[int, list[str]] = {}
        pos: dict[int, int] = {index: 0 for index in pending}
        # Per item, what _with_failover would surface, in its order.
        last_ratelimit: dict[int, RateLimitError] = {}
        first_remote: dict[int, RemoteError] = {}
        first_ownership: dict[int, OwnershipError] = {}
        refreshed = False
        round_no = 0

        def run_host(host: str, indexes: list[int]) -> list:
            try:
                return self.client_for_host(host).extract_many(
                    [items[i] for i in indexes], return_errors=True
                )
            except Exception as exc:  # noqa: BLE001 - host-wide failure
                return [exc] * len(indexes)

        while pending:
            if round_no:
                self._backoff_sleep(round_no)
            round_no += 1
            by_host: dict[str, list[int]] = {}
            for index in pending:
                lst = cands.get(index)
                if lst is None:
                    lst = cands[index] = self._candidates(qualified[index])
                host = None
                while pos[index] < len(lst):
                    candidate = lst[pos[index]]
                    if self._breaker_open(candidate):
                        first_remote.setdefault(
                            index, self._breaker_error(candidate)
                        )
                        pos[index] += 1
                        continue
                    host = candidate
                    break
                if host is None:
                    results[index] = (
                        last_ratelimit.get(index)
                        or first_remote.get(index)
                        or first_ownership.get(index)
                        or RemoteError(
                            f"no live replica reachable for {items[index][0]!r}"
                        )
                    )
                    continue
                by_host.setdefault(host, []).append(index)
            next_pending: list[int] = []
            if by_host:
                if len(by_host) == 1:
                    host, indexes = next(iter(by_host.items()))
                    parts = [run_host(host, indexes)]
                else:
                    with ThreadPoolExecutor(max_workers=len(by_host)) as pool:
                        parts = list(
                            pool.map(lambda kv: run_host(*kv), by_host.items())
                        )
                refresh_now = False
                for (host, indexes), part in zip(by_host.items(), parts):
                    answered = 0
                    transport_failures = 0
                    for index, result in zip(indexes, part):
                        if isinstance(result, RemoteError):
                            transport_failures += 1
                            first_remote.setdefault(index, result)
                            self._emit(
                                "failover",
                                host=host,
                                site_key=items[index][0],
                                error=str(result),
                            )
                            pos[index] += 1
                            next_pending.append(index)
                        elif isinstance(result, RateLimitError):
                            # The host's client already resent the item
                            # after its Retry-After hints and it is still
                            # throttled; requeue against the next replica.
                            answered += 1
                            self._emit(
                                "rate_limited",
                                host=host,
                                site_key=items[index][0],
                                retry_after_s=result.retry_after_s,
                            )
                            last_ratelimit[index] = result
                            pos[index] += 1
                            next_pending.append(index)
                        elif isinstance(result, OwnershipError):
                            answered += 1
                            if result.epoch > self._epoch and not refreshed:
                                refresh_now = True
                            first_ownership.setdefault(index, result)
                            pos[index] += 1
                            next_pending.append(index)
                        else:
                            # A real answer — including KeyError and
                            # other FacadeErrors the host *decided*.
                            answered += 1
                            results[index] = result
                    if answered:
                        self._record_success(host)
                    elif transport_failures:
                        self._record_failure(host)
                if refresh_now:
                    refreshed = True
                    self.refresh_map()
                    cands.clear()
                    for index in next_pending:
                        pos[index] = 0
            pending = next_pending
        if not return_errors:
            for result in results:
                if isinstance(result, BaseException):
                    raise result
        return results


__all__ = ["RouterClient"]
