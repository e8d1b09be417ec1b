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

Every keyed verb and :meth:`extract_many` drive the same replica walk
(:meth:`RouterClient._route`), so failover, error surfacing, the breaker
and the epoch refresh behave alike on all of them.

Failure containment mirrors the placement function: a host with no live
replica fails *its* keys (as :class:`~repro.api.remote.RemoteError`
carrying the first failing host's address) and no others.  A per-host
circuit breaker opens after ``_BREAKER_THRESHOLD`` rounds in a row in
which the host answered nothing and skips the host for
``_BREAKER_RESET_S`` seconds, so a dead host costs one connect timeout
— not one per request.

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
    ShardOwnership,
    qualify_key,
    ring_indexes,
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

# Circuit breaker: a host that answered nothing in this many rounds in
# a row is skipped for the reset period.
_BREAKER_THRESHOLD = 3
_BREAKER_RESET_S = 5.0


class _Walk:
    """One key's walk over its replicas, primary first.

    ``answer`` stays ``_UNSET`` until the walk is over.  On the way the
    walk keeps what the replicas that gave no verdict said, for
    :meth:`error`, and ``missed`` lists the hosts a write did not land
    on.  ``written`` is a write's first success.
    """

    def __init__(
        self, site_key: str, qualified: str, hosts: list[str], answer=_UNSET
    ) -> None:
        self.site_key = site_key
        self.qualified = qualified
        self.hosts = hosts
        self.pos = 0
        self.answer = answer
        self.written: object = _UNSET
        self.throttled: Optional[RateLimitError] = None
        self.dead: Optional[RemoteError] = None
        self.misrouted: Optional[OwnershipError] = None
        self.absent: Optional[KeyError] = None
        self.missed: list[tuple[str, Exception]] = []

    def error(self) -> Exception:
        """What a walk no replica decided surfaces, the same for every verb.

        A throttle first: every live owner throttled the tenant, and the
        caller gets the Retry-After hint to honor.  Then the first
        transport failure, naming the host that actually died.  An
        ownership rejection surfaces only when every replica answered
        and none owned the key (a real routing bug), and last the
        KeyError every replica of a write agreed on.
        """
        return (
            self.throttled
            or self.dead
            or self.misrouted
            or self.absent
            or RemoteError(f"no live replica reachable for {self.site_key!r}")
        )


class RouterClient:
    """The facade, routed across a cluster of shard-owning hosts.

    ``cluster`` is a :class:`ClusterMap` (or a plain host list, sharded
    with ``n_shards``).  ``tenant`` scopes every verb into one
    namespace, exactly as on the other two clients.  The connect/read
    timeout split is forwarded to every per-host client so a dead host
    is detected on the connect phase without capping live work.

    Each shard has :data:`~repro.cluster.placement.REPLICATION_FACTOR`
    replicas (primary + ring-order successor).  ``telemetry_sink``, when
    given, receives every telemetry event dict as it is emitted (the
    last 512 events are always kept on :attr:`telemetry`).
    """

    def __init__(
        self,
        cluster: Union[ClusterMap, Iterable[str]],
        *,
        n_shards: Optional[int] = None,
        tenant: str = DEFAULT_TENANT,
        connect_timeout: float = 60.0,
        read_timeout: float = 60.0,
        api_key: str = "",
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
        # One credential for the whole cluster: forwarded to every
        # per-host client (hosts share one key table, so one key grants
        # the same tenant everywhere).
        self.api_key = str(api_key)
        self._timeouts = dict(connect_timeout=connect_timeout, read_timeout=read_timeout)
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
            and state[0] >= _BREAKER_THRESHOLD
            and time.monotonic() < state[1]
        )

    def _record_failure(self, host: str) -> None:
        state = self._breaker.setdefault(host, [0, 0.0])
        state[0] += 1
        if state[0] >= _BREAKER_THRESHOLD:
            was_open = time.monotonic() < state[1]
            state[1] = time.monotonic() + _BREAKER_RESET_S
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
            f"{_BREAKER_THRESHOLD} consecutive failures",
            host=name or host,
            port=int(port) if port.isdigit() else 0,
            attempts=0,
        )

    # -- routing ------------------------------------------------------------

    def _qualify(self, site_key: str) -> str:
        # Same surface as the other two clients: a cross-tenant or
        # malformed key is a FacadeError.
        try:
            return qualify_key(site_key, self.tenant)
        except ValueError as exc:
            raise FacadeError(str(exc)) from exc

    def replica_hosts(self, site_key: str) -> list[str]:
        """Every host a key may be served from, primary first — the
        failover order keyed verbs walk (tenant-qualified first, so two
        tenants' copies of one site may route apart)."""
        return self._candidates(self._qualify(site_key))

    def _candidates(self, qualified: str) -> list[str]:
        """Replica hosts for a qualified key, primary first.

        After an epoch refresh the overlay (ground truth from the live
        hosts' ``/healthz``) wins over the map-derived placement — the
        map may predate a re-shard — and its owners are walked in ring
        order from the shard's primary.
        """
        if self._owned:
            shard = shard_of_task(qualified, self._owned_n_shards)
            hosts = self.cluster.hosts
            owners = [
                hosts[index]
                for index in ring_indexes(shard, len(hosts))
                if shard in self._owned.get(hosts[index], ())
            ]
            if owners:
                return owners
        return list(self.cluster.replica_hosts(qualified))

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
        found: dict[str, tuple[int, ShardOwnership]] = {}
        best = self._epoch
        for host, info in self.healthz().items():
            if not info.get("ok", False):
                continue
            epoch = int(info.get("epoch", 0))
            ownership = ShardOwnership.from_payload(
                info.get("shards"), self.cluster.n_shards
            )
            found[host] = (epoch, ownership)
            best = max(best, epoch)
        overlay: dict[str, frozenset[int]] = {}
        n_shards = self._owned_n_shards
        for host, (epoch, ownership) in found.items():
            if epoch != best:
                continue
            n_shards = ownership.n_shards
            overlay[host] = ownership.owned
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

    # -- the replica walk: every keyed verb and extract_many ------------------

    def _walk(self, site_key: str) -> _Walk:
        try:
            qualified = self._qualify(site_key)
        except FacadeError as exc:
            # An unroutable (cross-tenant, malformed) key is its own
            # walk's answer: it fails that key only.
            return _Walk(site_key, "", [], exc)
        return _Walk(site_key, qualified, self._candidates(qualified))

    def _next_host(self, walk: _Walk, write: Optional[str]) -> Optional[str]:
        """The walk's next replica whose breaker is closed, or ``None``
        once the walk has run out of replicas and ended."""
        while walk.pos < len(walk.hosts):
            host = walk.hosts[walk.pos]
            if not self._breaker_open(host):
                return host
            # A skipped host counts as that host's transport failure.
            exc = self._breaker_error(host)
            walk.dead = walk.dead or exc
            walk.missed.append((host, exc))
            walk.pos += 1
        if walk.written is _UNSET:
            walk.answer = walk.error()
            return None
        walk.answer = walk.written
        for host, exc in walk.missed:
            self._emit(
                "write_repair_needed", verb=write, host=host, site_key=walk.site_key, error=str(exc)
            )
        return None

    def _route(
        self,
        site_keys: Sequence[str],
        send: Callable[[RemoteWrapperClient, list[int]], list],
        *,
        write: Optional[str] = None,
    ) -> list:
        """Walk every key's replicas in rounds; one answer per key.

        Each round groups the unfinished walks by their next replica
        whose breaker is closed and calls ``send(client, indexes)`` once
        per host (one thread per host when there are several) for one
        value or exception per key index.  A read ends at its first
        verdict.  A write (``write`` names its verb) visits every
        replica with no wait between them and answers with the first
        success.  A 421 from a newer epoch refreshes the map once per
        call and restarts the unfinished walks — a write only while
        nothing has been written.
        """
        walks = [self._walk(site_key) for site_key in site_keys]

        def run(host: str, indexes: list[int]) -> list:
            try:
                return send(self.client_for_host(host), indexes)
            except Exception as exc:  # noqa: BLE001 - the host's answer to every key
                return [exc] * len(indexes)

        refreshed = False
        round_no = 0
        while True:
            by_host: dict[str, list[int]] = {}
            for index, walk in enumerate(walks):
                if walk.answer is _UNSET:
                    host = self._next_host(walk, write)
                    if host is not None:
                        by_host.setdefault(host, []).append(index)
            if not by_host:
                return [walk.answer for walk in walks]
            if round_no and write is None:
                # Full-jitter exponential backoff before a failover round.
                delay = min(_FAILOVER_BACKOFF_S * 2 ** (round_no - 1), _BACKOFF_CAP_S)
                time.sleep(delay * random.uniform(0.5, 1.0))
            round_no += 1
            if len(by_host) == 1:
                parts = [run(*next(iter(by_host.items())))]
            else:
                with ThreadPoolExecutor(max_workers=len(by_host)) as pool:
                    parts = list(pool.map(run, by_host, by_host.values()))
            stale = False
            for (host, indexes), answers in zip(by_host.items(), parts):
                stale |= self._take_answers(
                    host, [walks[i] for i in indexes], answers, write
                )
            if stale and not refreshed:
                refreshed = True
                self.refresh_map()
                for walk in walks:
                    if walk.answer is _UNSET and walk.written is _UNSET:
                        walk.hosts = self._candidates(walk.qualified)
                        walk.pos = 0

    def _take_answers(
        self, host: str, walks: list[_Walk], answers: list, write: Optional[str]
    ) -> bool:
        """Fold one host's answers of one round into their walks.

        Returns whether a 421 proved the router's map stale for a walk
        that may still restart.
        """
        failed: list[tuple[_Walk, RemoteError]] = []
        throttled: list[tuple[_Walk, RateLimitError]] = []
        stale = False
        for walk, answer in zip(walks, answers, strict=True):
            if isinstance(answer, RemoteError):
                walk.dead = walk.dead or answer
                walk.missed.append((host, answer))
                failed.append((walk, answer))
            elif isinstance(answer, RateLimitError):
                # A live host throttling this tenant: another replica
                # may still have budget, and a write did not land here.
                walk.throttled = answer
                walk.missed.append((host, answer))
                throttled.append((walk, answer))
            elif isinstance(answer, OwnershipError):
                # The host is alive, just not the owner.  A newer epoch
                # means a stale map, not a misroute.
                walk.misrouted = walk.misrouted or answer
                stale |= answer.epoch > self._epoch and walk.written is _UNSET
            elif write is not None and isinstance(answer, KeyError):
                # A write (a delete) of a key this replica never had:
                # agreement, not divergence — a shared store deletes the
                # artifact once and the next replica finds it gone.
                walk.absent = walk.absent or answer
            elif write is None or isinstance(answer, BaseException):
                # A verdict the host decided: a read's value, KeyError
                # or other FacadeError, or a write the replica refused.
                walk.answer = answer
                continue
            elif walk.written is _UNSET:
                walk.written = answer
            walk.pos += 1
        # A 429 or a 421 proves the host is up; any answer clears its
        # breaker count, a round of transport failures is one strike.
        if len(failed) == len(walks):
            self._record_failure(host)
        else:
            self._record_success(host)
        if failed and write is None:
            walk, exc = failed[0]
            self._emit(
                "failover", host=host, site_key=walk.site_key, error=str(exc), items=len(failed)
            )
        if throttled:
            walk, exc = throttled[0]
            self._emit(
                "rate_limited",
                host=host,
                site_key=walk.site_key,
                retry_after_s=max(e.retry_after_s for _, e in throttled),
                items=len(throttled),
            )
        return stale

    def _one(self, site_key: str, call, write: Optional[str] = None):
        """Route one key; ``call(client)`` runs the verb on a replica."""
        (answer,) = self._route(
            [site_key], lambda client, _: [call(client)], write=write
        )
        if isinstance(answer, BaseException):
            raise answer
        return answer

    # -- keyed reads: primary, then failover to the replica ------------------

    def extract(self, site_key: str, page: Page) -> ExtractionResult:
        return self._one(site_key, lambda c: c.extract(site_key, page))

    def check(self, site_key: str, page: Page) -> CheckResult:
        return self._one(site_key, lambda c: c.check(site_key, page))

    def get(self, site_key: str) -> WrapperHandle:
        return self._one(site_key, lambda c: c.get(site_key))

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

    def induce(self, site_key: str, samples, mode: str = "node", **options):
        return self._one(
            site_key,
            lambda c: c.induce(site_key, samples, mode, **options),
            write="induce",
        )

    def repair(
        self,
        site_key: str,
        page: Page,
        target_paths: Optional[Sequence[str]] = None,
    ) -> WrapperHandle:
        return self._one(
            site_key,
            lambda c: c.repair(site_key, page, target_paths),
            write="repair",
        )

    def deploy(self, artifact) -> WrapperHandle:
        """Deploy a prebuilt artifact to every replica of its shard."""
        return self._one(
            artifact.task_id, lambda c: c.deploy(artifact), write="deploy"
        )

    def delete(self, site_key: str) -> None:
        self._one(site_key, lambda c: c.delete(site_key), write="delete")

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
        needed: set[int] = set()
        covered: set[int] = set()
        for host, (ok, _) in parts.items():
            if not ok:
                continue
            try:
                info = self.client_for_host(host).healthz()
            except FacadeError:
                continue
            ownership = ShardOwnership.from_payload(
                info.get("shards"), self.cluster.n_shards
            )
            needed = set(range(ownership.n_shards))
            covered |= ownership.owned
        if needed and needed <= covered:
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
        # Namespace filtering and replica de-duplication both happen
        # client-side; count the merged keys.
        return len(self.keys())

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
        yields the error :meth:`extract` raises for its key, and an
        unroutable (cross-tenant, malformed) key fails per item.
        With ``return_errors`` errors are returned in place, otherwise
        the first one raises after the batch drains.
        """
        results = self._route(
            [site_key for site_key, _ in items],
            lambda client, indexes: client.extract_many(
                [items[i] for i in indexes], return_errors=True
            ),
        )
        if not return_errors:
            for result in results:
                if isinstance(result, BaseException):
                    raise result
        return results


__all__ = ["RouterClient"]
