"""HTTP/1.1 JSON front-end: the facade over the wire.

ROADMAP's "real socket front-end over :class:`AsyncExtractionServer`":
an asyncio TCP server speaking minimal HTTP/1.1 with JSON bodies, built
directly on stream reader/writers (no third-party dependencies).  Every
endpoint maps one facade verb, and every payload is the corresponding
facade type's ``to_payload()`` form — the protocol *is* the facade
serialization, which is what lets
:class:`~repro.api.remote.RemoteWrapperClient` be a drop-in replacement
for :class:`~repro.api.client.WrapperClient`.

=============  ======  ==========================================  =========
endpoint       method  body                                        returns
=============  ======  ==========================================  =========
/healthz       GET     —                                           liveness + serving stats
/metrics       GET     —                                           traffic counters (see below)
/wrappers      GET     —                                           deployed handle list
/wrappers/K    GET     —                                           one handle (404 unknown)
/wrappers/K    DELETE  —                                           ``{"deleted": K}``
/induce        POST    site_key, mode, samples[], options          handle
/extract       POST    site_key, html                              extraction result
/check         POST    site_key, html                              check result
/extract_many  POST    items[] of {site_key, html}                 per-item result slots
/repair        POST    site_key, html, target_paths?               handle
/deploy        POST    artifact (WrapperArtifact payload)          handle
=============  ======  ==========================================  =========

``/extract_many`` answers one JSON object ``{"results": [slot, ...]}``
in item order, whatever the request's ``Accept`` header says.  Each
slot is ``{"status": 200, "result": <extraction payload>}`` on success
or ``{"status": S, "error": ..., "code": ...}`` on a per-item failure —
the inner payloads are byte-identical to ``/extract`` responses, which
keeps every remote/router backend parity-exact.  Per-item gates
(403/404/421/422/429) fail the *slot*, never the batch; only
authentication (401) and a request of more than
:data:`~repro.api.results.MAX_BATCH_ITEMS` items (413, answered before
any item runs) reject the whole request.  At most
:data:`~repro.runtime.serve.MAX_PENDING` items of one request are in
flight at a time, and never more than the per-tenant in-flight quota,
so a batch does not throttle its own items.  It is the one transport
of every remote ``extract_many``: clients pack a batch into requests
under :data:`~repro.api.results.MAX_BODY_BYTES` and
``MAX_BATCH_ITEMS``.

Traffic hardening (ROADMAP's "safe to point the internet at", all
**off by default** — a no-auth launch behaves exactly as before):

* **per-tenant API keys** (``NetConfig.auth`` / ``serve --listen
  --auth-keys FILE``) are enforced *before any routing*: a missing or
  unknown ``Authorization: Bearer <key>`` (or ``X-API-Key``) header is
  a typed ``401 unauthorized``; a valid key addressing a site key in a
  tenant namespace the key does not grant is ``403 forbidden`` — the
  enforcement point the ``tenant::`` isolation has been missing since
  the cluster PR.  ``/healthz`` and ``/metrics`` stay open so routers
  and probes keep working without credentials (they expose counters,
  never wrapper data);
* **per-tenant quotas** (``NetConfig.quota``): a token-bucket request
  rate and an in-flight cap, both per tenant, answered with ``429
  rate_limited`` + a ``Retry-After`` header.  Limiter state is
  LRU-bounded (:class:`~repro.runtime.auth.TenantRateLimiter`) so
  distinct dead tenants never grow server memory;
* **structured access logs** (``NetConfig.access_log``): one JSONL
  object per answered request — tenant, verb, status, latency;
* **GET /metrics**: admission-queue depth, serving and parse-cache
  hit/miss/eviction/byte counters, per-status and per-tenant
  request/error/429 counters, 421 rejection count — the scrape surface
  for ``RouterClient.metrics()`` and nightly CI.

Request routing by cost:

* ``extract``/``check`` for node/ensemble wrappers become
  :class:`~repro.runtime.extractor.PageJob`\\ s admitted into the shared
  :class:`~repro.runtime.serve.AsyncExtractionServer` — clients
  hitting the same rendered page share one parse through its parse
  cache, exactly as in-process serving does;
* ``induce``/``repair`` (on their own :data:`INDUCE_WORKERS`-thread
  pool) and record-mode extraction, whose relative field queries need
  a live DOM, run off the event loop so long inductions never stall it
  or other connections.

Failure containment: malformed JSON or a wrongly typed field → 400,
unknown wrapper → 404, a request head over :data:`MAX_HEADER_BYTES`
→ 431, oversized body → 413 (bounded by
:data:`~repro.api.results.MAX_BODY_BYTES` *before* the body is read,
and for ``/extract_many`` by ``MAX_BATCH_ITEMS``), a key placing
into a shard this host does not own → 421 with code
``shard_not_owned`` (cluster members launched with ``--own-shards``;
the body names the wanted shard and the owned group), an unusable
sample, path or option, an ``/induce`` ``k`` outside 1 to
:data:`~repro.induction.config.MAX_K`, or a ``/deploy`` artifact that
does not load (its config is validated with its queries) → 422, and
500 for server faults only;
a client disconnecting mid-request just ends its connection — the
server and every other connection keep serving.  Error bodies are
``{"error": message, "code": code, ...}``.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Awaitable, Callable, Optional
from urllib.parse import unquote

from repro.api import results as protocol
from repro.api.client import WrapperClient
from repro.api.results import (
    MAX_BATCH_ITEMS,
    FacadeError,
    check_from_records,
    extraction_wrappers,
    facade_mode,
    result_from_records,
)
from repro.cluster.placement import (
    PlacementError,
    ShardOwnership,
    qualify_key,
    tenant_of,
)
from repro.runtime import serve
from repro.runtime.artifact import ArtifactError
from repro.runtime.auth import (
    AccessLog,
    ApiKeyTable,
    InflightGauge,
    NetMetrics,
    QuotaConfig,
    TenantRateLimiter,
    WILDCARD_TENANT,
)
from repro.runtime.extractor import PageJob
from repro.runtime.serve import AsyncExtractionServer, RequestError
from repro.runtime.store import StoreError

#: HTTP status → reason phrases the server emits.  ``_reason`` falls
#: back to the stdlib table, then to "Unknown" — an unlisted status
#: must never crash (or blank) the response writer.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    421: "Misdirected Request",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}


def _reason(status: int) -> str:
    """The reason phrase for any status — listed, stdlib-known, or not."""
    return _REASONS.get(status) or http.client.responses.get(status) or "Unknown"


#: Threads of the dedicated ``/induce``/``/repair`` executor: heavy
#: induction traffic queues here instead of starving the default thread
#: pool that extract/deploy/store loads run on.
INDUCE_WORKERS = 2

#: Bound on a request head (request line plus headers); a longer head
#: is answered 431 and the connection closed.  Bodies are bounded by
#: the protocol's :data:`~repro.api.results.MAX_BODY_BYTES`, the limit
#: :class:`~repro.api.remote.RemoteWrapperClient` packs its requests
#: under.
MAX_HEADER_BYTES = 32768


@dataclass(frozen=True)
class NetConfig:
    """Deployment settings of the network front-end, all off by default
    (a no-auth launch is fully backward compatible).

    ``auth`` is the per-tenant API key table (``None`` =
    unauthenticated), ``quota`` the per-tenant rate/in-flight limits
    (``None`` or a disabled config = unlimited), and ``access_log`` a
    :class:`~repro.runtime.auth.AccessLog` receiving one JSONL record
    per answered request.  Sizes are module constants:
    :data:`MAX_HEADER_BYTES` here, and the serving layer's in
    :mod:`repro.runtime.serve`.
    """

    auth: Optional[ApiKeyTable] = None
    quota: Optional[QuotaConfig] = None
    access_log: Optional[AccessLog] = None


class _HTTPError(Exception):
    """Internal: aborts a request with a specific status.

    ``extra`` fields ride in the JSON error body next to ``error`` and
    ``code`` — the typed ownership rejection uses them to tell the
    caller which shard the key wanted and which shards this host owns.
    """

    def __init__(
        self,
        status: int,
        message: str,
        code: str = "",
        close: bool = False,
        extra: Optional[dict] = None,
        headers: Optional[dict] = None,
    ):
        super().__init__(message)
        self.status = status
        self.message = message
        self.code = code or {
            400: "bad_request",
            401: "unauthorized",
            403: "forbidden",
            404: "not_found",
            405: "method_not_allowed",
            411: "length_required",
            413: "payload_too_large",
            421: "shard_not_owned",
            422: "unprocessable",
            429: "rate_limited",
            431: "headers_too_large",
        }.get(status, "error")
        self.close = close
        self.extra = extra or {}
        #: Extra response headers (``Retry-After``, ``WWW-Authenticate``).
        self.headers = headers or {}

    def payload(self) -> dict:
        return {"error": self.message, "code": self.code, **self.extra}


def _error_answer(exc: Exception) -> tuple[int, dict]:
    """The one exception → ``(status, body)`` mapping, shared by whole
    requests and ``/extract_many`` slots."""
    if isinstance(exc, _HTTPError):
        return exc.status, exc.payload()
    if isinstance(exc, (FacadeError, ArtifactError, RequestError, StoreError)):
        return 422, {"error": str(exc), "code": "unprocessable"}
    if isinstance(exc, KeyError):
        key = exc.args[0] if exc.args else ""
        return 404, {"error": f"unknown site_key {key!r}", "code": "unknown_wrapper"}
    return 500, {"error": str(exc), "code": "internal"}


class WrapperHTTPServer:
    """The facade served over TCP.

    Usage::

        server = WrapperHTTPServer(WrapperClient(store="store/"))
        host, port = await server.start("127.0.0.1", 8080)
        ...
        await server.aclose()

    One server owns one :class:`~repro.api.client.WrapperClient` (its
    registry is the single source of truth for every connection) and
    one :class:`AsyncExtractionServer` all extraction traffic funnels
    through.

    ``ownership`` makes this host a cluster member: every keyed request
    is placed with the shared placement function and answered with a
    typed ``421 shard_not_owned`` JSON error when the key belongs to a
    shard outside the owned group (``serve --listen --own-shards``) —
    a misrouted request is a deployment bug the caller must see, never
    data quietly served from a host that does not own it.  ``/healthz``
    reports the owned shard group so routers and probes can audit the
    cluster map against reality.
    """

    def __init__(
        self,
        client: WrapperClient,
        config: Optional[NetConfig] = None,
        *,
        ownership: Optional[ShardOwnership] = None,
        epoch: int = 0,
    ) -> None:
        self.client = client
        self.config = config or NetConfig()
        self.ownership = ownership
        if epoch < 0:
            raise ValueError("epoch must be >= 0")
        self.epoch = int(epoch)
        self._serving: Optional[AsyncExtractionServer] = None
        self._server: Optional[asyncio.base_events.Server] = None
        #: Open connections: handler task -> its writer (see aclose()).
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._address: Optional[tuple[str, int]] = None
        # Hardening state (None everywhere = the seed-era open server).
        self._auth = self.config.auth
        quota = self.config.quota
        self.metrics = NetMetrics()
        self._limiter: Optional[TenantRateLimiter] = None
        self._inflight: Optional[InflightGauge] = None
        if quota is not None and quota.rate > 0:
            self._limiter = TenantRateLimiter(quota.rate, quota.effective_burst)
        if quota is not None and quota.max_inflight > 0:
            self._inflight = InflightGauge(quota.max_inflight)
        self._access_log = self.config.access_log
        # Induce-side observability (satellite of the induction fast
        # path): pool depth/peak and per-request latency for the
        # dedicated induce executor, surfaced in /metrics.
        self._induce_pool: Optional[ThreadPoolExecutor] = None
        self._induce_depth = 0
        self._induce_depth_peak = 0
        self._induce_requests = 0
        self._induce_latency_total_ms = 0.0
        self._induce_latency_max_ms = 0.0

    def _check_owned(self, site_key: str, qualified: str) -> None:
        """421 for keys outside this host's shard group (placement is
        computed on the tenant-qualified key, exactly as routers do)."""
        if self.ownership is None:
            return
        shard = self.ownership.shard_of(qualified)
        if shard not in self.ownership.owned:
            # The epoch rides in the rejection so a client holding a
            # stale ClusterMap can tell "misrouted" (same epoch: fail
            # over to the replica) from "my map is old" (newer epoch:
            # refresh ownership from /healthz, then retry once).
            raise _HTTPError(
                421,
                f"site key {site_key!r} places into shard {shard}, "
                f"which this host does not own",
                code="shard_not_owned",
                extra={
                    "site_key": site_key,
                    "shard": shard,
                    "owned": self.ownership.sorted_owned(),
                    "n_shards": self.ownership.n_shards,
                    "epoch": self.epoch,
                },
            )

    # -- auth + quotas -------------------------------------------------------

    def _authenticate(self, headers: dict) -> Optional[str]:
        """The tenant this request's API key grants (``"*"`` = every
        tenant), or ``None`` when auth is not configured.

        401 before any routing: an unauthenticated request must learn
        nothing — not even whether an endpoint or wrapper exists.
        """
        if self._auth is None:
            return None
        key = ""
        authorization = headers.get("authorization", "")
        if authorization.lower().startswith("bearer "):
            key = authorization[len("bearer ") :].strip()
        if not key:
            key = headers.get("x-api-key", "").strip()
        if not key:
            raise _HTTPError(
                401,
                "missing API key (send 'Authorization: Bearer <key>' "
                "or 'X-API-Key: <key>')",
                headers={"WWW-Authenticate": "Bearer"},
            )
        tenant = self._auth.tenant_for(key)
        if tenant is None:
            raise _HTTPError(
                401, "unknown API key", headers={"WWW-Authenticate": "Bearer"}
            )
        return tenant

    def _admit(self, tenant: str, ctx: dict) -> None:
        """Per-tenant quota gate: 429 + Retry-After when the tenant's
        token bucket is dry or its in-flight cap is reached.  Runs
        before any store or extraction work — a throttled request must
        be cheap to refuse."""
        ctx["tenant"] = tenant
        if self._limiter is not None:
            allowed, retry_after = self._limiter.acquire(tenant)
            if not allowed:
                raise _HTTPError(
                    429,
                    f"tenant {tenant!r} exceeded its request rate",
                    extra={"retry_after": round(retry_after, 3)},
                    headers={"Retry-After": str(max(1, math.ceil(retry_after)))},
                )
        if self._inflight is not None:
            if not self._inflight.try_enter(tenant):
                raise _HTTPError(
                    429,
                    f"tenant {tenant!r} has too many requests in flight",
                    extra={"retry_after": 1.0},
                    headers={"Retry-After": "1"},
                )
            ctx["inflight"] = tenant

    def _check_key(
        self, site_key: str, principal: Optional[str], ctx: dict
    ) -> None:
        """Every keyed verb's gate, in order: 422 (malformed key), 403
        (the API key's tenant is not the key's ``tenant::`` namespace),
        429 (quota), 421 (shard ownership).  The key is tenant-qualified
        once, exactly as routing does."""
        try:
            qualified = qualify_key(site_key, self.client.tenant)
        except PlacementError as exc:
            raise _HTTPError(422, str(exc)) from exc
        tenant = tenant_of(qualified)
        if principal not in (None, WILDCARD_TENANT) and tenant != principal:
            raise _HTTPError(
                403,
                f"API key for tenant {principal!r} cannot address "
                f"site key {site_key!r}",
            )
        self._admit(tenant, ctx)
        self._check_owned(site_key, qualified)

    def _owned_keys(self) -> list[str]:
        """Keys restricted to owned shards — a shared store holds every
        host's artifacts, but each host must only report the shard
        group it answers for (router scatter-gather merges host
        listings assuming disjointness).  Filtering keys *before*
        loading keeps unowned artifacts out of this host's store reads
        and cache."""
        keys = self.client.keys()
        if self.ownership is not None and not self.ownership.is_total:
            keys = [key for key in keys if self.ownership.owns_task(key)]
        return keys

    def _owned_handles(self) -> list:
        return [self.client.get(key) for key in self._owned_keys()]

    def _owned_count(self) -> int:
        if self.ownership is None or self.ownership.is_total:
            return len(self.client)
        return len(self._owned_keys())

    @property
    def address(self) -> tuple[str, int]:
        if self._address is None:
            raise RuntimeError("server is not started")
        return self._address

    @property
    def serving_stats(self):
        """Counters of the shared extraction server (also in /healthz)."""
        if self._serving is None:
            raise RuntimeError("server is not started")
        return self._serving.stats

    # -- lifecycle ----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        if self._server is not None:
            raise RuntimeError("server already started")
        self._serving = AsyncExtractionServer()
        await self._serving.start()
        self._induce_pool = ThreadPoolExecutor(
            max_workers=INDUCE_WORKERS, thread_name_prefix="repro-induce"
        )
        self._server = await asyncio.start_server(
            self._handle_connection,
            host,
            port,
            limit=MAX_HEADER_BYTES + 1024,
        )
        sockname = self._server.sockets[0].getsockname()
        self._address = (sockname[0], sockname[1])
        return self._address

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            # Hang up on open connections and let their handlers finish:
            # on Python 3.12+ wait_closed() waits for every connection,
            # so one idle keep-alive client would block shutdown.
            handlers = list(self._connections)
            for writer in self._connections.values():
                writer.close()
            await asyncio.gather(*handlers, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
        if self._serving is not None:
            await self._serving.aclose()
            self._serving = None
        if self._induce_pool is not None:
            self._induce_pool.shutdown(wait=False, cancel_futures=True)
            self._induce_pool = None
        if self._access_log is not None:
            self._access_log.close()

    async def serve_forever(self) -> None:
        """Wait until cancelled; ``start()`` already serves.  (On Python
        3.12+ ``asyncio.Server.serve_forever`` would, once cancelled,
        wait for every open connection before ``aclose()`` runs.)"""
        if self._server is None:
            raise RuntimeError("server is not started")
        await asyncio.get_running_loop().create_future()

    async def __aenter__(self) -> "WrapperHTTPServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # -- connection handling ------------------------------------------------

    def _observe(self, ctx: dict, status: int, started: float) -> None:
        """Metrics + access log for one answered request (including
        protocol violations, which carry an empty tenant/verb)."""
        self.metrics.observe(ctx.get("tenant", ""), status)
        if self._access_log is not None:
            self._access_log.emit(
                tenant=ctx.get("tenant", ""),
                verb=ctx.get("verb", ""),
                status=status,
                latency_ms=(time.perf_counter() - started) * 1000.0,
                induce_ms=ctx.get("induce_ms"),
            )

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while True:
                started = time.perf_counter()
                ctx: dict = {}
                try:
                    request = await self._read_request(reader)
                except _HTTPError as exc:
                    # Protocol violations (bad request line, oversized
                    # head/body) are answered, then the connection dies —
                    # the stream position is no longer trustworthy.
                    self._observe(ctx, exc.status, started)
                    await self._write_response(
                        writer, exc.status, exc.payload(), close=True,
                        headers=exc.headers,
                    )
                    break
                if request is None:  # client closed (possibly mid-request)
                    break
                method, path, headers, body = request
                ctx["verb"] = f"{method} {path.split('?', 1)[0]}"
                close = headers.get("connection", "").lower() == "close"
                extra_headers: dict = {}
                try:
                    status, payload = await self._dispatch(
                        method, path, headers, body, ctx
                    )
                except Exception as exc:  # noqa: BLE001 - every failure is answered
                    status, payload = _error_answer(exc)
                    if isinstance(exc, _HTTPError):
                        close = close or exc.close
                        extra_headers = exc.headers
                finally:
                    if self._inflight is not None and "inflight" in ctx:
                        self._inflight.leave(ctx["inflight"])
                self._observe(ctx, status, started)
                await self._write_response(
                    writer, status, payload, close, headers=extra_headers
                )
                if close:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer vanished; nothing to answer
        finally:
            del self._connections[task]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - platform noise
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """One request off the wire, or ``None`` when the client is gone.

        Raises :class:`_HTTPError` for protocol violations that deserve
        an answer (bad request line, oversized head/body).
        """
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return None  # closed between requests or mid-head
        except asyncio.LimitOverrunError:
            raise _HTTPError(431, "request head too large", close=True) from None
        try:
            request_line, *header_lines = head.decode("latin-1").split("\r\n")
            method, path, _version = request_line.split(" ", 2)
        except (UnicodeDecodeError, ValueError):
            raise _HTTPError(400, "malformed request line", close=True) from None
        headers: dict[str, str] = {}
        for line in header_lines:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        # Body framing: the server only speaks Content-Length.  Chunked
        # (or any other) Transfer-Encoding is a typed 411, as is a POST
        # that promises a body without declaring its length — treating
        # either as "empty body" would fail deeper with a misleading
        # 400/422 about invalid JSON.
        if "transfer-encoding" in headers:
            raise _HTTPError(
                411,
                "Transfer-Encoding is not supported; send Content-Length",
                close=True,
            )
        raw_length = headers.get("content-length")
        if raw_length is None:
            if method.upper() in ("POST", "PUT", "PATCH"):
                raise _HTTPError(
                    411, f"{method.upper()} requires Content-Length", close=True
                )
            length = 0
        else:
            try:
                length = int(raw_length)
            except ValueError:
                raise _HTTPError(400, "invalid Content-Length", close=True) from None
            if length < 0:
                raise _HTTPError(400, "negative Content-Length", close=True)
        if length > protocol.MAX_BODY_BYTES:
            # Refuse before reading: the body never enters memory.
            raise _HTTPError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{protocol.MAX_BODY_BYTES}-byte limit",
                close=True,
            )
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                return None  # disconnect mid-body
        return method.upper(), path, headers, body

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        close: bool,
        headers: Optional[dict] = None,
    ) -> None:
        body = (json.dumps(payload) + "\n").encode("utf-8")
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in (headers or {}).items()
        )
        head = (
            f"HTTP/1.1 {status} {_reason(status)}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            f"{extra}"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # -- dispatch -----------------------------------------------------------

    async def _dispatch(
        self, method: str, path: str, headers: dict, body: bytes, ctx: dict
    ):
        # Route on the RAW path: the query split and every endpoint
        # match happen before any percent-decoding, and only the
        # /wrappers/<key> remainder is ever unquoted.  Decoding first
        # let encoded key bytes (%2F, %3F) grow extra path/query
        # structure — '/wrappers%2Fx' routed as a key lookup, and a key
        # segment could alias a fixed endpoint.
        path = path.split("?", 1)[0]
        # /healthz and /metrics stay open (no auth, no quotas): routers
        # probe them to drive failover and scrape counters — they
        # expose liveness and aggregates, never wrapper data.
        if path == "/healthz":
            if method != "GET":
                raise _HTTPError(405, "use GET /healthz")
            count = await self._in_executor(self._owned_count)
            health = {
                "ok": True,
                "wrappers": count,
                "epoch": self.epoch,
                "serving": self.serving_stats.as_dict(),
            }
            if self.ownership is not None:
                health["shards"] = self.ownership.as_payload()
            if self.client.tenant:
                health["tenant"] = self.client.tenant
            return 200, health
        if path == "/metrics":
            if method != "GET":
                raise _HTTPError(405, "use GET /metrics")
            return 200, self._metrics_payload()
        principal = self._authenticate(headers)
        # Registry reads hit the store (directory scans, artifact JSON
        # parsing on cache misses) — disk work, so off the event loop.
        if path == "/wrappers" and method == "GET":
            self._admit(
                principal if principal not in (None, WILDCARD_TENANT) else "",
                ctx,
            )
            return 200, await self._in_executor(
                lambda: {
                    "wrappers": [
                        handle.to_payload()
                        for handle in self._owned_handles()
                        if principal in (None, WILDCARD_TENANT)
                        or tenant_of(handle.site_key) == principal
                    ]
                }
            )
        if path.startswith("/wrappers/"):
            site_key = unquote(path[len("/wrappers/") :])
            self._check_key(site_key, principal, ctx)
            if method == "GET":
                return 200, await self._in_executor(
                    lambda: self.client.get(site_key).to_payload()
                )
            if method == "DELETE":
                await self._in_executor(lambda: self.client.delete(site_key))
                return 200, {"deleted": site_key}
            raise _HTTPError(405, "use GET or DELETE on /wrappers/<site_key>")
        if path == "/induce" and method == "POST":
            return await self._op_induce(self._json(body), principal, ctx)
        if path == "/extract" and method == "POST":
            return await self._op_extract(
                self._json(body), principal, ctx, check_only=False
            )
        if path == "/check" and method == "POST":
            return await self._op_extract(
                self._json(body), principal, ctx, check_only=True
            )
        if path == "/extract_many" and method == "POST":
            return await self._op_extract_many(self._json(body), principal, ctx)
        if path == "/repair" and method == "POST":
            return await self._op_repair(self._json(body), principal, ctx)
        if path == "/deploy" and method == "POST":
            return await self._op_deploy(self._json(body), principal, ctx)
        if path in (
            "/induce", "/extract", "/check", "/extract_many", "/repair", "/deploy"
        ):
            raise _HTTPError(405, f"use POST {path}")
        raise _HTTPError(404, f"no such endpoint: {method} {path}")

    def _metrics_payload(self) -> dict:
        payload = {
            "ok": True,
            "epoch": self.epoch,
            "queue_depth": (
                self._serving.queue_depth if self._serving is not None else 0
            ),
            "serving": self.serving_stats.as_dict(),
            "parse_cache": (
                asdict(self._serving.parse_cache_info())
                if self._serving is not None
                else {}
            ),
            **self.metrics.as_payload(),
        }
        counters = self.client.induction_counter_snapshot()
        requests = self._induce_requests
        payload["induction"] = {
            **counters,
            "induce_pool_workers": INDUCE_WORKERS,
            "induce_pool_depth": self._induce_depth,
            "induce_pool_depth_peak": self._induce_depth_peak,
            "induce_requests": requests,
            "induce_latency_avg_ms": (
                self._induce_latency_total_ms / requests if requests else 0.0
            ),
            "induce_latency_max_ms": self._induce_latency_max_ms,
        }
        if self.client.tenant:
            payload["tenant"] = self.client.tenant
        return payload

    @staticmethod
    def _json(body: bytes) -> dict:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HTTPError(400, f"request body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise _HTTPError(400, "request body must be a JSON object")
        return payload

    @staticmethod
    def _field(payload: dict, name: str) -> str:
        value = payload.get(name)
        if not isinstance(value, str) or not value:
            raise _HTTPError(400, f"missing or invalid field {name!r}")
        return value

    @staticmethod
    def _int_field(payload: dict, name: str, default: int) -> int:
        value = payload.get(name, default)
        if not isinstance(value, int) or isinstance(value, bool):
            raise _HTTPError(400, f"field {name!r} must be an integer")
        return value

    async def _in_executor(self, fn: Callable[[], dict]) -> dict:
        return await asyncio.get_running_loop().run_in_executor(None, fn)

    async def _in_induce_executor(self, fn: Callable[[], dict], ctx: dict) -> dict:
        """Run an induce/repair op on the dedicated bounded pool.

        Depth/peak counters are loop-thread-only (incremented before the
        await, decremented after), and the executor-side wall time is
        stamped into ``ctx`` so the access log records how long the
        induction itself ran, queue time included.
        """
        if self._induce_pool is None:
            raise RuntimeError("server is not started")
        self._induce_depth += 1
        self._induce_depth_peak = max(self._induce_depth_peak, self._induce_depth)
        started = time.perf_counter()
        try:
            return await asyncio.get_running_loop().run_in_executor(
                self._induce_pool, fn
            )
        finally:
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            self._induce_depth -= 1
            self._induce_requests += 1
            self._induce_latency_total_ms += elapsed_ms
            self._induce_latency_max_ms = max(
                self._induce_latency_max_ms, elapsed_ms
            )
            ctx["induce_ms"] = elapsed_ms

    async def _op_induce(self, payload: dict, principal: Optional[str], ctx: dict):
        site_key = self._field(payload, "site_key")
        self._check_key(site_key, principal, ctx)
        mode = str(payload.get("mode", "node"))
        raw_samples = payload.get("samples")
        if not isinstance(raw_samples, list) or not raw_samples:
            raise _HTTPError(400, "missing or invalid field 'samples'")
        options = payload.get("options")
        if options is not None and not isinstance(options, dict):
            raise _HTTPError(400, "'options' must be a JSON object")
        sizes = {
            name: self._int_field(payload, name, default)
            for name, default in (("k", 10), ("ensemble_size", 3), ("max_queries", 10))
        }

        def op() -> dict:
            from repro.api.sample import Sample

            samples = [Sample.from_payload(item) for item in raw_samples]
            handle = self.client.induce(
                site_key,
                samples,
                mode,
                role=str(payload.get("role", "")),
                options=options,
                **sizes,
            )
            return handle.to_payload()

        return 200, await self._in_induce_executor(op, ctx)

    async def _op_extract(
        self,
        payload: dict,
        principal: Optional[str],
        ctx: dict,
        check_only: bool,
    ):
        site_key = self._field(payload, "site_key")
        self._check_key(site_key, principal, ctx)
        html = self._field(payload, "html")
        # KeyError → 404; loaded off-loop (a cache miss reads + parses
        # + validates the artifact JSON from the store).
        artifact = await self._in_executor(lambda: self.client.artifact(site_key))
        if facade_mode(artifact) == "record" and not check_only:
            # Relative field queries evaluate from live anchor nodes; the
            # thread executor keeps that DOM work off the event loop.
            return 200, await self._in_executor(
                lambda: self.client.extract(site_key, html).to_payload()
            )
        assert self._serving is not None
        job = PageJob(
            page_id=artifact.site_id or site_key,
            html=html,
            wrappers=tuple(extraction_wrappers(artifact)),
        )
        records = await self._serving.extract_info(job)
        if check_only:
            return 200, check_from_records(
                artifact, records, self.client.drift
            ).to_payload()
        return 200, result_from_records(
            artifact, records, self.client.drift
        ).to_payload()

    async def _op_extract_many(
        self, payload: dict, principal: Optional[str], ctx: dict
    ):
        """Batch extraction: one request, per-item result slots.

        Items run concurrently, at most ``MAX_PENDING`` and at most the
        per-tenant in-flight cap at a time (a page repeated across items
        is parsed once and then found in the serving layer's parse
        cache), but slots always come back in item order.  Every
        per-item gate — authorization, quota, ownership, unknown
        wrapper, malformed item — fails only its slot, with the same
        ``error``/``code`` body fields the single-item endpoints use, so
        remote clients can raise identical typed errors per item.
        """
        items = payload.get("items")
        if not isinstance(items, list):
            raise _HTTPError(400, "missing or invalid field 'items'")
        if len(items) > MAX_BATCH_ITEMS:
            raise _HTTPError(
                413,
                f"{len(items)} items exceed the limit of {MAX_BATCH_ITEMS} "
                "items per /extract_many request",
            )
        slots: list = [None] * len(items)
        indexes = iter(range(len(items)))

        async def one(item) -> dict:
            # Per-item ctx: _admit marks the in-flight slot on the dict,
            # and each item must enter/leave the gauge independently.
            sub: dict = {}
            try:
                if not isinstance(item, dict):
                    raise _HTTPError(400, "each item must be a JSON object")
                status, result = await self._op_extract(
                    item, principal, sub, check_only=False
                )
                slot = {"status": status, "result": result}
            except Exception as exc:  # noqa: BLE001 - slot-level isolation
                status, body = _error_answer(exc)
                slot = {"status": status, **body}
            finally:
                if self._inflight is not None and "inflight" in sub:
                    self._inflight.leave(sub["inflight"])
            if sub.get("tenant") and "tenant" not in ctx:
                ctx["tenant"] = sub["tenant"]
            return slot

        async def worker() -> None:
            # Workers share one index iterator: an item starts only when
            # a worker frees up, so no item of a huge request holds a
            # task, an artifact load or a PageJob before its turn.
            for index in indexes:
                slots[index] = await one(items[index])

        # Never wider than the tenant in-flight cap: a wider batch would
        # refuse its own items with 429.
        width = min(serve.MAX_PENDING, len(items))
        if self._inflight is not None:
            width = min(width, self._inflight.max_inflight)
        await asyncio.gather(*(worker() for _ in range(width)))
        return 200, {"results": slots}

    async def _op_deploy(self, payload: dict, principal: Optional[str], ctx: dict):
        raw = payload.get("artifact")
        if not isinstance(raw, dict):
            raise _HTTPError(400, "missing or invalid field 'artifact'")
        # Auth/quota gates need the artifact's task_id, which is payload
        # data — validate it cheaply before the full (executor-side)
        # artifact parse so a forbidden or throttled deploy stays cheap.
        task_id = raw.get("task_id")
        if not isinstance(task_id, str) or not task_id:
            raise _HTTPError(400, "missing or invalid field 'artifact'")
        self._check_key(task_id, principal, ctx)

        def op() -> dict:
            from repro.runtime.artifact import WrapperArtifact

            artifact = WrapperArtifact.from_payload(raw)
            return self.client.deploy(artifact).to_payload()

        return 200, await self._in_executor(op)

    async def _op_repair(self, payload: dict, principal: Optional[str], ctx: dict):
        site_key = self._field(payload, "site_key")
        self._check_key(site_key, principal, ctx)
        html = self._field(payload, "html")
        target_paths = payload.get("target_paths") or None
        if target_paths is not None and not isinstance(target_paths, list):
            raise _HTTPError(400, "'target_paths' must be a list of canonical paths")

        def op() -> dict:
            return self.client.repair(site_key, html, target_paths).to_payload()

        return 200, await self._in_induce_executor(op, ctx)


async def serve_http(
    client: WrapperClient,
    host: str = "127.0.0.1",
    port: int = 0,
    config: Optional[NetConfig] = None,
    ready: Optional[Callable[[str, int], Optional[Awaitable]]] = None,
    ownership: Optional[ShardOwnership] = None,
    epoch: int = 0,
) -> None:
    """Run the front-end until cancelled (the CLI's ``serve --listen``).

    ``ready(host, port)`` fires once the socket is bound — callers use
    it to learn an ephemeral port.  ``ownership`` makes this a cluster
    member serving only its shard group (``--own-shards``).  ``epoch``
    is the topology generation advertised in ``/healthz`` and stamped
    into 421 rejections so stale clients can detect a re-shard.
    """
    server = WrapperHTTPServer(client, config, ownership=ownership, epoch=epoch)
    bound_host, bound_port = await server.start(host, port)
    if ready is not None:
        result = ready(bound_host, bound_port)
        if asyncio.iscoroutine(result):
            await result
    try:
        await server.serve_forever()
    finally:
        await server.aclose()


__all__ = ["NetConfig", "WrapperHTTPServer", "serve_http"]
