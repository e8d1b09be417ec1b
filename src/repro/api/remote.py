""":class:`RemoteWrapperClient` — the facade over a network server.

Speaks the HTTP/1.1 JSON protocol of :mod:`repro.runtime.net` and
exposes *exactly* the :class:`~repro.api.client.WrapperClient` surface,
returning the same typed results — local and remote backends are
interchangeable (the facade parity suite in
``tests/api/test_facade_parity.py`` runs the identical tests against
both).  Built on :mod:`http.client` only; one client owns one
keep-alive connection and transparently reconnects when the server (or
an idle timeout) dropped it.

Transport failures surface as :class:`RemoteError` carrying the
``host:port`` they happened against — when a
:class:`~repro.cluster.router.RouterClient` fans a batch out over many
hosts, every failure stays attributable to the host that caused it.
The connect and read phases time out independently
(``connect_timeout`` / ``read_timeout``): a dead host is detected in
seconds while a long induction on a live host is still given minutes.

A connection is not thread-safe — give each thread its own client
(they are cheap: lazy connect, no state beyond the socket).
:meth:`extract_many` sends a batch over this one connection as
``POST /extract_many`` requests, each packed under
:data:`~repro.api.results.MAX_BODY_BYTES` and
:data:`~repro.api.results.MAX_BATCH_ITEMS`.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import random
import time
from typing import Optional, Sequence, Union
from urllib.parse import quote

from repro.cluster.placement import (
    DEFAULT_TENANT,
    qualify_key,
    tenant_of,
    validate_tenant,
)
from repro.dom.node import Document
from repro.dom.serialize import to_html
from repro.induction.samples import QuerySample
from repro.api import results as protocol
from repro.api.results import (
    MAX_BATCH_ITEMS,
    CheckResult,
    ExtractionResult,
    FacadeError,
    WrapperHandle,
)
from repro.api.sample import Sample, coerce_samples

Page = Union[str, Document]

#: How many rounds in a row of ``extract_many`` may let no item through
#: (every item sent in them throttled, 429) before the throttled items
#: keep their :class:`RateLimitError`, and the cap on how long one
#: round's Retry-After hint may stall the batch.
_RATE_LIMIT_RETRIES = 3
_RATE_LIMIT_WAIT_CAP_S = 2.0

#: Connect-phase failures (refused, unreachable, timeout before a byte
#: is exchanged) are retried this many times in all, with jittered
#: exponential backoff from the base delay up to the cap — they cannot
#: double-execute anything.  Read-phase failures stay no-retry (see
#: ``_request``).
_CONNECT_ATTEMPTS = 3
_CONNECT_BACKOFF_S = 0.05
_CONNECT_BACKOFF_CAP_S = 1.0


def _as_html(page: Page) -> str:
    return to_html(page) if isinstance(page, Document) else page


def _pack(indexes: list[int], sizes: dict[int, int]):
    """Greedy runs of ``indexes`` of at most :data:`MAX_BATCH_ITEMS`
    whose ``/extract_many`` body stays within the server's limit,
    :data:`~repro.api.results.MAX_BODY_BYTES` (``sizes`` holds each
    item's encoded length); an item over the limit on its own rides
    alone."""
    budget = protocol.MAX_BODY_BYTES - len(json.dumps({"items": []}))
    chunk: list[int] = []
    size = 0
    for index in indexes:
        cost = sizes[index] + len(", ")
        if chunk and (size + cost > budget or len(chunk) == MAX_BATCH_ITEMS):
            yield chunk
            chunk, size = [], 0
        chunk.append(index)
        size += cost
    if chunk:
        yield chunk


class RemoteError(FacadeError):
    """A request could not be transported to (or answered by) a host.

    Carries the ``host:port`` it failed against so a router fan-out can
    attribute every per-key failure to the host that caused it, and
    ``attempts`` — how many connect tries were burned before giving up
    (1 means the failure was not retryable: a read-phase error).
    """

    def __init__(self, message: str, host: str = "", port: int = 0, attempts: int = 1):
        super().__init__(message)
        self.host = host
        self.port = int(port)
        self.attempts = int(attempts)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"


class AuthError(FacadeError):
    """The server refused the request's credentials.

    ``status`` distinguishes a missing/unknown key (401) from a valid
    key addressing a tenant namespace it does not grant (403).
    """

    def __init__(self, message: str, status: int = 401):
        super().__init__(message)
        self.status = int(status)


class RateLimitError(FacadeError):
    """The server throttled this tenant (429).

    ``retry_after_s`` is the server's backoff hint (from the JSON body
    or the ``Retry-After`` header); :meth:`RemoteWrapperClient.extract_many`
    honors it by requeueing the item after the hinted delay.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0):
        super().__init__(message)
        self.retry_after_s = max(0.0, float(retry_after_s))


class OwnershipError(FacadeError):
    """The server does not own the shard a site key places into.

    Raised when a request reaches a ``serve --listen --own-shards``
    host for a key outside its shard group — a routing bug (stale
    cluster map, mis-derived ownership), never silently served.
    """

    def __init__(
        self,
        message: str,
        site_key: str = "",
        shard: int = -1,
        owned: Sequence[int] = (),
        n_shards: int = 0,
        epoch: int = -1,
    ):
        super().__init__(message)
        self.site_key = site_key
        self.shard = int(shard)
        self.owned = tuple(int(s) for s in owned)
        self.n_shards = int(n_shards)
        # Topology generation the rejecting server was serving (-1 when
        # the server predates epochs).  A router holding an older epoch
        # treats the 421 as "my map is stale" and refreshes; an equal
        # epoch means plain misrouting — fail over to the replica.
        self.epoch = int(epoch)


def _error_for(status: int, answer: dict, retry_after_header=None) -> Exception:
    """The typed exception for one error body.

    Shared by ``_request`` (whole-response errors) and
    ``extract_many``'s slots (they carry the same ``error``/``code``
    fields), so a failed batch item raises exactly what the single-item
    verb would.
    """
    message = str(answer.get("error", f"HTTP {status}"))
    code = answer.get("code")
    if code == "unknown_wrapper":
        return KeyError(message)
    if code in ("unauthorized", "forbidden"):
        return AuthError(message, status=status)
    if code == "rate_limited":
        retry_after = answer.get("retry_after")
        if retry_after is None:
            retry_after = retry_after_header or 1.0
        try:
            retry_after = float(retry_after)
        except (TypeError, ValueError):
            retry_after = 1.0
        return RateLimitError(message, retry_after_s=retry_after)
    if code == "shard_not_owned":
        return OwnershipError(
            message,
            site_key=str(answer.get("site_key", "")),
            shard=int(answer.get("shard", -1)),
            owned=answer.get("owned", ()),
            n_shards=int(answer.get("n_shards", 0)),
            epoch=int(answer.get("epoch", -1)),
        )
    return FacadeError(message)


class RemoteWrapperClient:
    """The facade, served by a ``serve --listen`` process elsewhere.

    ``tenant`` scopes every verb into one namespace: site keys are
    qualified (``tenant::key``) before they go on the wire and
    ``keys()``/``handles()`` list only this tenant's wrappers.
    """

    def __init__(
        self,
        host: str,
        port: Optional[int] = None,
        *,
        connect_timeout: float = 60.0,
        read_timeout: float = 60.0,
        tenant: str = DEFAULT_TENANT,
        api_key: str = "",
    ):
        if port is None:
            host, _, port_text = host.rpartition(":")
            if not host:
                raise FacadeError("pass RemoteWrapperClient('host', port) or 'host:port'")
            port = int(port_text)
        self.host = host
        self.port = int(port)
        # The split lets a router detect a dead host fast (connect)
        # without capping slow-but-alive work (read).
        self.connect_timeout = connect_timeout
        self.read_timeout = read_timeout
        try:
            self.tenant = validate_tenant(tenant)
        except ValueError as exc:
            raise FacadeError(str(exc)) from exc
        # Sent as ``Authorization: Bearer <key>`` on every request when
        # non-empty; a server launched without ``--auth-keys`` ignores it.
        self.api_key = str(api_key)
        self._conn: Optional[http.client.HTTPConnection] = None

    # -- transport ----------------------------------------------------------

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "RemoteWrapperClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is not None:
            return self._conn
        last_exc: Optional[Exception] = None
        for attempt in range(_CONNECT_ATTEMPTS):
            if attempt:
                # Full-jitter exponential backoff, capped: spreads the
                # reconnect herd when a host flaps under a fan-out.
                delay = min(
                    _CONNECT_BACKOFF_S * (2 ** (attempt - 1)),
                    _CONNECT_BACKOFF_CAP_S,
                )
                time.sleep(delay * random.uniform(0.5, 1.0))
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.connect_timeout
            )
            try:
                conn.connect()
            except (ConnectionError, OSError) as exc:
                conn.close()
                last_exc = exc
                continue
            if conn.sock is not None:
                conn.sock.settimeout(self.read_timeout)
            self._conn = conn
            return conn
        # RemoteError is a FacadeError, so it sails past _request's
        # transport-retry handler — connect retries happen only here.
        raise RemoteError(
            f"connect to {self.host}:{self.port} failed after "
            f"{_CONNECT_ATTEMPTS} attempt(s): "
            f"{type(last_exc).__name__}: {last_exc}",
            host=self.host,
            port=self.port,
            attempts=_CONNECT_ATTEMPTS,
        ) from last_exc

    def _transport_error(self, method: str, path: str, exc: Exception) -> RemoteError:
        return RemoteError(
            f"{method} {path} against {self.host}:{self.port} failed: "
            f"{type(exc).__name__}: {exc}",
            host=self.host,
            port=self.port,
        )

    def _request(self, method: str, path: str, payload: Optional[dict] = None) -> dict:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        for attempt in (0, 1):
            sent = False
            try:
                conn = self._connection()
                conn.request(method, path, body=body, headers=headers)
                sent = True
                response = conn.getresponse()
                data = response.read()
                break
            except (ConnectionError, http.client.HTTPException, OSError) as exc:
                self.close()
                # Reconnect-and-retry only when it cannot double-execute:
                # a connect/send-phase failure (stale keep-alive detected
                # while writing — the server never saw a complete
                # request), or any failure of an idempotent method.  A
                # POST that was fully sent may already be running
                # server-side (induce/repair mutate the registry), so its
                # failure surfaces — typed, with the host attached.
                if attempt or (sent and method not in ("GET", "DELETE")):
                    raise self._transport_error(method, path, exc) from exc
        try:
            answer = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FacadeError(
                f"server returned non-JSON response (status {response.status}): {exc}"
            ) from exc
        if response.status >= 400:
            raise _error_for(
                response.status, answer, response.getheader("Retry-After")
            )
        return answer

    def _qualify(self, site_key: str) -> str:
        # Same surface as the local client: a cross-tenant or malformed
        # key is a FacadeError, whichever backend sees it first.
        try:
            return qualify_key(site_key, self.tenant)
        except ValueError as exc:
            raise FacadeError(str(exc)) from exc

    def _key_path(self, site_key: str) -> str:
        return "/wrappers/" + quote(self._qualify(site_key), safe="")

    # -- facade surface -----------------------------------------------------

    def healthz(self) -> dict:
        """Liveness + the server's serving-layer counters + (for shard
        owners) the shard group it answers for."""
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        """The server's traffic counters (``GET /metrics``): admission
        queue depth, serving and parse-cache counters, per-status and
        per-tenant request/error/429 counters.  Unauthenticated, like
        healthz."""
        return self._request("GET", "/metrics")

    def induce(
        self,
        site_key: str,
        samples: Sequence[Union[Sample, QuerySample]],
        mode: str = "node",
        *,
        k: int = 10,
        ensemble_size: int = 3,
        max_queries: int = 10,
        role: str = "",
        options: Optional[dict] = None,
    ) -> WrapperHandle:
        payloads = []
        for sample in coerce_samples(samples):
            try:
                payloads.append(sample.to_payload())
            except FacadeError:
                raise
            except ValueError as exc:
                # Same surface as the local client: a bad annotation is a
                # FacadeError, whichever backend sees it first.
                raise FacadeError(f"{site_key}: {exc}") from exc
        body = {
            "site_key": self._qualify(site_key),
            "mode": mode,
            "samples": payloads,
            "k": k,
            "ensemble_size": ensemble_size,
            "max_queries": max_queries,
            "role": role,
        }
        if options:
            # Omitted when empty: old servers reject unknown fields on
            # exactly the requests that would need them.
            body["options"] = dict(options)
        answer = self._request("POST", "/induce", body)
        return WrapperHandle.from_payload(answer)

    def extract(self, site_key: str, page: Page) -> ExtractionResult:
        answer = self._request(
            "POST",
            "/extract",
            {"site_key": self._qualify(site_key), "html": _as_html(page)},
        )
        return ExtractionResult.from_payload(answer)

    def extract_many(
        self, items: Sequence[tuple[str, Page]], *, return_errors: bool = False
    ) -> list:
        """Batch extraction; results come back in item order.

        ``items`` is a sequence of ``(site_key, page)`` pairs, sent as
        ``POST /extract_many`` requests packed greedily under
        :data:`~repro.api.results.MAX_BODY_BYTES` and
        :data:`~repro.api.results.MAX_BATCH_ITEMS` (an item too large on
        its own rides alone and fails only its own slot).  Per-item
        failures come back as slots carrying the ``error``/``code``
        fields of ``/extract`` and become the same typed exceptions; a
        request that fails as a whole (a transport error, a 401) gives
        each of its items that exception.  Throttled (429) items are resent after the round's
        largest Retry-After hint, capped at
        :data:`_RATE_LIMIT_WAIT_CAP_S`, in rounds of twice as many items
        as the last round got through; their :class:`RateLimitError`
        stands once more than :data:`_RATE_LIMIT_RETRIES` rounds in a
        row let no item through.

        With ``return_errors`` each failed item yields its exception in
        place (other items keep their results); without it the first
        failure raises after the batch drains.
        """
        results: list = [None] * len(items)
        payloads: dict[int, dict] = {}
        for index, (site_key, page) in enumerate(items):
            try:
                payloads[index] = {
                    "site_key": self._qualify(site_key), "html": _as_html(page)
                }
            except FacadeError as exc:
                # A key this client could never address fails client-side.
                results[index] = exc
        sizes = {index: len(json.dumps(item)) for index, item in payloads.items()}
        pending = list(payloads)
        window = len(pending)
        stalls = 0
        while pending:
            sent = pending[:window]
            for chunk in _pack(sent, sizes):
                self._extract_chunk(chunk, payloads, results)
            # Unsent items still hold the RateLimitError of their last try.
            pending = [i for i in pending if isinstance(results[i], RateLimitError)]
            throttled = [i for i in sent if isinstance(results[i], RateLimitError)]
            admitted = len(sent) - len(throttled)
            stalls = 0 if admitted else stalls + 1
            if throttled:
                if stalls > _RATE_LIMIT_RETRIES:
                    break
                wait = max(results[i].retry_after_s for i in throttled)
                time.sleep(min(wait, _RATE_LIMIT_WAIT_CAP_S) or _RATE_LIMIT_WAIT_CAP_S / 10)
            # A token bucket admits about as many items per round as it
            # did last round: resend twice that, not the whole remainder.
            window = max(1, 2 * admitted)
        if not return_errors:
            for result in results:
                if isinstance(result, BaseException):
                    raise result
        return results

    def _extract_chunk(
        self, indexes: list[int], payloads: dict[int, dict], results: list
    ) -> None:
        """One ``/extract_many`` request; fills ``results`` at ``indexes``."""
        try:
            answer = self._request(
                "POST", "/extract_many", {"items": [payloads[i] for i in indexes]}
            )
            slots = answer.get("results")
            if not isinstance(slots, list) or len(slots) != len(indexes):
                raise FacadeError(
                    f"server did not answer one slot per item ({len(indexes)} sent)"
                )
        except Exception as exc:  # noqa: BLE001 - the whole request failed
            for index in indexes:
                results[index] = exc
            return
        for index, slot in zip(indexes, slots):
            results[index] = self._slot_result(slot)

    @staticmethod
    def _slot_result(slot):
        """One batch slot → the same value per-item ``extract`` yields."""
        if not isinstance(slot, dict):
            return FacadeError(f"malformed batch result slot: {slot!r}")
        status = int(slot.get("status", 500))
        if status >= 400:
            return _error_for(status, slot)
        result = slot.get("result")
        if not isinstance(result, dict):
            return FacadeError("batch result slot is missing its 'result'")
        try:
            return ExtractionResult.from_payload(result)
        except Exception as exc:  # noqa: BLE001 - reported per item
            return exc

    def check(self, site_key: str, page: Page) -> CheckResult:
        answer = self._request(
            "POST",
            "/check",
            {"site_key": self._qualify(site_key), "html": _as_html(page)},
        )
        return CheckResult.from_payload(answer)

    def repair(
        self,
        site_key: str,
        page: Page,
        target_paths: Optional[Sequence[str]] = None,
    ) -> WrapperHandle:
        payload: dict = {"site_key": self._qualify(site_key), "html": _as_html(page)}
        if target_paths:
            payload["target_paths"] = [str(path) for path in target_paths]
        return WrapperHandle.from_payload(self._request("POST", "/repair", payload))

    def deploy(self, artifact) -> WrapperHandle:
        """Deploy a prebuilt :class:`~repro.runtime.artifact.WrapperArtifact`
        to the server (same semantics as the local client's ``deploy``).

        The ``task_id`` is qualified into this client's tenant before it
        goes on the wire, so the wrapper lands in — and is only
        reachable through — this namespace.
        """
        qualified = self._qualify(artifact.task_id)
        if qualified != artifact.task_id:
            artifact = dataclasses.replace(artifact, task_id=qualified)
        answer = self._request("POST", "/deploy", {"artifact": artifact.to_payload()})
        return WrapperHandle.from_payload(answer)

    def get(self, site_key: str) -> WrapperHandle:
        return WrapperHandle.from_payload(
            self._request("GET", self._key_path(site_key))
        )

    def delete(self, site_key: str) -> None:
        self._request("DELETE", self._key_path(site_key))

    def keys(self) -> list[str]:
        return [handle.site_key for handle in self.handles()]

    def handles(self) -> list[WrapperHandle]:
        answer = self._request("GET", "/wrappers")
        handles = [
            WrapperHandle.from_payload(item) for item in answer.get("wrappers", ())
        ]
        if self.tenant:
            handles = [h for h in handles if tenant_of(h.site_key) == self.tenant]
        return handles

    def __contains__(self, site_key: str) -> bool:
        try:
            self._qualify(site_key)
        except FacadeError:
            # Parity with the local client: a key this client could
            # never address (cross-tenant) is simply not contained.
            return False
        try:
            self.get(site_key)
        except KeyError:
            return False
        return True

    def __len__(self) -> int:
        if self.tenant:
            return len(self.keys())
        return int(self.healthz().get("wrappers", 0))


__all__ = [
    "AuthError",
    "OwnershipError",
    "RateLimitError",
    "RemoteError",
    "RemoteWrapperClient",
]
