"""Traffic hardening primitives for the HTTP front-end.

ROADMAP's "make ``serve --listen`` safe to point the internet at":
tenants have existed end-to-end since the cluster PR (placement, store
paths, telemetry all namespace on ``tenant::``), but nothing
*authenticated* them — any client could reach any namespace — and
nothing bounded how fast one tenant could hammer the admission queue.
This module is the enforcement half, deliberately dependency-free and
separable from the socket code so the same objects can be unit-tested
without a server:

* :class:`ApiKeyTable` — per-tenant API keys loaded from a key file
  (``serve --listen --auth-keys FILE`` or ``REPRO_AUTH_KEYS``); each
  key names the one tenant namespace it may touch (``*`` for admin
  keys that may touch every namespace);
* :class:`TenantRateLimiter` — per-tenant token buckets with **bounded
  state**: the tenant → bucket map is LRU-evicted at :data:`MAX_TENANTS`,
  so a scan of millions of distinct (dead) tenant names cannot grow
  server memory — the classic rate-limiter leak the related-repo
  catalogue warns about;
* :class:`InflightGauge` — per-tenant in-flight request quota; entries
  are dropped the moment a tenant's count returns to zero, so the
  gauge is bounded by *concurrent* tenants, not historical ones;
* :class:`NetMetrics` — the counters behind ``GET /metrics``
  (per-status, per-tenant request/error/429, auth rejections), with
  the same LRU bound on the per-tenant map;
* :class:`AccessLog` — structured JSONL access logging (one object per
  answered request: tenant, verb, status, latency).

Everything here is synchronous and cheap; the event loop calls it
inline (no locks needed — asyncio serializes the callers).
"""

from __future__ import annotations

import json
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import IO, Iterable, Optional

#: A key granting this tenant may address *every* namespace (admin).
WILDCARD_TENANT = "*"

#: Bound on per-tenant limiter / metrics state: tenants past it are
#: evicted least recently seen first.
MAX_TENANTS = 1024


class AuthConfigError(ValueError):
    """A key file (or quota configuration) is malformed."""


@dataclass(frozen=True)
class ApiKeyTable:
    """Immutable key → tenant table.

    Key file format (``--auth-keys FILE``): one ``<key> <tenant>`` pair
    per line, whitespace-separated.  ``#`` starts a comment; blank
    lines are ignored.  A line with only ``<key>`` grants the default
    (unnamed) tenant; ``<key> *`` grants every tenant (admin).  Keys
    must be at least 8 characters — short keys are typos, not secrets.

    ::

        # ops
        k-admin-3f9c2a7e  *
        # per-tenant
        k-acme-71b2c9d4   acme
        k-zen-90aa17ce    zenith
    """

    keys: dict

    def __post_init__(self) -> None:
        if not self.keys:
            raise AuthConfigError("an API key table needs at least one key")

    @classmethod
    def from_lines(cls, lines: Iterable[str], source: str = "<keys>") -> "ApiKeyTable":
        keys: dict[str, str] = {}
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) > 2:
                raise AuthConfigError(
                    f"{source}:{lineno}: expected '<key> [tenant]', got {raw.strip()!r}"
                )
            key = parts[0]
            tenant = parts[1] if len(parts) == 2 else ""
            if len(key) < 8:
                raise AuthConfigError(
                    f"{source}:{lineno}: key {key!r} is shorter than 8 characters"
                )
            if key in keys:
                raise AuthConfigError(f"{source}:{lineno}: duplicate key {key!r}")
            if tenant != WILDCARD_TENANT:
                # Reuse the placement layer's tenant grammar so a key
                # can never name a tenant no client could address.
                from repro.cluster.placement import PlacementError, validate_tenant

                try:
                    validate_tenant(tenant)
                except PlacementError as exc:
                    raise AuthConfigError(f"{source}:{lineno}: {exc}") from exc
            keys[key] = tenant
        return cls(keys=keys)

    @classmethod
    def from_file(cls, path) -> "ApiKeyTable":
        import pathlib

        path = pathlib.Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise AuthConfigError(f"cannot read key file {path}: {exc}") from exc
        return cls.from_lines(text.splitlines(), source=str(path))

    def tenant_for(self, key: str) -> Optional[str]:
        """The tenant a key grants, ``"*"`` for admin keys, ``None``
        when the key is unknown."""
        return self.keys.get(key)

    def __len__(self) -> int:
        return len(self.keys)


@dataclass(frozen=True)
class QuotaConfig:
    """Per-tenant traffic quotas (all enforcement is per tenant).

    ``rate`` is the token-bucket refill in requests/second and ``burst``
    the bucket capacity (how far a quiet tenant may briefly spike);
    ``rate=0`` disables rate limiting.  ``max_inflight`` caps how many
    requests one tenant may hold in flight at once (0 = unlimited) —
    this rides *in front of* the extraction server's admission queue,
    so one tenant saturating its quota suspends only itself, never the
    shared queue.  Limiter and metrics state is bounded by the constant
    :data:`MAX_TENANTS`, not by tenant policy.
    """

    rate: float = 0.0
    burst: int = 0
    max_inflight: int = 0

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise AuthConfigError("rate must be >= 0")
        if self.burst < 0:
            raise AuthConfigError("burst must be >= 0")
        if self.max_inflight < 0:
            raise AuthConfigError("max_inflight must be >= 0")

    @property
    def effective_burst(self) -> float:
        """Bucket capacity: explicit ``burst``, else one second of
        refill (but never < 1 token, or no request could ever pass)."""
        if self.burst:
            return float(self.burst)
        return max(self.rate, 1.0)

    @property
    def enabled(self) -> bool:
        return self.rate > 0 or self.max_inflight > 0


class TenantRateLimiter:
    """Per-tenant token buckets with LRU-bounded state.

    ``acquire(tenant)`` returns ``(True, 0.0)`` when a token was
    available, else ``(False, retry_after_s)`` — the seconds until the
    bucket refills one token, which the server surfaces verbatim as
    ``Retry-After``.  The bucket map never exceeds :data:`MAX_TENANTS`
    entries: the least-recently-seen tenant is evicted first, so a
    stream of distinct dead tenants recycles a fixed pool instead of
    growing without bound (an evicted tenant that returns simply starts
    from a full bucket — strictly more permissive, never less).
    """

    def __init__(self, rate: float, burst: float):
        if rate <= 0:
            raise AuthConfigError("rate must be > 0 for a limiter")
        if burst <= 0:
            raise AuthConfigError("burst must be > 0 for a limiter")
        self.rate = float(rate)
        self.burst = float(burst)
        self.evictions = 0
        # tenant -> [tokens, last_refill_monotonic]; ordered by recency.
        self._buckets: "OrderedDict[str, list[float]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._buckets)

    def acquire(self, tenant: str, now: Optional[float] = None) -> tuple[bool, float]:
        if now is None:
            now = time.monotonic()
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = self._buckets[tenant] = [self.burst, now]
            while len(self._buckets) > MAX_TENANTS:
                self._buckets.popitem(last=False)
                self.evictions += 1
        else:
            self._buckets.move_to_end(tenant)
            tokens, last = bucket
            bucket[0] = min(self.burst, tokens + (now - last) * self.rate)
            bucket[1] = now
        if bucket[0] >= 1.0:
            bucket[0] -= 1.0
            return True, 0.0
        return False, (1.0 - bucket[0]) / self.rate


class InflightGauge:
    """Per-tenant in-flight request counts, bounded by construction:
    an entry exists only while the tenant has requests in flight."""

    def __init__(self, max_inflight: int):
        if max_inflight < 1:
            raise AuthConfigError("max_inflight must be >= 1 for a gauge")
        self.max_inflight = int(max_inflight)
        self._inflight: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._inflight)

    def try_enter(self, tenant: str) -> bool:
        count = self._inflight.get(tenant, 0)
        if count >= self.max_inflight:
            return False
        self._inflight[tenant] = count + 1
        return True

    def leave(self, tenant: str) -> None:
        count = self._inflight.get(tenant, 0) - 1
        if count <= 0:
            self._inflight.pop(tenant, None)
        else:
            self._inflight[tenant] = count


@dataclass
class _TenantCounters:
    requests: int = 0
    errors: int = 0
    rate_limited: int = 0

    def as_dict(self) -> dict:
        return dict(vars(self))


class NetMetrics:
    """The counters behind ``GET /metrics``.

    Per-tenant counters share the limiter's LRU bound — a tenant scan
    must not grow the metrics map either; evictions are themselves
    counted so a scrape can tell the map was truncated.
    """

    def __init__(self) -> None:
        self.requests_total = 0
        self.by_status: dict[int, int] = {}
        self.tenant_evictions = 0
        self._tenants: "OrderedDict[str, _TenantCounters]" = OrderedDict()

    def observe(self, tenant: str, status: int) -> None:
        self.requests_total += 1
        self.by_status[status] = self.by_status.get(status, 0) + 1
        counters = self._tenants.get(tenant)
        if counters is None:
            counters = self._tenants[tenant] = _TenantCounters()
            while len(self._tenants) > MAX_TENANTS:
                self._tenants.popitem(last=False)
                self.tenant_evictions += 1
        else:
            self._tenants.move_to_end(tenant)
        counters.requests += 1
        if status >= 400:
            counters.errors += 1
        if status == 429:
            counters.rate_limited += 1

    def as_payload(self) -> dict:
        count = self.by_status.get
        return {
            "requests_total": self.requests_total,
            "by_status": {str(s): n for s, n in sorted(self.by_status.items())},
            "auth": {
                "unauthorized_401": count(401, 0),
                "forbidden_403": count(403, 0),
                "rate_limited_429": count(429, 0),
            },
            "rejected_unowned_421": count(421, 0),
            "tenants": {
                tenant: counters.as_dict()
                for tenant, counters in self._tenants.items()
            },
            "tenant_state": {
                "tracked": len(self._tenants),
                "cap": MAX_TENANTS,
                "evictions": self.tenant_evictions,
            },
        }


@dataclass
class AccessLog:
    """JSONL access log: one object per answered request.

    Fields: ``ts`` (epoch seconds), ``tenant``, ``verb`` (``METHOD
    /endpoint``), ``status``, ``latency_ms``, and ``induce_ms`` on
    induction requests.  ``emit`` never raises — a full disk must
    degrade logging, not serving.
    """

    stream: IO[str]
    errors: int = field(default=0)

    @classmethod
    def open(cls, path) -> "AccessLog":
        import pathlib

        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        return cls(stream=path.open("a", encoding="utf-8"))

    def emit(
        self,
        tenant: str,
        verb: str,
        status: int,
        latency_ms: float,
        induce_ms: Optional[float] = None,
    ) -> None:
        record = {
            "ts": round(time.time(), 3),
            "tenant": tenant,
            "verb": verb,
            "status": int(status),
            "latency_ms": round(float(latency_ms), 3),
        }
        if induce_ms is not None:
            # Executor-side induction wall time (queue included) — only
            # /induce and /repair requests carry it.
            record["induce_ms"] = round(float(induce_ms), 3)
        try:
            self.stream.write(json.dumps(record) + "\n")
            self.stream.flush()
        except (OSError, ValueError):
            self.errors += 1

    def close(self) -> None:
        try:
            self.stream.close()
        except OSError:  # pragma: no cover - platform noise
            pass


__all__ = [
    "AccessLog",
    "ApiKeyTable",
    "AuthConfigError",
    "InflightGauge",
    "MAX_TENANTS",
    "NetMetrics",
    "QuotaConfig",
    "TenantRateLimiter",
    "WILDCARD_TENANT",
]
