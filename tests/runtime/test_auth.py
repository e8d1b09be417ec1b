"""Traffic-hardening primitives, tested without a socket.

The key table, quota config, token-bucket limiter, in-flight gauge,
metrics counters, and access log are all plain synchronous objects —
the bounded-state guarantees (the LRU caps that keep a scan of dead
tenants from growing server memory) are asserted here exactly, with
10k distinct tenants.
"""

import io
import json

import pytest

from repro.runtime.auth import (
    AccessLog,
    ApiKeyTable,
    AuthConfigError,
    DEFAULT_MAX_TENANTS,
    InflightGauge,
    NetMetrics,
    QuotaConfig,
    TenantRateLimiter,
    WILDCARD_TENANT,
)


class TestApiKeyTable:
    def test_parses_keys_comments_and_blanks(self):
        table = ApiKeyTable.from_lines(
            [
                "# ops",
                "",
                "k-admin-3f9c2a7e  *",
                "k-acme-71b2c9d4   acme   # acme's key",
                "k-default-90aa17ce",
            ]
        )
        assert len(table) == 3
        assert table.tenant_for("k-admin-3f9c2a7e") == WILDCARD_TENANT
        assert table.tenant_for("k-acme-71b2c9d4") == "acme"
        assert table.tenant_for("k-default-90aa17ce") == ""
        assert table.tenant_for("k-unknown-11111111") is None

    def test_from_file_roundtrip(self, tmp_path):
        path = tmp_path / "keys.txt"
        path.write_text("k-file-12345678 zenith\n")
        table = ApiKeyTable.from_file(path)
        assert table.tenant_for("k-file-12345678") == "zenith"

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(AuthConfigError, match="cannot read"):
            ApiKeyTable.from_file(tmp_path / "nope.txt")

    @pytest.mark.parametrize(
        "line,match",
        [
            ("short *", "shorter than 8"),
            ("k-too-many-fields a b", "expected"),
            ("k-bad-tenant-1234 not::ok", "tenant"),
        ],
    )
    def test_malformed_lines_rejected_with_location(self, line, match):
        with pytest.raises(AuthConfigError, match=match) as err:
            ApiKeyTable.from_lines([line], source="keys.txt")
        assert "keys.txt:1" in str(err.value)

    def test_duplicate_key_rejected(self):
        with pytest.raises(AuthConfigError, match="duplicate"):
            ApiKeyTable.from_lines(["k-dup-12345678 a", "k-dup-12345678 b"])

    def test_empty_table_rejected(self):
        with pytest.raises(AuthConfigError, match="at least one"):
            ApiKeyTable.from_lines(["# only comments"])


class TestQuotaConfig:
    def test_defaults_are_disabled(self):
        quota = QuotaConfig()
        assert not quota.enabled

    def test_effective_burst(self):
        assert QuotaConfig(rate=5.0).effective_burst == 5.0
        assert QuotaConfig(rate=5.0, burst=20).effective_burst == 20.0
        # A sub-1/s rate still admits one request per bucket.
        assert QuotaConfig(rate=0.25).effective_burst == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate": -1.0},
            {"burst": -1},
            {"max_inflight": -1},
            {"max_tenants": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(AuthConfigError):
            QuotaConfig(**kwargs)


class TestTenantRateLimiter:
    def test_burst_then_throttle_then_refill(self):
        limiter = TenantRateLimiter(rate=1.0, burst=2.0)
        assert limiter.acquire("t", now=0.0) == (True, 0.0)
        assert limiter.acquire("t", now=0.0) == (True, 0.0)
        allowed, retry_after = limiter.acquire("t", now=0.0)
        assert not allowed and retry_after == pytest.approx(1.0)
        # One second later one token has refilled.
        assert limiter.acquire("t", now=1.0) == (True, 0.0)

    def test_tenants_are_independent(self):
        limiter = TenantRateLimiter(rate=1.0, burst=1.0)
        assert limiter.acquire("a", now=0.0)[0]
        assert not limiter.acquire("a", now=0.0)[0]
        assert limiter.acquire("b", now=0.0)[0]

    def test_state_is_lru_bounded_under_tenant_scan(self):
        """The headline leak test: 10k distinct (dead) tenants must
        recycle a fixed pool, never grow the bucket map past the cap."""
        cap = 64
        limiter = TenantRateLimiter(rate=1.0, burst=1.0, max_tenants=cap)
        for i in range(10_000):
            limiter.acquire(f"scan-{i}", now=float(i) * 1e-3)
        assert len(limiter) <= cap
        assert limiter.evictions == 10_000 - cap

    def test_eviction_is_lru_not_fifo(self):
        limiter = TenantRateLimiter(rate=1.0, burst=5.0, max_tenants=2)
        limiter.acquire("old", now=0.0)
        limiter.acquire("kept", now=0.0)
        limiter.acquire("old", now=1.0)  # refresh recency
        limiter.acquire("new", now=2.0)  # evicts "kept", not "old"
        limiter.acquire("old", now=2.0)
        assert len(limiter) == 2
        # "old" kept its bucket state: two tokens already spent.
        assert limiter.acquire("old", now=2.0)[0] is True

    def test_invalid_construction_rejected(self):
        with pytest.raises(AuthConfigError):
            TenantRateLimiter(rate=0.0, burst=1.0)
        with pytest.raises(AuthConfigError):
            TenantRateLimiter(rate=1.0, burst=0.0)
        with pytest.raises(AuthConfigError):
            TenantRateLimiter(rate=1.0, burst=1.0, max_tenants=0)


class TestInflightGauge:
    def test_cap_and_release(self):
        gauge = InflightGauge(max_inflight=2)
        assert gauge.try_enter("t")
        assert gauge.try_enter("t")
        assert not gauge.try_enter("t")
        gauge.leave("t")
        assert gauge.try_enter("t")

    def test_bounded_by_construction(self):
        """Entries exist only while a tenant is in flight — a scan of
        distinct tenants that enter and leave holds no state at all."""
        gauge = InflightGauge(max_inflight=4)
        for i in range(10_000):
            tenant = f"scan-{i}"
            assert gauge.try_enter(tenant)
            gauge.leave(tenant)
        assert len(gauge) == 0

    def test_leave_of_unknown_tenant_is_noop(self):
        gauge = InflightGauge(max_inflight=1)
        gauge.leave("never-entered")
        assert len(gauge) == 0


class TestNetMetrics:
    def test_counters_and_payload(self):
        metrics = NetMetrics()
        for status in (200, 200, 401, 403, 429, 421, 500):
            metrics.observe("acme", status)
        payload = metrics.as_payload()
        assert payload["requests_total"] == 7
        assert payload["by_status"]["200"] == 2
        assert payload["auth"] == {
            "unauthorized_401": 1,
            "forbidden_403": 1,
            "rate_limited_429": 1,
        }
        assert payload["rejected_unowned_421"] == 1
        acme = payload["tenants"]["acme"]
        assert acme == {"requests": 7, "errors": 5, "rate_limited": 1}
        assert payload["tenant_state"]["cap"] == DEFAULT_MAX_TENANTS

    def test_rejection_counters_read_zero_before_any_rejection(self):
        metrics = NetMetrics()
        metrics.observe("acme", 200)
        payload = metrics.as_payload()
        assert payload["auth"] == {
            "unauthorized_401": 0,
            "forbidden_403": 0,
            "rate_limited_429": 0,
        }
        assert payload["rejected_unowned_421"] == 0

    def test_per_tenant_map_is_lru_bounded(self):
        metrics = NetMetrics(max_tenants=32)
        for i in range(10_000):
            metrics.observe(f"scan-{i}", 200)
        payload = metrics.as_payload()
        assert len(payload["tenants"]) <= 32
        assert payload["tenant_state"]["tracked"] <= 32
        assert payload["tenant_state"]["evictions"] == 10_000 - 32
        # Aggregates keep counting across evictions.
        assert payload["requests_total"] == 10_000


class TestAccessLog:
    def test_emits_jsonl_records(self):
        stream = io.StringIO()
        log = AccessLog(stream=stream)
        log.emit("acme", "POST /extract", 200, 12.3456)
        log.emit("", "GET /healthz", 200, 0.5)
        lines = stream.getvalue().splitlines()
        first = json.loads(lines[0])
        assert first["tenant"] == "acme"
        assert first["verb"] == "POST /extract"
        assert first["status"] == 200
        assert first["latency_ms"] == 12.346
        assert first["ts"] > 0
        assert set(first) == {"ts", "tenant", "verb", "status", "latency_ms"}
        second = json.loads(lines[1])
        assert second["verb"] == "GET /healthz"
        assert log.errors == 0

    def test_emit_never_raises_on_a_dead_stream(self):
        stream = io.StringIO()
        stream.close()
        log = AccessLog(stream=stream)
        log.emit("t", "GET /wrappers", 200, 1.0)
        assert log.errors == 1

    def test_open_appends_and_close(self, tmp_path):
        path = tmp_path / "logs" / "access.jsonl"
        log = AccessLog.open(path)
        log.emit("t", "GET /metrics", 200, 1.0)
        log.close()
        log2 = AccessLog.open(path)
        log2.emit("t", "GET /metrics", 200, 2.0)
        log2.close()
        assert len(path.read_text().splitlines()) == 2
