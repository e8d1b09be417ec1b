"""Network front-end benchmark → ``BENCH_net.json``.

The facade's wire story only earns its keep if concurrent remote
clients beat the naive deployment — serial per-request HTTP round trips
against the same server.  This bench deploys the full single-node
corpus fleet behind a :class:`~repro.runtime.net.WrapperHTTPServer` on
a real localhost TCP socket and replays a per-wrapper extraction stream
three ways:

* **serial HTTP** — one :class:`~repro.api.RemoteWrapperClient`, one
  request at a time: every request pays its own round trip;
* **concurrent HTTP (8 clients)** — eight threads, each with its own
  connection: requests for the same rendered page arrive together and
  share one dispatch batch.  The acceptance bar is ≥ 1.2× the
  serial-HTTP throughput;
* **in-process serving at concurrency 8** — the same stream through
  :func:`repro.runtime.serve.serve_jobs` with no sockets: the reference
  ceiling, recorded (not gated) so the wire overhead stays visible
  across PRs.

A fourth pass replays the concurrent stream against a *hardened*
server — API keys plus an (unsaturated) per-tenant limiter — and
records the auth-on vs. auth-off throughput ratio, so the per-request
cost of authentication/admission stays visible (reported, not gated:
the ratio is new relative to the committed baseline).

A raw-speed-tier ratio rides along, self-arming (asserted only on
multi-core hosts; 1-CPU containers record it with a per-metric
``gate_applies`` of ``false``): **cached_page_vs_cold** — the
in-process stream, parse cache on vs. off: the win of the
content-hash :class:`~repro.runtime.serve.ParseCache`.
Required ≥ 2.0× when the gate arms.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import threading
from concurrent.futures import ThreadPoolExecutor

from bench_runtime import build_fleet, timeit
from conftest import scale

from repro.api import RemoteWrapperClient, WrapperClient
from repro.runtime import PageJob, ServingConfig, serve_jobs
from repro.runtime.auth import ApiKeyTable, QuotaConfig
from repro.runtime.net import NetConfig, WrapperHTTPServer
from repro.api.results import extraction_wrappers

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_net.json"

#: Acceptance bar: concurrent remote extraction vs. serial HTTP round trips.
REQUIRED_SPEEDUP = 1.2

#: Acceptance bar for the parse-cache tier (armed on multi-core hosts).
CACHE_REQUIRED_SPEEDUP = 2.0

CONCURRENCY = 8

#: Wildcard key for the hardened-server pass.
BENCH_KEY = "k-bench-3f9c2a7e"


def hardened_config() -> NetConfig:
    """Auth + limiter enabled, quotas far above the bench's offered
    load — measures the admission-path overhead, never throttling."""
    return NetConfig(
        serving=ServingConfig(),
        auth=ApiKeyTable.from_lines([f"{BENCH_KEY} *"]),
        quota=QuotaConfig(rate=1e6, burst=10**6, max_inflight=CONCURRENCY * 8),
    )


class ServerThread:
    """A WrapperHTTPServer on its own event loop in a daemon thread, so
    the benchmark's client code can be plain blocking calls."""

    def __init__(self, client: WrapperClient, config: NetConfig | None = None) -> None:
        self.client = client
        self.config = config
        self.address: tuple[str, int] | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = WrapperHTTPServer(
            self.client, self.config or NetConfig(serving=ServingConfig())
        )
        self.address = await server.start()
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await server.aclose()

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout=60):
            raise RuntimeError("HTTP server never came up")
        return self

    def __exit__(self, *exc_info) -> None:
        assert self._loop is not None and self._stop is not None
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)


#: Independent consumers polling each (wrapper, page) — the serving
#: traffic shape (dashboards, downstream pipelines, retry loops all ask
#: for the same rendered page).  Repeats of one page are exactly what
#: the serving layer's parse cache answers without a parse.
CONSUMERS = 3


def build_requests(n_snapshots: int):
    """(site_key, html) extraction requests — ``CONSUMERS`` per
    (wrapper, page), grouped by rendered page so the concurrent window
    covers same-page neighbors — plus the deployed client."""
    artifacts, page_html = build_fleet(n_snapshots)
    client = WrapperClient()
    for artifact in artifacts:
        client.deploy(artifact)
    by_site: dict[str, list] = {}
    for artifact in artifacts:
        by_site.setdefault(artifact.site_id, []).append(artifact)
    requests: list[tuple[str, str]] = []
    for index in range(n_snapshots):
        for site_id in sorted(by_site):
            html = page_html.get((site_id, index))
            if html is None:
                continue
            requests.extend(
                (artifact.task_id, html)
                for artifact in by_site[site_id]
                for _ in range(CONSUMERS)
            )
    return client, artifacts, requests


def serial_http(address, requests) -> list:
    host, port = address
    with RemoteWrapperClient(host, port) as remote:
        return [remote.extract(site_key, html) for site_key, html in requests]


def concurrent_http(
    address, requests, concurrency: int = CONCURRENCY, api_key: str = ""
) -> list:
    host, port = address
    local = threading.local()

    def one(request):
        if not hasattr(local, "client"):
            local.client = RemoteWrapperClient(host, port, api_key=api_key)
        site_key, html = request
        return local.client.extract(site_key, html)

    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        return list(pool.map(one, requests))


def inprocess_serving(
    client: WrapperClient, requests, config: ServingConfig | None = None
) -> list:
    """The same stream through the async serving layer, no sockets."""
    jobs = []
    for site_key, html in requests:
        artifact = client.artifact(site_key)
        jobs.append(
            PageJob(
                page_id=artifact.site_id or site_key,
                html=html,
                wrappers=tuple(extraction_wrappers(artifact)),
            )
        )
    return asyncio.run(
        serve_jobs(jobs, config or ServingConfig(), concurrency=CONCURRENCY)
    )


def bulk_extract(address, requests) -> list:
    """The whole stream as one ``extract_many`` batch."""
    host, port = address
    with RemoteWrapperClient(host, port) as remote:
        return remote.extract_many(requests)


def test_net_bench(benchmark, emit):
    n_snapshots = scale(2, 3)
    client, artifacts, requests = build_requests(n_snapshots)

    cpus = len(os.sched_getaffinity(0))
    cold_config = ServingConfig(parse_cache_bytes=0)
    warm_config = ServingConfig()

    with ServerThread(client) as server:
        # Correctness first: the concurrent stream answers exactly what
        # the serial round trips answer, request for request — and so
        # does one extract_many batch, slot for slot.
        expected = serial_http(server.address, requests)
        concurrent = concurrent_http(server.address, requests)
        assert concurrent == expected
        assert bulk_extract(server.address, requests) == expected

        def run_all():
            results = {
                "n_wrappers": len(artifacts),
                "n_requests": len(requests),
                "concurrency": CONCURRENCY,
                "cpus": cpus,
            }
            results["serial_http_s"] = timeit(
                lambda: serial_http(server.address, requests)
            )
            results["concurrent8_http_s"] = timeit(
                lambda: concurrent_http(server.address, requests)
            )
            results["inprocess_async8_s"] = timeit(
                lambda: inprocess_serving(client, requests)
            )
            results["cold_cache_inprocess_s"] = timeit(
                lambda: inprocess_serving(client, requests, cold_config)
            )
            results["warm_cache_inprocess_s"] = timeit(
                lambda: inprocess_serving(client, requests, warm_config)
            )
            return results

        results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    with ServerThread(client, config=hardened_config()) as hardened:
        # Auth must be transparent to the payloads: keyed answers match
        # the open server's, request for request.
        assert concurrent_http(hardened.address, requests, api_key=BENCH_KEY) == expected
        results["auth_concurrent8_http_s"] = timeit(
            lambda: concurrent_http(hardened.address, requests, api_key=BENCH_KEY)
        )

    throughput = {
        "concurrent8_vs_serial_http": results["serial_http_s"]
        / results["concurrent8_http_s"],
        # Admission-path overhead: auth-off vs. auth-on concurrent
        # throughput (new vs. the committed baseline → reported, not
        # gated, by scripts/check_bench.py).
        "auth_on_vs_off_concurrent8": results["concurrent8_http_s"]
        / results["auth_concurrent8_http_s"],
        # Raw-speed tier (self-arming on multi-core hosts, see the
        # per-metric gate_applies below).
        "cached_page_vs_cold": results["cold_cache_inprocess_s"]
        / results["warm_cache_inprocess_s"],
    }
    results["remote_requests_per_sec"] = len(requests) / results["concurrent8_http_s"]
    results["inprocess_vs_remote_concurrent"] = (
        results["concurrent8_http_s"] / results["inprocess_async8_s"]
    )
    payload = {
        "current": results,
        "throughput": throughput,
        "required_speedup": REQUIRED_SPEEDUP,
        "cpus": cpus,
        # Per-metric self-arming: the cache ratio is timer-race-sensitive
        # on 1-CPU containers, so it only gates when both the baseline
        # and the current run had cores to spare.  The classic
        # concurrency ratio keeps gating everywhere.
        "gate_applies": {"throughput.cached_page_vs_cold": cpus >= 2},
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    from repro.experiments.reporting import banner, format_table

    rows = [
        [key, f"{value * 1000:.2f} ms" if key.endswith("_s") else f"{value:.2f}"]
        for key, value in results.items()
    ]
    rows += [[key, f"{value:.2f}x"] for key, value in throughput.items()]
    emit(
        "net",
        "\n".join(
            [
                banner("network front-end benchmarks"),
                format_table(["metric", "value"], rows),
                f"[json saved to {BENCH_JSON}]",
            ]
        ),
    )

    assert throughput["concurrent8_vs_serial_http"] >= REQUIRED_SPEEDUP, (
        f"concurrent remote extraction is only "
        f"{throughput['concurrent8_vs_serial_http']:.2f}x serial per-request "
        f"HTTP round trips at concurrency {CONCURRENCY} "
        f"(required: {REQUIRED_SPEEDUP}x)"
    )
    if cpus >= 2:
        assert throughput["cached_page_vs_cold"] >= CACHE_REQUIRED_SPEEDUP, (
            f"the parse cache only bought "
            f"{throughput['cached_page_vs_cold']:.2f}x over cold parsing "
            f"(required: {CACHE_REQUIRED_SPEEDUP}x on {cpus} CPUs)"
        )
