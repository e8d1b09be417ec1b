"""Cross-host cluster benchmark → ``BENCH_cluster.json``.

The cluster layer earns its keep when adding a serving host adds real
throughput — placement is coordination-free, so two hosts should split
the extraction work with zero cross-talk.  This bench deploys the full
single-node corpus fleet into one sharded store, then serves the same
batch-extraction stream two ways over real localhost TCP:

* **single host** — one ``serve --listen`` subprocess owning every
  shard, driven by ``RemoteWrapperClient.extract_many`` (the batch as
  body-limited ``/extract_many`` requests);
* **2-host router** — two ``serve --listen --own-shards`` subprocesses
  over disjoint shard halves behind a :class:`~repro.RouterClient`,
  ``extract_many`` fanned out across both hosts (each host's slice as
  its own ``/extract_many`` requests, both hosts at once).

The headline ratio ``router2_vs_single_host`` is gated at ≥ 1.4× — but
only on hosts with ≥ 2 CPUs: the win *is* process-level parallelism
(each serving host is one GIL domain), so a single-core container can
only record the ratio, not exhibit it.  ``cpus`` is written into the
JSON so a reader can tell which regime produced the number.

The failover PR adds a second headline, ``degraded_ratio``: the same
stream through a **replicated 3-host** cluster with one host
SIGKILL-ed (2-of-3) versus all hosts up (3-of-3), through one router.  Replication is supposed to turn a host loss into a
capacity dip, not an outage — the ratio quantifies the dip and is
floored at ≥ 0.35 under the same ``cpus >= 2`` self-arming gate.

Correctness first, as always: the routed results must be byte-identical
payloads to the single-host results, item for item — including the
degraded run, where every answer arrives via a surviving replica.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile

from bench_runtime import build_fleet, timeit
from conftest import scale

from repro import ClusterMap, RemoteWrapperClient, RouterClient
from repro.cluster import router as router_module
from repro.runtime.store import ShardedArtifactStore
from tests.serving_utils import spawn_listen, terminate

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_cluster.json"

#: Acceptance bar: 2-host routed batch extraction vs. one serving host.
REQUIRED_SPEEDUP = 1.4

#: Acceptance floor: replicated throughput with one of three hosts dead
#: vs. all three up.  Losing a third of the fleet may cost capacity but
#: must not collapse serving (breaker + failover overhead included).
REQUIRED_DEGRADED_RATIO = 0.35

N_SHARDS = 8

#: Independent consumers per (wrapper, page) — the serving traffic shape.
CONSUMERS = 2


def spawn_host(*extra_args: str) -> tuple:
    """(process, "host:port") for one serving subprocess (shared
    harness, generous deadline for store-backed startup)."""
    proc, host, port = spawn_listen(*extra_args, deadline_s=120.0)
    return proc, f"{host}:{port}"


def build_store_and_stream(n_snapshots: int, root: pathlib.Path):
    """One sharded store holding the whole fleet + the request stream."""
    artifacts, page_html = build_fleet(n_snapshots)
    store = ShardedArtifactStore(root, n_shards=N_SHARDS)
    for artifact in artifacts:
        store.put(artifact)
    items: list[tuple[str, str]] = []
    for index in range(n_snapshots):
        for artifact in artifacts:
            html = page_html.get((artifact.site_id, index))
            if html is None:
                continue
            items.extend((artifact.task_id, html) for _ in range(CONSUMERS))
    return artifacts, items


def test_cluster_bench(benchmark, emit):
    n_snapshots = scale(2, 3)
    cpus = len(os.sched_getaffinity(0))
    with tempfile.TemporaryDirectory(prefix="bench-cluster-") as tmp:
        store_root = pathlib.Path(tmp) / "store"
        artifacts, items = build_store_and_stream(n_snapshots, store_root)

        procs = []
        try:
            single_proc, single_host = spawn_host("--artifacts", str(store_root))
            procs.append(single_proc)
            cluster_hosts = []
            for index in range(2):
                own = ",".join(str(s) for s in range(N_SHARDS) if s % 2 == index)
                proc, host = spawn_host(
                    "--artifacts", str(store_root), "--own-shards", own
                )
                procs.append(proc)
                cluster_hosts.append(host)
            cluster_map = ClusterMap(tuple(cluster_hosts), N_SHARDS)

            def single_run():
                with RemoteWrapperClient(single_host) as client:
                    return client.extract_many(items)

            def router_run():
                with RouterClient(cluster_map) as router:
                    return router.extract_many(items)

            # Correctness first: routing across 2 hosts answers exactly
            # what the single host answers, byte for byte, in order.
            expected = [result.to_payload() for result in single_run()]
            routed = [result.to_payload() for result in router_run()]
            assert routed == expected

            # Replicated 3-host topology over the same store: every
            # shard on two hosts, so one SIGKILL must cost capacity,
            # never answers.
            from tests.cluster.faults import spawn_replicated

            replicated = spawn_replicated(
                n_hosts=3, n_shards=N_SHARDS, store_root=store_root,
                deadline_s=120.0,
            )
            # One long-lived router, breaker tuned to open on the first
            # failed batch and stay open: the timed degraded batches
            # measure steady-state serving with a host down (pure
            # capacity loss), not the one-off dead-host discovery —
            # which the post-kill correctness batch absorbs.
            saved_breaker = (router_module._BREAKER_THRESHOLD, router_module._BREAKER_RESET_S)
            router_module._BREAKER_THRESHOLD, router_module._BREAKER_RESET_S = 1, 600.0
            replicated_router = RouterClient(
                replicated.cluster_map, connect_timeout=5.0
            )

            def replicated_run():
                return replicated_router.extract_many(items)

            def assert_replicated_matches():
                assert [r.to_payload() for r in replicated_run()] == expected

            def run_all():
                assert_replicated_matches()  # 3-of-3 answers byte-identically
                healthy_s = timeit(replicated_run, repeat=2)
                replicated.kill(replicated.hosts[0])
                assert_replicated_matches()  # 2-of-3 still answers byte-identically
                degraded_s = timeit(replicated_run, repeat=2)
                return {
                    "n_wrappers": len(artifacts),
                    "n_requests": len(items),
                    "n_shards": N_SHARDS,
                    "cpus": cpus,
                    "single_host_s": timeit(single_run, repeat=2),
                    "router2_s": timeit(router_run, repeat=2),
                    "replicated3_s": healthy_s,
                    "degraded2of3_s": degraded_s,
                }

            try:
                results = benchmark.pedantic(run_all, rounds=1, iterations=1)
            finally:
                replicated_router.close()
                replicated.close()
                router_module._BREAKER_THRESHOLD, router_module._BREAKER_RESET_S = saved_breaker
        finally:
            terminate(procs)

    throughput = {
        "router2_vs_single_host": results["single_host_s"] / results["router2_s"],
        # 2-of-3 throughput as a fraction of 3-of-3 (1.0 = host loss is free).
        "degraded_ratio": results["replicated3_s"] / results["degraded2of3_s"],
    }
    results["router_requests_per_sec"] = len(items) / results["router2_s"]
    payload = {
        "current": results,
        "throughput": throughput,
        "required_speedup": REQUIRED_SPEEDUP,
        "required_degraded_ratio": REQUIRED_DEGRADED_RATIO,
        "gate_applies": cpus >= 2,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    from repro.experiments.reporting import banner, format_table

    rows = [
        [key, f"{value * 1000:.2f} ms" if key.endswith("_s") else f"{value:.2f}"]
        for key, value in results.items()
    ]
    rows += [[key, f"{value:.2f}x"] for key, value in throughput.items()]
    emit(
        "cluster",
        "\n".join(
            [
                banner("cross-host cluster benchmarks"),
                format_table(["metric", "value"], rows),
                f"[json saved to {BENCH_JSON}]",
            ]
        ),
    )

    if cpus >= 2:
        assert throughput["router2_vs_single_host"] >= REQUIRED_SPEEDUP, (
            f"2-host routed extract_many is only "
            f"{throughput['router2_vs_single_host']:.2f}x one serving host "
            f"(required: {REQUIRED_SPEEDUP}x)"
        )
        assert throughput["degraded_ratio"] >= REQUIRED_DEGRADED_RATIO, (
            f"losing 1 of 3 replicated hosts collapsed throughput to "
            f"{throughput['degraded_ratio']:.2f}x of healthy "
            f"(floor: {REQUIRED_DEGRADED_RATIO}x)"
        )
    else:
        print(
            f"NOTE: single-CPU host ({cpus} usable core(s)) — the 2-host "
            f"parallelism gate ({REQUIRED_SPEEDUP}x) and the degraded-ratio "
            f"floor ({REQUIRED_DEGRADED_RATIO}x) cannot materialize and are "
            f"recorded unasserted: "
            f"{throughput['router2_vs_single_host']:.2f}x, "
            f"{throughput['degraded_ratio']:.2f}x"
        )
