"""Async serving layer benchmark → ``BENCH_serving.json``.

Serving traffic is *per-wrapper* requests: independent clients each ask
"run this one wrapper on this page".  The baseline is what a deployment
gets by pointing those requests at the batch engine one call at a time
(``BatchExtractor(workers=1).extract([job])`` per request — one parse
per request, no sharing).  The serving layer answers the same request
stream through micro-batching + the parse cache on its one worker
thread; the acceptance bar is ≥ 1.5× the serial-call throughput at
client concurrency 8 on the full corpus.
"""

from __future__ import annotations

import asyncio
import json
import pathlib

from bench_runtime import build_fleet, timeit
from conftest import scale

from repro.runtime import (
    PageJob,
    ServingConfig,
    serve_jobs,
)
from repro.runtime.extractor import BatchExtractor

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_serving.json"

#: Acceptance bar: async serving vs. serial per-request BatchExtractor calls.
REQUIRED_SPEEDUP = 1.5

CONCURRENCY = 8


def build_requests(n_snapshots: int) -> list[PageJob]:
    """Per-wrapper request stream over the full single-node fleet."""
    artifacts, page_html = build_fleet(n_snapshots)
    requests: list[PageJob] = []
    for artifact in artifacts:
        wrappers = [(artifact.task_id, artifact.best.text)] + [
            (f"{artifact.task_id}#m{i}", text)
            for i, text in enumerate(artifact.ensemble)
        ]
        for index in range(n_snapshots):
            html = page_html.get((artifact.site_id, index))
            if html is None:
                continue
            page_id = f"{artifact.site_id}@{index}"
            requests.extend(
                PageJob(page_id=page_id, html=html, wrappers=((wid, text),))
                for wid, text in wrappers
            )
    return requests


def serial_calls(requests: list[PageJob]) -> list:
    """The baseline: one BatchExtractor call per request, in order."""
    extractor = BatchExtractor(workers=1)
    return [extractor.extract([job]) for job in requests]


def serve_stream(requests: list[PageJob]):
    config = ServingConfig(max_pending=64)
    return asyncio.run(serve_jobs(requests, config, concurrency=CONCURRENCY))


def test_serving_bench(benchmark, emit):
    n_snapshots = scale(2, 4)
    requests = build_requests(n_snapshots)

    # Correctness first: the served stream answers exactly what the
    # serial calls answer, request for request (stats from this warm-up
    # run also seed the report).
    expected = serial_calls(requests)
    served, stats = serve_stream(requests)
    assert served == expected

    def run_all():
        results = {
            "n_requests": len(requests),
            "n_pages": stats.pages_parsed,
            "concurrency": CONCURRENCY,
            "batches": stats.batches,
            "peak_pending": stats.peak_pending,
        }
        results["serial_calls_s"] = timeit(lambda: serial_calls(requests))
        results["async_1worker_s"] = timeit(lambda: serve_stream(requests))
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    throughput = {
        "async_1worker_vs_serial_calls": results["serial_calls_s"]
        / results["async_1worker_s"],
    }
    payload = {
        "current": results,
        "throughput": throughput,
        "required_speedup": REQUIRED_SPEEDUP,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    from repro.experiments.reporting import banner, format_table

    rows = [
        [key, f"{value * 1000:.2f} ms" if key.endswith("_s") else str(value)]
        for key, value in results.items()
    ]
    rows += [
        [key, f"{value:.2f}x"] for key, value in throughput.items()
    ]
    emit(
        "serving",
        "\n".join(
            [
                banner("async serving layer benchmarks"),
                format_table(["metric", "value"], rows),
                f"[json saved to {BENCH_JSON}]",
            ]
        ),
    )

    assert throughput["async_1worker_vs_serial_calls"] >= REQUIRED_SPEEDUP, (
        f"async serving is only {throughput['async_1worker_vs_serial_calls']:.2f}x "
        f"serial BatchExtractor calls at concurrency {CONCURRENCY} "
        f"(required: {REQUIRED_SPEEDUP}x)"
    )
