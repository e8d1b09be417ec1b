"""Wrapper lifecycle runtime benchmarks → ``BENCH_runtime.json``.

Measures the production serving loop on the full corpus:

* **batch extraction** — the serial per-(wrapper, page) loop (one parse
  per pair, what a naive deployment does) against
  :func:`~repro.runtime.extractor.extract_records` (one parse per
  page).  The acceptance bar is batch ≥ 2× the serial loop; the win
  comes from parsing + indexing each page once for all its wrappers.
* **artifact round trip** — JSON serialize + parse + revalidate per
  wrapper (the cost of a cold wrapper-store load).
* **drift checking** — full detector passes (top query + canonical
  fingerprint + ensemble vote) per (wrapper, page).

Everything lands in ``BENCH_runtime.json`` at the repository root so
the serving-path trajectory is tracked across PRs alongside
``BENCH_xpath.json``.
"""

from __future__ import annotations

import json
import pathlib
import time

from conftest import scale

from repro.dom.serialize import to_html
from repro.evolution import SyntheticArchive
from repro.experiments.reporting import banner, format_table
from repro.induction import WrapperInducer
from repro.runtime.corpus import induce_corpus_task
from repro.runtime import (
    DriftDetector,
    PageJob,
    WrapperArtifact,
    jobs_for_artifacts,
)
from repro.runtime.extractor import extract_records
from repro.sites import single_node_tasks

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_runtime.json"

#: The acceptance bar: batch extraction vs. the serial per-pair loop.
REQUIRED_SPEEDUP = 2.0


def timeit(fn, repeat=3):
    """Best-of-N per-call seconds (min resists scheduler noise)."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def per_pair_records(jobs):
    """The naive per-pair loop: one parse per (wrapper, page) pair —
    what a deployment gets by calling "extract(wrapper, html)" in a loop
    over its wrapper store."""
    return extract_records(
        [
            PageJob(job.page_id, job.html, (wrapper,))
            for job in jobs
            for wrapper in job.wrappers
        ]
    )


def build_fleet(n_snapshots: int):
    """Artifacts for every single-node corpus task + served page HTML."""
    inducer = WrapperInducer()
    artifacts, page_html = [], {}
    for corpus_task in single_node_tasks():
        spec, task = corpus_task.spec, corpus_task.task
        induced = induce_corpus_task(corpus_task, inducer)
        if induced is None:
            continue
        result, sample = induced
        artifacts.append(
            WrapperArtifact.from_induction(
                result,
                [sample],
                task_id=task.task_id,
                site_id=spec.site_id,
                role=task.role,
            )
        )
        archive = SyntheticArchive(spec, n_snapshots=n_snapshots)
        for index in range(n_snapshots):
            if archive.is_broken(index):
                continue
            page_html[(spec.site_id, index)] = to_html(archive.snapshot(index))
    return artifacts, page_html


def test_runtime_bench(benchmark, emit):
    # 3 snapshots ⇒ ~0.6 s of serial work per timed run.
    n_snapshots = scale(3, 5)
    artifacts, page_html = build_fleet(n_snapshots)
    sites = {a.site_id for a in artifacts}

    jobs = []
    for index in range(n_snapshots):
        snapshot_pages = {
            site: html for (site, i), html in page_html.items() if i == index
        }
        jobs.extend(
            jobs_for_artifacts(artifacts, snapshot_pages, page_suffix=f"@{index}")
        )
    pairs = sum(len(job.wrappers) for job in jobs)

    def run_all():
        results = {
            "n_wrappers": len(artifacts),
            "n_sites": len(sites),
            "n_pages": len(jobs),
            "n_pairs": pairs,
        }
        results["serial_loop_s"] = timeit(lambda: per_pair_records(jobs))
        results["batch_1worker_s"] = timeit(lambda: extract_records(jobs))

        payloads = [artifact.dumps() for artifact in artifacts]
        results["artifact_roundtrip_s"] = timeit(
            lambda: [WrapperArtifact.loads(text) for text in payloads]
        )

        detector = DriftDetector()
        snapshot0 = {
            a.site_id: page_html[(a.site_id, 0)]
            for a in artifacts
            if (a.site_id, 0) in page_html
        }
        from repro.dom.parser import parse_html

        docs = {site: parse_html(html) for site, html in snapshot0.items()}
        results["drift_check_s"] = timeit(
            lambda: [
                detector.check(a, docs[a.site_id])
                for a in artifacts
                if a.site_id in docs
            ]
        )
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    # Sanity: both extraction loops agree record-for-record.
    assert extract_records(jobs) == per_pair_records(jobs)

    speedup = {
        "batch_1worker_vs_serial": results["serial_loop_s"] / results["batch_1worker_s"],
    }
    payload = {"current": results, "speedup": speedup, "required_speedup": REQUIRED_SPEEDUP}
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    rows = [
        [key, f"{value * 1000:.2f} ms" if key.endswith("_s") else str(value)]
        for key, value in results.items()
    ]
    rows.append(["batch 1w vs serial", f"{speedup['batch_1worker_vs_serial']:.2f}x"])
    emit(
        "runtime",
        "\n".join(
            [
                banner("wrapper lifecycle runtime benchmarks"),
                format_table(["metric", "value"], rows),
                f"[json saved to {BENCH_JSON}]",
            ]
        ),
    )

    # One parse + one index per page must carry the bar alone.
    assert speedup["batch_1worker_vs_serial"] >= REQUIRED_SPEEDUP, (
        f"per-page amortization alone is only "
        f"{speedup['batch_1worker_vs_serial']:.2f}x (required: {REQUIRED_SPEEDUP}x)"
    )
