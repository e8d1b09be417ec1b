"""Induction fast-path benchmark → ``BENCH_induction.json``.

One headline ratio, ``pruned_vs_exhaustive``: end-to-end single-node
induction on a large generated listing page (wide sideways structure,
the worst case for exhaustive candidate generation), default
exhaustive search vs. ``search="pruned"`` (SPSA-ranked candidate beam
+ trimmed generation ceilings).  Gated at ≥ 2.0× on **any** host: both
sides run on the same machine and the win is algorithmic (fewer
candidates generated and scored), not parallelism.

Correctness is asserted before any timing counts: pruned search must
keep the best query's F1 within ``QUALITY_TOLERANCE`` of exhaustive on
every golden corpus task in the sampled subset *and* on the large page
— a fast path that finds worse wrappers is a regression, not an
optimisation.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import random
import time

from conftest import scale

from repro.dom.builder import E, T, document
from repro.evolution.archive import SyntheticArchive
from repro.experiments.reporting import banner, format_table
from repro.induction.config import InductionConfig
from repro.induction.induce import WrapperInducer
from repro.sites import single_node_tasks

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_induction.json"

#: Acceptance bar: pruned search vs. exhaustive on the large page.
REQUIRED_SPEEDUP = 2.0

#: Quality floor: pruned best-query F1 may trail exhaustive by at most
#: this much on any golden task (the documented parity tolerance).
QUALITY_TOLERANCE = 0.01

ADJECTIVES = ["solid", "bright", "spare", "quick", "worn", "plain", "deep", "fine"]
NOUNS = ["widget", "gasket", "lamp", "crate", "valve", "panel", "spool", "brush"]

#: Structurally distinct row shells — each produces a different target
#: spine shape, so the DP's spine loop has real variety to walk (and
#: the pruned spine quota has something to trim).
ROW_SHELLS = [
    lambda row: row,
    lambda row: E("section", row, class_="grp"),
    lambda row: E("div", row, class_="grp"),
    lambda row: E("section", E("div", row, class_="inner"), class_="grp"),
    lambda row: E("article", row, class_="grp"),
    lambda row: E("div", E("div", row, class_="inner"), class_="grp"),
    lambda row: E("article", E("div", row, class_="inner"), class_="grp"),
    lambda row: E("section", E("section", row, class_="inner"), class_="grp"),
    lambda row: E("aside", row, class_="grp"),
    lambda row: E("aside", E("div", row, class_="inner"), class_="grp"),
    lambda row: E("div", E("section", row, class_="inner"), class_="grp"),
    lambda row: E("section", E("article", row, class_="inner"), class_="grp"),
    lambda row: E("article", E("article", row, class_="inner"), class_="grp"),
    lambda row: E("div", E("article", row, class_="inner"), class_="grp"),
]


def make_large_page(n_rows: int = 120, seed: int = 11):
    """A deterministic product-listing page that is expensive to induce.

    Every row carries the target (``span[@itemprop="price"]``) plus a
    spread of feature-rich siblings — name, meta, badge list, promo
    blocks — so exhaustive sideways candidate generation has a wide
    cross-product to enumerate, and rows cycle through structurally
    distinct shells so the target spines are genuinely varied.
    ~2k nodes, ``n_rows`` targets.
    """
    rng = random.Random(seed)
    body = E("body")
    nav = E("ul", class_="nav")
    for i in range(8):
        nav.append_child(E("li", E("a", T(f"Section {i}"), href=f"/s/{i}")))
    body.append_child(E("div", E("h1", T("Catalog")), nav, class_="head"))
    listing = E("div", class_="listing")
    for i in range(n_rows):
        adjective = rng.choice(ADJECTIVES)
        noun = rng.choice(NOUNS)
        row = E("div", class_="row", id=f"row{i}")
        row.append_child(E("div", E("a", T(f"{adjective} {noun}"), href=f"/p/{i}"), class_="name"))
        row.append_child(E("span", T(f"sku-{rng.randrange(10000)}"), class_="meta"))
        badges = E("ul", class_="badges")
        for _ in range(rng.randint(1, 3)):
            badges.append_child(E("li", T(rng.choice(ADJECTIVES))))
        row.append_child(badges)
        if rng.random() < 0.4:
            row.append_child(E("div", E("p", T("limited offer")), class_="promo"))
        price = E("span", T(f"${rng.randrange(5, 500)}.{rng.randrange(100):02d}"))
        price.attrs["itemprop"] = "price"
        price.attrs["class"] = "price"
        row.append_child(price)
        row.append_child(E("span", T(f"{rng.randrange(1, 40)} in stock"), class_="stock"))
        listing.append_child(ROW_SHELLS[i % len(ROW_SHELLS)](row))
    body.append_child(listing)
    body.append_child(E("div", E("p", T("© catalog")), class_="footer"))
    return document(E("html", E("head", E("title", T("catalog"))), body))


def price_targets(doc) -> list:
    return [
        node
        for node in doc.all_nodes()
        if getattr(node, "tag", None) == "span"
        and node.attrs.get("itemprop") == "price"
    ]


def timeit(fn, repeat=3):
    """Best-of-N per-call seconds (min resists scheduler noise)."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def best_f1(result) -> float:
    best = result.best
    if best is None:
        return 0.0
    denominator = 2 * best.tp + best.fp + best.fn
    return 2 * best.tp / denominator if denominator else 0.0


def test_induction_bench(benchmark, emit):
    cpus = len(os.sched_getaffinity(0))
    repeat = scale(2, 3)
    exhaustive_config = InductionConfig()
    pruned_config = dataclasses.replace(exhaustive_config, search="pruned")
    exhaustive = WrapperInducer(exhaustive_config)
    pruned = WrapperInducer(pruned_config)

    doc = make_large_page()
    targets = price_targets(doc)
    assert len(targets) >= 100

    def run_all():
        results: dict = {
            "cpus": cpus,
            "large_page_nodes": doc.node_count(),
            "large_page_targets": len(targets),
        }

        # Warm the per-document caches once per mode so the timed runs
        # compare search strategies, not cold text/index caches.
        exhaustive_result = exhaustive.induce_one(doc, targets)
        pruned_result = pruned.induce_one(doc, targets)
        results["exhaustive_large_page_s"] = timeit(
            lambda: exhaustive.induce_one(doc, targets), repeat=repeat
        )
        results["pruned_large_page_s"] = timeit(
            lambda: pruned.induce_one(doc, targets), repeat=repeat
        )
        results["large_page_f1_exhaustive"] = best_f1(exhaustive_result)
        results["large_page_f1_pruned"] = best_f1(pruned_result)
        stats = pruned_result.stats
        results["pruned_candidates_considered"] = stats.candidates_considered
        results["pruned_candidates_skipped"] = stats.candidates_pruned

        # Quality floor across the golden corpus subset: pruned must
        # match exhaustive within tolerance on every sampled task.
        worse = []
        for corpus_task in single_node_tasks(limit=scale(12, 84)):
            archive = SyntheticArchive(corpus_task.spec, n_snapshots=1)
            page = archive.snapshot(0)
            page_targets = archive.targets(page, corpus_task.task.role)
            if not page_targets:
                continue
            f1_exhaustive = best_f1(exhaustive.induce_one(page, page_targets))
            f1_pruned = best_f1(pruned.induce_one(page, page_targets))
            if f1_pruned < f1_exhaustive - QUALITY_TOLERANCE:
                worse.append((corpus_task.task_id, f1_exhaustive, f1_pruned))
        assert not worse, f"pruned search degraded best-query F1: {worse}"
        results["quality_tasks_checked"] = scale(12, 84)
        results["quality_tasks_worse"] = len(worse)
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    speedup = {
        "pruned_vs_exhaustive": (
            results["exhaustive_large_page_s"] / results["pruned_large_page_s"]
        ),
    }
    payload = {
        "current": results,
        "speedup": speedup,
        "required_speedup": REQUIRED_SPEEDUP,
        "quality_tolerance": QUALITY_TOLERANCE,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    rows = [
        [key, f"{value * 1000:.2f} ms" if key.endswith("_s") else str(value)]
        for key, value in results.items()
    ]
    rows += [[key, f"{value:.2f}x"] for key, value in speedup.items()]
    emit(
        "induction",
        "\n".join(
            [
                banner("induction fast-path benchmarks"),
                format_table(["metric", "value"], rows),
                f"[json saved to {BENCH_JSON}]",
            ]
        ),
    )

    assert results["large_page_f1_pruned"] >= (
        results["large_page_f1_exhaustive"] - QUALITY_TOLERANCE
    )
    assert speedup["pruned_vs_exhaustive"] >= REQUIRED_SPEEDUP, (
        f"pruned search is only {speedup['pruned_vs_exhaustive']:.2f}x "
        f"exhaustive on the large page (required: {REQUIRED_SPEEDUP}x)"
    )
