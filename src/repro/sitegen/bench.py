"""Generation-throughput measurement shared by the sweep CLI and
``benchmarks/bench_sitegen.py``.

The headline is ``throughput.pages_per_sec_vs_floor``: serial fleet
generation (family compilation + archive evolution + full DOM render
per snapshot) divided by a fixed 25 pages/sec floor — the rate below
which long-archive studies stop being interactive.  Like the
``BENCH_xpath.json`` ratios it divides a fixed constant by the host's
wall-clock, so it scales with host speed and gets the wide tolerance
band in ``scripts/check_bench.py``.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import Sequence

from repro.evolution.archive import SyntheticArchive
from repro.sitegen.family import FamilySpec, generate_family

#: Pages/sec below which archive studies stop being interactive.
FLOOR_PAGES_PER_SEC = 25.0

BENCH_FILENAME = "BENCH_sitegen.json"


def render_family(spec: FamilySpec, n_snapshots: int) -> int:
    """Compile one family and render every member snapshot; returns the
    number of pages rendered."""
    family = generate_family(spec)
    pages = 0
    for site in family.sites:
        archive = SyntheticArchive(site, n_snapshots=n_snapshots, cache_size=1)
        for index in range(n_snapshots):
            archive.snapshot(index)
            pages += 1
    return pages


def measure_serial(specs: Sequence[FamilySpec], n_snapshots: int) -> dict:
    start = time.perf_counter()
    pages = sum(render_family(spec, n_snapshots) for spec in specs)
    return _rate(pages, time.perf_counter() - start)


def _rate(pages: int, elapsed: float) -> dict:
    elapsed = max(elapsed, 1e-9)
    return {
        "pages": pages,
        "seconds": round(elapsed, 4),
        "pages_per_sec": round(pages / elapsed, 2),
    }


def bench_payload(specs: Sequence[FamilySpec], n_snapshots: int) -> dict:
    """Measure generation throughput and shape the BENCH JSON payload."""
    serial = measure_serial(specs, n_snapshots)
    return {
        "benchmark": "sitegen family-fleet generation throughput",
        "current": {
            "families": len(specs),
            "snapshots": n_snapshots,
            "cpus": os.cpu_count() or 1,
            "serial": serial,
        },
        "throughput": {
            "pages_per_sec_vs_floor": round(
                serial["pages_per_sec"] / FLOOR_PAGES_PER_SEC, 2
            ),
        },
        "required_pages_per_sec": FLOOR_PAGES_PER_SEC,
    }


def write_bench(path: str | pathlib.Path, payload: dict) -> None:
    pathlib.Path(path).write_text(json.dumps(payload, indent=2) + "\n")


__all__ = [
    "BENCH_FILENAME",
    "FLOOR_PAGES_PER_SEC",
    "bench_payload",
    "measure_serial",
    "render_family",
    "write_bench",
]
