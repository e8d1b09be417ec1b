"""Site-family fleet generation benchmark → ``BENCH_sitegen.json``.

The sitegen study harness replays whole synthetic archives per task, so
fleet generation throughput bounds how large a lead-time study can be
and still run in CI.  This bench compiles the default family roster and
renders every member snapshot in one process, family by family; the
headline ``pages_per_sec_vs_floor`` divides the measured rate by a
fixed 25 pages/sec floor (the rate below which long-archive sweeps stop
being interactive).  Like the ``BENCH_xpath.json`` ratios it is a
host-speed number, so check_bench.py gives it the wide band.
"""

from __future__ import annotations

import json
import pathlib

from conftest import scale

from repro.sitegen import FLOOR_PAGES_PER_SEC, bench_payload, default_roster

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_sitegen.json"

#: Acceptance floor: serial fleet generation, pages per second.
REQUIRED_PAGES_PER_SEC = FLOOR_PAGES_PER_SEC


def test_sitegen_bench(benchmark, emit):
    n_families = scale(4, 8)
    n_snapshots = scale(10, 20)
    specs = default_roster(n_families, snapshots=n_snapshots)

    payload = benchmark.pedantic(
        bench_payload, args=(specs, n_snapshots), rounds=1, iterations=1
    )
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    from repro.experiments.reporting import banner, format_table

    current = payload["current"]
    throughput = payload["throughput"]
    rows = [
        ["families", str(current["families"])],
        ["snapshots/site", str(current["snapshots"])],
        ["cpus", str(current["cpus"])],
        ["serial pages/sec", f"{current['serial']['pages_per_sec']:.2f}"],
        ["pages_per_sec_vs_floor", f"{throughput['pages_per_sec_vs_floor']:.2f}x"],
    ]
    emit(
        "sitegen",
        "\n".join(
            [
                banner("sitegen fleet generation benchmarks"),
                format_table(["metric", "value"], rows),
                f"[json saved to {BENCH_JSON}]",
            ]
        ),
    )

    assert current["serial"]["pages_per_sec"] >= REQUIRED_PAGES_PER_SEC, (
        f"serial fleet generation ran at "
        f"{current['serial']['pages_per_sec']:.2f} pages/sec "
        f"(floor: {REQUIRED_PAGES_PER_SEC})"
    )
