#!/usr/bin/env python
"""CI bench-regression gate over the BENCH_*.json files.

PRs 1–3 each leave a machine-readable benchmark behind
(``BENCH_xpath.json``, ``BENCH_runtime.json``, ``BENCH_serving.json``)
but nothing compared them across commits — a PR could quietly halve the
engine speedup and CI would stay green.  This script closes that gap:

* the **baseline** is the committed snapshot under
  ``benchmarks/baselines/`` (refresh it when a PR intentionally moves a
  number; CI can also point ``--baseline-dir`` at the previous run's
  downloaded ``bench-json`` artifact instead);
* the **current** numbers are the files the smoke benchmarks just wrote
  at the repository root (or ``--current-dir``);
* only the **headline ratios** are compared — the ``speedup`` /
  ``throughput`` sections, which divide two measurements from the *same*
  machine and are therefore far more stable across hardware than raw
  wall-clock times;
* a headline ratio may regress by at most ``--tolerance`` (default 20%);
  anything worse fails the job.  Ratios missing from the current run
  also fail (a silently dropped metric is a regression in coverage);
  ratios new in the current run are reported but not gated.

One carve-out: ``BENCH_xpath.json`` ratios divide *fixed seed-era
constants* by the current run's wall-clock, so they scale inversely
with host speed (and its axis micro-benchmarks sit in the sub-ms noise
floor).  Those get a wide 60% band — enough to catch an engine collapse
(losing the compiled path is a 10–70× drop) without flaking on runner
variance.  ``BENCH_net.json`` rides loopback-TCP and thread-scheduler
variance and gets a 35% band (its benchmark asserts the ≥ 1.2× bar
itself, so the hard floor holds regardless); ``BENCH_cluster.json``
additionally rides multi-process scheduling and CPU-count differences
between runners and gets the same 35% band (its benchmark asserts the
≥ 1.4× bar itself on any multi-core host); when either side of a
comparison was recorded with ``gate_applies: false`` (a single-CPU
host, where a cross-host parallelism ratio cannot materialize) the
ratio is reported but not compared.  ``BENCH_sitegen.json`` divides
its wall-clock generation rate by a fixed pages/sec floor, so like the
xpath file it scales with host speed and gets the 60% band (its
benchmark asserts the ≥ 25 pages/sec floor itself).
``BENCH_induction.json`` divides two same-run wall-clocks but rides
single-process scheduler noise on a heavy workload (the benchmark
asserts the ≥ 2× pruned-search bar itself on any host), so it gets the
35% band.
``BENCH_runtime.json`` / ``BENCH_serving.json`` ratios divide two
measurements from the same run and keep the tight default.

``gate_applies`` comes in two shapes: a bare boolean covers the whole
file (the original ``BENCH_cluster.json`` form), while a dict maps
individual metric labels (``"throughput.cached_page_vs_cold"``) to
booleans so one file can mix always-gated ratios with self-arming ones
— metrics absent from the dict stay gated.

When ``--summary`` names a file (default: ``$GITHUB_STEP_SUMMARY``
when set), a markdown ratio table — headline, baseline, current,
verdict, including ``skip`` and ``new`` lines — is appended there, so
a bench regression is readable from the CI run page without
downloading artifacts.

Exit codes: 0 = all within tolerance, 1 = regression (or a baselined
metric disappeared), 2 = setup problem (missing files/directories).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from typing import Iterator

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Sections whose entries are machine-comparable headline ratios.
RATIO_SECTIONS = ("speedup", "throughput")

#: Per-file tolerance floors (see the module docstring): files whose
#: ratios are relative to fixed seed constants need a wide band, and
#: the network bench rides the host's loopback/scheduler variance
#: (its own ≥ 1.2× assertion stays the hard floor either way).
FILE_TOLERANCES = {
    "BENCH_xpath.json": 0.60,
    "BENCH_net.json": 0.35,
    "BENCH_cluster.json": 0.35,
    "BENCH_sitegen.json": 0.60,
    "BENCH_induction.json": 0.35,
}


def headline_ratios(payload: dict) -> dict[str, float]:
    """``section.key -> ratio`` for every ratio section in a BENCH file."""
    ratios: dict[str, float] = {}
    for section in RATIO_SECTIONS:
        entries = payload.get(section)
        if not isinstance(entries, dict):
            continue
        for key, value in entries.items():
            if isinstance(value, (int, float)):
                ratios[f"{section}.{key}"] = float(value)
    return ratios


def _gate(payload: dict, metric: str) -> bool:
    """Whether ``payload`` arms the gate for ``metric``.

    ``gate_applies`` may be a bare boolean (whole file) or a dict of
    metric labels to booleans (per-metric self-arming); metrics the
    dict does not mention stay gated.
    """
    flag = payload.get("gate_applies", True)
    if isinstance(flag, dict):
        return flag.get(metric, True) is not False
    return flag is not False


def iter_rows(
    baseline_dir: pathlib.Path, current_dir: pathlib.Path, names: list[str]
) -> Iterator[tuple[str, str, float | None, float | None, bool]]:
    """Yield (file, metric, baseline-or-None, current-or-None, gated)
    for every baselined headline ratio, then every ratio that is new in
    the current run (baseline ``None`` — reported, never gated, so a
    bench growing a metric does not invalidate existing baselines).

    ``gated`` is False when either side recorded ``gate_applies:
    false`` for the metric — a bench declaring the ratio meaningless on
    that host (e.g. a cross-host parallelism or cache-race ratio on a
    single-CPU machine).  Such ratios are reported but not compared: a
    single-CPU current run must not fail against a multi-core baseline,
    and a single-CPU baseline must not rubber-stamp a multi-core
    regression as a pass worth trusting.
    """
    for name in names:
        base_payload = json.loads((baseline_dir / name).read_text())
        current_path = current_dir / name
        if not current_path.exists():
            yield name, "<file>", float("nan"), None, True
            continue
        current_payload = json.loads(current_path.read_text())
        current = headline_ratios(current_payload)
        base = headline_ratios(base_payload)
        for metric, base_value in sorted(base.items()):
            gated = _gate(base_payload, metric) and _gate(current_payload, metric)
            yield name, metric, base_value, current.get(metric), gated
        for metric in sorted(current.keys() - base.keys()):
            gated = _gate(base_payload, metric) and _gate(current_payload, metric)
            yield name, metric, None, current[metric], gated


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when any BENCH_*.json headline ratio regresses."
    )
    parser.add_argument(
        "--baseline-dir",
        type=pathlib.Path,
        default=REPO_ROOT / "benchmarks" / "baselines",
        help="committed baselines (or a downloaded bench-json artifact)",
    )
    parser.add_argument(
        "--current-dir",
        type=pathlib.Path,
        default=REPO_ROOT,
        help="where the current BENCH_*.json files live",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="max allowed fractional drop per ratio (default: %(default)s)",
    )
    parser.add_argument(
        "--summary",
        type=pathlib.Path,
        default=(
            pathlib.Path(os.environ["GITHUB_STEP_SUMMARY"])
            if os.environ.get("GITHUB_STEP_SUMMARY")
            else None
        ),
        help="append a markdown ratio table to this file "
        "(default: $GITHUB_STEP_SUMMARY when set)",
    )
    parser.add_argument(
        "names",
        nargs="*",
        help="BENCH file names to compare (default: every baselined file)",
    )
    args = parser.parse_args(argv)

    if not args.baseline_dir.is_dir():
        print(f"baseline directory not found: {args.baseline_dir}", file=sys.stderr)
        return 2
    names = args.names or sorted(
        path.name for path in args.baseline_dir.glob("BENCH_*.json")
    )
    if not names:
        print(f"no BENCH_*.json baselines in {args.baseline_dir}", file=sys.stderr)
        return 2
    missing = [name for name in names if not (args.baseline_dir / name).exists()]
    if missing:
        print(f"missing baselines: {', '.join(missing)}", file=sys.stderr)
        return 2

    failures = 0
    rows = list(iter_rows(args.baseline_dir, args.current_dir, names))
    width = max(
        (len(f"{name}:{metric}") for name, metric, _, _, _ in rows), default=20
    )
    fmt = lambda value: "—" if value is None else f"{value:.2f}x"  # noqa: E731
    table: list[tuple[str, str, str, str, str]] = []
    for name, metric, base_value, current_value, gated in rows:
        label = f"{name}:{metric}"
        tolerance = max(args.tolerance, FILE_TOLERANCES.get(name, 0.0))
        if current_value is None:
            print(f"FAIL {label:<{width}}  missing from current run")
            failures += 1
            table.append(
                (name, metric, fmt(base_value), "—", "FAIL (missing from current run)")
            )
            continue
        if base_value is None:
            print(
                f"new  {label:<{width}}  current {current_value:8.2f}x  "
                f"[not in baseline — reported, not gated]"
            )
            table.append(
                (name, metric, "—", fmt(current_value), "new (reported, not gated)")
            )
            continue
        ratio = current_value / base_value if base_value else float("inf")
        line = (
            f"{label:<{width}}  baseline {base_value:8.2f}x  "
            f"current {current_value:8.2f}x  ({ratio:6.1%} of baseline, "
            f"tolerance {tolerance:.0%})"
        )
        detail = f"{ratio:.1%} of baseline, tolerance {tolerance:.0%}"
        if not gated:
            print(f"skip {line}  [gate_applies: false on this host]")
            verdict = "skip (gate_applies: false)"
        elif ratio < 1.0 - tolerance:
            print(f"FAIL {line}")
            failures += 1
            verdict = f"FAIL ({detail})"
        else:
            print(f"ok   {line}")
            verdict = f"ok ({detail})"
        table.append((name, metric, fmt(base_value), fmt(current_value), verdict))

    if args.summary is not None:
        write_summary(args.summary, table, failures)

    if failures:
        print(f"\n{failures} headline ratio(s) regressed past tolerance — see above")
        return 1
    print("\nall headline ratios within tolerance of baseline")
    return 0


def write_summary(
    path: pathlib.Path, table: list[tuple[str, str, str, str, str]], failures: int
) -> None:
    """Append the ratio table as GitHub-flavored markdown (the
    ``$GITHUB_STEP_SUMMARY`` contract is append-only)."""
    lines = [
        "### Bench regression gate",
        "",
        "| file | headline | baseline | current | verdict |",
        "| --- | --- | --- | --- | --- |",
    ]
    lines += [
        f"| {name} | {metric} | {base} | {current} | {verdict} |"
        for name, metric, base, current, verdict in table
    ]
    lines.append("")
    lines.append(
        f"**{failures} headline ratio(s) regressed past tolerance.**"
        if failures
        else "**All headline ratios within tolerance of baseline.**"
    )
    lines.append("")
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    sys.exit(main())
