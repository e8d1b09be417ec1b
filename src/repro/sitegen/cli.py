"""``python -m repro.sitegen`` — generate families, run lead-time sweeps.

Subcommands:

* ``roster`` — print the default family roster as JSON (the declarative
  input other tooling can edit and feed back);
* ``generate`` — render family archives to HTML files on disk;
* ``sweep`` — the lead-time study: N families × M snapshots, induction
  + drift replay per task, per-break lead-time scoring, JSONL study
  stream, and the ``BENCH_sitegen.json`` generation-throughput
  headline.

Exit codes (sweep): 0 = every scripted break detected at/after its
injection index with zero false "healthy" verdicts at the break
snapshot; 1 = a break was missed or falsely reported healthy.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Optional, Sequence

from repro.sitegen.bench import BENCH_FILENAME, bench_payload, write_bench
from repro.sitegen.family import FamilySpec, default_roster, generate_family
from repro.sitegen.study import StudyConfig, run_family_payload, run_family_study


def _add_roster_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--families", type=int, default=4, help="number of families")
    parser.add_argument(
        "--snapshots", type=int, default=20, help="snapshots per archive"
    )
    parser.add_argument("--sites", type=int, default=2, help="member sites per family")
    parser.add_argument("--seed", type=int, default=0, help="roster seed")
    parser.add_argument(
        "--roster",
        type=pathlib.Path,
        default=None,
        help="JSON roster file (a list of FamilySpec payloads) instead of "
        "the generated default roster",
    )


def _load_roster(args: argparse.Namespace) -> list[FamilySpec]:
    if args.roster is not None:
        payloads = json.loads(args.roster.read_text())
        return [FamilySpec.from_payload(payload) for payload in payloads]
    return default_roster(
        args.families, snapshots=args.snapshots, seed=args.seed, n_sites=args.sites
    )


def cmd_roster(args: argparse.Namespace) -> int:
    specs = _load_roster(args)
    print(json.dumps([spec.to_payload() for spec in specs], indent=2))
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.dom.serialize import to_html
    from repro.evolution.archive import SyntheticArchive

    specs = _load_roster(args)
    out: pathlib.Path = args.out
    pages = 0
    for spec in specs:
        family = generate_family(spec)
        for site in family.sites:
            site_dir = out / site.site_id
            site_dir.mkdir(parents=True, exist_ok=True)
            archive = SyntheticArchive(site, n_snapshots=args.snapshots, cache_size=1)
            for index in range(args.snapshots):
                html = to_html(archive.snapshot(index))
                (site_dir / f"snapshot-{index:03d}.html").write_text(html)
                pages += 1
    print(f"wrote {pages} pages for {len(specs)} families under {out}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    specs = _load_roster(args)
    print(
        f"sweep: {len(specs)} families x {args.snapshots} snapshots "
        f"({args.sites} sites/family, seed {args.seed})"
    )
    records = _run_sweep(specs, args)

    breaks = [r for r in records if r.get("type") == "break"]
    repairs = [r for r in records if r.get("type") == "repair"]
    summaries = [r for r in records if r.get("type") == "family_summary"]
    for record in breaks:
        lead = record["signal_lead"]
        hard = record["hard_lead"]
        print(
            f"  break {record['task_id']:<40} {record['verb']}@{record['break_at']:<3} "
            f"healthy_at_break={record['healthy_at_break']} "
            f"signal_lead={'-' if lead is None else lead} "
            f"hard_lead={'survived' if hard is None else hard}"
        )
    for record in repairs:
        print(
            f"  repair {record['task_id']:<39} @{record['snapshot']:<3} "
            f"policy={record['policy']} cost={record['annotation_cost']} "
            f"(manual would be {record['manual_cost']}) exact={record['post_exact']}"
        )

    missed = [r for r in breaks if not r["detected"]]
    false_healthy = [r for r in breaks if r["healthy_at_break"] is True]
    leads = [r["signal_lead"] for r in breaks if r["signal_lead"] is not None]
    vote = sum(1 for r in repairs if r["policy"] == "ensemble_vote")
    annotated = sum(1 for r in repairs if r["policy"] == "re_annotation")
    print(
        f"breaks: {len(breaks)}  detected: {len(breaks) - len(missed)}  "
        f"false_healthy_at_break: {len(false_healthy)}  "
        f"mean_signal_lead: {round(sum(leads) / len(leads), 2) if leads else '-'}"
    )
    print(
        f"repairs: {len(repairs)}  ensemble_vote: {vote}  re_annotation: {annotated}  "
        f"annotation_cost: {sum(r['annotation_cost'] for r in repairs)} "
        f"(always-annotate would be {sum(r['manual_cost'] for r in repairs)})"
    )
    skipped = sum(s.get("skipped_tasks", 0) for s in summaries)
    if skipped:
        print(f"note: {skipped} task(s) skipped (no targets at snapshot 0)")

    if args.out is not None:
        write_study_jsonl(args.out, records)
        print(f"study stream: {args.out} ({len(records)} records)")
    if args.bench is not None:
        payload = bench_payload(specs, args.snapshots)
        write_bench(args.bench, payload)
        throughput = payload["current"]["serial"]["pages_per_sec"]
        print(f"bench: {args.bench} (serial generation {throughput} pages/sec)")

    if missed or false_healthy:
        for record in missed:
            print(f"MISSED: {record['task_id']} {record['verb']}@{record['break_at']}")
        for record in false_healthy:
            print(
                f"FALSE HEALTHY: {record['task_id']} "
                f"{record['verb']}@{record['break_at']}"
            )
        return 1
    return 0


def _run_sweep(specs: list[FamilySpec], args: argparse.Namespace) -> list[dict]:
    from repro.runtime.drift import DriftConfig

    hard_canonical = not args.soft_canonical
    config = StudyConfig(
        n_snapshots=args.snapshots,
        ensemble_size=args.ensemble,
        drift=DriftConfig(canonical_change_is_hard=hard_canonical),
    )
    records: list[dict] = []
    if args.workers and args.workers > 1:
        payloads = [spec.to_payload() for spec in specs]
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            for result in pool.map(
                run_family_payload,
                payloads,
                [args.snapshots] * len(payloads),
                [args.ensemble] * len(payloads),
                [hard_canonical] * len(payloads),
            ):
                records.extend(result["records"])
    else:
        for spec in specs:
            records.extend(run_family_study(spec, config).records())
    return records


def write_study_jsonl(path: str | pathlib.Path, records: Sequence[dict]) -> None:
    """One JSON object per line — the study stream CI uploads."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sitegen",
        description="Parameterized site-family generation and drift lead-time studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    roster = sub.add_parser("roster", help="print the default family roster as JSON")
    _add_roster_args(roster)
    roster.set_defaults(func=cmd_roster)

    generate = sub.add_parser("generate", help="render family archives to HTML files")
    _add_roster_args(generate)
    generate.add_argument(
        "--out", type=pathlib.Path, required=True, help="output directory"
    )
    generate.set_defaults(func=cmd_generate)

    sweep = sub.add_parser("sweep", help="run the drift lead-time study")
    _add_roster_args(sweep)
    sweep.add_argument(
        "--out",
        type=pathlib.Path,
        default=pathlib.Path("sitegen_study.jsonl"),
        help="JSONL study stream (default: %(default)s)",
    )
    sweep.add_argument(
        "--bench",
        type=pathlib.Path,
        default=pathlib.Path(BENCH_FILENAME),
        help="BENCH JSON output (default: %(default)s)",
    )
    sweep.add_argument(
        "--no-bench",
        dest="bench",
        action="store_const",
        const=None,
        help="skip the generation-throughput measurement",
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=0,
        help="process-pool workers for the family fan-out (0 = in-process)",
    )
    sweep.add_argument(
        "--ensemble", type=int, default=3, help="ensemble committee size"
    )
    sweep.add_argument(
        "--soft-canonical",
        action="store_true",
        help="serving-default detector (c-change soft): lead times only, "
        "repairs fire on hard signals alone",
    )
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
