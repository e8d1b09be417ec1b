"""``python -m repro.runtime`` — the wrapper lifecycle CLI.

Six subcommands drive the save → serve → drift → repair loop over the
synthetic archive corpus.  Every path they take is the root of a
sharded artifact store (:mod:`repro.runtime.store`); :func:`_open_store`
says when one is created:

* ``induce`` — induce wrappers for corpus tasks at snapshot 0 and put
  them into the store at ``--store``;
* ``extract`` — load a store's artifacts, render a later snapshot of
  every covered site, and run the per-page extraction kernel in process
  over all (wrapper, page) pairs;
* ``check`` — replay each wrapper across archive snapshots on the
  sweep's loop, report the first drift (signals + snapshot), and
  optionally auto-repair by re-induction from the stored samples
  (``--repair``, with ``--out`` naming a store for the repaired
  generations);
* ``serve`` — serve the :mod:`repro.api` facade over HTTP
  (``--listen HOST:PORT``), with extraction traffic going through the
  async serving layer (micro-batching + parse cache + backpressure);
* ``sweep`` — run the multi-process drift fleet over a sharded store:
  full telemetry streams, repair chains, repaired generations written
  back;
* ``migrate`` — re-shard a store into a new root at the next placement
  epoch (atomic per-artifact cut-over, ``--dry-run`` move plan) so a
  cluster can change shape without restarts losing data.

Exit codes (``check`` and ``sweep``, one rule): 0 = no drift detected;
1 = drift detected; 3 = drift detected and at least one repair failed
(human re-annotation required).  2 = usage or setup error on every
subcommand (a bad flag, no store, no artifacts, an unknown site), with
the message on stderr.  ``sweep --fail-on`` relaxes the gate for
telemetry jobs that *expect* drift.

All output is deterministic for a fixed corpus seed, so the CLI doubles
as a smoke harness.  See docs/RUNTIME.md for examples.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Optional, Sequence

from repro.cluster.placement import PlacementError, qualify_key, validate_tenant
from repro.dom.serialize import to_html
from repro.evolution.archive import SyntheticArchive
from repro.induction import InductionConfig, WrapperInducer
from repro.runtime.artifact import ArtifactError, WrapperArtifact
from repro.runtime.corpus import induce_corpus_task
from repro.runtime.drift import DriftConfig, reinduce
from repro.runtime.extractor import extract_records, jobs_for_artifacts
from repro.runtime.fleet import SweepConfig, sweep_store, sweep_wrapper
from repro.runtime.store import DEFAULT_SHARDS, ShardedArtifactStore, StoreError, migrate_store
from repro.sites.corpus import CorpusTask, multi_node_tasks, single_node_tasks

#: Exit codes shared by ``check`` and ``sweep`` (2 is argparse's, used
#: for setup errors too — see :func:`main`).
EXIT_OK = 0
EXIT_DRIFT = 1
EXIT_REPAIR_FAILED = 3


def _exit_code(drifted: int, repair_failures: int, fail_on: str) -> int:
    """The one ``check``/``sweep`` exit rule (``check`` is ``sweep
    --fail-on drift``)."""
    if repair_failures and fail_on in ("drift", "repair"):
        return EXIT_REPAIR_FAILED
    if drifted and fail_on == "drift":
        return EXIT_DRIFT
    return EXIT_OK


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


_COUNT = _at_least(1)
_INDEX = _at_least(0)  # snapshot indexes, epochs, 0-means-off limits
_SNAPSHOTS = _at_least(2)  # snapshot 0 is the induction page


def _corpus_tasks(include_multi: bool) -> list[CorpusTask]:
    tasks = single_node_tasks()
    if include_multi:
        tasks += multi_node_tasks()
    return tasks


def _open_store(
    path: str, *, create: bool = False, n_shards: Optional[int] = None
) -> ShardedArtifactStore:
    """The store at ``path``; how every subcommand opens one.

    Reading commands (``extract``, ``check``, ``sweep``) need an existing
    store.  Writing commands (``induce``, ``check --out``, ``serve
    --artifacts``) pass ``create`` and may also make one, but only at a
    missing path or in an empty directory, so a directory of other files
    never becomes an empty store.  A refusal or a bad store exits 2.
    """
    root = pathlib.Path(path)
    if not ShardedArtifactStore.is_store(root):
        if not create:
            raise SystemExit(
                f"{root} is not a sharded artifact store "
                "(create one with 'induce --store')"
            )
        if root.exists() and (not root.is_dir() or any(root.iterdir())):
            raise SystemExit(
                f"{root} is not a sharded artifact store and not empty; "
                "a store is created only at a missing path or in an empty directory"
            )
    try:
        return ShardedArtifactStore(root, n_shards=n_shards)
    except StoreError as exc:
        raise SystemExit(str(exc))


def _load_artifacts(store: ShardedArtifactStore) -> list[WrapperArtifact]:
    """Every artifact in ``store``; none, or a corrupt one, exits 2."""
    try:
        artifacts = list(store.scan())
    except (ArtifactError, StoreError) as exc:
        raise SystemExit(f"{store.root}: {exc}")
    if not artifacts:
        raise SystemExit(f"no artifacts found in {store.root}")
    return artifacts


def _site_specs(artifacts: Sequence[WrapperArtifact]):
    from repro.sites.corpus import build_corpus

    by_id = {spec.site_id: spec for spec in build_corpus()}
    missing = sorted({a.site_id for a in artifacts} - by_id.keys())
    if missing:
        raise SystemExit(f"unknown site ids in artifacts: {', '.join(missing)}")
    return by_id


def _validated_tenant(args: argparse.Namespace) -> str:
    """Fail fast on a malformed --tenant, before any work happens."""
    try:
        return validate_tenant(args.tenant)
    except PlacementError as exc:
        raise SystemExit(str(exc))


def cmd_induce(args: argparse.Namespace) -> int:
    _validated_tenant(args)
    try:
        config = InductionConfig(k=args.k)
    except ValueError as exc:
        raise SystemExit(f"--k: {exc}")
    tasks = _corpus_tasks(args.multi)
    if args.task:
        wanted = set(args.task)
        tasks = [t for t in tasks if t.task_id in wanted]
        unknown = wanted - {t.task_id for t in tasks}
        if unknown:
            raise SystemExit(f"unknown task ids: {', '.join(sorted(unknown))}")
    if args.limit is not None:
        tasks = tasks[: args.limit]
    # n_shards=None lets an existing store keep its recorded shard
    # count; a new store gets --shards (or the default).
    store = _open_store(args.store, create=True, n_shards=args.shards)

    inducer = WrapperInducer(config)
    started = time.perf_counter()
    written = 0
    for corpus_task in tasks:
        spec, task = corpus_task.spec, corpus_task.task
        induced = induce_corpus_task(corpus_task, inducer)
        if induced is None:
            print(f"skip  {task.task_id}: no targets at snapshot 0")
            continue
        result, sample = induced
        artifact = WrapperArtifact.from_induction(
            result,
            [sample],
            task_id=qualify_key(task.task_id, args.tenant),
            site_id=spec.site_id,
            role=task.role,
            ensemble_size=args.ensemble_size,
            provenance={
                "url": spec.url,
                "vertical": spec.vertical,
                "snapshot": 0,
                "n_targets": len(sample.targets),
            },
            config=config,
        )
        store.put(artifact)
        written += 1
        best = artifact.best
        print(
            f"saved {task.task_id}: {best.text}  "
            f"[score={best.score:g} tp={best.tp} fp={best.fp} fn={best.fn}]"
        )
    elapsed = time.perf_counter() - started
    print(f"\n{written} artifacts written to {store.root} in {elapsed:.2f}s")
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    artifacts = _load_artifacts(_open_store(args.artifacts))
    specs = _site_specs(artifacts)
    site_ids = sorted({a.site_id for a in artifacts})
    page_html = {}
    for site_id in site_ids:
        archive = SyntheticArchive(specs[site_id], n_snapshots=args.snapshot + 1)
        if archive.is_broken(args.snapshot):
            print(f"skip  {site_id}: snapshot {args.snapshot} is a broken capture")
            continue
        page_html[site_id] = to_html(archive.snapshot(args.snapshot))
    jobs = jobs_for_artifacts(
        artifacts, page_html, include_ensemble=not args.no_ensemble
    )
    pairs = sum(len(job.wrappers) for job in jobs)
    started = time.perf_counter()
    records = extract_records(jobs)
    elapsed = time.perf_counter() - started

    empty = sum(record.is_empty for record in records)
    for record in records:
        preview = "; ".join(record.values[:2])
        if len(preview) > 60:
            preview = preview[:57] + "..."
        print(f"{record.page_id}  {record.wrapper_id}: {record.count} node(s)  {preview}")
    print(
        f"\n{pairs} (wrapper, page) pairs over {len(jobs)} pages "
        f"in {elapsed:.2f}s; {empty} empty results"
    )
    if args.json:
        payload = [
            {
                "page_id": r.page_id,
                "wrapper_id": r.wrapper_id,
                "paths": list(r.paths),
                "values": list(r.values),
            }
            for r in records
        ]
        pathlib.Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"records written to {args.json}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    source = _open_store(args.artifacts)
    artifacts = _load_artifacts(source)
    specs = _site_specs(artifacts)
    repaired_store = None
    if args.repair and args.out:
        repaired_store = _open_store(args.out, create=True, n_shards=source.n_shards)
    config = SweepConfig(
        n_snapshots=args.snapshots,
        repair=False,
        drift=DriftConfig(canonical_change_is_hard=args.strict_canonical),
    )
    drifted = repaired = failed = 0
    archives: dict[str, SyntheticArchive] = {}  # co-located tasks share
    for artifact in artifacts:
        archive = archives.get(artifact.site_id)
        if archive is None:
            archive = SyntheticArchive(specs[artifact.site_id], n_snapshots=args.snapshots)
            archives[artifact.site_id] = archive
        outcome, _, _ = sweep_wrapper(artifact, archive, config)
        if not outcome.drifted:
            print(f"ok    {artifact.task_id}: healthy over {outcome.checked} snapshots")
            continue
        drifted += 1
        (snapshot,) = outcome.drift_snapshots
        line = f"DRIFT {artifact.task_id} @ snapshot {snapshot} [{','.join(outcome.signals)}]"
        if args.repair:
            try:
                fixed = reinduce(artifact, archive.snapshot(snapshot), snapshot=snapshot)
            except ArtifactError as exc:
                failed += 1
                line += f" -> repair failed: {exc}"
            else:
                repaired += 1
                line += f" -> repaired (gen {fixed.generation}): {fixed.best.text}"
                if repaired_store is not None:
                    repaired_store.put(fixed)
        print(line)
    print(
        f"\n{len(artifacts)} wrappers checked over {args.snapshots - 1} snapshots: "
        f"{drifted} drifted"
        + (f", {repaired} repaired, {failed} need re-annotation" if args.repair else "")
    )
    return _exit_code(drifted, failed, "drift")


def _parse_listen(value: str) -> tuple[str, int]:
    host, _, port_text = value.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        port = -1
    if not host or not 0 <= port <= 65535:
        raise SystemExit(f"--listen wants HOST:PORT, got {value!r}")
    return host, port


def _client_for_listen(path: Optional[str], tenant: str = ""):
    """The network server's backend: the store at ``path`` (created at a
    missing path or in an empty directory), or a fresh in-memory
    registry when no path is given."""
    from repro.api.client import WrapperClient

    store = _open_store(path, create=True) if path is not None else None
    return WrapperClient(store=store, tenant=tenant)


def _serve_ownership(args: argparse.Namespace, client):
    """The shard group this host answers for (``--own-shards``), sized
    against the store's recorded shard count when one backs the server."""
    from repro.cluster.placement import PlacementError, ShardOwnership

    if client.store is not None:
        n_shards = client.store.n_shards
        if args.shards is not None and args.shards != n_shards:
            raise SystemExit(
                f"--shards {args.shards} conflicts with the store's "
                f"{n_shards} shards (placement follows the store)"
            )
    else:
        n_shards = args.shards if args.shards is not None else DEFAULT_SHARDS
    if not args.own_shards:
        return None
    try:
        return ShardOwnership.parse(args.own_shards, n_shards)
    except PlacementError as exc:
        raise SystemExit(str(exc))


def _serve_hardening(args: argparse.Namespace):
    """Auth table / quota / access log from the hardening flags
    (``--auth-keys`` falls back to ``REPRO_AUTH_KEYS``; everything
    defaults to off — a plain launch is the seed-era open server)."""
    import os

    from repro.runtime.auth import AccessLog, ApiKeyTable, AuthConfigError, QuotaConfig

    auth = None
    keys_path = args.auth_keys or os.environ.get("REPRO_AUTH_KEYS", "")
    if keys_path:
        try:
            auth = ApiKeyTable.from_file(keys_path)
        except AuthConfigError as exc:
            raise SystemExit(str(exc))
    quota = None
    if args.rate_limit or args.max_inflight:
        try:
            quota = QuotaConfig(
                rate=args.rate_limit,
                burst=args.burst,
                max_inflight=args.max_inflight,
            )
        except AuthConfigError as exc:
            raise SystemExit(str(exc))
    access_log = AccessLog.open(args.access_log) if args.access_log else None
    return auth, quota, access_log


def cmd_serve(args: argparse.Namespace) -> int:
    """``serve --listen HOST:PORT`` — the facade over TCP."""
    import asyncio
    import contextlib
    import signal

    from repro.runtime.net import NetConfig, serve_http

    host, port = _parse_listen(args.listen)
    auth, quota, access_log = _serve_hardening(args)
    client = _client_for_listen(args.artifacts, tenant=_validated_tenant(args))
    ownership = _serve_ownership(args, client)
    # The placement epoch this host serves at: --epoch wins, a backing
    # store's recorded epoch is the natural default (a migrated store
    # carries its new epoch with it), a fresh registry starts at 0.
    if args.epoch is not None:
        epoch = args.epoch
    else:
        epoch = client.store.epoch if client.store is not None else 0
    config = NetConfig(auth=auth, quota=quota, access_log=access_log)

    def ready(bound_host: str, bound_port: int) -> None:
        backend = "store " + str(client.store.root) if client.store else "in-memory registry"
        shards = (
            f", owning shards {args.own_shards} of {ownership.n_shards}"
            if ownership is not None
            else ""
        )
        namespace = f", tenant {client.tenant}" if client.tenant else ""
        hardening = f", auth ({len(auth)} key(s))" if auth is not None else ""
        if quota is not None:
            hardening += (
                f", quotas (rate={quota.rate:g}/s, "
                f"inflight={quota.max_inflight or 'off'})"
            )
        print(
            f"listening on {bound_host}:{bound_port} "
            f"({len(client)} wrapper(s), {backend}{shards}{namespace}, "
            f"epoch {epoch}{hardening})",
            flush=True,
        )

    async def serve() -> None:
        # SIGINT cancels this task from the event loop: Python 3.10's
        # default handler raises KeyboardInterrupt inside whichever task
        # runs, and a connection handler hit that way prints a traceback.
        with contextlib.suppress(NotImplementedError):  # no loop signals on Windows
            asyncio.get_running_loop().add_signal_handler(
                signal.SIGINT, asyncio.current_task().cancel
            )
        await serve_http(
            client, host, port, config=config, ready=ready, ownership=ownership, epoch=epoch
        )

    try:
        asyncio.run(serve())
    except (KeyboardInterrupt, asyncio.CancelledError):
        print("shutting down")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    store = _open_store(args.store)
    config = SweepConfig(
        n_snapshots=args.snapshots,
        repair=not args.no_repair,
        workers=args.workers,
        drift=DriftConfig(canonical_change_is_hard=args.strict_canonical),
    )
    started = time.perf_counter()
    try:
        summary = sweep_store(store, config)
    except StoreError as exc:
        raise SystemExit(str(exc))
    elapsed = time.perf_counter() - started
    for wrapper in summary.wrappers:
        if not wrapper.drifted:
            print(f"ok    {wrapper.task_id}: healthy over {wrapper.checked} snapshots")
            continue
        snapshots = ",".join(str(s) for s in wrapper.drift_snapshots)
        line = (
            f"DRIFT {wrapper.task_id} @ snapshot(s) {snapshots} "
            f"[{','.join(wrapper.signals)}]"
        )
        if wrapper.repairs:
            line += f" -> repaired x{wrapper.repairs} (gen {wrapper.final_generation})"
        if wrapper.repair_failed:
            line += f" -> repair failed: {wrapper.repair_error}"
        print(line)
    print(
        f"\n{len(summary.wrappers)} wrappers, {summary.checked} checks over "
        f"{summary.n_snapshots - 1} snapshots with {summary.workers} worker(s) "
        f"in {elapsed:.2f}s: {summary.drifted} drifted, {summary.repaired} repairs, "
        f"{summary.repair_failures} need re-annotation"
    )
    print(f"telemetry: {len(store.report_paths())} report streams under {store.root}")
    return _exit_code(summary.drifted, summary.repair_failures, args.fail_on)


def cmd_migrate(args: argparse.Namespace) -> int:
    """``migrate`` — re-shard a store into a new root at the next epoch."""
    try:
        plan = migrate_store(
            args.store,
            args.dest,
            n_shards=args.shards,
            epoch=args.epoch,
            dry_run=args.dry_run,
        )
    except StoreError as exc:
        raise SystemExit(str(exc))
    verb = "would move" if plan.dry_run else "moved"
    for move in plan.moves:
        marker = "->" if move.moved else "=="
        print(
            f"{verb:>10}  {move.task_id}: shard {move.src_shard:02d} "
            f"{marker} shard {move.dest_shard:02d}"
        )
    print(
        f"\n{'DRY RUN: ' if plan.dry_run else ''}"
        f"{len(plan.moves)} artifact(s) ({plan.n_moved} re-placed), "
        f"{plan.report_streams} telemetry stream(s): "
        f"{plan.src_root} [{plan.src_shards} shards, epoch {plan.src_epoch}] -> "
        f"{plan.dest_root} [{plan.dest_shards} shards, epoch {plan.dest_epoch}]"
    )
    if not plan.dry_run:
        print(
            "cut over by relaunching hosts against the new root with "
            f"--epoch {plan.dest_epoch}; stale clients refresh on the "
            "first 421 that names the new epoch"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime",
        description=(
            "Wrapper lifecycle runtime: induce, extract, drift-check, "
            "serve over HTTP, fleet-sweep, migrate."
        ),
        epilog=(
            "exit codes for check/sweep: 0 = no drift, 1 = drift detected, "
            "3 = drift with failed repairs; 2 = usage or setup error"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    induce = sub.add_parser("induce", help="induce corpus wrappers into a sharded store")
    induce.add_argument("--store", required=True, help="sharded artifact store root")
    induce.add_argument(
        "--shards",
        type=_COUNT,
        default=None,
        help=(
            f"shard count when creating a new store (default: {DEFAULT_SHARDS}); "
            "reopening an existing store reads its recorded shard count"
        ),
    )
    induce.add_argument(
        "--tenant",
        default="",
        help="write artifacts into this tenant's namespace (tenant::task-id)",
    )
    induce.add_argument("--task", action="append", help="task id (repeatable); default: all")
    induce.add_argument("--limit", type=_COUNT, default=None, help="max tasks")
    induce.add_argument("--multi", action="store_true", help="include multi-node tasks")
    induce.add_argument("--k", type=_COUNT, default=10, help="K-best table size")
    induce.add_argument("--ensemble-size", type=_COUNT, default=3)
    induce.set_defaults(func=cmd_induce)

    extract = sub.add_parser("extract", help="extract artifacts against a snapshot")
    extract.add_argument("--artifacts", required=True, help="sharded artifact store root")
    extract.add_argument("--snapshot", type=_INDEX, default=0, help="archive snapshot index")
    extract.add_argument("--no-ensemble", action="store_true", help="top queries only")
    extract.add_argument("--json", help="write extraction records to this file")
    extract.set_defaults(func=cmd_extract)

    check = sub.add_parser("check", help="replay snapshots, report drift, optionally repair")
    check.add_argument("--artifacts", required=True, help="sharded artifact store root")
    check.add_argument("--snapshots", type=_SNAPSHOTS, default=20, help="snapshots to replay")
    check.add_argument("--repair", action="store_true", help="auto re-induce on drift")
    check.add_argument("--out", help="store root for repaired artifacts (with --repair)")
    check.add_argument(
        "--strict-canonical",
        action="store_true",
        help="treat canonical-path changes as drift",
    )
    check.set_defaults(func=cmd_check)

    serve = sub.add_parser(
        "serve", help="serve the repro.api facade over HTTP (--listen HOST:PORT)"
    )
    serve.add_argument(
        "--listen",
        metavar="HOST:PORT",
        required=True,
        help="address to serve on (port 0 picks an ephemeral port, printed on start)",
    )
    serve.add_argument(
        "--artifacts",
        help=(
            "store root to serve (created at a missing path or in an empty "
            "directory); omit for a fresh in-memory registry"
        ),
    )
    serve.add_argument(
        "--own-shards",
        metavar="N,M,...",
        help=(
            "serve only these shard indexes, answering a typed 421 "
            "shard_not_owned error for keys that place elsewhere "
            "(cluster members behind a RouterClient)"
        ),
    )
    serve.add_argument(
        "--shards",
        type=_COUNT,
        default=None,
        help=(
            "total shard count --own-shards is relative to (default: the "
            f"backing store's recorded count, else {DEFAULT_SHARDS})"
        ),
    )
    serve.add_argument(
        "--tenant",
        default="",
        help=(
            "scope the server into one tenant namespace (site keys are "
            "qualified as tenant::key)"
        ),
    )
    serve.add_argument(
        "--epoch",
        type=_INDEX,
        default=None,
        help=(
            "the placement epoch this host serves at, advertised in "
            "/healthz and stamped into 421 payloads (default: the backing "
            "store's recorded epoch, else 0)"
        ),
    )
    serve.add_argument(
        "--auth-keys",
        metavar="FILE",
        default="",
        help=(
            "enforce per-tenant API keys from this file (one "
            "'<key> [tenant]' per line, '*' = admin; falls back to "
            "$REPRO_AUTH_KEYS; omit both for an open server)"
        ),
    )
    serve.add_argument(
        "--rate-limit",
        type=float,
        default=0.0,
        metavar="R",
        help=(
            "per-tenant token-bucket rate in requests/s (0 = unlimited); "
            "throttled requests get 429 + Retry-After"
        ),
    )
    serve.add_argument(
        "--burst",
        type=_INDEX,
        default=0,
        metavar="N",
        help="token-bucket capacity (default: one second of --rate-limit refill)",
    )
    serve.add_argument(
        "--max-inflight",
        type=_INDEX,
        default=0,
        metavar="N",
        help="cap on one tenant's concurrent in-flight requests (0 = unlimited)",
    )
    serve.add_argument(
        "--access-log",
        metavar="FILE",
        default="",
        help=(
            "append one JSONL record per answered request (tenant, verb, "
            "status, latency_ms)"
        ),
    )
    serve.set_defaults(func=cmd_serve)

    sweep = sub.add_parser(
        "sweep", help="multi-process drift sweep over a sharded store"
    )
    sweep.add_argument("--store", required=True, help="sharded artifact store root")
    sweep.add_argument("--snapshots", type=_SNAPSHOTS, default=20, help="snapshots to replay")
    sweep.add_argument("--workers", type=_COUNT, default=1, help="sweep processes")
    sweep.add_argument(
        "--no-repair", action="store_true", help="detect only, do not re-induce"
    )
    sweep.add_argument(
        "--strict-canonical",
        action="store_true",
        help="treat canonical-path changes as drift",
    )
    sweep.add_argument(
        "--fail-on",
        choices=("drift", "repair", "never"),
        default="drift",
        help=(
            "exit non-zero on any drift (drift), only on failed repairs "
            "(repair — for telemetry jobs that expect drift), or never"
        ),
    )
    sweep.set_defaults(func=cmd_sweep)

    migrate = sub.add_parser(
        "migrate",
        help=(
            "re-shard a sharded store into a new root at the next epoch "
            "(atomic per-artifact cut-over; --dry-run prints the move plan)"
        ),
    )
    migrate.add_argument("--store", required=True, help="source store root")
    migrate.add_argument("--dest", required=True, help="destination store root")
    migrate.add_argument(
        "--shards",
        type=_COUNT,
        default=None,
        help="destination shard count (default: same as the source store)",
    )
    migrate.add_argument(
        "--epoch",
        type=_INDEX,
        default=None,
        help=(
            "destination placement epoch (default: source epoch + 1; "
            "must advance the source epoch)"
        ),
    )
    migrate.add_argument(
        "--dry-run",
        action="store_true",
        help="print the per-artifact move plan without writing anything",
    )
    migrate.set_defaults(func=cmd_migrate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        if not isinstance(exc.code, str):
            raise
        # A setup error (no artifacts, not a store, an unknown site, ...)
        # exits like a usage error, so exit 1 always means drift.
        print(exc.code, file=sys.stderr)
        raise SystemExit(2) from None


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
