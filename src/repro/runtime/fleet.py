"""Multi-process drift-check fleet over a sharded artifact store.

:func:`sweep_wrapper` is the one archive-replay loop.  ``python -m
repro.runtime check`` runs it in one process over an artifact directory
and stops each wrapper at its *first* drift.  The fleet is the
continuous-operations version of that loop:

* **sharded work assignment** — each worker process owns whole store
  shards (``ShardedArtifactStore`` partitions by site key, so a site's
  wrappers — and their archive — never split across workers), reopens
  the store read-only by path, and never touches another worker's
  files;
* **full-stream telemetry** — every (wrapper, snapshot) check emits a
  :class:`~repro.runtime.drift.DriftReport`, *including* the soft
  c-change signals and the per-member ensemble vote the detector
  already computes; the stream is appended as JSONL under the store
  (``<shard>/reports/<task>.jsonl``) for the ROADMAP's drift lead-time
  study;
* **repair chains** — on hard drift the worker calls
  :func:`~repro.runtime.drift.reinduce` and *keeps sweeping with the
  repaired generation*, so one sweep over a long archive records
  multi-generation repair chains (gen 0 breaks at snapshot 7, gen 1 at
  19, ...), and writes each repaired generation back with
  ``store.put`` (atomic, so a concurrently serving process flips to
  the new generation cleanly).

Workers rebuild the synthetic corpus locally by site id — site specs
hold closures and do not pickle; only paths, the config, frozen
:class:`WrapperSweep` outcomes and unknown-site messages cross process
boundaries.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.evolution.archive import SyntheticArchive
from repro.runtime.artifact import ArtifactError, WrapperArtifact
from repro.runtime.drift import DriftConfig, DriftDetector, DriftReport, reinduce
from repro.runtime.store import ShardedArtifactStore, StoreError


@dataclass(frozen=True)
class SweepConfig:
    """One sweep's shape.

    ``n_snapshots`` replays snapshots ``1 .. n_snapshots - 1`` (snapshot
    0 is the induction page).  ``repair`` re-induces on hard drift and
    continues with the repaired wrapper; without it the wrapper's sweep
    stops at its first drift.  ``workers`` processes split the store's
    shards.  ``drift`` forwards detector thresholds.
    """

    n_snapshots: int = 20
    repair: bool = True
    workers: int = 1
    drift: DriftConfig = field(default_factory=DriftConfig)

    def __post_init__(self) -> None:
        if self.n_snapshots < 2:
            raise ValueError("a sweep needs at least snapshots 0 and 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class WrapperSweep:
    """Outcome of sweeping one wrapper across the archive."""

    task_id: str
    site_id: str
    checked: int
    drift_snapshots: tuple[int, ...]
    signals: tuple[str, ...]
    final_generation: int
    repairs: int
    repair_error: str = ""

    @property
    def drifted(self) -> bool:
        return bool(self.drift_snapshots)

    @property
    def repair_failed(self) -> bool:
        return bool(self.repair_error)


@dataclass(frozen=True)
class SweepSummary:
    """Fleet-level rollup of one sweep."""

    wrappers: tuple[WrapperSweep, ...]
    n_snapshots: int
    workers: int

    @property
    def checked(self) -> int:
        return sum(w.checked for w in self.wrappers)

    @property
    def drifted(self) -> int:
        return sum(1 for w in self.wrappers if w.drifted)

    @property
    def repaired(self) -> int:
        return sum(w.repairs for w in self.wrappers)

    @property
    def repair_failures(self) -> int:
        return sum(1 for w in self.wrappers if w.repair_failed)


def report_line(report: DriftReport, generation: int) -> dict:
    """One JSONL telemetry line for a (wrapper, snapshot) check."""
    return {
        "task_id": report.task_id,
        "snapshot": report.snapshot,
        "generation": generation,
        "signals": list(report.signals),
        "drifted": report.drifted,
        "result_count": report.result_count,
        "disagreeing_members": report.disagreeing_members,
        "member_count": report.member_count,
    }


def sweep_wrapper(
    artifact: WrapperArtifact,
    archive: SyntheticArchive,
    config: SweepConfig,
    detector: Optional[DriftDetector] = None,
) -> tuple[WrapperSweep, list[dict], Optional[WrapperArtifact]]:
    """Sweep one wrapper over its archive, repairing as it goes.

    Returns the per-wrapper outcome, the full telemetry stream, and the
    final artifact generation when a repair happened (``None`` when the
    stored generation is still current).
    """
    detector = detector or DriftDetector(config.drift)
    current = artifact
    lines: list[dict] = []
    drift_snapshots: list[int] = []
    signals: list[str] = []
    repairs = 0
    repair_error = ""
    checked = 0
    for index in range(1, config.n_snapshots):
        if archive.is_broken(index):
            continue
        doc = archive.snapshot(index)
        report = detector.check(current, doc, snapshot=index)
        checked += 1
        lines.append(report_line(report, current.generation))
        if not report.drifted:
            continue
        drift_snapshots.append(index)
        signals.extend(s for s in report.signals if s not in signals)
        if not config.repair:
            break
        try:
            current = reinduce(current, doc, snapshot=index)
            repairs += 1
        except ArtifactError as exc:
            repair_error = str(exc)
            break
    outcome = WrapperSweep(
        task_id=artifact.task_id,
        site_id=artifact.site_id,
        checked=checked,
        drift_snapshots=tuple(drift_snapshots),
        signals=tuple(signals),
        final_generation=current.generation,
        repairs=repairs,
        repair_error=repair_error,
    )
    return outcome, lines, (current if repairs else None)


def _site_archives() -> dict:
    """site_id → spec for the synthetic corpus (built in each worker —
    specs hold closures and cannot cross process boundaries)."""
    from repro.sites.corpus import build_corpus

    return {spec.site_id: spec for spec in build_corpus()}


def _sweep_shards(
    store_root: str, shard_indexes: Sequence[int], config: SweepConfig
) -> tuple[list[WrapperSweep], list[str]]:
    """Worker: sweep every wrapper in the assigned shards.

    Owns its shards end to end — appends the telemetry streams and puts
    repaired generations back itself (both are shard-local files, and
    ``put`` publishes atomically).  Returns the outcomes and one message
    per wrapper whose site the corpus does not know.
    """
    store = ShardedArtifactStore(store_root)
    specs = _site_archives()
    detector = DriftDetector(config.drift)
    archives: dict[str, SyntheticArchive] = {}
    outcomes: list[WrapperSweep] = []
    errors: list[str] = []
    for shard in shard_indexes:
        for task_id in store.shard_task_ids(shard):
            artifact = store.get(task_id)
            spec = specs.get(artifact.site_id)
            if spec is None:
                errors.append(f"{task_id}: unknown site id {artifact.site_id!r}")
                continue
            archive = archives.get(artifact.site_id)
            if archive is None:
                archive = SyntheticArchive(spec, n_snapshots=config.n_snapshots)
                archives[artifact.site_id] = archive
            outcome, lines, repaired = sweep_wrapper(
                artifact, archive, config, detector
            )
            store.append_reports(task_id, lines)
            if repaired is not None:
                store.put(repaired)
            outcomes.append(outcome)
    return outcomes, errors


def _assign_shards(n_shards: int, workers: int) -> list[list[int]]:
    """Round-robin whole shards over workers (never split a shard)."""
    groups: list[list[int]] = [[] for _ in range(min(workers, n_shards))]
    for shard in range(n_shards):
        groups[shard % len(groups)].append(shard)
    return groups


def sweep_store(
    store: ShardedArtifactStore | str | os.PathLike,
    config: Optional[SweepConfig] = None,
) -> SweepSummary:
    """Sweep every wrapper in the store for drift; repair and persist.

    With ``config.workers > 1`` whole shards fan out over a process
    pool; each worker writes only its own shards' files, so the sweep
    needs no locks.  Raises :class:`StoreError` when any wrapper names a
    site the corpus does not know (a store/corpus mismatch is an
    operational bug, not a drift signal).
    """
    config = config or SweepConfig()
    if not isinstance(store, ShardedArtifactStore):
        store = ShardedArtifactStore(store)
    root = str(store.root)
    groups = _assign_shards(store.n_shards, config.workers)
    if len(groups) <= 1:
        parts = [_sweep_shards(root, groups[0] if groups else [], config)]
    else:
        with ProcessPoolExecutor(max_workers=len(groups)) as pool:
            parts = list(
                pool.map(
                    _sweep_shards,
                    [root] * len(groups),
                    groups,
                    [config] * len(groups),
                )
            )
    errors = [error for _, part_errors in parts for error in part_errors]
    if errors:
        raise StoreError(f"sweep aborted: {'; '.join(errors)}")
    wrappers = tuple(
        sorted(
            (outcome for outcomes, _ in parts for outcome in outcomes),
            key=lambda w: w.task_id,
        )
    )
    return SweepSummary(
        wrappers=wrappers, n_snapshots=config.n_snapshots, workers=len(groups)
    )


__all__ = [
    "SweepConfig",
    "SweepSummary",
    "WrapperSweep",
    "report_line",
    "sweep_store",
    "sweep_wrapper",
]
