"""The archive robustness study (Sec. 6.2 — Figures 3/4, Tables 1/2).

For each task: induce on snapshot 0, then replay the archive at 20-day
intervals and record when each wrapper breaks.  Wrappers compared:

* ``generated`` — our top-ranked induced dsXPath expression
  (optionally also lower ranks, for the Table 1/2 showcases);
* ``manual`` — the expert-written wrapper of the task spec;
* ``canonical`` — the absolute canonical-path baseline.

Break accounting follows the paper:

* ``mismatch`` — the wrapper no longer selects exactly the (logically
  same) targets;
* ``target_removed`` — the data left the page: no wrapper can survive,
  counted as surviving the maximally possible range (group f);
* ``archive_broken`` — an erroneous, structurally broken capture
  (group e);
* ``full_period`` — still correct at the last snapshot (group a).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.baselines.canonical import CanonicalInducer, UnionWrapper
from repro.evolution.archive import SyntheticArchive
from repro.induction import InductionConfig, WrapperInducer
from repro.metrics.robustness import same_result_set
from repro.sites.corpus import CorpusTask
from repro.xpath.canonical import c_changes, canonical_key
from repro.xpath.parser import parse_query


@dataclass
class SurvivalRecord:
    """How long one wrapper stayed correct on one task."""

    task_id: str
    kind: str
    wrapper: str
    valid_days: int
    break_snapshot: Optional[int]
    break_reason: str
    c_changes: int

    @property
    def survived_full(self) -> bool:
        return self.break_reason in ("full_period", "target_removed")


@dataclass
class TaskOutcome:
    task_id: str
    vertical: str
    n_targets: int
    records: dict[str, SurvivalRecord]
    group: str = ""

    def record(self, kind: str) -> SurvivalRecord:
        return self.records[kind]


@dataclass
class StudyResult:
    outcomes: list[TaskOutcome]
    interval_days: int = 20
    n_snapshots: int = 110

    @property
    def max_days(self) -> int:
        return (self.n_snapshots - 1) * self.interval_days

    def records(self, kind: str) -> list[SurvivalRecord]:
        return [o.records[kind] for o in self.outcomes if kind in o.records]

    def valid_days(self, kind: str) -> list[int]:
        return [r.valid_days for r in self.records(kind)]

    def density(self, kind: str, bins: int = 11) -> tuple[np.ndarray, np.ndarray]:
        """(bin centers, density) of survival days — the Fig. 3/4 curves."""
        days = np.asarray(self.valid_days(kind), dtype=float)
        edges = np.linspace(0, self.max_days, bins + 1)
        histogram, _ = np.histogram(days, bins=edges, density=True)
        centers = (edges[:-1] + edges[1:]) / 2
        return centers, histogram

    def group_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.group] = counts.get(outcome.group, 0) + 1
        return counts

    def summary(self, kind: str) -> dict[str, float]:
        days = self.valid_days(kind)
        if not days:
            return {}
        arr = np.asarray(days, dtype=float)
        return {
            "n": len(days),
            "mean_days": float(arr.mean()),
            "median_days": float(np.median(arr)),
            "under_100": int((arr < 100).sum()),
            "between_100_400": int(((arr >= 100) & (arr <= 400)).sum()),
            "over_400": int((arr > 400).sum()),
            "full_period": sum(r.survived_full for r in self.records(kind)),
        }


def _wrapper_from_query(query) -> UnionWrapper:
    return UnionWrapper((query,))


def run_task(
    corpus_task: CorpusTask,
    n_snapshots: int = 110,
    inducer: Optional[WrapperInducer] = None,
    extra_ranks: Sequence[int] = (),
) -> TaskOutcome:
    """Run one task: induce on snapshot 0, replay the archive."""
    spec, task = corpus_task.spec, corpus_task.task
    archive = SyntheticArchive(spec, n_snapshots=n_snapshots)
    interval = archive.interval_days
    doc0 = archive.snapshot(0)
    targets0 = archive.targets(doc0, task.role)
    if not targets0:
        raise ValueError(f"task {task.task_id} has no targets at snapshot 0")

    inducer = inducer or WrapperInducer()
    result = inducer.induce_one(doc0, targets0)
    if result.best is None:
        raise ValueError(f"induction produced no wrapper for {task.task_id}")

    wrappers: dict[str, UnionWrapper] = {
        "generated": _wrapper_from_query(result.best.query),
        "manual": UnionWrapper((parse_query(task.human_wrapper),)),
        "canonical": CanonicalInducer().induce(doc0, targets0),
    }
    for rank in extra_ranks:
        if rank - 1 < len(result.instances):
            wrappers[f"generated_rank{rank}"] = _wrapper_from_query(
                result.instances[rank - 1].query
            )

    alive = dict.fromkeys(wrappers)  # kind -> None while alive
    break_info: dict[str, tuple[int, str]] = {}
    keys = []  # canonical fingerprints of the ground truth, per snapshot

    last_index = 0
    for index in range(1, n_snapshots):
        last_index = index
        if archive.is_broken(index):
            for kind in list(alive):
                break_info[kind] = (index, "archive_broken")
            alive.clear()
            keys.append(None)
            break
        doc = archive.snapshot(index)
        truth = archive.targets(doc, task.role)
        if not truth:
            for kind in list(alive):
                break_info[kind] = (index, "target_removed")
            alive.clear()
            break
        keys.append(canonical_key(truth))
        for kind in list(alive):
            if not same_result_set(wrappers[kind].select(doc), truth):
                break_info[kind] = (index, "mismatch")
                del alive[kind]
        if not alive:
            break

    records: dict[str, SurvivalRecord] = {}
    for kind, wrapper in wrappers.items():
        if kind in break_info:
            snapshot, reason = break_info[kind]
            valid_days = (snapshot - 1) * interval
            changes = c_changes(keys[: snapshot - 1])
        else:
            snapshot, reason = None, "full_period"
            valid_days = (n_snapshots - 1) * interval
            changes = c_changes(keys)
        records[kind] = SurvivalRecord(
            task_id=task.task_id,
            kind=kind,
            wrapper=str(wrapper),
            valid_days=valid_days,
            break_snapshot=snapshot,
            break_reason=reason,
            c_changes=changes,
        )

    outcome = TaskOutcome(
        task_id=task.task_id,
        vertical=spec.vertical,
        n_targets=len(targets0),
        records=records,
    )
    outcome.group = _classify_group(records)
    return outcome


def _classify_group(records: dict[str, SurvivalRecord]) -> str:
    """The paper's break groups (a)–(f)."""
    generated = records["generated"]
    manual = records["manual"]
    if generated.break_reason == "archive_broken" or manual.break_reason == "archive_broken":
        return "e"
    if generated.break_reason == "target_removed" and manual.break_reason == "target_removed":
        return "f"
    if generated.break_reason == "full_period" and manual.break_reason == "full_period":
        return "a"
    if generated.break_snapshot is not None and generated.break_snapshot == manual.break_snapshot:
        return "b"
    if generated.valid_days > manual.valid_days:
        return "c"
    if generated.valid_days < manual.valid_days:
        return "d"
    return "b"


def run_study(
    tasks: Sequence[CorpusTask],
    n_snapshots: int = 110,
    inducer: Optional[WrapperInducer] = None,
    extra_ranks: Sequence[int] = (),
) -> StudyResult:
    """Run the robustness study over a task set."""
    outcomes = [
        run_task(task, n_snapshots=n_snapshots, inducer=inducer, extra_ranks=extra_ranks)
        for task in tasks
    ]
    return StudyResult(outcomes=outcomes, n_snapshots=n_snapshots)
