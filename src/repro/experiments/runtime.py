"""Induction running time (Sec. 6 intro).

The paper reports a median of 1.4 s for single-node induction, with a
range from milliseconds to seconds.  This harness times the inducer on
corpus tasks and reports the distribution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.evolution.archive import SyntheticArchive
from repro.induction import WrapperInducer
from repro.sites.corpus import CorpusTask, single_node_tasks


@dataclass
class RuntimeStats:
    n: int
    median_s: float
    mean_s: float
    min_s: float
    max_s: float
    per_task: list[tuple[str, float]]


def measure_induction_runtime(
    tasks: Optional[Sequence[CorpusTask]] = None,
    limit: int = 20,
    inducer: Optional[WrapperInducer] = None,
) -> RuntimeStats:
    tasks = list(tasks) if tasks is not None else single_node_tasks(limit=limit)
    tasks = tasks[:limit]
    inducer = inducer or WrapperInducer()
    timings: list[tuple[str, float]] = []
    for corpus_task in tasks:
        archive = SyntheticArchive(corpus_task.spec, n_snapshots=1)
        doc = archive.snapshot(0)
        targets = archive.targets(doc, corpus_task.task.role)
        if not targets:
            continue
        started = time.perf_counter()
        inducer.induce_one(doc, targets)
        timings.append((corpus_task.task_id, time.perf_counter() - started))
    values = np.asarray([t for _, t in timings]) if timings else np.asarray([0.0])
    return RuntimeStats(
        n=len(timings),
        median_s=float(np.median(values)),
        mean_s=float(values.mean()),
        min_s=float(values.min()),
        max_s=float(values.max()),
        per_task=timings,
    )
