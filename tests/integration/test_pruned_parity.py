"""Pruned-search parity against the golden induction corpus.

``search="pruned"`` trades exhaustiveness for speed, so it is allowed
to pick a *different* best query than the exhaustive default — but
never a meaningfully *worse* one.  This suite re-induces the golden
corpus (both the hand-written single-node tasks and the pinned
generated-family members) under pruned search and enforces the
documented tolerance: the best query's F1 may trail the frozen
exhaustive result by at most ``QUALITY_TOLERANCE``.

It also pins down the two properties the fast path promises:

* pruning actually engages on pages wide enough to need it (the
  counters are non-zero — a silently disabled pruner would pass the
  quality floor trivially);
* pruned search is deterministic: same document + config → identical
  export, run to run and regardless of what was induced before.
"""

import json
import pathlib

import pytest

from repro.induction import prune
from repro.induction.config import InductionConfig
from repro.induction.induce import WrapperInducer
from repro.runtime.corpus import induce_corpus_task, snapshot0_annotation
from repro.sitegen.golden import golden_sitegen_tasks
from repro.sites import single_node_tasks

#: The documented parity tolerance (matched by bench_induction.py and
#: the CI induction-parity step): pruned best-query F1 may trail the
#: frozen exhaustive F1 by at most this much on any golden task.
QUALITY_TOLERANCE = 0.01

GOLDEN_PATH = pathlib.Path(__file__).parent.parent / "golden" / "induction.json"
_GOLDEN_DOC = json.loads(GOLDEN_PATH.read_text())

PRUNED_CONFIG = InductionConfig(search="pruned")

ALL_TASKS = [
    (corpus_task, _GOLDEN_DOC["tasks"][corpus_task.task_id])
    for corpus_task in single_node_tasks()
] + [
    (corpus_task, _GOLDEN_DOC["sitegen_tasks"][corpus_task.task_id])
    for corpus_task in golden_sitegen_tasks()
]


def _f1(tp: int, fp: int, fn: int) -> float:
    denominator = 2 * tp + fp + fn
    return 2 * tp / denominator if denominator else 0.0


@pytest.mark.parametrize(
    "corpus_task,golden", ALL_TASKS, ids=lambda value: getattr(value, "task_id", "")
)
def test_pruned_search_stays_within_tolerance(corpus_task, golden):
    induced = induce_corpus_task(
        corpus_task, WrapperInducer(k=10, config=PRUNED_CONFIG)
    )
    assert induced is not None
    best = induced[0].best
    assert best is not None, f"{corpus_task.task_id}: pruned search found no wrapper"
    frozen_f1 = _f1(golden["tp"], golden["fp"], golden["fn"])
    pruned_f1 = _f1(best.tp, best.fp, best.fn)
    assert pruned_f1 >= frozen_f1 - QUALITY_TOLERANCE, (
        f"{corpus_task.task_id}: pruned best {best.query} has F1 {pruned_f1:.3f}, "
        f"frozen exhaustive F1 is {frozen_f1:.3f} "
        f"(tolerance {QUALITY_TOLERANCE})"
    )


def _wide_annotation():
    """A corpus page wide enough that the stochastic beam engages."""
    for corpus_task in single_node_tasks():
        annotation = snapshot0_annotation(corpus_task)
        if annotation is None:
            continue
        doc, targets = annotation
        inducer = WrapperInducer(k=10, config=PRUNED_CONFIG)
        result = inducer.induce_one(doc, targets)
        if result.stats is not None and result.stats.candidates_pruned:
            return doc, targets
    raise AssertionError("no corpus page engaged the pruner")


class TestPruningEngages:
    def test_counters_are_populated(self):
        doc, targets = _wide_annotation()
        result = WrapperInducer(k=10, config=PRUNED_CONFIG).induce_one(doc, targets)
        assert result.stats is not None
        assert result.stats.search == "pruned"
        assert result.stats.candidates_considered > 0
        assert result.stats.candidates_pruned > 0

    def test_exhaustive_reports_no_pruning(self):
        doc, targets = _wide_annotation()
        result = WrapperInducer(k=10).induce_one(doc, targets)
        assert result.stats is not None
        assert result.stats.search == "exhaustive"
        assert result.stats.candidates_pruned == 0


class TestPrunedDeterminism:
    def test_repeated_runs_are_identical(self):
        doc, targets = _wide_annotation()
        inducer = WrapperInducer(k=10, config=PRUNED_CONFIG)
        first = inducer.induce_one(doc, targets).export()
        for _ in range(2):
            assert inducer.induce_one(doc, targets).export() == first

    def test_independent_of_prior_inductions(self):
        """The pruner must not leak state between documents: inducing
        other tasks first cannot change a task's pruned result."""
        doc, targets = _wide_annotation()
        fresh = WrapperInducer(k=10, config=PRUNED_CONFIG)
        baseline = fresh.induce_one(doc, targets).export()
        busy = WrapperInducer(k=10, config=PRUNED_CONFIG)
        for corpus_task in single_node_tasks(limit=3):
            induce_corpus_task(corpus_task, busy)
        assert busy.induce_one(doc, targets).export() == baseline

    def test_seed_changes_move_the_beam_deterministically(self, monkeypatch):
        doc, targets = _wide_annotation()
        monkeypatch.setattr(prune, "PRUNE_SEED", 7)
        first = WrapperInducer(k=10, config=PRUNED_CONFIG).induce_one(doc, targets)
        second = WrapperInducer(k=10, config=PRUNED_CONFIG).induce_one(doc, targets)
        assert first.export() == second.export()
