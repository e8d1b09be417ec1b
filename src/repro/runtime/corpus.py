"""The one canonical way to seed corpus wrappers at snapshot 0.

The CLI, the golden regression corpus, the runtime benchmark fleet, and
tests all induce corpus-task wrappers the same way; this module is the
single copy of that recipe so they cannot drift apart (same inducer
defaults, same no-targets handling, same sample construction).
"""

from __future__ import annotations

from typing import Optional

from repro.dom.node import Document, Node
from repro.evolution.archive import SyntheticArchive
from repro.induction.induce import InductionResult, WrapperInducer
from repro.induction.samples import QuerySample
from repro.sites.corpus import CorpusTask


def snapshot0_annotation(
    corpus_task: CorpusTask,
) -> Optional[tuple[Document, list[Node]]]:
    """The task's snapshot-0 page and ground-truth targets, or ``None``
    when the role has no targets there."""
    archive = SyntheticArchive(corpus_task.spec, n_snapshots=1)
    doc = archive.snapshot(0)
    targets = archive.targets(doc, corpus_task.task.role)
    if not targets:
        return None
    return doc, targets


def induce_corpus_task(
    corpus_task: CorpusTask, inducer: Optional[WrapperInducer] = None
) -> Optional[tuple[InductionResult, QuerySample]]:
    """Induce a wrapper for one corpus task at snapshot 0.

    Returns ``(result, sample)``, or ``None`` when the task has no
    targets on the snapshot-0 page.  The default inducer is the
    evaluation protocol's ``WrapperInducer()`` (K = 10).
    """
    annotation = snapshot0_annotation(corpus_task)
    if annotation is None:
        return None
    doc, targets = annotation
    inducer = inducer or WrapperInducer()
    return inducer.induce_one(doc, targets), QuerySample(doc, targets)
