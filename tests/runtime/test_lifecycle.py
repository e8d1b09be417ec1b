"""The full wrapper lifecycle, end to end:

induce → serialize → reload → batch-extract across 20+ archive
snapshots → detect drift → automatically re-induce → verify recovery.

This is the runtime subsystem's integration contract: every stage runs
on the *reloaded* artifact (never the in-memory induction result), so a
regression anywhere in the save → serve → drift → repair loop fails
here.  The drift scenarios are seeded corpus sites whose churn is known
to break the induced wrapper inside the replay window; at least one
must exhibit the complete break-and-recover arc.
"""

import pytest

from repro.dom.serialize import to_html
from repro.evolution import SyntheticArchive
from repro.induction import QuerySample, WrapperInducer
from repro.runtime import (
    DriftDetector,
    PageJob,
    ShardedArtifactStore,
    WrapperArtifact,
    reinduce,
)
from repro.runtime.extractor import extract_records
from repro.scoring.ranking import fbeta
from repro.sites import single_node_tasks
from repro.xpath.canonical import c_changes, canonical_key
from repro.xpath.compile import evaluate_compiled

#: Replay window: 24 snapshots ⇒ 23 served page versions (≥ 20 required).
N_SNAPSHOTS = 24

#: Churny sites whose top wrapper breaks inside the window under the
#: seeded change trajectories (scanned once; the test iterates until one
#: completes the arc, so ranking changes only need *some* site to break).
CANDIDATES = [
    "weather-0/temp",
    "sports-0/quote",
    "finance-1/adv",
    "finance-2/adv",
]


def _f1(result, truth, doc) -> float:
    result_ids = {doc.node_id(n) for n in result}
    truth_ids = {doc.node_id(n) for n in truth}
    tp = len(result_ids & truth_ids)
    return fbeta(tp, len(result_ids) - tp, len(truth_ids) - tp, beta=1.0)


def _run_lifecycle(task_id, tmp_path):
    """Returns a summary dict, or None when the site never drifted."""
    corpus_task = {t.task_id: t for t in single_node_tasks()}[task_id]
    archive = SyntheticArchive(corpus_task.spec, n_snapshots=N_SNAPSHOTS)
    role = corpus_task.task.role

    # 1. induce on snapshot 0 and serialize to disk
    doc0 = archive.snapshot(0)
    targets0 = archive.targets(doc0, role)
    result = WrapperInducer(k=10).induce_one(doc0, targets0)
    induced = WrapperArtifact.from_induction(
        result,
        [QuerySample(doc0, targets0)],
        task_id=task_id,
        site_id=corpus_task.spec.site_id,
        role=role,
        provenance={"snapshot": 0},
    )
    ShardedArtifactStore(tmp_path / "store").put(induced)

    # 2. reload — everything below runs on the deserialized artifact
    artifact = ShardedArtifactStore(tmp_path / "store").get(task_id)
    assert artifact == induced

    # 3. serve: batch-extract the wrapper over every later snapshot and
    #    drift-check each page
    detector = DriftDetector()
    truth_keys = []
    replayed = 0
    drift = None
    for index in range(1, N_SNAPSHOTS):
        if archive.is_broken(index):
            truth_keys.append(None)
            continue
        doc = archive.snapshot(index)
        truth = archive.targets(doc, role)
        if not truth:
            break
        truth_keys.append(canonical_key(truth))
        job = PageJob(
            page_id=f"{artifact.site_id}@{index}",
            html=to_html(doc),
            wrappers=((artifact.task_id, artifact.best.text),),
        )
        (record,) = extract_records([job])
        report = detector.check(artifact, doc, snapshot=index)
        replayed += 1
        # The detector and the extraction engine must agree on emptiness.
        assert record.is_empty == (report.result_count == 0)
        if report.drifted:
            drift = (index, doc, truth, report)
            break

    if drift is None:
        return None

    # 4. drift confirmed on a seeded c-change scenario: the ground-truth
    #    canonical fingerprint moved off the stored baseline
    index, doc, truth, report = drift
    assert c_changes([artifact.baseline_paths] + truth_keys) >= 1

    pre_f1 = _f1(evaluate_compiled(artifact.best_query(), doc.root, doc), truth, doc)

    # 5. automatic repair: re-induce from the stored samples + this page
    repaired = reinduce(artifact, doc, snapshot=index)
    post_f1 = _f1(evaluate_compiled(repaired.best_query(), doc.root, doc), truth, doc)

    # 6. the repaired artifact round-trips and keeps extracting
    reloaded = WrapperArtifact.loads(repaired.dumps())
    reload_f1 = _f1(evaluate_compiled(reloaded.best_query(), doc.root, doc), truth, doc)
    assert reload_f1 == post_f1

    return {
        "replayed": replayed,
        "drift_snapshot": index,
        "signals": report.signals,
        "pre_f1": pre_f1,
        "post_f1": post_f1,
        "generation": repaired.generation,
    }


def test_lifecycle_break_and_recover(tmp_path):
    outcomes = []
    for task_id in CANDIDATES:
        summary = _run_lifecycle(task_id, tmp_path)
        if summary is not None:
            outcomes.append((task_id, summary))

    assert outcomes, "no candidate site drifted inside the replay window"

    recovered = [
        (task_id, s) for task_id, s in outcomes if s["post_f1"] > s["pre_f1"]
    ]
    assert recovered, f"no scenario recovered F1 after repair: {outcomes}"

    task_id, summary = recovered[0]
    assert summary["pre_f1"] < 1.0  # it really was broken
    assert summary["post_f1"] == 1.0  # and repair fully recovered it
    assert summary["generation"] == 1


def test_replay_window_spans_20_snapshots(tmp_path):
    """A healthy wrapper must survive a ≥20-snapshot serve loop with the
    artifact reloaded from disk at every stage boundary."""
    corpus_task = {t.task_id: t for t in single_node_tasks()}["academic-0/scholar"]
    archive = SyntheticArchive(corpus_task.spec, n_snapshots=N_SNAPSHOTS)
    doc0 = archive.snapshot(0)
    targets0 = archive.targets(doc0, corpus_task.task.role)
    result = WrapperInducer(k=10).induce_one(doc0, targets0)
    artifact = WrapperArtifact.from_induction(
        result,
        [QuerySample(doc0, targets0)],
        task_id=corpus_task.task_id,
        site_id=corpus_task.spec.site_id,
        role=corpus_task.task.role,
    )
    ShardedArtifactStore(tmp_path / "store").put(artifact)
    artifact = ShardedArtifactStore(tmp_path / "store").get(artifact.task_id)

    jobs = []
    for index in range(1, N_SNAPSHOTS):
        if archive.is_broken(index):
            continue
        jobs.append(
            PageJob(
                page_id=f"{artifact.site_id}@{index}",
                html=to_html(archive.snapshot(index)),
                wrappers=((artifact.task_id, artifact.best.text),),
            )
        )
    assert len(jobs) >= 20
    records = extract_records(jobs)
    assert len(records) == len(jobs)
    assert all(not record.is_empty for record in records)
