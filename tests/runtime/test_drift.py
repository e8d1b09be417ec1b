"""Drift signals and automatic re-induction on archive scenarios.

The scenarios are seeded corpus sites known to exercise each signal;
the tests scan a bounded snapshot range rather than pinning exact
indices, so they survive intentional ranking changes while still
failing if the detector goes blind.
"""

import pytest

from repro.evolution import SyntheticArchive
from repro.induction import QuerySample, WrapperInducer
from repro.metrics import wrapper_matches_targets
from repro.runtime import DriftConfig, DriftDetector, WrapperArtifact, reinduce
from repro.runtime.drift import CANONICAL_CHANGE, EMPTY_RESULT, ENSEMBLE_DISAGREEMENT
from repro.runtime.artifact import ArtifactError
from repro.sites import single_node_tasks

TASKS = {t.task_id: t for t in single_node_tasks()}


def induce_artifact(task_id: str, n_snapshots: int):
    corpus_task = TASKS[task_id]
    archive = SyntheticArchive(corpus_task.spec, n_snapshots=n_snapshots)
    doc = archive.snapshot(0)
    targets = archive.targets(doc, corpus_task.task.role)
    result = WrapperInducer().induce_one(doc, targets)
    artifact = WrapperArtifact.from_induction(
        result,
        [QuerySample(doc, targets)],
        task_id=task_id,
        site_id=corpus_task.spec.site_id,
        role=corpus_task.task.role,
    )
    return artifact, archive, corpus_task


def first_drift(artifact, archive, corpus_task, detector, last):
    for index in range(1, last):
        if archive.is_broken(index):
            continue
        doc = archive.snapshot(index)
        if not archive.targets(doc, corpus_task.task.role):
            break
        report = detector.check(artifact, doc, snapshot=index)
        if report.drifted:
            return report, doc
    return None, None


class TestHealthy:
    def test_snapshot0_is_healthy(self):
        artifact, archive, _ = induce_artifact("movies-0/director", 1)
        report = DriftDetector().check(artifact, archive.snapshot(0))
        assert report.healthy and not report.drifted
        assert report.result_count == 1
        assert report.member_count >= 1

    def test_attribute_valued_wrapper_is_checkable(self):
        """A wrapper whose query selects attribute nodes must fingerprint
        cleanly (canonical paths end in an attribute step), not crash."""
        from repro.dom.builder import E, document
        from repro.induction import QuerySample
        from repro.runtime.artifact import RankedQuery, StoredSample
        from repro.xpath.canonical import canonical_key
        from repro.xpath.compile import evaluate_compiled
        from repro.xpath.parser import parse_query

        doc = document(E("html", E("body", E("a", "x", href="/jobs"))))
        query_text = "descendant::a/attribute::href"
        attrs = evaluate_compiled(parse_query(query_text), doc.root, doc)
        assert attrs and attrs[0].name == "href"
        anchor = doc.find(tag="a")
        artifact = WrapperArtifact(
            task_id="t/attr",
            site_id="t",
            role="",
            queries=(RankedQuery(query_text, 1.0, 1, 0, 0),),
            ensemble=(query_text,),
            quorum=1,
            baseline_paths=canonical_key(attrs),
            samples=(StoredSample.from_sample(QuerySample(doc, [anchor])),),
        )
        report = DriftDetector().check(artifact, doc)
        assert report.healthy
        # And the baseline fingerprint itself is an evaluable path.
        (path,) = artifact.baseline_paths
        assert path.endswith("/attribute::href")
        assert evaluate_compiled(parse_query(path), doc.root, doc) == attrs


class TestSignals:
    #: Sites whose churn breaks the induced wrapper within the window
    #: (verified against the seeded archives; the scan keeps this robust).
    DRIFTING = ["weather-1/temp", "video-2/title", "forum-1/compose"]

    @pytest.mark.parametrize("task_id", DRIFTING)
    def test_empty_result_fires_on_break(self, task_id):
        artifact, archive, corpus_task = induce_artifact(task_id, 16)
        report, _ = first_drift(artifact, archive, corpus_task, DriftDetector(), 16)
        assert report is not None, f"{task_id}: no drift detected in 16 snapshots"
        assert EMPTY_RESULT in report.signals or ENSEMBLE_DISAGREEMENT in report.signals

    def test_canonical_change_is_soft_by_default(self):
        """Positional churn (promo blocks) changes canonical paths while
        the wrapper keeps extracting — monitored, not flagged."""
        artifact, archive, corpus_task = induce_artifact("movies-0/director", 30)
        detector = DriftDetector()
        seen_soft_change = False
        for index in range(1, 30):
            if archive.is_broken(index):
                continue
            doc = archive.snapshot(index)
            if not archive.targets(doc, corpus_task.task.role):
                break
            report = detector.check(artifact, doc, snapshot=index)
            if report.drifted:
                break
            if CANONICAL_CHANGE in report.signals:
                seen_soft_change = True
                break
        assert seen_soft_change, "no canonical-path change observed while healthy"

    def test_strict_config_promotes_canonical_change(self):
        artifact, archive, corpus_task = induce_artifact("movies-0/director", 30)
        strict = DriftDetector(DriftConfig(canonical_change_is_hard=True))
        report, _ = first_drift(artifact, archive, corpus_task, strict, 30)
        assert report is not None
        assert CANONICAL_CHANGE in report.signals or report.drifted

    def test_single_member_disagreement_stays_quiet(self):
        """One broken member of a 3-committee is below the 0.5 threshold."""
        artifact, archive, _ = induce_artifact("movies-0/director", 1)
        doc = archive.snapshot(0)
        report = DriftDetector().check(artifact, doc)
        assert ENSEMBLE_DISAGREEMENT not in report.signals
        assert report.disagreeing_members / max(report.member_count, 1) < 0.5


class TestReinduce:
    def test_automatic_repair_recovers_ground_truth(self):
        artifact, archive, corpus_task = induce_artifact("weather-1/temp", 16)
        report, doc = first_drift(artifact, archive, corpus_task, DriftDetector(), 16)
        assert report is not None
        truth = archive.targets(doc, corpus_task.task.role)
        assert not wrapper_matches_targets(artifact.best_query(), doc, truth)
        repaired = reinduce(artifact, doc, snapshot=report.snapshot)
        assert wrapper_matches_targets(repaired.best_query(), doc, truth)
        assert repaired.generation == artifact.generation + 1
        assert repaired.provenance["repair_labels"] == "ensemble_vote"
        assert repaired.provenance["repaired_at_snapshot"] == report.snapshot
        # The repaired artifact carries both page versions as samples.
        assert len(repaired.samples) == len(artifact.samples) + 1

    def test_repair_reuses_original_induction_settings(self):
        """A wrapper induced with custom settings must be repaired under
        the same settings, not silently re-ranked with the defaults."""
        from repro.induction import InductionConfig

        corpus_task = TASKS["weather-1/temp"]
        archive = SyntheticArchive(corpus_task.spec, n_snapshots=16)
        doc0 = archive.snapshot(0)
        targets0 = archive.targets(doc0, corpus_task.task.role)
        config = InductionConfig(
            k=5, beta=0.8, search="pruned", diversity=1.0, enable_sideways=False
        )
        result = WrapperInducer(config).induce_one(doc0, targets0)
        artifact = WrapperArtifact.from_induction(
            result,
            [QuerySample(doc0, targets0)],
            task_id=corpus_task.task_id,
            site_id=corpus_task.spec.site_id,
            role=corpus_task.task.role,
            config=config,
        )
        # The complete config round-trips: every field it has.
        assert artifact.induction_config() == config
        assert WrapperArtifact.loads(artifact.dumps()).induction_config() == config
        report, doc = first_drift(artifact, archive, corpus_task, DriftDetector(), 16)
        assert report is not None
        truth = archive.targets(doc, corpus_task.task.role)
        repaired = reinduce(artifact, doc, targets=truth, snapshot=report.snapshot)
        assert repaired.config == artifact.config  # settings survived repair
        assert repaired.induction_config() == config

    def test_explicit_labels_override_vote(self):
        artifact, archive, corpus_task = induce_artifact("weather-1/temp", 16)
        report, doc = first_drift(artifact, archive, corpus_task, DriftDetector(), 16)
        truth = archive.targets(doc, corpus_task.task.role)
        repaired = reinduce(artifact, doc, targets=truth, snapshot=report.snapshot)
        assert repaired.provenance["repair_labels"] == "explicit"
        assert wrapper_matches_targets(repaired.best_query(), doc, truth)

    def test_explicit_empty_labels_raise_artifact_error(self):
        """An empty re-annotation must fail with the documented error type,
        not leak QuerySample's ValueError past the repair loop."""
        artifact, archive, _ = induce_artifact("movies-0/director", 1)
        with pytest.raises(ArtifactError, match="re-annotation"):
            reinduce(artifact, archive.snapshot(0), targets=[])

    def test_empty_vote_requires_reannotation(self):
        """When every member breaks, automatic repair must refuse rather
        than re-induce from garbage labels."""
        artifact, archive, corpus_task = induce_artifact("sports-2/quote", 10)
        report, doc = first_drift(artifact, archive, corpus_task, DriftDetector(), 10)
        assert report is not None
        if artifact.ensemble_wrapper().select(doc):
            pytest.skip("ensemble vote survived on this trajectory")
        with pytest.raises(ArtifactError, match="re-annotation"):
            reinduce(artifact, doc)
