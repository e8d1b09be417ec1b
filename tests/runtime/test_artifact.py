"""Artifact losslessness: save → load → identical extraction.

The acceptance bar for the runtime layer: a JSON round trip must not
change what a wrapper extracts.  Verified here over *every* single-node
corpus task (covering every corpus site page) and a slice of the
multi-node dataset — top query and all ensemble members alike.
"""

import json

import pytest

from repro.dom.builder import E, document
from repro.induction import QuerySample, WrapperInducer
from repro.runtime import (
    ARTIFACT_VERSION,
    ArtifactError,
    ShardedArtifactStore,
    StoredSample,
    WrapperArtifact,
)
from repro.sites import multi_node_tasks, single_node_tasks
from repro.xpath import compile as xpath_compile
from repro.xpath.compile import evaluate_compiled

INDUCER = WrapperInducer()

ROUND_TRIP_TASKS = single_node_tasks() + multi_node_tasks(limit=8)


def _build_artifact(corpus_task):
    from repro.runtime import snapshot0_annotation

    doc, targets = snapshot0_annotation(corpus_task)
    result = INDUCER.induce_one(doc, targets)
    artifact = WrapperArtifact.from_induction(
        result,
        [QuerySample(doc, targets)],
        task_id=corpus_task.task_id,
        site_id=corpus_task.spec.site_id,
        role=corpus_task.task.role,
    )
    return artifact, doc, targets


class TestRoundTripLossless:
    @pytest.mark.parametrize("corpus_task", ROUND_TRIP_TASKS, ids=lambda t: t.task_id)
    def test_reloaded_wrapper_selects_identical_node_sets(self, corpus_task):
        artifact, doc, targets = _build_artifact(corpus_task)
        reloaded = WrapperArtifact.loads(artifact.dumps())
        assert reloaded == artifact  # full dataclass equality, not just queries
        for before, after in zip(artifact.all_queries(), reloaded.all_queries()):
            assert before == after
            ids_before = {id(n) for n in evaluate_compiled(before, doc.root, doc)}
            ids_after = {id(n) for n in evaluate_compiled(after, doc.root, doc)}
            assert ids_before == ids_after
        # The top query still extracts exactly the annotated targets.
        top = evaluate_compiled(reloaded.best_query(), doc.root, doc)
        assert {id(n) for n in top} == {id(n) for n in targets}
        # Ensemble members survive the round trip as an executable committee.
        votes = reloaded.ensemble_wrapper().select(doc)
        assert {id(n) for n in votes} == {id(n) for n in targets}

    def test_loaded_artifact_carries_compiled_plans(self, monkeypatch):
        artifact, doc, targets = _build_artifact(ROUND_TRIP_TASKS[0])
        memo = {}
        monkeypatch.setattr(xpath_compile, "_TEXT_CACHE", memo)
        reloaded = WrapperArtifact.loads(artifact.dumps())
        # Every deployed wrapper text — best + committee — is compiled
        # into the global plan memo at load, so serving never compiles.
        assert {reloaded.best.text, *reloaded.ensemble} <= memo.keys()
        plan = memo[reloaded.best.text]
        assert {id(n) for n in plan.run(doc.root, doc)} == {id(n) for n in targets}

    def test_single_task_set_covers_every_corpus_site(self):
        """Guards the claim above: the single-node dataset touches every page."""
        sites = {t.spec.site_id for t in single_node_tasks()}
        from repro.sites import build_corpus

        assert sites == {spec.site_id for spec in build_corpus()}


class TestStoredSamples:
    @pytest.fixture(scope="class")
    def artifact_doc_targets(self):
        return _build_artifact(single_node_tasks(limit=1)[0])

    def test_samples_restore_to_equivalent_annotations(self, artifact_doc_targets):
        artifact, doc, targets = artifact_doc_targets
        (restored,) = WrapperArtifact.loads(artifact.dumps()).restore_samples()
        assert len(restored.targets) == len(targets)
        # Targets re-locate to structurally identical nodes (same canonical
        # paths, same normalized text) on the reparsed page.
        for original, relocated in zip(targets, restored.targets):
            assert doc.normalized_text(original) == relocated.normalized_text()

    def test_volatile_marking_survives_restore(self, artifact_doc_targets):
        artifact, doc, _ = artifact_doc_targets
        (restored,) = artifact.restore_samples()
        from repro.dom.node import TextNode

        marked = [
            n
            for n in restored.doc.root.descendants()
            if isinstance(n, TextNode) and n.meta.get("volatile")
        ]
        assert marked, "no volatile text re-marked on the restored page"

    def test_volatile_marks_round_trip_under_the_constant_key(self):
        """Samples carry no meta key: marks are captured and restored
        under ``VOLATILE_KEY``, and an older payload's ``volatile_key``
        is ignored."""
        from repro.dom.builder import E, T, document
        from repro.dom.node import TextNode
        from repro.induction.config import VOLATILE_KEY

        data = T("churning data value")
        data.meta[VOLATILE_KEY] = True
        doc = document(E("html", E("body", E("span", "label"), E("p", data))))
        target = doc.find(tag="span")
        payload = StoredSample.from_sample(QuerySample(doc, [target])).to_payload()
        assert "volatile_key" not in payload
        restored = StoredSample.from_payload(
            {**payload, "volatile_key": "data_mark"}
        ).restore()
        marked = [
            n
            for n in restored.doc.root.descendants()
            if isinstance(n, TextNode) and n.meta.get(VOLATILE_KEY)
        ]
        assert [n.text for n in marked] == ["churning data value"]

    def test_queries_come_from_the_export_hook(self, artifact_doc_targets):
        """from_induction serializes through InductionResult.export, so the
        two representations cannot drift apart."""
        artifact, doc, targets = artifact_doc_targets
        exported = INDUCER.induce_one(doc, targets).export(limit=len(artifact.queries))
        assert len(exported) == len(artifact.queries)
        for ranked, entry in zip(artifact.queries, exported):
            assert ranked.to_payload() == {
                key: value for key, value in entry.items() if key != "f_beta"
            }

    def test_reinduction_from_restored_sample_stays_accurate(self, artifact_doc_targets):
        """A wrapper induced from the *restored* sample must still extract
        exactly the stored targets — the repair loop depends on it."""
        artifact, _, _ = artifact_doc_targets
        (restored,) = artifact.restore_samples()
        best = INDUCER.induce([restored]).best
        assert best is not None
        matches = evaluate_compiled(best.query, restored.doc.root, restored.doc)
        assert {id(n) for n in matches} == {id(n) for n in restored.targets}


class TestValidation:
    def test_unknown_version_is_rejected(self):
        artifact, _, _ = _build_artifact(single_node_tasks(limit=1)[0])
        payload = artifact.to_payload()
        payload["version"] = ARTIFACT_VERSION + 1
        with pytest.raises(ArtifactError, match="version"):
            WrapperArtifact.from_payload(payload)

    def test_invalid_json_is_rejected(self):
        with pytest.raises(ArtifactError, match="JSON"):
            WrapperArtifact.loads("{not json")

    def test_missing_fields_are_rejected(self):
        with pytest.raises(ArtifactError):
            WrapperArtifact.from_payload({"version": ARTIFACT_VERSION})

    def test_malformed_query_is_rejected_at_load(self):
        artifact, _, _ = _build_artifact(single_node_tasks(limit=1)[0])
        payload = json.loads(artifact.dumps())
        payload["queries"][0]["query"] = "descendant::[["
        with pytest.raises(Exception):
            WrapperArtifact.from_payload(payload)

    def test_ambiguous_target_path_is_rejected_at_build(self):
        doc = document(E("html", E("body", E("p", "a"), E("p", "b"))))
        target = doc.find(tag="p")
        sample = QuerySample(doc, [target])
        stored = StoredSample.from_sample(sample)
        # Corrupt the path so it matches both <p> elements.
        broken = StoredSample(
            html=stored.html,
            target_paths=("/child::html[1]/child::body[1]/child::p",),
        )
        with pytest.raises(ArtifactError, match="selects 2 nodes"):
            broken.restore()

    def test_out_of_range_quorum_is_rejected(self):
        artifact, _, _ = _build_artifact(single_node_tasks(limit=1)[0])
        payload = json.loads(artifact.dumps())
        for bad in (0, -1, len(artifact.ensemble) + 1):
            payload["ensemble"]["quorum"] = bad
            with pytest.raises(ArtifactError, match="quorum"):
                WrapperArtifact.from_payload(payload)

    def test_non_root_context_samples_are_rejected(self):
        """The serving stack always evaluates from the document node, so
        non-root-context samples cannot be packaged into artifacts."""
        doc = document(E("html", E("body", E("div", E("span", "x")))))
        context = doc.find(tag="div")
        target = doc.find(tag="span")
        result = INDUCER.induce_one(doc, [target], context=context)
        with pytest.raises(ArtifactError, match="document-node"):
            WrapperArtifact.from_induction(
                result,
                [QuerySample(doc, [target], context)],
                task_id="t/ctx",
                site_id="t",
            )

    def test_save_load_file_round_trip(self, tmp_path):
        artifact, _, _ = _build_artifact(single_node_tasks(limit=1)[0])
        path = ShardedArtifactStore(tmp_path / "store").put(artifact)
        assert path.read_text() == artifact.dumps() + "\n"
        assert ShardedArtifactStore(tmp_path / "store").get(artifact.task_id) == artifact
