"""Cross-module integration properties.

These tie the whole pipeline together: induced wrappers respect the
paper's robustness *definition* across snapshots on which they stay
valid; induction over the corpus stays in the dsXPath fragment and is
plausible; noise resistance holds at the modest intensities the paper's
automated setting produces.
"""

import random

import pytest

from repro.evolution import SyntheticArchive
from repro.induction import WrapperInducer
from repro.metrics.robustness import query_robust_between, wrapper_matches_targets
from repro.noise.synthetic import apply_noise
from repro.sites import multi_node_tasks, single_node_tasks
from repro.xpath.fragment import is_ds_query, is_plausible


@pytest.mark.parametrize("corpus_task", single_node_tasks(limit=6), ids=lambda t: t.task_id)
class TestInducedWrapperInvariants:
    def test_top1_is_plausible_ds_query(self, corpus_task):
        archive = SyntheticArchive(corpus_task.spec, n_snapshots=1)
        doc = archive.snapshot(0)
        targets = archive.targets(doc, corpus_task.task.role)
        result = WrapperInducer().induce_one(doc, targets)
        assert result.best is not None
        assert is_ds_query(result.best.query)
        assert is_plausible(result.best.query, [doc])
        assert wrapper_matches_targets(result.best.query, doc, targets)


class TestRobustnessDefinition:
    def test_validity_with_stable_subtree_implies_definition(self):
        """On a site whose target data is stable (movies), a wrapper that
        still selects the logically-same node — and whose subtree has not
        been touched by attribute churn — satisfies the paper's
        subtree-bijection robustness between those snapshots.  (Validity
        alone is weaker: a renamed class on the still-matched target
        breaks the bijection but not the extraction.)"""
        from repro.dom.signatures import subtree_signature

        task = next(
            t for t in single_node_tasks() if t.task.role == "director"
        )
        archive = SyntheticArchive(task.spec, n_snapshots=8)
        doc0 = archive.snapshot(0)
        targets0 = archive.targets(doc0, "director")
        signature0 = subtree_signature(targets0[0])
        result = WrapperInducer().induce_one(doc0, targets0)
        query = result.best.query
        checked = 0
        for index in range(1, 8):
            if archive.is_broken(index):
                continue
            doc = archive.snapshot(index)
            truth = archive.targets(doc, "director")
            if not truth or not wrapper_matches_targets(query, doc, truth):
                break
            if subtree_signature(truth[0]) == signature0:
                assert query_robust_between(query, doc0, doc)
                checked += 1
        assert checked >= 1


class TestNoiseResistanceIntegration:
    @pytest.mark.parametrize("noise_type", ["positive_random", "negative_mid_random"])
    def test_mild_noise_keeps_top1(self, noise_type):
        """At 10% intensity, the paper reports ≈90%+ identical results;
        check a handful of corpus samples stay identical."""
        inducer = WrapperInducer()
        identical = total = 0
        for corpus_task in multi_node_tasks(limit=5):
            archive = SyntheticArchive(corpus_task.spec, n_snapshots=1)
            doc = archive.snapshot(0)
            targets = archive.targets(doc, corpus_task.task.role)
            if len(targets) < 4:
                continue
            clean = inducer.induce_one(doc, targets)
            noisy_targets = apply_noise(
                noise_type, doc, targets, 0.1, random.Random(13)
            )
            noisy = inducer.induce_one(doc, noisy_targets)
            total += 1
            identical += clean.best.query == noisy.best.query
        assert total >= 3
        assert identical / total >= 0.6
