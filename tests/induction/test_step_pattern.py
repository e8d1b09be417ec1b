"""Tests for Algorithm 1 (stepPattern)."""

import pytest

from repro.dom import parse_html
from repro.induction.config import InductionConfig
from repro.induction.step_pattern import step_patterns
from repro.scoring import Scorer, ScoringParams
from repro.xpath.ast import Axis

PARAMS = ScoringParams()


def run_step_patterns(doc, context, target, axis, config=None):
    config = config or InductionConfig()
    return step_patterns(
        context, target, axis, config.k, doc, config, PARAMS, Scorer(PARAMS)
    )


@pytest.fixture
def nested_doc():
    return parse_html(
        '<html><body><div class="content"><div id="main">'
        '<em class="highlight">The Target</em></div></div></body></html>'
    )


class TestDirectPatterns:
    def test_contract_every_candidate_matches_target(self, nested_doc):
        body = nested_doc.find(tag="body")
        em = nested_doc.find(tag="em")
        for candidate in run_step_patterns(nested_doc, body, em, Axis.CHILD):
            assert any(m is em for m in candidate.matches)

    def test_descendant_and_child_variants(self, nested_doc):
        main = nested_doc.find(id="main")
        em = nested_doc.find(tag="em")
        queries = {str(c.query) for c in run_step_patterns(nested_doc, main, em, Axis.CHILD)}
        assert "descendant::em" in queries
        assert "child::em" in queries

    def test_paper_example_patterns(self, nested_doc):
        """Sec. 5's worked example: patterns from the lower div to the em
        include a class-predicated test on the em."""
        main = nested_doc.find(id="main")
        em = nested_doc.find(tag="em")
        queries = {str(c.query) for c in run_step_patterns(nested_doc, main, em, Axis.CHILD)}
        assert any('[@class="highlight"]' in q for q in queries)

    def test_no_child_variant_when_not_direct(self, nested_doc):
        body = nested_doc.find(tag="body")
        em = nested_doc.find(tag="em")
        queries = {str(c.query) for c in run_step_patterns(nested_doc, body, em, Axis.CHILD)}
        assert "child::em" not in queries
        assert "descendant::em" in queries

    def test_parent_axis_patterns(self, nested_doc):
        em = nested_doc.find(tag="em")
        main = nested_doc.find(id="main")
        queries = {str(c.query) for c in run_step_patterns(nested_doc, em, main, Axis.PARENT)}
        assert "parent::div" in queries or 'parent::node()[@id="main"]' in queries
        assert any(q.startswith("ancestor::") for q in queries)


class TestPositionalRefinement:
    def test_ambiguous_pattern_gets_position(self, list_doc):
        root = list_doc.root
        li2 = list_doc.find(tag="ul").element_children()[1]
        queries = {str(c.query) for c in run_step_patterns(list_doc, root, li2, Axis.CHILD)}
        assert "descendant::li[2]" in queries
        assert "descendant::li[last()-2]" in queries

    def test_unrefined_pattern_kept_for_lists(self, list_doc):
        root = list_doc.root
        li2 = list_doc.find(tag="ul").element_children()[1]
        queries = {str(c.query) for c in run_step_patterns(list_doc, root, li2, Axis.CHILD)}
        assert "descendant::li" in queries  # over-matching piece must survive


class TestSidewaysChecks:
    def test_sibling_anchor_generated(self, list_doc):
        """The header preceding the ul anchors it via following-sibling."""
        root = list_doc.root
        ul = list_doc.find(tag="ul")
        queries = {str(c.query) for c in run_step_patterns(list_doc, root, ul, Axis.CHILD)}
        assert any("following-sibling" in q for q in queries)

    def test_sideways_disabled(self, list_doc):
        config = InductionConfig(enable_sideways=False)
        root = list_doc.root
        ul = list_doc.find(tag="ul")
        queries = {
            str(c.query) for c in run_step_patterns(list_doc, root, ul, Axis.CHILD, config)
        }
        assert all("following-sibling" not in q for q in queries)

    def test_sideways_only_for_child_axis(self, list_doc):
        ul = list_doc.find(tag="ul")
        panel = list_doc.find(class_="widePanel")
        queries = {str(c.query) for c in run_step_patterns(list_doc, ul, panel, Axis.PARENT)}
        assert all("sibling" not in q for q in queries)


class TestSelection:
    def test_candidates_deduped(self, list_doc):
        root = list_doc.root
        ul = list_doc.find(tag="ul")
        candidates = run_step_patterns(list_doc, root, ul, Axis.CHILD)
        queries = [c.query for c in candidates]
        assert len(queries) == len(set(queries))

    def test_bounded_output(self, list_doc):
        config = InductionConfig(k=4)
        root = list_doc.root
        ul = list_doc.find(tag="ul")
        candidates = run_step_patterns(list_doc, root, ul, Axis.CHILD, config)
        # at most k by-rank + k by-score
        assert len(candidates) <= 2 * (4 + 4) + 8
