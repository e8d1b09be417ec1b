"""Tests for candidate node-pattern generation."""

from repro.dom import parse_html
from repro.dom.node import TextNode
from repro.induction.config import InductionConfig
from repro.induction.node_pattern import node_patterns
from repro.scoring import ScoringParams
from repro.xpath.ast import (
    AttrSubject,
    AttributePredicate,
    StringPredicate,
    TextSubject,
)

CONFIG = InductionConfig()
PARAMS = ScoringParams()


def patterns_for(html, **find):
    doc = parse_html(html)
    node = doc.find(**find)
    return doc, node, node_patterns(node, doc, CONFIG, PARAMS)


def predicate_strings(patterns):
    return {str(p) for pat in patterns for p in pat.predicates}


class TestNodeTests:
    def test_element_gets_node_tag_and_star(self):
        _, _, pats = patterns_for("<div id='x'>t</div>", tag="div")
        kinds = {(p.nodetest.kind, p.nodetest.name) for p in pats}
        assert ("node", None) in kinds
        assert ("name", "div") in kinds
        assert ("any", None) in kinds

    def test_predicates_attach_to_specific_tests_only(self):
        """Paper's nodePattern listing: node() bare, predicates on the tag."""
        _, _, pats = patterns_for("<div id='x'>t</div>", tag="div")
        for pattern in pats:
            if pattern.nodetest.kind in ("node", "any"):
                assert not pattern.predicates

    def test_text_node_patterns(self):
        doc = parse_html("<p>hello</p>")
        text = doc.find(tag="p").children[0]
        pats = node_patterns(text, doc, CONFIG, PARAMS)
        kinds = {p.nodetest.kind for p in pats}
        assert kinds <= {"text", "node"}

    def test_synthetic_root_has_no_patterns(self):
        doc = parse_html("<p>x</p>")
        assert node_patterns(doc.root, doc, CONFIG, PARAMS) == []


class TestAttributePredicates:
    def test_equality_contains_and_existence(self):
        _, _, pats = patterns_for('<div class="main content">t</div>', tag="div")
        preds = predicate_strings(pats)
        assert '[@class="main content"]' in preds
        assert '[contains(@class,"main")]' in preds
        assert '[contains(@class,"content")]' in preds
        assert "[@class]" in preds

    def test_style_attribute_skipped(self):
        _, _, pats = patterns_for('<div style="color:red">t</div>', tag="div")
        assert not any("style" in p for p in predicate_strings(pats))

    def test_long_values_have_no_equality(self):
        value = "x" * 200
        _, _, pats = patterns_for(f'<div data-big="{value}">t</div>', tag="div")
        assert f'[@data-big="{value}"]' not in predicate_strings(pats)


class TestTextPredicates:
    def test_label_starts_with(self):
        _, _, pats = patterns_for("<div><h4>Director:</h4><span>Martin</span></div>", tag="div")
        preds = predicate_strings(pats)
        assert '[starts-with(.,"Director:")]' in preds

    def test_full_text_equality_when_short(self):
        _, _, pats = patterns_for("<h4>Director:</h4>", tag="h4")
        assert '[.="Director:"]' in predicate_strings(pats)

    def test_volatile_text_excluded(self):
        doc = parse_html("<div><h4>Director:</h4><span>Martin</span></div>")
        span_text = doc.find(tag="span").children[0]
        span_text.meta["volatile"] = True
        div = doc.find(tag="div")
        pats = node_patterns(div, doc, CONFIG, PARAMS)
        values = {
            p.value
            for pat in pats
            for p in pat.predicates
            if isinstance(p, StringPredicate) and isinstance(p.subject, TextSubject)
        }
        assert "Martin" not in values
        assert not any("Martin" in v for v in values)



class TestCapsAndOrdering:
    def test_at_most_one_predicate_each(self):
        _, _, pats = patterns_for('<div id="a" class="b">Director: x</div>', tag="div")
        assert all(len(p.predicates) <= 1 for p in pats)

    def test_capped_by_config(self):
        """The config's search mode picks the cap: pruned search keeps
        the cheapest 20 of the patterns exhaustive search keeps."""
        attrs = " ".join(f'data-{i}="v{i} w{i}"' for i in range(12))
        doc = parse_html(f"<div {attrs}>Director: x</div>")
        div = doc.find(tag="div")
        exhaustive = node_patterns(div, doc, CONFIG, PARAMS)
        pruned = node_patterns(div, doc, InductionConfig(search="pruned"), PARAMS)
        assert len(exhaustive) == 48
        assert pruned == exhaustive[:20]

    def test_cheapest_first(self):
        _, _, pats = patterns_for('<div id="a">t</div>', tag="div")
        from repro.scoring.score import score_nodetest, score_predicate

        def cost(p):
            return score_nodetest(p.nodetest, PARAMS) + sum(
                score_predicate(x, PARAMS) for x in p.predicates
            )

        costs = [cost(p) for p in pats]
        assert costs == sorted(costs)
