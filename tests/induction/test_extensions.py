"""Tests for the future-work extensions: relative wrappers and ensembles."""

import pytest

from repro.dom import parse_html
from repro.induction import WrapperInducer
from repro.induction.ensemble import (
    EnsembleWrapper,
    build_ensemble,
    feature_signature,
    fragile_signature,
    select_diverse,
)
from repro.induction.relative import RecordExample, RelativeWrapperInducer
from repro.scoring.ranking import QueryInstance
from repro.xpath import parse_query
from repro.xpath.compile import evaluate_compiled


@pytest.fixture
def product_doc():
    items = "".join(
        f'<div class="item"><h2><a href="/p/{i}">Product {i}</a></h2>'
        f'<span class="price">${i}9.99</span>'
        f'<span class="stock">in stock</span></div>'
        for i in range(5)
    )
    return parse_html(f"<html><body><div id='results'>{items}</div></body></html>")


class TestRelativeWrappers:
    def test_extracts_records(self, product_doc):
        anchors = list(product_doc.root.iter_find(tag="div", class_="item"))
        examples = [
            RecordExample(
                anchor=anchor,
                fields={
                    "title": anchor.find(tag="a"),
                    "price": anchor.find(tag="span", class_="price"),
                },
            )
            for anchor in anchors[:4]
        ]
        wrapper = RelativeWrapperInducer().induce(product_doc, examples)
        records = wrapper.extract_values(product_doc)
        assert len(records) == 5
        assert records[0]["title"] == "Product 0"
        assert records[3]["price"] == "$39.99"

    def test_missing_fields_are_none(self, product_doc):
        anchors = list(product_doc.root.iter_find(tag="div", class_="item"))
        examples = [
            RecordExample(anchor=anchor, fields={"title": anchor.find(tag="a")})
            for anchor in anchors
        ]
        wrapper = RelativeWrapperInducer().induce(product_doc, examples)
        # remove one title, re-extract
        victim = anchors[2].find(tag="h2")
        anchors[2].remove_child(victim)
        product_doc.invalidate()
        records = wrapper.extract(product_doc)
        assert any(r["title"] is None for r in records)

    def test_field_names_must_match(self, product_doc):
        anchors = list(product_doc.root.iter_find(tag="div", class_="item"))
        examples = [
            RecordExample(anchor=anchors[0], fields={"a": anchors[0].find(tag="a")}),
            RecordExample(anchor=anchors[1], fields={"b": anchors[1].find(tag="a")}),
        ]
        with pytest.raises(ValueError):
            RelativeWrapperInducer().induce(product_doc, examples)

    def test_requires_examples(self, product_doc):
        with pytest.raises(ValueError):
            RelativeWrapperInducer().induce(product_doc, [])


class TestFeatureSignature:
    def test_attribute_and_text_features(self):
        q = parse_query('descendant::div[@id="x"]/descendant::p[contains(.,"Hi")]')
        signature = feature_signature(q)
        assert 'attr:id=x' in signature
        assert "text:Hi" in signature
        assert "tag:div" in signature

    def test_positional_feature(self):
        assert "positional" in feature_signature(parse_query("descendant::li[3]"))

    def test_disjoint_signatures(self):
        a = feature_signature(parse_query('descendant::span[@itemprop="name"]'))
        b = feature_signature(parse_query('descendant::div[@class="credit"]/child::a'))
        assert not (a & b)


class TestEnsemble:
    def test_select_diverse_prefers_disjoint(self, imdb_doc):
        target = imdb_doc.find(tag="span")
        result = WrapperInducer().induce_one(imdb_doc, [target])
        members = select_diverse(result, size=3)
        assert 1 <= len(members) <= 3
        signatures = [feature_signature(m) for m in members]
        if len(signatures) >= 2:
            assert not (signatures[0] & signatures[1])

    def test_majority_vote_selects_target(self, imdb_doc):
        target = imdb_doc.find(tag="span")
        result = WrapperInducer().induce_one(imdb_doc, [target])
        ensemble = build_ensemble(result, size=3)
        assert ensemble.select(imdb_doc) == [target]

    def test_vote_survives_one_broken_member(self, imdb_doc):
        target = imdb_doc.find(tag="span")
        good = parse_query('descendant::span[@itemprop="name"][1]')
        also_good = parse_query("descendant::a/descendant::span")
        broken = parse_query('descendant::span[@class="no-longer-exists"]')
        ensemble = EnsembleWrapper((good, also_good, broken))
        assert ensemble.select(imdb_doc) == [target]

    def test_quorum_blocks_minority(self, imdb_doc):
        rogue = parse_query("descendant::h1")
        good = parse_query('descendant::span[@itemprop="name"][1]')
        also_good = parse_query("descendant::a/descendant::span")
        ensemble = EnsembleWrapper((good, also_good, rogue))
        selected = ensemble.select(imdb_doc)
        assert imdb_doc.find(tag="h1") not in selected

    def test_empty_members_rejected(self):
        with pytest.raises(ValueError):
            EnsembleWrapper(())


def _instance(text: str) -> QueryInstance:
    return QueryInstance(parse_query(text), tp=1, fp=0, fn=0, score=1.0)


class TestFragileSignature:
    def test_values_collapse(self):
        a = fragile_signature(parse_query('descendant::span[@class="big"]'))
        b = fragile_signature(parse_query('descendant::div[@class="row"]'))
        assert a == b == frozenset({"attr:class"})

    def test_tags_are_not_fragile(self):
        assert fragile_signature(parse_query("descendant::span")) == frozenset()

    def test_distinct_failure_modes(self):
        positional = fragile_signature(parse_query("descendant::li[2]"))
        attribute = fragile_signature(parse_query('descendant::a[@href]'))
        assert positional == frozenset({"positional"})
        assert attribute == frozenset({"attr:href"})
        assert not (positional & attribute)


class TestDiversityEnsemble:
    """A class reskin must kill fewer members of a diversity-penalized
    committee than of the accuracy-only one (the "Diversified Multiple
    Trees" satellite)."""

    #: Ranked as induction would: the class-anchored queries score best,
    #: the independent anchors (itemprop, position) trail them.
    INSTANCES = [
        _instance('descendant::span[@class="price-big"]'),
        _instance('descendant::div[@class="row"]/child::span'),
        _instance('descendant::span[@itemprop="price"]'),
        _instance("descendant::li[2]/descendant::span"),
    ]

    PAGE = (
        "<html><body><ul><li>intro</li>"
        '<li><div class="{row}"><span class="{big}" itemprop="price">$9</span>'
        "</div></li></ul></body></html>"
    )

    def docs(self):
        original = parse_html(self.PAGE.format(row="row", big="price-big"))
        reskinned = parse_html(self.PAGE.format(row="r-v2", big="p-v2"))
        return original, reskinned

    def surviving(self, members, doc):
        target = doc.find(tag="span")
        return [
            member
            for member in members
            if list(evaluate_compiled(member, doc.root, doc)) == [target]
        ]

    def test_all_members_select_on_the_original_page(self):
        original, _ = self.docs()
        for mode in (None, 3.0):
            members = select_diverse(self.INSTANCES, size=3, diversity=mode)
            assert len(self.surviving(members, original)) == 3

    def test_class_rename_kills_fewer_diverse_members(self):
        _, reskinned = self.docs()
        accuracy_only = select_diverse(self.INSTANCES, size=3)
        diverse = select_diverse(self.INSTANCES, size=3, diversity=3.0)
        broken_accuracy = 3 - len(self.surviving(accuracy_only, reskinned))
        broken_diverse = 3 - len(self.surviving(diverse, reskinned))
        assert broken_diverse < broken_accuracy

    def test_diverse_vote_survives_the_reskin(self):
        _, reskinned = self.docs()
        diverse = build_ensemble(self.INSTANCES, size=3, diversity=3.0)
        accuracy_only = build_ensemble(self.INSTANCES, size=3)
        target = reskinned.find(tag="span")
        assert diverse.select(reskinned) == [target]
        assert accuracy_only.select(reskinned) != [target]

    def test_diversity_none_is_the_legacy_selection(self):
        assert select_diverse(self.INSTANCES, size=3, diversity=None) == (
            select_diverse(self.INSTANCES, size=3)
        )

    def test_diversity_zero_is_pure_rank_order(self):
        members = select_diverse(self.INSTANCES, size=3, diversity=0.0)
        assert members == [instance.query for instance in self.INSTANCES[:3]]

    def test_negative_diversity_rejected(self):
        with pytest.raises(ValueError):
            select_diverse(self.INSTANCES, size=3, diversity=-1.0)
