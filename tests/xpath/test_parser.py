"""Tests for the dsXPath parser."""

import pytest

from repro.xpath import parse_query
from repro.xpath.ast import (
    AttrSubject,
    AttributePredicate,
    Axis,
    PositionalPredicate,
    RelativePredicate,
    StringPredicate,
    TextSubject,
)
from repro.xpath.errors import XPathParseError


class TestSteps:
    def test_single_step(self):
        q = parse_query("descendant::div")
        assert len(q.steps) == 1
        assert q.steps[0].axis is Axis.DESCENDANT
        assert q.steps[0].nodetest.name == "div"

    def test_multiple_steps(self):
        q = parse_query("descendant::div/child::span")
        assert [s.axis for s in q.steps] == [Axis.DESCENDANT, Axis.CHILD]

    def test_all_axes(self):
        for axis in Axis:
            q = parse_query(f"{axis.value}::node()")
            assert q.steps[0].axis is axis

    def test_nodetests(self):
        assert parse_query("child::*").steps[0].nodetest.kind == "any"
        assert parse_query("child::node()").steps[0].nodetest.kind == "node"
        assert parse_query("child::text()").steps[0].nodetest.kind == "text"
        assert parse_query("child::h3").steps[0].nodetest.name == "h3"

    def test_abbreviated_child_axis(self):
        q = parse_query("div/span")
        assert all(s.axis is Axis.CHILD for s in q.steps)

    def test_attribute_abbreviation_step(self):
        q = parse_query("descendant::a/@href")
        assert q.steps[1].axis is Axis.ATTRIBUTE
        assert q.steps[1].nodetest.name == "href"

    def test_absolute_query(self):
        q = parse_query("/html[1]/body[1]")
        assert q.absolute
        assert len(q.steps) == 2

    def test_empty_query(self):
        assert parse_query("").is_empty
        assert parse_query("ε").is_empty


class TestPredicates:
    def test_positional_index(self):
        q = parse_query("descendant::div[3]")
        pred = q.steps[0].predicates[0]
        assert isinstance(pred, PositionalPredicate)
        assert pred.index == 3

    def test_positional_last(self):
        pred = parse_query("descendant::div[last()]").steps[0].predicates[0]
        assert pred.from_last == 0

    def test_positional_last_minus(self):
        pred = parse_query("descendant::div[last()-2]").steps[0].predicates[0]
        assert pred.from_last == 2

    def test_position_function(self):
        pred = parse_query("descendant::div[position()=4]").steps[0].predicates[0]
        assert pred.index == 4

    def test_attribute_existence(self):
        pred = parse_query("descendant::div[@id]").steps[0].predicates[0]
        assert isinstance(pred, AttributePredicate)
        assert pred.name == "id"

    def test_attribute_equality_sugar(self):
        pred = parse_query('descendant::div[@id="main"]').steps[0].predicates[0]
        assert isinstance(pred, StringPredicate)
        assert pred.function == "equals"
        assert pred.subject == AttrSubject("id")
        assert pred.value == "main"

    def test_contains_on_attribute(self):
        pred = parse_query('descendant::img[contains(@class,"adv")]').steps[0].predicates[0]
        assert pred.function == "contains"
        assert pred.subject == AttrSubject("class")

    def test_starts_with_on_text(self):
        pred = parse_query('descendant::div[starts-with(.,"Director:")]').steps[0].predicates[0]
        assert pred.function == "starts-with"
        assert isinstance(pred.subject, TextSubject)

    def test_text_equality_dot_form(self):
        pred = parse_query('descendant::h4[.="Trending:"]').steps[0].predicates[0]
        assert pred.function == "equals"
        assert isinstance(pred.subject, TextSubject)

    def test_normalize_space_subject(self):
        pred = parse_query(
            'descendant::div[starts-with(normalize-space(.),"Top")]'
        ).steps[0].predicates[0]
        assert isinstance(pred.subject, TextSubject)

    def test_normalize_space_equality(self):
        pred = parse_query('descendant::div[normalize-space(.)="x"]').steps[0].predicates[0]
        assert pred.function == "equals"

    def test_multiple_predicates(self):
        q = parse_query('descendant::img[@class="adv"][1]')
        assert len(q.steps[0].predicates) == 2

    def test_nested_relative_predicate(self):
        q = parse_query('descendant::img[ancestor::div[1][@class="contentSmLeft"]]')
        pred = q.steps[0].predicates[0]
        assert isinstance(pred, RelativePredicate)
        inner = pred.query
        assert inner.steps[0].axis is Axis.ANCESTOR
        assert len(inner.steps[0].predicates) == 2

    def test_attribute_axis_in_predicate(self):
        pred = parse_query('descendant::div[attribute::id]').steps[0].predicates[0]
        assert isinstance(pred, AttributePredicate)


class TestErrors:
    def test_unknown_axis(self):
        with pytest.raises(XPathParseError):
            parse_query("sideways::div")

    def test_unclosed_predicate(self):
        with pytest.raises(XPathParseError):
            parse_query("descendant::div[1")

    def test_garbage(self):
        with pytest.raises(XPathParseError):
            parse_query("descendant::div]]")

    def test_bad_character(self):
        with pytest.raises(XPathParseError):
            parse_query("descendant::div[§]")

    def test_error_survives_a_pickle_round_trip(self):
        """Process-pool workers (the sweep fleet's, the sitegen sweep's)
        send a wrapper's parse error back pickled."""
        import pickle

        with pytest.raises(XPathParseError) as info:
            parse_query("not a query ((")
        error = info.value
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is XPathParseError
        assert (copy.message, copy.text, copy.position) == (
            error.message, error.text, error.position,
        )
        assert str(copy) == str(error)


class TestRoundTrip:
    QUERIES = [
        'descendant::div[starts-with(.,"Director:")]/descendant::span[@itemprop="name"]',
        'descendant::img[@class="adv"][1]',
        "descendant::input[@name]",
        'descendant::tr[contains(.,"News")]/following-sibling::tr',
        "descendant::div[last()-2]/child::h3",
        "descendant::p/following-sibling::node()/descendant::li",
        'descendant::input[@type="text"][last()]',
        "ancestor::div[1]",
        "descendant::a/@href",
    ]

    @pytest.mark.parametrize("text", QUERIES)
    def test_str_then_reparse_is_identity(self, text):
        query = parse_query(text)
        assert parse_query(str(query)) == query
