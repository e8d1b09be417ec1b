"""End-to-end induction tests (Algorithms 2 and 3)."""

import pytest

from repro.dom import parse_html
from repro.dom.node import TextNode
from repro.induction import InductionConfig, QuerySample, WrapperInducer, induce
from repro.xpath import evaluate, parse_query
from repro.xpath.fragment import is_ds_query


def mark_volatile(doc, tag):
    for element in doc.root.iter_find(tag=tag):
        for node in element.descendants():
            if isinstance(node, TextNode):
                node.meta["volatile"] = True


class TestSingleTarget:
    def test_accurate_top_result(self, imdb_doc):
        target = imdb_doc.find(tag="span")
        result = WrapperInducer().induce_one(imdb_doc, [target])
        assert result.best is not None
        assert result.best.is_accurate
        assert evaluate(result.best.query, imdb_doc.root, imdb_doc) == [target]

    def test_all_results_are_ds_queries(self, imdb_doc):
        target = imdb_doc.find(tag="span")
        result = WrapperInducer().induce_one(imdb_doc, [target])
        for instance in result:
            assert is_ds_query(instance.query), str(instance.query)

    def test_semantic_attribute_preferred_over_volatile_text(self, imdb_doc):
        mark_volatile(imdb_doc, "span")
        target = imdb_doc.find(tag="span")
        result = WrapperInducer().induce_one(imdb_doc, [target])
        assert "Martin" not in str(result.best.query)

    def test_search_input_wrapper(self, imdb_doc):
        target = imdb_doc.find(tag="input")
        result = WrapperInducer().induce_one(imdb_doc, [target])
        assert result.best.is_accurate
        # the paper's group (a) example: descendant::input[@name="q"]-style
        assert "input" in str(result.best.query) or "@" in str(result.best.query)

    def test_ranking_is_monotone(self, imdb_doc):
        from repro.scoring.ranking import rank_key

        target = imdb_doc.find(tag="h1")
        result = WrapperInducer().induce_one(imdb_doc, [target])
        keys = [rank_key(i) for i in result]
        assert keys == sorted(keys)

    def test_context_cannot_be_target(self, imdb_doc):
        with pytest.raises(ValueError):
            WrapperInducer().induce_one(imdb_doc, [imdb_doc.root])


class TestMultiTarget:
    def test_list_selection(self, list_doc):
        targets = list(list_doc.root.iter_find(tag="a", class_="hpCH"))
        result = WrapperInducer().induce_one(list_doc, targets)
        assert result.best.is_accurate
        matches = evaluate(result.best.query, list_doc.root, list_doc)
        assert {id(m) for m in matches} == {id(t) for t in targets}

    def test_sibling_list_after_header(self):
        doc = parse_html(
            "<html><body><table>"
            "<tr class='head'><td>News and Latest Reviews</td></tr>"
            + "".join(f"<tr><td>item{i}</td></tr>" for i in range(7))
            + "</table></body></html>"
        )
        targets = [tr for tr in doc.root.iter_find(tag="tr")][1:]
        result = WrapperInducer().induce_one(doc, targets)
        assert result.best.is_accurate
        assert "following-sibling" in str(result.best.query)

    def test_cast_table(self, imdb_doc):
        targets = list(imdb_doc.root.iter_find(tag="td", class_="name"))
        result = WrapperInducer().induce_one(imdb_doc, [t for t in targets])
        assert result.best.is_accurate


class TestTwoDirectional:
    def test_context_below_targets(self, imdb_doc):
        """Context is the h1; targets are the cast cells — requires an
        upward path to the LCA and a downward tail."""
        context = imdb_doc.find(tag="h1")
        targets = list(imdb_doc.root.iter_find(tag="td", class_="name"))
        result = induce([QuerySample(imdb_doc, targets, context=context)])
        assert result.best is not None
        matches = evaluate(result.best.query, context, imdb_doc)
        assert {id(m) for m in matches} == {id(t) for t in targets}

    def test_relative_wrapper_from_label(self, imdb_doc):
        """From the Director h4 to the director span (different subtree)."""
        context = imdb_doc.find(tag="h4")
        target = imdb_doc.find(tag="span")
        result = induce([QuerySample(imdb_doc, [target], context=context)])
        assert result.best is not None
        assert evaluate(result.best.query, context, imdb_doc) == [target]


class TestMultiSample:
    def test_aggregation_over_two_pages(self):
        pages = []
        for name in ("Martin Scorsese", "Sofia Coppola"):
            doc = parse_html(
                "<html><body><div class='promo'>x</div>"
                f"<div class='credit'><h4>Director:</h4><span itemprop='name'>{name}</span></div>"
                "</body></html>"
            )
            mark_volatile(doc, "span")
            pages.append(QuerySample(doc, [doc.find(tag="span")]))
        result = induce(pages)
        assert result.best is not None
        assert result.best.tp == 2 and result.best.fp == 0 and result.best.fn == 0
        for sample in pages:
            out = evaluate(result.best.query, sample.doc.root, sample.doc)
            assert out == list(sample.targets)

    def test_noisy_sample_generalizes(self):
        """One sample annotates 3 of 4 list items; the induced wrapper
        should still select all four (noise resistance by design)."""
        doc = parse_html(
            "<html><body><ul>"
            + "".join(f"<li class='item'>v{i}</li>" for i in range(4))
            + "</ul></body></html>"
        )
        items = list(doc.root.iter_find(tag="li"))
        result = WrapperInducer().induce_one(doc, items[:3])
        matches = evaluate(result.best.query, doc.root, doc)
        assert {id(m) for m in matches} == {id(t) for t in items}

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            induce([])


class TestConfig:
    def test_k_controls_result_count(self, imdb_doc):
        target = imdb_doc.find(tag="h1")
        small = WrapperInducer(InductionConfig(k=3)).induce_one(imdb_doc, [target])
        large = WrapperInducer().induce_one(imdb_doc, [target])
        assert len(small) <= 3
        assert len(large) <= 10
        assert len(large) >= len(small)

    def test_results_deterministic(self, imdb_doc):
        target = imdb_doc.find(tag="span")
        first = WrapperInducer().induce_one(imdb_doc, [target])
        second = WrapperInducer().induce_one(imdb_doc, [target])
        assert [str(i.query) for i in first] == [str(i.query) for i in second]

    def test_k_is_set_in_the_config_only(self, imdb_doc):
        """Both inducers take ``(config, params)``: the config's ``k`` is
        the ``k``, and a config-set K ranks exactly as ``induce`` does."""
        import inspect

        from repro.induction.relative import RelativeWrapperInducer

        target = imdb_doc.find(tag="h1")
        config = InductionConfig(k=5)
        inducer = WrapperInducer(config)
        assert inducer.config.k == 5
        ranked = inducer.induce_one(imdb_doc, [target])
        reference = induce([QuerySample(imdb_doc, [target])], config)
        assert ranked.export() == reference.export()
        assert len(ranked) <= 5
        relative = RelativeWrapperInducer(InductionConfig(k=7))
        assert relative.config.k == 7 and not hasattr(relative, "k")
        for cls in (WrapperInducer, RelativeWrapperInducer):
            assert list(inspect.signature(cls).parameters) == ["config", "params"]
