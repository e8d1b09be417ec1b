"""Candidate node tests + predicates for one node (``nodePattern``, Sec. 5).

For a node u this generates patterns of the form *nodetest* plus at most
one attribute/text predicate (the positional refinement, which depends
on the axis and context, is added by :mod:`repro.induction.step_pattern`).
Following the paper:

* tests start from the most general (``node()``) down to the tag name;
* one predicate compares an attribute or the text value, using
  equals/contains/starts-with/ends-with;
* string constants are either single words of the document or the full
  text/attribute value of a node (which makes them plausible by
  construction);
* text predicates never use *volatile* text — text nodes marked as page
  data rather than template (Sec. 6.2's evaluation protocol).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dom.node import Document, ElementNode, Node, TextNode
from repro.induction.config import VOLATILE_KEY, InductionConfig
from repro.scoring.params import ScoringParams
from repro.scoring.score import score_nodetest, score_predicate
from repro.xpath.ast import (
    ANY,
    AttrSubject,
    AttributePredicate,
    NODE,
    NodeTest,
    Predicate,
    StringPredicate,
    TEXT,
    TextSubject,
    name_test,
)

#: Per-value caps on generated string predicates: words taken from one
#: text or attribute value, and the longest text or attribute value an
#: equality predicate may compare against.
MAX_WORDS_PER_VALUE = 4
MAX_TEXT_LENGTH = 60
MAX_ATTR_VALUE_LENGTH = 80

#: Attributes never used in predicates (too volatile / non-semantic).
SKIPPED_ATTRIBUTES = frozenset({"style"})


@dataclass(frozen=True)
class NodePattern:
    """A node test with zero or one (non-positional) predicate."""

    nodetest: NodeTest
    predicates: tuple[Predicate, ...]


def _dedupe_words(values: list[str], limit: int) -> list[str]:
    seen: set[str] = set()
    words: list[str] = []
    for value in values:
        if value and value not in seen:
            seen.add(value)
            words.append(value)
            if len(words) >= limit:
                break
    return words


def _attribute_predicates(node: ElementNode) -> list[Predicate]:
    predicates: list[Predicate] = []
    for name in sorted(node.attrs):
        if name in SKIPPED_ATTRIBUTES:
            continue
        value = node.attrs[name]
        subject = AttrSubject(name)
        if value and len(value) <= MAX_ATTR_VALUE_LENGTH:
            predicates.append(StringPredicate("equals", subject, value))
        words = _dedupe_words(value.split(), MAX_WORDS_PER_VALUE)
        for word in words:
            if word != value:
                predicates.append(StringPredicate("contains", subject, word))
        predicates.append(AttributePredicate(name))
    return predicates


def _template_text_runs(node: Node) -> list[TextNode]:
    """Descendant text nodes that are template (non-volatile) text."""
    if isinstance(node, TextNode):
        nodes = [node]
    else:
        assert isinstance(node, ElementNode)
        nodes = [n for n in node.descendants() if isinstance(n, TextNode)]
    return [n for n in nodes if not n.meta.get(VOLATILE_KEY)]


def _text_predicates(node: Node, doc: Document) -> list[Predicate]:
    runs = _template_text_runs(node)
    if not runs:
        return []
    subject = TextSubject()
    predicates: list[Predicate] = []
    full_text = doc.normalized_text(node)

    all_template = len(runs) == len(
        [n for n in ([node] if isinstance(node, TextNode) else node.descendants())
         if isinstance(n, TextNode)]
    )
    if all_template and full_text and len(full_text) <= MAX_TEXT_LENGTH:
        predicates.append(StringPredicate("equals", subject, full_text))

    # starts-with on the leading template run ("Director:" style labels).
    first_run = runs[0].normalized_text()
    if first_run and full_text.startswith(first_run):
        predicates.append(StringPredicate("starts-with", subject, first_run))
        first_word = first_run.split()[0]
        if first_word != first_run and len(runs) > 0:
            predicates.append(StringPredicate("starts-with", subject, first_word))

    # contains on template words.
    words: list[str] = []
    for run in runs:
        words.extend(run.normalized_text().split())
    for word in _dedupe_words(words, MAX_WORDS_PER_VALUE):
        if word != full_text and word != first_run:
            predicates.append(StringPredicate("contains", subject, word))

    # ends-with on the trailing template run.
    last_run = runs[-1].normalized_text()
    if last_run and last_run != first_run and full_text.endswith(last_run):
        predicates.append(StringPredicate("ends-with", subject, last_run))
    return predicates


def node_patterns(
    node: Node,
    doc: Document,
    config: InductionConfig,
    params: ScoringParams,
) -> list[NodePattern]:
    """All candidate patterns for ``node``, cheapest first, capped by the
    config's ``max_node_patterns`` generation cap.

    Returns an empty list for synthetic roots (they cannot be matched by
    any dsXPath node test, which is intended).
    """
    # Following the paper's nodePattern listing ("node() div div[@id='x']
    # div[@class='y'] div[contains(.,'z')]"), attribute/text predicates
    # attach to the *specific* test only; generic tests are generated
    # bare (they still receive positional refinements in stepPattern,
    # e.g. the sideways hop following-sibling::node()[1]).
    if isinstance(node, TextNode):
        specific: list[NodeTest] = [TEXT]
        generic: list[NodeTest] = [NODE]
    elif isinstance(node, ElementNode):
        if node.tag.startswith("#"):
            return []
        specific = [name_test(node.tag)]
        generic = [NODE, ANY]
    else:
        return []

    predicate_options: list[tuple[Predicate, ...]] = [()]
    if isinstance(node, ElementNode):
        predicate_options.extend((p,) for p in _attribute_predicates(node))
    predicate_options.extend((p,) for p in _text_predicates(node, doc))

    patterns = [NodePattern(test, ()) for test in generic]
    patterns.extend(
        NodePattern(test, predicates)
        for test in specific
        for predicates in predicate_options
    )

    def pattern_cost(pattern: NodePattern) -> float:
        cost = score_nodetest(pattern.nodetest, params)
        for predicate in pattern.predicates:
            cost += score_predicate(predicate, params)
        return cost

    patterns.sort(key=lambda p: (pattern_cost(p), str(p.nodetest), str(p.predicates)))
    return patterns[: config.caps.max_node_patterns]
