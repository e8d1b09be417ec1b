"""Wrapper ensembles (the paper's future-work item 4).

Sec. 7: "no matter how sophisticated the wrapper language or scoring,
... the robustness of a single wrapper will always be limited.
Therefore, we are investigating techniques for inducing multiple
wrappers that use a variety of independent means for selecting a target
node."

This module selects a small committee of induced queries that rely on
*different features* (different anchor attributes, text labels, or
positional structure) and combines them by majority vote at extraction
time.  A class rename then breaks only the members anchored on that
class; the vote survives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.dom.node import Document, Node
from repro.induction.induce import InductionResult
from repro.xpath.ast import (
    AttrSubject,
    AttributePredicate,
    PositionalPredicate,
    Query,
    StringPredicate,
    TextSubject,
)
from repro.xpath.compile import evaluate_compiled


def feature_signature(query: Query) -> frozenset[str]:
    """The selection features a query depends on.

    Two queries with disjoint signatures break independently: one names
    the attributes/text constants/positional structure used.
    """
    features: set[str] = set()
    for step in query.steps:
        if step.nodetest.kind == "name":
            features.add(f"tag:{step.nodetest.name}")
        for predicate in step.predicates:
            if isinstance(predicate, PositionalPredicate):
                features.add("positional")
            elif isinstance(predicate, AttributePredicate):
                features.add(f"attr:{predicate.name}")
            elif isinstance(predicate, StringPredicate):
                if isinstance(predicate.subject, TextSubject):
                    features.add(f"text:{predicate.value}")
                else:
                    assert isinstance(predicate.subject, AttrSubject)
                    features.add(f"attr:{predicate.subject.name}={predicate.value}")
    return frozenset(features)


def fragile_signature(query: Query) -> frozenset[str]:
    """The *value-insensitive* fragile features of a query.

    ``feature_signature`` keeps predicate values, so two queries anchored
    on different class names look disjoint — yet a site-wide reskin
    renames every class at once and breaks both.  Here all predicates on
    the same attribute collapse to one key (``attr:class``), all text
    anchors to ``text``, and positional structure to ``positional``:
    the failure *modes*, not the failure values.  Tag names are not
    fragile — tag changes are structural rewrites, not skins.
    """
    features: set[str] = set()
    for step in query.steps:
        for predicate in step.predicates:
            if isinstance(predicate, PositionalPredicate):
                features.add("positional")
            elif isinstance(predicate, AttributePredicate):
                features.add(f"attr:{predicate.name}")
            elif isinstance(predicate, StringPredicate):
                if isinstance(predicate.subject, TextSubject):
                    features.add("text")
                else:
                    assert isinstance(predicate.subject, AttrSubject)
                    features.add(f"attr:{predicate.subject.name}")
    return frozenset(features)


def select_diverse(
    result: InductionResult | Sequence,
    size: int = 3,
    min_f_beta: float = 1.0,
    diversity: Optional[float] = None,
) -> list[Query]:
    """Pick up to ``size`` accurate queries with maximally disjoint features.

    Greedy: walk the ranking, keep a query if it shares as few features
    as possible with the committee so far (prefer fully disjoint ones).

    ``diversity`` (the "Diversified Multiple Trees" idiom) additionally
    penalizes sharing *fragile* feature classes with the committee: each
    slot picks the instance minimizing ``rank + diversity·overlap``,
    where overlap counts shared :func:`fragile_signature` keys.  A
    committee of three different-class anchors scores as three shared
    ``attr:class`` keys — with a meaningful weight (≥ 1) the selection
    trades a few ranks of accuracy for an anchor on a different failure
    mode, so one reskin no longer kills the whole vote.  ``None``
    preserves the accuracy-first behavior exactly.
    """
    instances = list(result)
    if diversity is not None:
        if diversity < 0:
            raise ValueError(f"diversity must be >= 0, got {diversity}")
        eligible = [
            (rank, instance)
            for rank, instance in enumerate(instances)
            if instance.f_beta() >= min_f_beta
        ]
        committee: list[Query] = []
        fragile_used: set[str] = set()
        chosen: set[int] = set()
        while len(committee) < size:
            best_rank = best_key = None
            for rank, instance in eligible:
                if rank in chosen or instance.query in committee:
                    continue
                overlap = len(fragile_signature(instance.query) & fragile_used)
                key = rank + diversity * overlap
                if best_key is None or key < best_key:
                    best_key, best_rank = key, rank
            if best_rank is None:
                break
            chosen.add(best_rank)
            committee.append(instances[best_rank].query)
            fragile_used |= fragile_signature(instances[best_rank].query)
        return committee
    committee: list[Query] = []
    used: set[str] = set()
    # First pass: fully feature-disjoint queries in rank order.
    for instance in instances:
        if len(committee) >= size:
            return committee
        if instance.f_beta() < min_f_beta:
            continue
        signature = feature_signature(instance.query)
        if signature and not (signature & used):
            committee.append(instance.query)
            used |= signature
    # Second pass: fill remaining slots with least-overlapping queries.
    for instance in instances:
        if len(committee) >= size:
            break
        if instance.f_beta() < min_f_beta:
            continue
        if instance.query in committee:
            continue
        committee.append(instance.query)
        used |= feature_signature(instance.query)
    return committee


@dataclass
class EnsembleWrapper:
    """Majority vote over member queries.

    A node is selected if at least ``quorum`` members select it; with
    the default quorum of ⌈n/2⌉ a single broken member cannot flip the
    result.
    """

    members: tuple[Query, ...]
    quorum: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("an ensemble needs at least one member")
        if self.quorum is None:
            self.quorum = len(self.members) // 2 + 1

    @classmethod
    def from_texts(
        cls, texts: Iterable[str], quorum: Optional[int] = None
    ) -> "EnsembleWrapper":
        """Rebuild an ensemble from canonical query texts (artifact loading)."""
        from repro.xpath.parser import parse_query

        return cls(tuple(parse_query(text) for text in texts), quorum=quorum)

    def member_texts(self) -> tuple[str, ...]:
        """Canonical texts of the members (the serializable form)."""
        return tuple(str(member) for member in self.members)

    def select(self, doc: Document) -> list[Node]:
        votes: dict[int, int] = {}
        nodes: dict[int, Node] = {}
        for member in self.members:
            for node in evaluate_compiled(member, doc.root, doc):
                key = doc.node_id(node)
                votes[key] = votes.get(key, 0) + 1
                nodes[key] = node
        selected = [nodes[key] for key, count in votes.items() if count >= self.quorum]
        return doc.sort_nodes(selected)

    def __str__(self) -> str:
        return " ⊕ ".join(str(member) for member in self.members)


def build_ensemble(
    result: InductionResult, size: int = 3, diversity: Optional[float] = None
) -> EnsembleWrapper:
    """Select a feature-diverse committee from an induction result."""
    members = select_diverse(result, size=size, diversity=diversity)
    if not members:
        best = result.best
        if best is None:
            raise ValueError("no queries available for an ensemble")
        members = [best.query]
    return EnsembleWrapper(tuple(members))
