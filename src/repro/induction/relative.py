"""Relative wrapper induction (the paper's future-work item 1).

Sec. 7: "Extending the method to deal with multi-node wrappers where
not only a single item or list of items, but multiple related items are
to be extracted, is a natural step forward.  Our method is already
designed to allow the induction not only of absolute, but also of
relative expressions."

Algorithm 3 already handles samples whose context is an arbitrary node;
this module packages that into record extraction: given example records
(anchor node → related field nodes), it induces (a) an absolute wrapper
for the anchors and (b) one relative wrapper per field, evaluated from
each anchor.  Applying the pair wrapper to a page yields one record per
anchor node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.dom.node import Document, Node
from repro.induction.config import InductionConfig
from repro.induction.induce import InductionResult, induce
from repro.induction.samples import QuerySample
from repro.scoring.params import ScoringParams
from repro.xpath.ast import Query
from repro.xpath.compile import evaluate_compiled


@dataclass(frozen=True)
class RecordExample:
    """One example record: an anchor node and its named field nodes."""

    anchor: Node
    fields: Mapping[str, Node]


@dataclass
class RecordWrapper:
    """An anchor wrapper plus one relative wrapper per field."""

    anchor_query: Query
    field_queries: dict[str, Query]

    def extract(self, doc: Document) -> list[dict[str, Optional[Node]]]:
        """One record per anchor match; missing fields map to None."""
        records = []
        for anchor in evaluate_compiled(self.anchor_query, doc.root, doc):
            record: dict[str, Optional[Node]] = {"_anchor": anchor}
            for name, query in self.field_queries.items():
                matches = evaluate_compiled(query, anchor, doc)
                record[name] = matches[0] if matches else None
            records.append(record)
        return records

    def extract_values(self, doc: Document) -> list[dict[str, Optional[str]]]:
        """Records as normalized text values."""
        out = []
        for record in self.extract(doc):
            out.append(
                {
                    name: (doc.normalized_text(node) if node is not None else None)
                    for name, node in record.items()
                    if name != "_anchor"
                }
            )
        return out


class RelativeWrapperInducer:
    """Induce a :class:`RecordWrapper` from example records."""

    def __init__(
        self,
        config: Optional[InductionConfig] = None,
        params: Optional[ScoringParams] = None,
    ) -> None:
        self.config = config or InductionConfig()
        self.params = params or ScoringParams()

    def induce_ranked(
        self, doc: Document, examples: Sequence[RecordExample]
    ) -> tuple["InductionResult", dict[str, Query]]:
        """Like :meth:`induce`, but keeps the anchor *ranking*.

        Returns the full anchor :class:`InductionResult` (the facade and
        artifact layers need the K-best list and its accuracy counts,
        not just the winner) plus the best relative query per field.
        """
        if not examples:
            raise ValueError("at least one example record is required")
        field_names = set(examples[0].fields)
        for example in examples:
            if set(example.fields) != field_names:
                raise ValueError("all example records must share the same field names")

        anchors = [example.anchor for example in examples]
        anchor_result = induce(
            [QuerySample(doc, anchors)], self.config, self.params
        )
        if anchor_result.best is None:
            raise ValueError("no anchor wrapper could be induced")

        field_queries: dict[str, Query] = {}
        for name in sorted(field_names):
            samples = [
                QuerySample(doc, [example.fields[name]], context=example.anchor)
                for example in examples
            ]
            result = induce(samples, self.config, self.params)
            if result.best is None:
                raise ValueError(f"no relative wrapper for field {name!r}")
            field_queries[name] = result.best.query

        return anchor_result, field_queries

    def induce(self, doc: Document, examples: Sequence[RecordExample]) -> RecordWrapper:
        anchor_result, field_queries = self.induce_ranked(doc, examples)
        return RecordWrapper(
            anchor_query=anchor_result.best.query, field_queries=field_queries
        )
