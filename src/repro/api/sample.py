"""The facade's one annotation model.

A :class:`Sample` is what every induction mode consumes: a document, the
annotated target nodes, optionally one related field node per target and
per field name (record mode).  Locally it holds live DOM nodes; for the
wire it round-trips through the same portable representation the
artifact layer already uses for self-contained repair
(:class:`repro.runtime.artifact.StoredSample`: page HTML + canonical
paths + volatile text values), so a sample annotated in one process can
be induced from in another.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from repro.dom.node import Document, Node, TextNode
from repro.induction.config import VOLATILE_KEY
from repro.induction.relative import RecordExample
from repro.induction.samples import QuerySample
from repro.runtime.artifact import StoredSample, resolve_path
from repro.api.results import FacadeError
from repro.xpath.canonical import canonical_path


def mark_volatile(*nodes) -> None:
    """Mark text under ``nodes`` as volatile page *data*.

    The induction protocol (Sec. 6.2) never anchors wrappers on data
    values — only on template structure — but it learns which text is
    data from the ``meta[VOLATILE_KEY]`` mark.  Accepts any mix of
    nodes, documents, and iterables of either; every :class:`TextNode`
    at or below each argument is marked.
    """
    for item in nodes:
        if isinstance(item, Document):
            for text in item.index.texts:
                text.meta[VOLATILE_KEY] = True
        elif isinstance(item, TextNode):
            item.meta[VOLATILE_KEY] = True
        elif isinstance(item, Node):
            for child in item.descendants():
                if isinstance(child, TextNode):
                    child.meta[VOLATILE_KEY] = True
        elif isinstance(item, Iterable):
            mark_volatile(*item)
        else:
            raise TypeError(f"cannot mark {type(item).__name__} volatile")


class Sample:
    """One annotated page: ⟨document, targets⟩ plus optional record fields.

    ``fields`` maps a field name to one node per target (the targets are
    then the record *anchors*); all field sequences must align with the
    targets.  ``context`` is the evaluation context node (the document
    node when omitted) — note that stored/served wrappers require
    document-node contexts.
    """

    def __init__(
        self,
        doc: Document,
        targets: Sequence[Node],
        fields: Optional[Mapping[str, Sequence[Node]]] = None,
        context: Optional[Node] = None,
    ) -> None:
        self.doc = doc
        self.targets = list(targets)
        if not self.targets:
            raise ValueError("a sample needs at least one target node")
        self.context = context
        self.fields: Optional[dict[str, tuple[Node, ...]]] = None
        if fields is not None:
            converted = {name: tuple(nodes) for name, nodes in fields.items()}
            for name, nodes in converted.items():
                if len(nodes) != len(self.targets):
                    raise ValueError(
                        f"field {name!r} has {len(nodes)} nodes for "
                        f"{len(self.targets)} targets (one per target required)"
                    )
            self.fields = converted

    # -- engine views -------------------------------------------------------

    def as_query_sample(self) -> QuerySample:
        return QuerySample(self.doc, self.targets, self.context)

    def as_record_examples(self) -> list[RecordExample]:
        """Record-mode view: each target is an anchor with its fields."""
        if not self.fields:
            raise ValueError("record mode needs a sample with fields")
        return [
            RecordExample(
                anchor=anchor,
                fields={name: nodes[i] for name, nodes in self.fields.items()},
            )
            for i, anchor in enumerate(self.targets)
        ]

    # -- wire form ----------------------------------------------------------

    def to_payload(self) -> dict:
        """The portable (JSON) form: HTML + canonical paths + volatile
        text values.

        Built on :class:`~repro.runtime.artifact.StoredSample`, so the
        round trip is validated at build time (targets must re-resolve
        on the reparsed page) rather than at induction time.
        """
        payload = StoredSample.from_sample(self.as_query_sample()).to_payload()
        if self.fields:
            payload["fields"] = {
                name: [str(canonical_path(node)) for node in nodes]
                for name, nodes in sorted(self.fields.items())
            }
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "Sample":
        """Rebuild a live sample from its wire form (reparses the page
        and re-resolves every canonical path).  A payload that does not
        decode into a valid sample raises :class:`FacadeError`."""
        try:
            sample = StoredSample.from_payload(payload).restore()
            fields = None
            raw_fields = payload.get("fields")
            if raw_fields:
                if not isinstance(raw_fields, dict):
                    raise TypeError("'fields' must map field names to path lists")
                fields = {
                    str(name): tuple(
                        resolve_path(sample.doc, str(path)) for path in paths
                    )
                    for name, paths in raw_fields.items()
                }
            return cls(
                sample.doc,
                sample.targets,
                fields=fields,
                context=None if sample.context is sample.doc.root else sample.context,
            )
        except (TypeError, ValueError) as exc:
            raise FacadeError(f"malformed sample payload: {exc}") from exc

    def __repr__(self) -> str:
        fields = f", fields={sorted(self.fields)}" if self.fields else ""
        return f"Sample({len(self.targets)} target(s){fields})"


def coerce_samples(samples: Sequence) -> list[Sample]:
    """Normalize a facade ``samples`` argument: :class:`Sample` passes
    through, legacy :class:`~repro.induction.samples.QuerySample` is
    wrapped, anything else (and an empty sequence) is a
    :class:`~repro.api.results.FacadeError` — the one validation both
    the local and the remote client apply."""
    out: list[Sample] = []
    for sample in samples:
        if isinstance(sample, Sample):
            out.append(sample)
        elif isinstance(sample, QuerySample):
            out.append(Sample(sample.doc, sample.targets, context=sample.context))
        else:
            raise FacadeError(
                f"samples must be repro.api.Sample or QuerySample, "
                f"got {type(sample).__name__}"
            )
    if not out:
        raise FacadeError("at least one sample is required")
    return out


__all__ = ["Sample", "coerce_samples", "mark_volatile"]
