"""Extraction: many (wrapper, page) pairs, one parse per page.

A naive deployment loop treats every (wrapper, page) pair on its own:
parse the page, build its document index, evaluate one query.  Parsing
and indexing dominate single-query evaluation, so when several
wrappers target the same page (every site runs multiple extraction
tasks, and every artifact carries an ensemble) that loop re-pays the
dominant cost per *pair*.

:func:`extract_pages` is the one per-page kernel: one parse and one
document index per page, every wrapper evaluated against it through
the globally memoized text-plan cache
(:func:`repro.xpath.compile.compile_text`, shared across pages since
plans are document independent; loading an artifact compiles its
deployed wrappers into it).
:func:`extract_records` runs it in process over a list of
:class:`PageJob`\\ s (the CLI's ``extract``), and the serving layer
(:mod:`repro.runtime.serve`) runs it on its thread with a parse cache.

``benchmarks/bench_runtime.py`` records the speedup over the per-pair
loop on the full corpus in ``BENCH_runtime.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.dom.node import AttributeNode, Document, Node
from repro.dom.parser import parse_html
from repro.xpath.canonical import canonical_path
from repro.xpath.cache import CachedEvaluator
from repro.xpath.compile import compile_text

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.artifact import WrapperArtifact
    from repro.runtime.serve import ParseCache


@dataclass(frozen=True)
class PageJob:
    """One page with every wrapper that should run against it.

    ``wrappers`` maps wrapper ids to canonical dsXPath text — ids are
    caller-chosen (task ids, ``task#member2``, ...) and flow through to
    the records unchanged.
    """

    page_id: str
    html: str
    wrappers: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class ExtractionRecord:
    """What one wrapper extracted from one page.

    ``paths`` are the canonical paths of the matched nodes (attribute
    matches use a trailing ``attribute::name`` step), ``values`` their
    normalized text — the portable representation of a result set.
    """

    page_id: str
    wrapper_id: str
    paths: tuple[str, ...]
    values: tuple[str, ...]

    @property
    def count(self) -> int:
        return len(self.paths)

    @property
    def is_empty(self) -> bool:
        return not self.paths


def _node_reference(doc: Document, node: Node) -> tuple[str, str]:
    """(canonical path, normalized text) of a result node."""
    if isinstance(node, AttributeNode):
        return str(canonical_path(node)), node.value
    return str(canonical_path(node)), doc.normalized_text(node)


def extract_document(
    doc: Document,
    wrappers: Sequence[tuple[str, str]],
    page_id: str = "",
) -> list[ExtractionRecord]:
    """Evaluate several wrappers against one already-parsed document."""
    evaluator = CachedEvaluator(doc)
    records: list[ExtractionRecord] = []
    for wrapper_id, text in wrappers:
        matches = evaluator.evaluate_plan(compile_text(text), doc.root)
        references = [_node_reference(doc, node) for node in matches]
        records.append(
            ExtractionRecord(
                page_id=page_id,
                wrapper_id=wrapper_id,
                paths=tuple(path for path, _ in references),
                values=tuple(value for _, value in references),
            )
        )
    return records


#: One page's answer from :func:`extract_pages`: the exception that kept
#: the page from parsing, or one slot per wrapper — its record, or the
#: exception that wrapper raised.
PageSlots = Union[Exception, list[Union[ExtractionRecord, Exception]]]


def extract_pages(
    pages: Sequence[tuple[str, str, Sequence[tuple[str, str]]]],
    cache: Optional["ParseCache"] = None,
) -> tuple[list[PageSlots], dict[str, int]]:
    """The per-page kernel: parse each ``(page_id, html, wrappers)``
    page once, then run each wrapper through :func:`extract_document`
    on its own, so a failing wrapper fails only its own slot.

    ``cache`` is the serving layer's :class:`~repro.runtime.serve.ParseCache`;
    without one every page is parsed.  Returns one :data:`PageSlots` per
    page, in order, and the parse counts: ``parsed`` (parses performed),
    ``cache_hits`` (parses the cache absorbed), ``cache_evictions``.
    """
    out: list[PageSlots] = []
    stats = {"parsed": 0, "cache_hits": 0, "cache_evictions": 0}
    for page_id, html, wrappers in pages:
        doc = cache.get(html) if cache is not None else None
        if doc is None:
            try:
                doc = parse_html(html)
            except Exception as exc:  # noqa: BLE001 - reported per page
                out.append(exc)
                continue
            stats["parsed"] += 1
            if cache is not None:
                stats["cache_evictions"] += cache.put(html, doc)
        else:
            stats["cache_hits"] += 1
        slots: list[Union[ExtractionRecord, Exception]] = []
        for wrapper in wrappers:
            try:
                slots.extend(extract_document(doc, [wrapper], page_id))
            except Exception as exc:  # noqa: BLE001 - reported per wrapper
                slots.append(exc)
        out.append(slots)
    return out, stats


def extract_records(jobs: Sequence[PageJob]) -> list[ExtractionRecord]:
    """Run :func:`extract_pages` over ``jobs`` in process.

    Records come back in job order (per page, wrappers in job order),
    so callers can zip them against their inputs.  A page that fails to
    parse, or a wrapper that fails to evaluate, raises its exception.
    """
    pages, _ = extract_pages([(job.page_id, job.html, job.wrappers) for job in jobs])
    records: list[ExtractionRecord] = []
    for page in pages:
        if isinstance(page, Exception):
            raise page
        for slot in page:
            if isinstance(slot, Exception):
                raise slot
            records.append(slot)
    return records


def jobs_for_artifacts(
    artifacts: Sequence["WrapperArtifact"],
    page_html: dict[str, str],
    include_ensemble: bool = True,
    page_suffix: str = "",
) -> list[PageJob]:
    """Group artifacts by site page into batch jobs.

    ``page_html`` maps site ids to page HTML (e.g. rendered archive
    snapshots).  Each artifact contributes its top query under its task
    id and, when ``include_ensemble``, its committee members under
    ``<task_id>#m<i>``.  Artifacts whose site has no page are skipped.
    """
    by_site: dict[str, list[tuple[str, str]]] = {}
    for artifact in artifacts:
        if artifact.site_id not in page_html:
            continue
        wrappers = by_site.setdefault(artifact.site_id, [])
        wrappers.append((artifact.task_id, artifact.best.text))
        if include_ensemble:
            wrappers.extend(
                (f"{artifact.task_id}#m{i}", text)
                for i, text in enumerate(artifact.ensemble)
            )
    return [
        PageJob(
            page_id=site_id + page_suffix,
            html=page_html[site_id],
            wrappers=tuple(wrappers),
        )
        for site_id, wrappers in sorted(by_site.items())
    ]
