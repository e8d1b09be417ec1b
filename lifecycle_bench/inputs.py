"""Seeded input generation: HTML strings and canonical paths, nothing else.

Every workload input is built here, during set-up, from the benchmark
seed alone.  Pages are rendered to HTML strings and annotations to
canonical paths, so the measured code only ever sees what a deployment
would receive: it re-parses the HTML and re-locates its targets.  The
generators (``repro.sitegen``, ``repro.sites.listings``,
``repro.evolution``) are used only here and are not measured.

The seed drives the text of every page: each seed enciphers the letters
and digits of every text node with its own permutation.  Site templates,
page histories, list sizes and listing records come from fixed seeds, so
every seed has the same page structures, the same string lengths and the
same equalities between strings, and the program does the same work for
every seed.  (Seeded histories made the median page cost of the
extraction workloads differ by a third from one seed to the next, far
more than run-to-run noise.)  The same seed gives byte-identical inputs
(``digest``); a different seed gives different ones.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import string
from dataclasses import dataclass

from repro.dom.node import TextNode
from repro.dom.parser import parse_html
from repro.dom.serialize import to_html
from repro.evolution.archive import SyntheticArchive
from repro.sitegen import default_roster, generate_family
from repro.sites.listings import ENTITY_TYPES, ListingPageSpec, build_listing_page
from repro.xpath.canonical import canonical_path

#: Families in the roster.  The extraction workloads serve one member
#: site per family, the maintain workload two; every site carries 2-3
#: extraction tasks.
N_FAMILIES = 8
EXTRACTION_SITES_PER_FAMILY = 1
MAINTAIN_SITES_PER_FAMILY = 2
#: Archive length of the maintain workload; every family breaks halfway.
MAINTAIN_SNAPSHOTS = 12
#: Organic churn of the extraction-stream families (0 = calm).
STREAM_CHURN = 1.0
#: Listing sites: one template per entity type, every other one with
#: the sidebar trap.
LISTING_SITES = tuple(
    (entity_type, index % 2 == 1) for index, entity_type in enumerate(ENTITY_TYPES)
)
#: Entity counts of stream listing pages, cycled: Sec. 6.4 lists hold
#: 8-77 entities; the stream goes to 120.
LISTING_SIZES = tuple(range(8, 121, 7))
#: Entity counts of annotated listing pages: pruned induction cost grows
#: with the list, so wrappers are induced on short lists and then serve
#: lists of any length.
ANNOTATED_LISTING_SIZES = (8, 10, 12, 14, 16)
#: Seed of everything but the text: site templates (the roster's family
#: seeds), page histories and listing records.
TEMPLATE_SEED = 0


@dataclass(frozen=True)
class Annotation:
    """One annotated page: the HTML and the canonical paths of its targets."""

    key: str
    html: str
    paths: tuple[str, ...]
    #: Induction options (``{"search": "pruned"}`` on listing pages).
    options: tuple[tuple[str, str], ...] = ()

    def to_json(self) -> dict:
        return {
            "key": self.key,
            "html": self.html,
            "paths": list(self.paths),
            "options": dict(self.options),
        }


@dataclass(frozen=True)
class Page:
    """One page of a stream: its site, its HTML, and the wrapper keys
    that run against it."""

    site: str
    html: str
    keys: tuple[str, ...]

    def to_json(self) -> dict:
        return {"site": self.site, "html": self.html, "keys": list(self.keys)}


@dataclass(frozen=True)
class MaintainTask:
    """One task of the break-and-heal journey.

    ``snapshots[i]`` is the HTML of snapshot ``i`` and ``truth[i]`` the
    canonical paths of the task's targets on it.  ``break_at`` is the
    scripted break snapshot (``None`` for listing tasks, which are
    annotated once and induced with the pruned search).
    """

    key: str
    snapshots: tuple[str, ...]
    truth: tuple[tuple[str, ...], ...]
    break_at: int | None
    options: tuple[tuple[str, str], ...] = ()

    def to_json(self) -> dict:
        return {
            "key": self.key,
            "snapshots": list(self.snapshots),
            "truth": [list(paths) for paths in self.truth],
            "break_at": self.break_at,
            "options": dict(self.options),
        }


def _paths(nodes) -> tuple[str, ...]:
    return tuple(str(canonical_path(node)) for node in nodes)


def text_cipher(seed: int) -> dict[int, str]:
    """The seed's permutation of ASCII letters (case kept) and digits, as
    a ``str.translate`` table."""
    rng = random.Random(seed)
    letters = rng.sample(string.ascii_lowercase, len(string.ascii_lowercase))
    digits = rng.sample(string.digits, len(string.digits))
    table = {}
    for plain, cipher in zip(string.ascii_lowercase, letters):
        table[ord(plain)] = cipher
        table[ord(plain.upper())] = cipher.upper()
    for plain, cipher in zip(string.digits, digits):
        table[ord(plain)] = cipher
    return table


def _render(doc, cipher: dict[int, str]) -> str:
    """The HTML of ``doc`` with every text node enciphered.  The page is
    re-parsed first, as the program will parse it, so the generator's
    document is left as it was."""
    page = parse_html(to_html(doc))
    for node in page.root.descendants():
        if isinstance(node, TextNode):
            node.text = node.text.translate(cipher)
    return to_html(page)


def _families(snapshots: int, churn: float, n_sites: int):
    for spec in default_roster(
        N_FAMILIES, snapshots=snapshots, seed=TEMPLATE_SEED, n_sites=n_sites
    ):
        if churn:
            spec = dataclasses.replace(spec, change_scale=churn)
        yield generate_family(spec)


def _listing_site(entity_type: str, sidebar: bool) -> str:
    return f"listing-{entity_type}{'-sidebar' if sidebar else ''}"


def _listing_page(entity_type: str, sidebar: bool, size: int, records_seed: int, cipher):
    spec = ListingPageSpec(
        _listing_site(entity_type, sidebar), entity_type, size, sidebar, records_seed
    )
    doc = build_listing_page(spec)
    return _render(doc, cipher), _paths(doc.find_by_meta("role", "entities"))


def _listing_annotations(cipher) -> list[Annotation]:
    out = []
    for (entity_type, sidebar), size in zip(LISTING_SITES, ANNOTATED_LISTING_SIZES):
        html, paths = _listing_page(entity_type, sidebar, size, TEMPLATE_SEED, cipher)
        out.append(
            Annotation(
                f"{_listing_site(entity_type, sidebar)}/entities",
                html,
                paths,
                (("search", "pruned"),),
            )
        )
    return out


@dataclass
class ExtractionInputs:
    """Inputs of the two extraction workloads.

    ``annotations`` are the snapshot-0 family pages and one page per
    listing template, from which set-up induces and deploys every
    wrapper.  ``pages`` is the crawl stream; ``warmup`` holds pages of
    the same sites that never occur in the stream.
    """

    annotations: list[Annotation]
    pages: list[Page]
    warmup: list[Page]

    def to_json(self) -> dict:
        return {
            "annotations": [a.to_json() for a in self.annotations],
            "pages": [p.to_json() for p in self.pages],
            "warmup": [p.to_json() for p in self.warmup],
        }


def extraction_inputs(seed: int, n_snapshots: int, n_listing_pages: int) -> ExtractionInputs:
    """Family snapshots with organic churn interleaved with Sec. 6.4
    listing pages.  Family snapshot 0 is the annotation, the last
    snapshot of each site is the warm-up page, and the snapshots in
    between form the stream; ``n_listing_pages`` fresh listing pages
    (8-120 entities, each with records of its own) are spread evenly
    through it."""
    cipher = text_cipher(seed)
    annotations: list[Annotation] = []
    family_pages: list[list[Page]] = []
    warmup: list[Page] = []
    for family in _families(n_snapshots, STREAM_CHURN, EXTRACTION_SITES_PER_FAMILY):
        for site in family.sites:
            archive = SyntheticArchive(site, n_snapshots=n_snapshots, seed=TEMPLATE_SEED)
            doc0 = archive.snapshot(0)
            html0 = _render(doc0, cipher)
            keys = []
            for task in site.tasks:
                targets = archive.targets(doc0, task.role)
                if targets:
                    annotations.append(Annotation(task.task_id, html0, _paths(targets)))
                    keys.append(task.task_id)
            if not keys:
                continue
            pages = [
                Page(site.site_id, _render(archive.snapshot(i), cipher), tuple(keys))
                for i in range(1, n_snapshots)
            ]
            warmup.append(pages.pop())
            family_pages.append(pages)
    annotations.extend(_listing_annotations(cipher))

    listing_pages = []
    for i in range(n_listing_pages + len(LISTING_SITES)):
        entity_type, sidebar = LISTING_SITES[i % len(LISTING_SITES)]
        size = LISTING_SIZES[i % len(LISTING_SIZES)]
        html, _ = _listing_page(entity_type, sidebar, size, TEMPLATE_SEED + i + 1, cipher)
        site = _listing_site(entity_type, sidebar)
        listing_pages.append(Page(site, html, (f"{site}/entities",)))
    warmup.extend(listing_pages[:len(LISTING_SITES)])
    listing_pages = listing_pages[len(LISTING_SITES):]

    # Crawl order: snapshot by snapshot across sites, listing pages
    # spread evenly through the family pages.
    family_stream = [page for batch in zip(*family_pages) for page in batch]
    stride = max(1, len(family_stream) // max(1, len(listing_pages)))
    stream: list[Page] = []
    for index, page in enumerate(family_stream):
        stream.append(page)
        if index % stride == stride - 1 and listing_pages:
            stream.append(listing_pages.pop(0))
    stream.extend(listing_pages)
    return ExtractionInputs(annotations, stream, warmup)


def maintain_inputs(seed: int) -> list[MaintainTask]:
    """Every single-node task of the calm, scripted-break roster, plus
    one pruned listing task per listing template.

    Multi-node family tasks are left to the listing tasks: their
    ensemble inductions take 0.1-0.6 s and their heals up to 1.5 s, so
    a few of them would fill a whole run, and some of them never heal
    to exact precision and recall, even by re-annotation.
    """
    cipher = text_cipher(seed)
    tasks: list[MaintainTask] = []
    for family in _families(MAINTAIN_SNAPSHOTS, 0.0, MAINTAIN_SITES_PER_FAMILY):
        for member, site in enumerate(family.sites):
            archive = SyntheticArchive(
                site, n_snapshots=MAINTAIN_SNAPSHOTS, cache_size=MAINTAIN_SNAPSHOTS,
                seed=TEMPLATE_SEED,
            )
            docs = [archive.snapshot(i) for i in range(MAINTAIN_SNAPSHOTS)]
            html = tuple(_render(doc, cipher) for doc in docs)
            (point,) = family.scripts[member].points
            for task in site.tasks:
                if task.multi:
                    continue
                truth = tuple(_paths(archive.targets(doc, task.role)) for doc in docs)
                if not all(truth):
                    continue  # the role is missing on some snapshot: nothing to heal to
                tasks.append(MaintainTask(task.task_id, html, truth, point.at_snapshot))
    listings = [
        MaintainTask(annotation.key, (annotation.html,), (annotation.paths,), None,
                     annotation.options)
        for annotation in _listing_annotations(cipher)
    ]
    # Listing tasks spread evenly through the family tasks, so every
    # prefix of the task list (a run's worth) holds both kinds.
    stride = max(1, len(tasks) // len(listings))
    for offset, listing in enumerate(listings):
        tasks.insert(min(len(tasks), offset * (stride + 1) + stride // 2), listing)
    return tasks


def digest(payload) -> str:
    """SHA-256 of the canonical JSON form of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
