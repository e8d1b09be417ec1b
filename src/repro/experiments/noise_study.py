"""Noise resistance (Sec. 6.4 — Figure 7 and the real-life NER study).

Synthetic noise: for each sample we induce once from the clean targets
and once from noised targets; noise resistance at an intensity is the
fraction of samples whose *top-ranked expression is identical* with and
without noise (the paper's "most aggressive" criterion).  A secondary
statistic counts noisy results appearing within the clean top-50.

Real-life noise: the simulated NER annotates product-listing pages; the
study reports how often the top-ranked expression recovers exactly the
intended entity list despite the annotation errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.dom.node import Document, Node
from repro.induction import InductionConfig, WrapperInducer
from repro.metrics.robustness import same_result_set
from repro.noise.ner import NERProfile, SimulatedNER
from repro.noise.synthetic import apply_noise
from repro.sites.corpus import CorpusTask, multi_node_tasks
from repro.sites.listings import listing_pages
from repro.util import seeded_rng
from repro.xpath.evaluator import evaluate


@dataclass
class NoiseSample:
    """One clean sample plus its baseline induction."""

    sample_id: str
    doc: Document
    targets: list[Node]
    baseline_query: object  # Query
    baseline_top: list[object]


@dataclass
class NoisePoint:
    noise_type: str
    intensity: float
    identical: int
    within_top50: int
    total: int

    @property
    def identical_rate(self) -> float:
        return self.identical / self.total if self.total else 0.0

    @property
    def top50_rate(self) -> float:
        return self.within_top50 / self.total if self.total else 0.0


def build_noise_samples(
    tasks: Optional[Sequence[CorpusTask]] = None,
    limit: int = 24,
    inducer: Optional[WrapperInducer] = None,
    min_targets: int = 2,
    top_n: int = 50,
) -> list[NoiseSample]:
    """Clean samples with their baseline inductions (reused across points)."""
    from repro.evolution.archive import SyntheticArchive

    tasks = list(tasks) if tasks is not None else multi_node_tasks()
    inducer = inducer or WrapperInducer()
    samples: list[NoiseSample] = []
    for corpus_task in tasks:
        if len(samples) >= limit:
            break
        archive = SyntheticArchive(corpus_task.spec, n_snapshots=1)
        doc = archive.snapshot(0)
        targets = archive.targets(doc, corpus_task.task.role)
        if len(targets) < min_targets:
            continue
        result = inducer.induce_one(doc, targets)
        if result.best is None:
            continue
        samples.append(
            NoiseSample(
                sample_id=corpus_task.task_id,
                doc=doc,
                targets=targets,
                baseline_query=result.best.query,
                baseline_top=[i.query for i in result.top(top_n)],
            )
        )
    return samples


def noise_resistance_curve(
    samples: Sequence[NoiseSample],
    noise_type: str,
    intensities: Sequence[float],
    inducer: Optional[WrapperInducer] = None,
    repetitions: int = 1,
    seed: int = 0,
) -> list[NoisePoint]:
    """One Fig. 7 curve: identical-result rate per intensity."""
    inducer = inducer or WrapperInducer()
    points = []
    for intensity in intensities:
        identical = within = total = 0
        for sample in samples:
            for repetition in range(repetitions):
                rng = seeded_rng("noise", noise_type, intensity, sample.sample_id, repetition, seed)
                noisy = apply_noise(noise_type, sample.doc, sample.targets, intensity, rng)
                if not noisy:
                    continue
                result = inducer.induce_one(sample.doc, noisy)
                total += 1
                if result.best is None:
                    continue
                if result.best.query == sample.baseline_query:
                    identical += 1
                    within += 1
                elif any(result.best.query == q for q in sample.baseline_top):
                    within += 1
        points.append(
            NoisePoint(
                noise_type=noise_type,
                intensity=intensity,
                identical=identical,
                within_top50=within,
                total=total,
            )
        )
    return points


@dataclass
class NERPageResult:
    page_id: str
    entity_type: str
    list_size: int
    negative_noise: float
    positive_noise: float
    exact: bool
    selected: int


@dataclass
class NERStudyResult:
    pages: list[NERPageResult]

    @property
    def success_rate(self) -> float:
        if not self.pages:
            return 0.0
        return sum(p.exact for p in self.pages) / len(self.pages)

    @property
    def avg_negative_noise(self) -> float:
        return sum(p.negative_noise for p in self.pages) / len(self.pages)

    @property
    def avg_positive_noise(self) -> float:
        return sum(p.positive_noise for p in self.pages) / len(self.pages)


def run_ner_study(
    n_pages: int = 10,
    profile: Optional[NERProfile] = None,
    inducer: Optional[WrapperInducer] = None,
    seed: int = 0,
    sizes: Optional[tuple[int, ...]] = None,
) -> NERStudyResult:
    """The Sec. 6.4 real-life-noise experiment on listing pages."""
    from repro.sites.listings import DEFAULT_LIST_SIZES

    inducer = inducer or WrapperInducer()
    ner = SimulatedNER(profile)
    results = []
    pages = listing_pages(
        n_pages=n_pages, seed=seed, sizes=sizes or DEFAULT_LIST_SIZES
    )
    for spec, doc in pages:
        rng = seeded_rng("ner", spec.page_id, seed)
        annotation = ner.annotate(doc, spec.entity_type, rng)
        induced = inducer.induce_one(doc, annotation.nodes)
        exact = False
        selected = 0
        if induced.best is not None:
            result_nodes = evaluate(induced.best.query, doc.root, doc)
            selected = len(result_nodes)
            exact = same_result_set(result_nodes, annotation.true_targets)
        results.append(
            NERPageResult(
                page_id=spec.page_id,
                entity_type=spec.entity_type,
                list_size=spec.list_size,
                negative_noise=annotation.negative_noise,
                positive_noise=annotation.positive_noise,
                exact=exact,
                selected=selected,
            )
        )
    return NERStudyResult(pages=results)
