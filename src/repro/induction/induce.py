"""Path induction — Algorithm 3 (``induce``) and the public API.

Per sample: if one base axis reaches all targets, Algorithm 2 applies
directly.  Otherwise the query must be two-directional: the least
common ancestor ``l`` of the targets (or of targets ∪ {u}) splits it
into an upward part u→l and a downward part l→targets; the downward
K-best instances seed ``best(l)`` and Algorithm 2 then runs upward.

Multiple samples are handled by inducing per sample and re-scoring
every candidate on *all* samples (aggregate), exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.dom.node import Document, Node
from repro.induction.config import InductionConfig
from repro.induction.induce_path import (
    BestTables,
    PathInductionContext,
    TargetTable,
    induce_path,
    init_tables,
)
from repro.induction.samples import QuerySample
from repro.induction.spine import base_axis_between, common_base_axis, lca, spine
from repro.scoring.params import ScoringParams
from repro.scoring.ranking import KBestTable, QueryInstance, rank_key
from repro.xpath.ast import Axis, Query
from repro.xpath.cache import CachedEvaluator


@dataclass
class InductionStats:
    """Deterministic counters from one ``induce()`` run.

    Purely observational — never feeds back into ranking — so stamping
    these into artifact provenance / ``/metrics`` is parity-safe.
    """

    search: str = "exhaustive"
    #: Samples (folds) induced.
    folds: int = 0
    #: Candidates seen at DP positions where pruning was attempted.
    candidates_considered: int = 0
    #: Candidates the stochastic beam dropped before full DP scoring.
    candidates_pruned: int = 0

    def as_payload(self) -> dict:
        return {
            "search": self.search,
            "folds": self.folds,
            "candidates_considered": self.candidates_considered,
            "candidates_pruned": self.candidates_pruned,
        }


@dataclass
class InductionResult:
    """Ranked query instances with accuracy aggregated over all samples."""

    instances: list[QueryInstance]
    beta: float = 0.5
    #: Run counters (see :class:`InductionStats`); not part of the
    #: ranking payload — ``export()`` is unchanged.
    stats: Optional[InductionStats] = None

    @property
    def best(self) -> Optional[QueryInstance]:
        return self.instances[0] if self.instances else None

    def top(self, k: int) -> list[QueryInstance]:
        return self.instances[:k]

    def queries(self) -> list[Query]:
        return [instance.query for instance in self.instances]

    def __len__(self) -> int:
        return len(self.instances)

    def __iter__(self):
        return iter(self.instances)

    def export(self, limit: Optional[int] = None) -> list[dict]:
        """Serializable view of the ranking (the artifact export hook).

        Each entry carries the canonical query text, the robustness
        score, and the accuracy counts — everything
        :class:`repro.runtime.artifact.WrapperArtifact` persists per
        candidate, and everything needed to reconstruct the rank order.
        """
        instances = self.instances if limit is None else self.instances[:limit]
        return [
            {
                "query": str(instance.query),
                "score": instance.score,
                "tp": instance.tp,
                "fp": instance.fp,
                "fn": instance.fn,
                "f_beta": instance.f_beta(self.beta),
            }
            for instance in instances
        ]


def _induce_sample(
    sample: QuerySample,
    config: InductionConfig,
    params: ScoringParams,
    stats: Optional[InductionStats] = None,
) -> list[QueryInstance]:
    """Algorithm 3, lines 1–15, for one sample."""
    doc = sample.doc
    ctx = PathInductionContext.for_doc(doc, config, params)
    try:
        return _induce_sample_ctx(ctx, sample, config)
    finally:
        if stats is not None and ctx.pruner is not None:
            stats.candidates_considered += ctx.pruner.considered
            stats.candidates_pruned += ctx.pruner.skipped


def _induce_sample_ctx(
    ctx: PathInductionContext, sample: QuerySample, config: InductionConfig
) -> list[QueryInstance]:
    doc = sample.doc
    u = sample.context
    targets = list(sample.targets)
    if any(v is u for v in targets):
        raise ValueError("the context node cannot itself be a target")

    axis = common_base_axis(u, targets)
    if axis is not None:
        best = init_tables(doc, targets, config.k, config.beta)
        tar: TargetTable = {}
        return induce_path(ctx, u, targets, axis, best, tar).items

    # Two-directional: find the pivot l (Alg. 3, L5–7).
    pivot = lca(targets)
    pivot_ids = {doc.node_id(v) for v in targets}
    if doc.node_id(pivot) in pivot_ids or base_axis_between(u, pivot) is None or pivot is u:
        pivot = lca(targets + [u])

    down_axis = common_base_axis(pivot, targets)
    if down_axis is None:
        raise ValueError("targets are not reachable from their LCA via one base axis")
    down_best = init_tables(doc, targets, config.k, config.beta)
    pivot_table = induce_path(ctx, pivot, targets, down_axis, down_best, {})

    up_axis = base_axis_between(u, pivot)
    if up_axis is None:
        raise ValueError("no base axis from the context to the LCA pivot")

    best: BestTables = {doc.node_id(pivot): pivot_table}
    target_ids = frozenset(doc.node_id(v) for v in targets)
    tar = {
        doc.node_id(n): target_ids
        for n in spine(u, pivot, up_axis)
        if n is not pivot
    }
    return induce_path(ctx, u, [pivot], up_axis, best, tar).items


def _aggregate(
    per_sample: list[list[QueryInstance]],
    samples: Sequence[QuerySample],
    config: InductionConfig,
) -> list[QueryInstance]:
    """Algorithm 3, line 16: re-score every candidate on all samples."""
    evaluators = [CachedEvaluator(sample.doc) for sample in samples]
    candidates: dict[Query, float] = {}
    for instances in per_sample:
        for instance in instances:
            if not instance.query.is_empty:
                candidates.setdefault(instance.query, instance.score)

    aggregated: list[QueryInstance] = []
    for query, score in candidates.items():
        tp = fp = fn = 0
        for sample, evaluator in zip(samples, evaluators):
            match_ids = evaluator.evaluate_ids(query, sample.context)
            sample_tp = len(match_ids & sample.target_ids)
            tp += sample_tp
            fp += len(match_ids) - sample_tp
            fn += len(sample.targets) - sample_tp
        aggregated.append(QueryInstance(query, tp=tp, fp=fp, fn=fn, score=score))

    aggregated.sort(key=lambda instance: rank_key(instance, config.beta))
    return aggregated


def induce(
    samples: Sequence[QuerySample],
    config: Optional[InductionConfig] = None,
    params: Optional[ScoringParams] = None,
) -> InductionResult:
    """Induce a ranked set of wrappers from query samples (Algorithm 3)."""
    if not samples:
        raise ValueError("at least one query sample is required")
    config = config or InductionConfig()
    params = params or ScoringParams()
    stats = InductionStats(search=config.search, folds=len(samples))
    per_sample = [
        _induce_sample(sample, config, params, stats) for sample in samples
    ]
    if len(samples) == 1:
        ranked = [i for i in per_sample[0] if not i.query.is_empty]
        return InductionResult(ranked, beta=config.beta, stats=stats)
    return InductionResult(
        _aggregate(per_sample, samples, config), beta=config.beta, stats=stats
    )


class WrapperInducer:
    """Convenience facade bundling configuration and scoring parameters.

    >>> inducer = WrapperInducer(k=10)
    >>> result = inducer.induce_one(doc, targets)      # doctest: +SKIP
    >>> str(result.best.query)                         # doctest: +SKIP
    'descendant::div[starts-with(.,"Director:")]/descendant::span[@itemprop="name"]'
    """

    def __init__(
        self,
        k: int = 10,
        config: Optional[InductionConfig] = None,
        params: Optional[ScoringParams] = None,
    ) -> None:
        base = config or InductionConfig()
        if base.k != k:
            from dataclasses import replace

            base = replace(base, k=k)
        self.config = base
        self.params = params or ScoringParams()

    def induce(self, samples: Sequence[QuerySample]) -> InductionResult:
        return induce(samples, self.config, self.params)

    def induce_one(
        self,
        doc: Document,
        targets: Sequence[Node],
        context: Optional[Node] = None,
    ) -> InductionResult:
        """Induce from a single annotated document."""
        return self.induce([QuerySample(doc, targets, context)])
