"""Axis path induction — Algorithm 2 (``inducePath``).

A K-best dynamic program along the spine: for every target v and every
anchor t on the spine between v and the context u (v first), candidate
instances ``stepPattern(n, t, axis) × best(t)`` are evaluated against
the reachable targets ``tar(n)`` and inserted into ``best(n)`` when they
beat the current K-th entry.  Anchors are visited bottom-up so ``best(t)``
is final before it is read (the paper's DP invariant); the ``best`` and
``tar`` tables are passed in so Algorithm 3 can reuse this procedure for
the two-directional case with a pre-seeded LCA entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import Optional

from repro.dom.node import Document, Node
from repro.induction.config import InductionConfig
from repro.induction.prune import CandidatePruner
from repro.induction.samples import QuerySample
from repro.induction.spine import spine, targets_reachable
from repro.induction.step_pattern import StepCandidate, step_patterns
from repro.scoring.params import ScoringParams
from repro.scoring.ranking import KBestTable, QueryInstance
from repro.scoring.score import Scorer, shared_scorer
from repro.xpath.ast import Axis, EMPTY_QUERY, Query
from repro.xpath.cache import CachedEvaluator

#: Tables are keyed by the document's stable integer node ids
#: (:meth:`~repro.dom.node.Document.node_id`): small ints, cheap to hash,
#: stable across the whole induction run.
BestTables = dict[int, KBestTable]
TargetTable = dict[int, frozenset[int]]


@dataclass
class PathInductionContext:
    """Shared state for one document's induction run."""

    doc: Document
    config: InductionConfig
    params: ScoringParams
    scorer: Scorer
    evaluator: CachedEvaluator
    step_cache: dict[tuple[int, int, Axis], list[StepCandidate]] = field(
        default_factory=dict
    )
    #: ``search="pruned"`` only; None on the exhaustive default, which
    #: therefore runs byte-for-byte the code it always has.
    pruner: Optional[CandidatePruner] = None
    pruned_cache: dict[tuple, list[StepCandidate]] = field(default_factory=dict)

    @classmethod
    def for_doc(
        cls, doc: Document, config: InductionConfig, params: ScoringParams
    ) -> "PathInductionContext":
        return cls(
            doc=doc,
            config=config,
            params=params,
            scorer=shared_scorer(params),
            evaluator=CachedEvaluator(doc),
            pruner=CandidatePruner() if config.search == "pruned" else None,
        )

    def node_id(self, node: Node) -> int:
        return self.doc.node_id(node)

    def step_patterns(self, n: Node, t: Node, axis: Axis) -> list[StepCandidate]:
        key = (self.doc.node_id(n), self.doc.node_id(t), axis)
        cached = self.step_cache.get(key)
        if cached is None:
            cached = step_patterns(
                n, t, axis, self.config.k, self.doc, self.config, self.params, self.scorer
            )
            self.step_cache[key] = cached
        return cached

    def step_candidates(
        self, n: Node, t: Node, axis: Axis, reachable: frozenset[int]
    ) -> list[StepCandidate]:
        """The candidates the DP scores at (n, t): all of them under the
        exhaustive default, the stochastic beam under ``search="pruned"``.
        The beam is keyed on the reachable-target set too: the
        two-directional case can revisit a position with different
        reachable targets, and coverage features depend on them."""
        candidates = self.step_patterns(n, t, axis)
        if self.pruner is None:
            return candidates
        nid = self.doc.node_id(n)
        tid = self.doc.node_id(t)
        key = (nid, tid, axis, reachable)
        pruned = self.pruned_cache.get(key)
        if pruned is None:
            pruned = self.pruner.prune(candidates, nid, tid, axis, reachable, self.doc)
            self.pruned_cache[key] = pruned
        return pruned


def init_tables(
    doc: Document, targets: list[Node], k: int, beta: float
) -> BestTables:
    """Initial ``best`` tables: ε with ⟨ε,1,0,0⟩ at every target (Sec. 5)."""
    best: BestTables = {}
    for v in targets:
        table = KBestTable(k, beta)
        table.insert(QueryInstance(EMPTY_QUERY, tp=1, fp=0, fn=0, score=0.0))
        best[doc.node_id(v)] = table
    return best


def induce_path(
    ctx: PathInductionContext,
    u: Node,
    targets: list[Node],
    axis: Axis,
    best: BestTables,
    tar: TargetTable,
) -> KBestTable:
    """Algorithm 2; returns ``best(u)`` (possibly empty when nothing matched)."""
    k = ctx.config.k
    beta = ctx.config.beta
    node_id = ctx.doc.node_id
    score_pair = ctx.scorer.score_pair
    concat_ids = ctx.evaluator.evaluate_concat_ids

    for v in _spine_targets(targets, ctx.config.caps.max_target_spines):
        path = spine(u, v, axis)  # u .. v
        # Anchors t ∈ spine(v, u) − {u}, i.e. from v up/back towards u.
        for t_index in range(len(path) - 1, 0, -1):
            t = path[t_index]
            tails = best.get(node_id(t))
            if tails is None or len(tails) == 0:
                continue  # the fail query ⊥: nothing to extend
            tail_items = [(tail, tail.query, len(tail.query)) for tail in tails.items]
            # Contexts n ∈ spine(u, t) − {t}.
            for n_index in range(t_index):
                n = path[n_index]
                nid = node_id(n)
                table = best.get(nid)
                if table is None:
                    table = KBestTable(k, beta)
                    best[nid] = table
                reachable = tar.get(nid)
                if reachable is None:
                    reachable = targets_reachable(n, targets, axis, ctx.doc)
                    tar[nid] = reachable
                would_accept_partial = table.would_accept_partial
                n_reachable = len(reachable)
                # Alg. 2, L5–9, inlined (this is the DP's innermost loop):
                # score the extension without concatenating, prune, and
                # only then evaluate and materialize the composed query.
                for candidate in ctx.step_candidates(n, t, axis, reachable):
                    head = candidate.instance.query
                    head_len = len(head)
                    head_matches = candidate.matches
                    for tail, tail_query, tail_len in tail_items:
                        score = score_pair(head, tail_query)
                        if not would_accept_partial(
                            (-1.0, score, head_len + tail_len)
                        ):
                            continue
                        match_ids = concat_ids(head_matches, tail_query)
                        tp = len(match_ids & reachable)
                        table.insert(
                            QueryInstance(
                                head.concat(tail_query),
                                tp=tp,
                                fp=len(match_ids) - tp,
                                fn=n_reachable - tp,
                                score=score,
                            )
                        )

    result = best.get(node_id(u))
    if result is None:
        result = KBestTable(k, beta)
        best[node_id(u)] = result
    return result


def _spine_targets(targets: list[Node], limit: int) -> list[Node]:
    """The targets whose spines the DP walks: all of them when few,
    otherwise the first, the last, and an even spread in between (head
    and tail matter most — they delimit list selections)."""
    if limit <= 0 or len(targets) <= limit:
        return targets
    step = (len(targets) - 1) / (limit - 1)
    indices = sorted({round(i * step) for i in range(limit)})
    return [targets[i] for i in indices]


