"""Spine step induction — Algorithm 1 (``stepPattern``).

Generates the K-best one-anchor query pieces matching a spine node ``t``
from a context ``n`` along a base axis:

* *direct* patterns: ``axis.transitive::pattern`` always, plus
  ``axis::pattern`` when ``t`` is one plain step away;
* *sideways* patterns (child axis only, as in the paper): an anchor
  pattern for a sibling ``s`` of ``t`` followed by one
  following-/preceding-sibling step reaching ``t`` — the construction
  that makes robust list selection possible (Sec. 6.3);
* positional refinements ``[k]`` / ``[last()-m]`` appended when a
  pattern does not uniquely match ``t`` — the *unrefined* pattern is
  kept too, since over-matching patterns are exactly what multi-target
  induction needs (they are rescored against the real target set by
  Algorithm 2).

Every returned candidate satisfies the algorithm's contract
``{t} ⊆ p(n)`` and carries its match set, so Algorithm 2 can evaluate
concatenations incrementally.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import nsmallest

from repro.dom.node import Document, Node
from repro.induction.config import InductionConfig
from repro.induction.node_pattern import NodePattern, node_patterns
from repro.scoring.params import ScoringParams
from repro.scoring.ranking import QueryInstance, QueryText, fbeta
from repro.scoring.score import Scorer, shared_scorer
from repro.xpath.ast import Axis, PositionalPredicate, Query, Step
from repro.xpath.compile import compile_step


class StepCandidate:
    """A candidate query piece with its (rescored) instance and matches.

    A plain ``__slots__`` class (not a dataclass): candidates are bulk
    allocated in the induction's innermost generation loop.
    """

    __slots__ = ("instance", "matches")

    def __init__(self, instance: QueryInstance, matches: tuple[Node, ...]) -> None:
        self.instance = instance
        self.matches = matches

    @property
    def query(self) -> Query:
        return self.instance.query


class _LightTopK:
    """Bounded top-K of (rank key, query) pairs without instance payloads.

    Mirrors :class:`~repro.scoring.ranking.KBestTable` exactly for the
    step-pattern selection case, where duplicate queries always carry
    identical keys (so "replace if strictly better" reduces to "skip
    duplicates").  The text tiebreak is only constructed once a
    candidate survives the text-free prefix check.
    """

    __slots__ = ("k", "keys", "queries", "queries_set")

    def __init__(self, k: int) -> None:
        self.k = k
        self.keys: list[tuple] = []
        self.queries: list[Query] = []
        self.queries_set: set[Query] = set()

    def insert(self, neg_f: float, score: float, length: int, query: Query) -> None:
        keys = self.keys
        if len(keys) >= self.k:
            last = keys[-1]
            if (neg_f, score, length) > last[:3]:
                return
            key = (neg_f, score, length, QueryText(query))
            if not key < last:
                return
            if query in self.queries_set:
                return
            i = bisect_left(keys, key)
            keys.insert(i, key)
            self.queries.insert(i, query)
            self.queries_set.add(query)
            keys.pop()
            self.queries_set.discard(self.queries.pop())
        else:
            if query in self.queries_set:
                return
            key = (neg_f, score, length, QueryText(query))
            i = bisect_left(keys, key)
            keys.insert(i, key)
            self.queries.insert(i, query)
            self.queries_set.add(query)


# node_patterns results are memoized on the document index
# (``DocumentIndex.pattern_cache``), keyed by (node pre number,
# config/params identity).  The same target and sibling nodes are
# pattern-expanded for every context on the spine; the stored
# config/params references pin the objects so the id keys stay valid
# while cached.  The memo lives on the index — not in a module global
# keyed by stamp — so it is reclaimed with the document instead of
# pinning every page a long-running fleet worker ever re-induced
# (see the matching note in ``repro.xpath.compile``).


def _cached_node_patterns(
    node: Node, doc: Document, config: InductionConfig, params: ScoringParams
) -> list[NodePattern]:
    index = doc.index
    if node._stamp != index.stamp:
        return node_patterns(node, doc, config, params)
    key = (node._pre, id(config), id(params))
    entry = index.pattern_cache.get(key)
    if entry is None or entry[0] is not config or entry[1] is not params:
        entry = (config, params, node_patterns(node, doc, config, params))
        index.pattern_cache[key] = entry
    return entry[2]


#: Intern tables for steps and the one-/two-step queries built from
#: them.  Candidate generation rebuilds the same Step/Query values over
#: and over; interning makes every later dict/set operation on them an
#: identity hit (tuple equality short-circuits on ``is``) and skips
#: re-running the eager hash of ``__post_init__``.
_STEP_INTERN: dict[Step, Step] = {}
_QUERY1_INTERN: dict[Step, Query] = {}
_QUERY2_INTERN: dict[tuple[Step, Step], Query] = {}
_INTERN_LIMIT = 200_000


def _intern_step(step: Step) -> Step:
    canonical = _STEP_INTERN.get(step)
    if canonical is None:
        if len(_STEP_INTERN) > _INTERN_LIMIT:
            _STEP_INTERN.clear()
        _STEP_INTERN[step] = canonical = step
    return canonical


def _single_query(step: Step) -> Query:
    query = _QUERY1_INTERN.get(step)
    if query is None:
        if len(_QUERY1_INTERN) > _INTERN_LIMIT:
            _QUERY1_INTERN.clear()
        _QUERY1_INTERN[step] = query = Query((step,))
    return query


def _pair_query(anchor: Step, hop: Step) -> Query:
    key = (anchor, hop)
    query = _QUERY2_INTERN.get(key)
    if query is None:
        if len(_QUERY2_INTERN) > _INTERN_LIMIT:
            _QUERY2_INTERN.clear()
        _QUERY2_INTERN[key] = query = Query((anchor, hop))
    return query


# Single-step match lists are memoized on the document index
# (``DocumentIndex.match_cache``), keyed by (context pre-order number,
# step).  The same (context, step) pair is evaluated for many (anchor,
# pattern) combinations — direct patterns shared by several spine
# targets, sideways anchors shared across siblings.  Entries are shared
# lists; callers must not mutate them.  The memo lives on the index —
# not in a module global keyed by stamp — so rebuilt/discarded
# documents release their nodes (see the note in
# ``repro.xpath.compile``).


def _axis_matches(context: Node, step: Step, doc: Document) -> list[Node]:
    """Matches of a (positional-free) step from ``context``, in axis order.

    Runs on the compiled step plan (axis × nodetest fused, tag-index
    slicing for ``descendant`` steps); plans are memoized globally, so
    the many pattern variants sharing a step are compiled once.
    """
    index = doc.index
    if context._stamp != index.stamp:  # detached context: no stable key
        return compile_step(step)(context, doc, index)
    key = (context._pre, step)
    cached = index.match_cache.get(key)
    if cached is None:
        cached = compile_step(step)(context, doc, index)
        index.match_cache[key] = cached
    return cached


def _step_variants(
    context: Node,
    target: Node,
    axis: Axis,
    pattern: NodePattern,
    doc: Document,
) -> list[tuple[Step, list[Node]]]:
    """Steps built from one node pattern along one axis, with positional
    refinements; every variant matches ``target`` from ``context``."""
    base = _intern_step(Step(axis, pattern.nodetest, pattern.predicates))
    ordered = _axis_matches(context, base, doc)
    try:
        position = next(i for i, node in enumerate(ordered) if node is target)
    except StopIteration:
        return []  # pattern does not reach the target at all
    variants: list[tuple[Step, list[Node]]] = [(base, ordered)]
    if len(ordered) > 1:
        index_pred = PositionalPredicate(index=position + 1)
        variants.append((_intern_step(base.with_predicates(index_pred)), [target]))
        from_last = len(ordered) - 1 - position
        last_pred = PositionalPredicate(from_last=from_last)
        variants.append((_intern_step(base.with_predicates(last_pred)), [target]))
    return variants


def _vertical_axes(context: Node, target: Node, axis: Axis) -> list[Axis]:
    """Axis forms for a direct step: the transitive form always, the plain
    base form when one step suffices."""
    axes = [axis.transitive]
    if axis in (Axis.CHILD, Axis.PARENT):
        direct = (
            target.parent is context if axis is Axis.CHILD else context.parent is target
        )
        if direct:
            axes.append(axis)
    return axes


def _nearby_siblings(target: Node, limit: int) -> list[Node]:
    """Up to ``limit`` siblings on each side of ``target``, nearest first."""
    preceding = list(target.preceding_siblings())[:limit]
    following = list(target.following_siblings())[:limit]
    return preceding + following


def step_patterns(
    context: Node,
    target: Node,
    axis: Axis,
    k: int,
    doc: Document,
    config: InductionConfig,
    params: ScoringParams,
    scorer: Scorer,
) -> list[StepCandidate]:
    """Algorithm 1: the best query pieces matching ``target`` from ``context``.

    Returns the union of the top-K by the paper's ranking (F0.5 against
    {t}, then score) and the top-K by score alone.  The second group
    keeps cheap over-matching patterns (``descendant::li``) alive for
    multi-target induction, where Algorithm 2 rescored them against the
    full target set.
    """
    beta = config.beta
    # Pieces are scored WITHOUT the no-predicate penalty: that penalty is a
    # property of the final composed query (Sec. 4 adds it to score(q)),
    # and a bare piece like ``descendant::li`` composes into penalty-free
    # queries such as ``descendant::div[@id="x"]/descendant::li``.  Using
    # the penalized score here would starve multi-target induction of its
    # list patterns.
    piece_scorer = shared_scorer(params, "pieces")
    step_score = piece_scorer._step_score

    #: (query, matches, piece score); scores are computed inline from the
    #: cached per-step scores — bit-identical to ``score_pair(query, None)``.
    candidates: list[tuple[Query, list[Node], float]] = []
    core_queries: set[Query] = set()  # bare tag/text tests, always kept

    for vertical_axis in _vertical_axes(context, target, axis):
        for pattern in _cached_node_patterns(target, doc, config, params):
            is_core = not pattern.predicates and pattern.nodetest.kind in ("name", "text")
            for step, matches in _step_variants(
                context, target, vertical_axis, pattern, doc
            ):
                query = _single_query(step)
                candidates.append((query, matches, 0.0 + step_score(step) * 1.0))
                if is_core:
                    core_queries.add(query)

    sideways_start = len(candidates)
    if axis is Axis.CHILD and config.enable_sideways:
        candidates.extend(
            _sideways_candidates(context, target, doc, config, params, piece_scorer)
        )

    # Selection runs on lightweight rank keys; only the ~5% of candidates
    # that survive are materialized into instances at the end.
    ranked = _LightTopK(k)
    sideways_ranked = _LightTopK(config.caps.max_sideways_patterns)
    negf_by_fp: dict[int, float] = {}
    fps: list[int] = []
    for i, (query, matches, score) in enumerate(candidates):
        fp = len(matches) - 1
        fps.append(fp)
        # F_β depends only on fp here (tp=1, fn=0).
        neg_f = negf_by_fp.get(fp)
        if neg_f is None:
            neg_f = -fbeta(1, fp, 0, beta)
            negf_by_fp[fp] = neg_f
        length = 1 if i < sideways_start else 2
        ranked.insert(neg_f, score, length, query)
        if i >= sideways_start:
            # Sideways candidates get a quota of their own: list selection
            # needs sibling anchors (Sec. 6.3) even when cheap one-step
            # anchors exist.
            sideways_ranked.insert(neg_f, score, length, query)

    by_rank = ranked.queries_set
    by_score_top = nsmallest(
        k,
        range(len(candidates)),
        key=lambda i: (candidates[i][2], QueryText(candidates[i][0])),
    )

    chosen: dict[Query, int] = {}
    for i, (query, _, _) in enumerate(candidates):
        if (query in by_rank or query in core_queries) and query not in chosen:
            chosen[query] = i
    for i in by_score_top:
        query = candidates[i][0]
        if query not in chosen:
            chosen[query] = i
    sideways_kept = sideways_ranked.queries_set
    for i, (query, _, _) in enumerate(candidates):
        if query in sideways_kept and query not in chosen:
            chosen[query] = i

    out: list[StepCandidate] = []
    for query, i in chosen.items():
        _, matches, score = candidates[i]
        out.append(
            StepCandidate(
                QueryInstance(query, tp=1, fp=fps[i], fn=0, score=score),
                tuple(matches),
            )
        )
    return out


#: Sideways anchors matching more nodes than this are dropped before the
#: cross product: an anchor that matches a large slice of the page is
#: useless for selection and only inflates the candidate space.
_MAX_ANCHOR_MATCHES = 24


def _sideways_candidates(
    context: Node,
    target: Node,
    doc: Document,
    config: InductionConfig,
    params: ScoringParams,
    piece_scorer: Scorer | None = None,
) -> list[tuple[Query, list[Node], float]]:
    """Anchor-on-sibling patterns: vertical step to a sibling ``s`` of the
    spine node, then one sibling step to the spine node (Alg. 1, L2–5).

    Returns (query, matches, piece score) triples; scores accumulate the
    cached per-step scores exactly like ``score_pair(query, None)``.
    """
    if piece_scorer is None:
        piece_scorer = shared_scorer(params, "pieces")
    step_score = piece_scorer._step_score
    decay_1 = piece_scorer._pow(1)
    caps = config.caps
    results: list[tuple[Query, list[Node], float]] = []
    for sibling in _nearby_siblings(target, caps.max_sideways_each_side):
        if sibling.index_in_parent() < target.index_in_parent():
            sibling_axis = Axis.FOLLOWING_SIBLING
        else:
            sibling_axis = Axis.PRECEDING_SIBLING

        sibling_steps: list[tuple[Step, list[Node]]] = []
        for pattern in _cached_node_patterns(sibling, doc, config, params)[
            : caps.max_sideways_patterns
        ]:
            for step, matches in _step_variants(
                context, sibling, Axis.DESCENDANT, pattern, doc
            ):
                if len(matches) <= _MAX_ANCHOR_MATCHES:
                    sibling_steps.append((step, matches))

        target_steps: list[tuple[Step, float]] = []
        for pattern in _cached_node_patterns(target, doc, config, params)[
            : caps.max_sideways_patterns
        ]:
            target_steps.extend(
                (step, step_score(step) * decay_1)
                for step, _ in _step_variants(
                    sibling, target, sibling_axis, pattern, doc
                )
            )

        for anchor_step, anchor_matches in sibling_steps:
            if not any(node is sibling for node in anchor_matches):
                continue
            anchor_score = 0.0 + step_score(anchor_step) * 1.0
            for hop_step, hop_term in target_steps:
                query = _pair_query(anchor_step, hop_step)
                matches = evaluate_two_step(anchor_matches, hop_step, doc)
                # {target} ⊆ matches holds by construction: anchor_matches
                # contains the sibling (checked above) and every hop step
                # reaches the target from that sibling (_step_variants
                # only returns target-hitting variants).
                results.append((query, matches, anchor_score + hop_term))
    return results


def evaluate_two_step(
    anchor_matches: list[Node],
    hop_step: Step,
    doc: Document,
) -> list[Node]:
    """Matches of ``hop_step`` applied to every anchor match (doc order).

    Per-(anchor, step) memoization happens in the index-owned match
    cache, shared across all anchor-pattern variants and calls.  The
    cache loop is inlined — this sits on the sideways cross product,
    the innermost loop of candidate generation.  ``hop_step`` may carry
    positional predicates; the compiled plan applies predicates in
    declaration order, and induced steps always append positional
    refinements last, matching the historical plain-then-positional
    filtering exactly.
    """
    index = doc.index
    stamp = index.stamp
    cache = index.match_cache
    plan = None
    out: list[Node] = []
    for node in anchor_matches:
        if node._stamp != stamp:
            if plan is None:
                plan = compile_step(hop_step)
            out.extend(plan(node, doc, index))
            continue
        key = (node._pre, hop_step)
        matched = cache.get(key)
        if matched is None:
            if plan is None:
                plan = compile_step(hop_step)
            matched = plan(node, doc, index)
            cache[key] = matched
        out.extend(matched)
    if len(anchor_matches) == 1:
        # One anchor: matches are unique and in axis order already; doc
        # order is at most a reversal away.
        if hop_step.axis.is_reverse:
            out.reverse()
        return out
    return doc.sort_nodes(out)
