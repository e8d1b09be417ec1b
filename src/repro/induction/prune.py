"""Stochastic candidate pruning for the induction DP (opt-in).

``search="pruned"`` replaces the exhaustive scan of every
``StepCandidate`` at a DP position with a cheap stochastic-approximation
ranking in the SPSA-FSR idiom (Yenice et al., arXiv:1804.05589): each
candidate is reduced to a small feature vector (target coverage,
match-set precision, robustness score, brevity), the feature weights
are perturbed symmetrically :data:`PRUNE_TRIALS` times with a seeded
RNG, and the candidate's ranks under the perturbed weightings are
aggregated.  Candidates that rank well *robustly* — under every
perturbation, not just a single hand-tuned weighting — survive into
the beam of :data:`BEAM_WIDTH`; only they receive full DP scoring
(``score_pair`` + tail-query evaluation per K-best tail), which is
where induction time actually goes on large pages.  Pruned search also
generates fewer candidates: its row of
:data:`repro.induction.config.GENERATION_CAPS`.

Determinism contract: the RNG is seeded from
``(PRUNE_SEED, context id, anchor id, axis)`` only, so a given
document always prunes identically — same beam, same induced queries.
The exhaustive default never constructs a pruner at all.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Sequence

from repro.xpath.ast import Axis

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.dom.node import Document
    from repro.induction.step_pattern import StepCandidate

#: Base feature weights (coverage, precision, robustness, brevity) and
#: the SPSA perturbation magnitude.  Coverage/precision dominate —
#: a candidate that cannot reach the targets precisely is never worth
#: full DP scoring — while robustness/brevity break ties the way the
#: paper's rank key does.
_BASE_WEIGHTS = (1.0, 1.0, 0.5, 0.1)
_C_SCALE = 0.5

#: Stable axis ordinal for RNG seeding (enum definition order).
_AXIS_ORDINAL = {axis: index for index, axis in enumerate(Axis)}

#: Candidates kept per (context, anchor) spine position.
BEAM_WIDTH = 10
#: Weight-perturbation trials per candidate list.
PRUNE_TRIALS = 4
#: RNG seed: the determinism contract (same seed, same document, same
#: beam → identical induction output).
PRUNE_SEED = 0


class CandidatePruner:
    """Per-document pruning state: the skip counters."""

    __slots__ = ("considered", "skipped")

    def __init__(self) -> None:
        #: Candidates seen at positions where pruning was attempted.
        self.considered = 0
        #: Candidates dropped before full DP scoring.
        self.skipped = 0

    def prune(
        self,
        candidates: Sequence["StepCandidate"],
        nid: int,
        tid: int,
        axis: Axis,
        reachable: frozenset[int],
        doc: "Document",
    ) -> list["StepCandidate"]:
        """Return the surviving beam, in original candidate order."""
        self.considered += len(candidates)
        if len(candidates) <= BEAM_WIDTH:
            return list(candidates)

        node_id = doc.node_id
        n_reachable = len(reachable) or 1
        features: list[tuple[float, float, float, float]] = []
        for candidate in candidates:
            matches = candidate.matches
            hits = sum(1 for m in matches if node_id(m) in reachable)
            n_matches = len(matches) or 1
            instance = candidate.instance
            features.append(
                (
                    hits / n_reachable,                      # target coverage
                    hits / n_matches,                        # precision proxy
                    1.0 / (1.0 + instance.score),            # robustness
                    1.0 / (1.0 + len(instance.query)),       # brevity
                )
            )

        # SPSA-style simultaneous perturbation: each trial draws one ±1
        # direction per feature and ranks the candidates under both the
        # +c and -c weightings; rank positions accumulate per candidate.
        rng = random.Random(
            PRUNE_SEED * 1_000_003 + nid * 8_191 + tid * 31 + _AXIS_ORDINAL[axis]
        )
        total_rank = [0] * len(candidates)
        order = list(range(len(candidates)))
        for _ in range(PRUNE_TRIALS):
            delta = [1 if rng.random() < 0.5 else -1 for _ in _BASE_WEIGHTS]
            for sign in (1, -1):
                w0, w1, w2, w3 = (
                    base + sign * _C_SCALE * d
                    for base, d in zip(_BASE_WEIGHTS, delta)
                )
                # Scores are precomputed once per weighting (the sort key
                # would otherwise re-evaluate the dot product O(n log n)
                # times); the explicit left-to-right addition matches
                # sum()'s association, keeping ranks bit-stable.
                scores = [
                    w0 * f0 + w1 * f1 + w2 * f2 + w3 * f3
                    for f0, f1, f2, f3 in features
                ]
                order.sort(key=lambda i: (-scores[i], i))
                for rank, i in enumerate(order):
                    total_rank[i] += rank

        kept = sorted(
            range(len(candidates)), key=lambda i: (total_rank[i], i)
        )[:BEAM_WIDTH]
        self.skipped += len(candidates) - len(kept)
        # Preserve the generator's candidate order inside the beam so the
        # DP's insertion tie-breaks stay deterministic.
        return [candidates[i] for i in sorted(kept)]
