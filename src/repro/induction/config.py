"""Induction configuration.

The paper's induction has two parameters: the K of its K-best tables
(``k``) and the β of its F-measure (``beta``).  Three more fields pick
variants: the candidate ``search`` strategy, the ensemble ``diversity``
penalty, and the sideways checks of Algorithm 1 (``enable_sideways``).
``__post_init__`` validates all five, so a malformed config fails where
it is built — at the facade, on the wire, or when an artifact loads.

Everything else is a constant.  The candidate-generation caps keep the
polynomial's constants small; they come from :data:`GENERATION_CAPS`,
one row per search mode.  The volatility mark implements the evaluation
protocol of Sec. 6.2: "the induction is restricted to expressions which
do not refer to textual data contents" — text nodes carrying page
*data* (as opposed to template labels) are marked
``meta[VOLATILE_KEY] = True`` by the page generators and are then never
used in string predicates.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, replace
from typing import NamedTuple

#: Candidate search strategies (see ``search`` below).
SEARCH_MODES = ("exhaustive", "pruned")

#: Largest ``k`` a config accepts.  ``k`` is the one work size a client
#: chooses: one induction on a 40-item list page took 1.06 s at k=10 and
#: 2.27 s at k=64, but 56.7 s at k=1000 (2-CPU host).
MAX_K = 64

#: ``meta`` key marking volatile (data, non-template) text nodes.
VOLATILE_KEY = "volatile"

#: ``WrapperClient.induce(options=...)`` keys; each maps onto the config
#: field of the same name.
OPTION_FIELDS = frozenset({"search", "diversity"})


class GenerationCaps(NamedTuple):
    """Bounds on candidate generation for one search mode."""

    #: Node patterns kept per node (cheapest first).
    max_node_patterns: int
    #: Siblings of the spine node considered on each side, nearest first
    #: (sideways checks, Algorithm 1, child axis only).
    max_sideways_each_side: int
    #: Anchor/sibling-step patterns combined per sibling.
    max_sideways_patterns: int
    #: Target spines the multi-target DP walks (first, last, and an even
    #: spread in between).  Accuracy is always evaluated against *all*
    #: targets, so on regular lists the result is unchanged while cost
    #: stops growing linearly in |V|.
    max_target_spines: int


#: Generation caps per search mode.  Pruned search narrows generation
#: as well as the DP beam: candidate generation (the sideways cross
#: product in particular) costs as much as the DP itself on large
#: pages, and the stochastic beam can only skip work that happens after
#: generation.
GENERATION_CAPS = {
    "exhaustive": GenerationCaps(48, 4, 6, 12),
    "pruned": GenerationCaps(20, 2, 2, 6),
}


def _as_float(value) -> float:
    """``value`` as a float, or NaN when it is not a number (a bool is
    not one, and neither is an int too large for a float)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.nan


def config_with_options(config: "InductionConfig", options: dict) -> "InductionConfig":
    """Apply a facade ``options={...}`` dict; unknown keys and invalid
    values raise ``ValueError``."""
    unknown = set(options) - OPTION_FIELDS
    if unknown:
        raise ValueError(
            f"unknown induction options: {reprlib.repr(sorted(unknown))} "
            f"(supported: {sorted(OPTION_FIELDS)})"
        )
    return replace(config, **options) if options else config


@dataclass(frozen=True)
class InductionConfig:
    #: Size of the K-best tables (the paper's K), 1 to :data:`MAX_K`.
    k: int = 10
    #: β of the F-measure that ranks candidates by accuracy.
    beta: float = 0.5

    #: Candidate search strategy.  ``"exhaustive"`` (the default) scores
    #: every generated step candidate in the DP exactly as the paper
    #: does; ``"pruned"`` ranks candidates with the cheap stochastic-
    #: approximation score of :mod:`repro.induction.prune` and runs the
    #: full DP scoring only on the surviving beam.  Both are pinned
    #: bit-for-bit by the golden corpus.
    search: str = "exhaustive"

    #: Ensemble selection: penalty weight for committee members sharing
    #: a fragile feature class (``ensemble.fragile_signature``).  0.0
    #: keeps the accuracy-first selection; > 0 trades that many ranks of
    #: accuracy per shared fragile key for a different failure mode.
    diversity: float = 0.0

    #: Sideways checks (Algorithm 1, child axis only).
    enable_sideways: bool = True

    def __post_init__(self) -> None:
        k = self.k
        if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= MAX_K:
            raise ValueError(
                f"k must be an integer from 1 to {MAX_K}, got {reprlib.repr(k)}"
            )
        beta = _as_float(self.beta)
        if not (math.isfinite(beta) and beta > 0):
            raise ValueError(
                f"beta must be a finite number > 0, got {reprlib.repr(self.beta)}"
            )
        if self.search not in SEARCH_MODES:
            raise ValueError(
                f"search must be one of {SEARCH_MODES}, "
                f"got {reprlib.repr(self.search)}"
            )
        diversity = _as_float(self.diversity)
        if not diversity >= 0:
            raise ValueError(
                f"diversity must be a number >= 0, "
                f"got {reprlib.repr(self.diversity)}"
            )
        if not isinstance(self.enable_sideways, bool):
            raise ValueError(
                f"enable_sideways must be a bool, "
                f"got {reprlib.repr(self.enable_sideways)}"
            )
        object.__setattr__(self, "diversity", diversity)

    @property
    def caps(self) -> GenerationCaps:
        """The generation caps of this config's search mode."""
        return GENERATION_CAPS[self.search]
