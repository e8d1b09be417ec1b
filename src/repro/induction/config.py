"""Induction configuration.

Most fields bound the candidate-generation combinatorics (the paper
caps the search through K-best tables; the pattern-generation caps here
keep the polynomial's constants small).  ``allow_text_predicates`` and
the volatility marking implement the evaluation protocol of Sec. 6.2:
"the induction is restricted to expressions which do not refer to
textual data contents" — text nodes carrying page *data* (as opposed to
template labels) are marked ``meta['volatile'] = True`` by the page
generators and are then never used in string predicates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Candidate search strategies (see ``search`` below).
SEARCH_MODES = ("exhaustive", "pruned")

#: ``WrapperClient.induce(options=...)`` keys that map onto config
#: fields (the remaining facade option, ``diversity``, configures
#: ensemble selection and is consumed by the client directly).
OPTION_FIELDS = frozenset(
    {
        "search",
        "beam_width",
        "prune_trials",
        "prune_seed",
        "diversity",
    }
)

#: Expected value type per option — checked before ``replace`` so that
#: malformed wire input (``beam_width=2.5``, ``prune_trials="4"``) fails
#: here as a ValueError (→ FacadeError → 422 on the wire) instead of
#: surfacing later as an opaque 500 deep inside the pruner.
_OPTION_TYPES: dict[str, tuple] = {
    "search": (str,),
    "beam_width": (int,),
    "prune_trials": (int,),
    "prune_seed": (int,),
    "diversity": (int, float),
}


def config_with_options(config: "InductionConfig", options: dict) -> "InductionConfig":
    """Apply a facade ``options={...}`` dict; unknown keys and
    wrongly-typed values raise ``ValueError``."""
    unknown = set(options) - OPTION_FIELDS
    if unknown:
        raise ValueError(
            f"unknown induction options: {sorted(unknown)} "
            f"(supported: {sorted(OPTION_FIELDS)})"
        )
    if not options:
        return config
    coerced = {}
    for key, value in options.items():
        expected = _OPTION_TYPES[key]
        # bool is an int subclass; True is never a valid knob value.
        if isinstance(value, bool) or not isinstance(value, expected):
            names = " or ".join(t.__name__ for t in expected)
            raise ValueError(
                f"induction option {key!r} must be {names}, "
                f"got {type(value).__name__} ({value!r})"
            )
        coerced[key] = float(value) if key == "diversity" else value
    return replace(config, **coerced)


@dataclass(frozen=True)
class InductionConfig:
    k: int = 10
    beta: float = 0.5

    #: Candidate search strategy.  ``"exhaustive"`` (the default) scores
    #: every generated step candidate in the DP exactly as the paper
    #: does; ``"pruned"`` ranks candidates with the cheap stochastic-
    #: approximation score of :mod:`repro.induction.prune` (SPSA-style
    #: perturbation trials over a seeded RNG) and runs the full DP
    #: scoring only on the surviving beam.  The default is pinned
    #: bit-for-bit by the golden corpus.
    search: str = "exhaustive"
    #: Pruned search: candidates kept per (context, anchor) spine
    #: position after stochastic ranking.
    beam_width: int = 10
    #: Pruned search: weight-perturbation trials per candidate list.
    prune_trials: int = 4
    #: Pruned search: RNG seed — the determinism contract (same seed,
    #: same document, same beam → identical induction output).
    prune_seed: int = 0

    #: Ensemble selection: penalty weight for committee members sharing
    #: a fragile feature class (``ensemble.fragile_signature``).  0.0
    #: keeps the accuracy-first selection; > 0 trades that many ranks of
    #: accuracy per shared fragile key for a different failure mode.
    diversity: float = 0.0

    #: Use text-content predicates at all (contains/starts-with/... on ".").
    allow_text_predicates: bool = True
    #: Meta key marking volatile (data, non-template) text nodes.
    volatile_meta_key: str = "volatile"

    #: Per-value caps on generated string predicates.
    max_words_per_value: int = 4
    max_text_length: int = 60
    max_attr_value_length: int = 80

    #: Cap on node patterns per node (cheapest kept first).
    max_node_patterns: int = 48

    #: Sideways checks (Algorithm 1, child axis only).
    enable_sideways: bool = True
    #: Siblings of the spine node considered on each side, nearest first.
    max_sideways_each_side: int = 4
    #: Anchor/sibling-step patterns combined per sibling.
    max_sideways_patterns: int = 6

    #: Generate positional refinements ([k] / [last()-m]).
    enable_positional: bool = True

    #: Engineering bound: at most this many target spines are walked by
    #: the multi-target DP (first, last, and an even spread in between).
    #: Accuracy is always evaluated against *all* targets, so on regular
    #: lists the result is unchanged while cost stops growing linearly
    #: in |V|; raise it for highly irregular target sets.
    max_target_spines: int = 12

    #: Attributes never used in predicates (too volatile / non-semantic).
    skipped_attributes: frozenset[str] = frozenset({"style"})

    def __post_init__(self) -> None:
        if self.search not in SEARCH_MODES:
            raise ValueError(
                f"search must be one of {SEARCH_MODES}, got {self.search!r}"
            )
        if self.beam_width < 1:
            raise ValueError(f"beam_width must be >= 1, got {self.beam_width}")
        if self.prune_trials < 1:
            raise ValueError(f"prune_trials must be >= 1, got {self.prune_trials}")
        if self.diversity < 0:
            raise ValueError(f"diversity must be >= 0, got {self.diversity}")
