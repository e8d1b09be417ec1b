"""Unit tests for the stochastic candidate pruner (``search="pruned"``).

The integration-level parity guarantees live in
``tests/integration/test_pruned_parity.py``; here we pin the pruner's
own mechanics — beam size, ordering, counters, determinism, and the
generation-quota narrowing — against hand-built candidates.
"""

import dataclasses

import pytest

from repro.dom import parse_html
from repro.induction.config import InductionConfig, config_with_options
from repro.induction.prune import (
    PRUNED_GENERATION_LIMITS,
    CandidatePruner,
    pruned_generation_config,
)
from repro.xpath.ast import Axis


class _FakeInstance:
    """Just the two attributes the pruner's feature vector reads."""

    def __init__(self, score: float, query_len: int) -> None:
        self.score = score
        self.query = "s" * query_len  # len() is all that matters


class _FakeCandidate:
    def __init__(self, matches, score: float = 1.0, query_len: int = 3) -> None:
        self.matches = matches
        self.instance = _FakeInstance(score, query_len)


@pytest.fixture
def doc():
    spans = "".join(f"<span>s{i}</span>" for i in range(12))
    return parse_html(f"<html><body>{spans}</body></html>")


def _nodes(doc):
    return list(doc.root.iter_find(tag="span"))


def _prune(pruner, candidates, doc, reachable):
    return pruner.prune(candidates, nid=1, tid=2, axis=Axis.CHILD,
                        reachable=reachable, doc=doc)


class TestCandidatePruner:
    def test_small_lists_pass_through(self, doc):
        nodes = _nodes(doc)
        candidates = [_FakeCandidate([n]) for n in nodes[:3]]
        pruner = CandidatePruner(beam_width=5, trials=4, seed=0)
        kept = _prune(pruner, candidates, doc, frozenset())
        assert kept == candidates
        assert pruner.considered == 3
        assert pruner.skipped == 0

    def test_beam_width_and_counters(self, doc):
        nodes = _nodes(doc)
        candidates = [_FakeCandidate([n]) for n in nodes]
        pruner = CandidatePruner(beam_width=4, trials=4, seed=0)
        kept = _prune(pruner, candidates, doc, frozenset())
        assert len(kept) == 4
        assert pruner.considered == len(candidates)
        assert pruner.skipped == len(candidates) - 4

    def test_beam_preserves_generation_order(self, doc):
        nodes = _nodes(doc)
        candidates = [_FakeCandidate([n]) for n in nodes]
        pruner = CandidatePruner(beam_width=5, trials=4, seed=0)
        kept = _prune(pruner, candidates, doc, frozenset())
        positions = [candidates.index(c) for c in kept]
        assert positions == sorted(positions)

    def test_target_hitting_candidates_survive(self, doc):
        """Coverage/precision weights stay positive under every SPSA
        perturbation, so a candidate matching the reachable set exactly
        must always outrank candidates that match nothing."""
        nodes = _nodes(doc)
        reachable = frozenset(doc.node_id(n) for n in nodes[:2])
        noise = [_FakeCandidate([n], score=5.0) for n in nodes[4:]]
        sharp = _FakeCandidate(nodes[:2], score=5.0)
        pruner = CandidatePruner(beam_width=2, trials=4, seed=0)
        kept = _prune(pruner, noise + [sharp], doc, reachable)
        assert sharp in kept

    def test_same_seed_is_deterministic(self, doc):
        nodes = _nodes(doc)
        candidates = [_FakeCandidate([n], score=float(i % 5))
                      for i, n in enumerate(nodes)]
        first = _prune(CandidatePruner(3, 4, seed=9), candidates, doc, frozenset())
        second = _prune(CandidatePruner(3, 4, seed=9), candidates, doc, frozenset())
        assert first == second

    def test_position_feeds_the_rng_seed(self, doc):
        """Different (nid, tid, axis) positions draw from different RNG
        streams — same stream would correlate beams across the DP."""
        nodes = _nodes(doc)
        candidates = [_FakeCandidate([n]) for n in nodes]
        pruner = CandidatePruner(beam_width=3, trials=4, seed=0)
        a = pruner.prune(candidates, nid=1, tid=1, axis=Axis.CHILD,
                         reachable=frozenset(), doc=doc)
        b = pruner.prune(candidates, nid=1, tid=1, axis=Axis.CHILD,
                         reachable=frozenset(), doc=doc)
        assert a == b  # identical position → identical beam

    @pytest.mark.parametrize("kwargs", [
        {"beam_width": 0, "trials": 4, "seed": 0},
        {"beam_width": 5, "trials": 0, "seed": 0},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CandidatePruner(**kwargs)


class TestPrunedGenerationConfig:
    def test_ceilings_applied(self):
        narrowed = pruned_generation_config(InductionConfig())
        for field_name, ceiling in PRUNED_GENERATION_LIMITS.items():
            assert getattr(narrowed, field_name) == ceiling

    def test_stricter_user_quota_wins(self):
        config = InductionConfig(max_target_spines=2, max_node_patterns=5)
        narrowed = pruned_generation_config(config)
        assert narrowed.max_target_spines == 2
        assert narrowed.max_node_patterns == 5

    def test_other_fields_untouched(self):
        config = InductionConfig(k=7, beta=0.8, search="pruned")
        narrowed = pruned_generation_config(config)
        assert narrowed.k == 7
        assert narrowed.beta == 0.8
        assert narrowed.search == "pruned"


class TestConfigOptions:
    def test_options_map_onto_fields(self):
        config = config_with_options(
            InductionConfig(),
            {"search": "pruned", "beam_width": 6, "prune_seed": 3},
        )
        assert config.search == "pruned"
        assert config.beam_width == 6
        assert config.prune_seed == 3

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="unknown induction options"):
            config_with_options(InductionConfig(), {"beem_width": 6})

    def test_empty_options_return_config_unchanged(self):
        config = InductionConfig()
        assert config_with_options(config, {}) is config

    def test_validation_still_applies(self):
        with pytest.raises(ValueError, match="search must be one of"):
            config_with_options(InductionConfig(), {"search": "greedy"})

    @pytest.mark.parametrize(
        "key,bad",
        [
            ("beam_width", 2.5),
            ("beam_width", True),
            ("prune_trials", "4"),
            ("prune_seed", None),
            ("search", 1),
            ("diversity", "0.5"),
        ],
    )
    def test_wrongly_typed_options_rejected(self, key, bad):
        """Malformed wire values must fail here (FacadeError/422 on the
        wire), not as a 500 deep inside the pruner."""
        with pytest.raises(ValueError, match=f"induction option '{key}'"):
            config_with_options(InductionConfig(), {key: bad})

    def test_int_diversity_coerced_to_float(self):
        config = config_with_options(InductionConfig(), {"diversity": 1})
        assert config.diversity == 1.0
        assert isinstance(config.diversity, float)

    def test_config_stays_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            InductionConfig().search = "pruned"
