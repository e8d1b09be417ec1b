"""Unit tests for the stochastic candidate pruner (``search="pruned"``).

The integration-level parity guarantees live in
``tests/integration/test_pruned_parity.py``; here we pin the pruner's
own mechanics — beam size, ordering, counters, determinism, and the
generation caps of pruned search — against hand-built candidates.  The
beam width, trial count and seed are module constants; tests that vary
them monkeypatch ``repro.induction.prune``.
"""

import dataclasses

import pytest

from repro.dom import parse_html
from repro.induction import prune
from repro.induction.config import (
    GENERATION_CAPS,
    InductionConfig,
    config_with_options,
)
from repro.induction.induce_path import PathInductionContext
from repro.induction.prune import CandidatePruner
from repro.scoring.params import ScoringParams
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


@pytest.fixture
def beam(monkeypatch):
    """Set the beam width for one test."""
    return lambda width: monkeypatch.setattr(prune, "BEAM_WIDTH", width)


class TestCandidatePruner:
    def test_small_lists_pass_through(self, doc, beam):
        beam(5)
        nodes = _nodes(doc)
        candidates = [_FakeCandidate([n]) for n in nodes[:3]]
        pruner = CandidatePruner()
        kept = _prune(pruner, candidates, doc, frozenset())
        assert kept == candidates
        assert pruner.considered == 3
        assert pruner.skipped == 0

    def test_beam_width_and_counters(self, doc, beam):
        beam(4)
        nodes = _nodes(doc)
        candidates = [_FakeCandidate([n]) for n in nodes]
        pruner = CandidatePruner()
        kept = _prune(pruner, candidates, doc, frozenset())
        assert len(kept) == 4
        assert pruner.considered == len(candidates)
        assert pruner.skipped == len(candidates) - 4

    def test_beam_preserves_generation_order(self, doc, beam):
        beam(5)
        nodes = _nodes(doc)
        candidates = [_FakeCandidate([n]) for n in nodes]
        pruner = CandidatePruner()
        kept = _prune(pruner, candidates, doc, frozenset())
        positions = [candidates.index(c) for c in kept]
        assert positions == sorted(positions)

    def test_target_hitting_candidates_survive(self, doc, beam):
        """Coverage/precision weights stay positive under every SPSA
        perturbation, so a candidate matching the reachable set exactly
        must always outrank candidates that match nothing."""
        nodes = _nodes(doc)
        reachable = frozenset(doc.node_id(n) for n in nodes[:2])
        noise = [_FakeCandidate([n], score=5.0) for n in nodes[4:]]
        sharp = _FakeCandidate(nodes[:2], score=5.0)
        beam(2)
        pruner = CandidatePruner()
        kept = _prune(pruner, noise + [sharp], doc, reachable)
        assert sharp in kept

    def test_same_seed_is_deterministic(self, doc, beam, monkeypatch):
        beam(3)
        monkeypatch.setattr(prune, "PRUNE_SEED", 9)
        nodes = _nodes(doc)
        candidates = [_FakeCandidate([n], score=float(i % 5))
                      for i, n in enumerate(nodes)]
        first = _prune(CandidatePruner(), candidates, doc, frozenset())
        second = _prune(CandidatePruner(), candidates, doc, frozenset())
        assert first == second

    def test_position_feeds_the_rng_seed(self, doc, beam):
        """Different (nid, tid, axis) positions draw from different RNG
        streams — same stream would correlate beams across the DP."""
        beam(3)
        nodes = _nodes(doc)
        candidates = [_FakeCandidate([n]) for n in nodes]
        pruner = CandidatePruner()
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
        """The beam is a constant: the pruner takes no parameters."""
        with pytest.raises(TypeError):
            CandidatePruner(**kwargs)


class TestPrunedGenerationConfig:
    def test_ceilings_applied(self, doc):
        """Pruned search generates under its own row of the caps table,
        which is nowhere looser than the exhaustive row."""
        assert GENERATION_CAPS["exhaustive"] == (48, 4, 6, 12)
        assert GENERATION_CAPS["pruned"] == (20, 2, 2, 6)
        ctx = PathInductionContext.for_doc(
            doc, InductionConfig(search="pruned"), ScoringParams()
        )
        assert ctx.config.caps == GENERATION_CAPS["pruned"]
        assert isinstance(ctx.pruner, CandidatePruner)
        for pruned, exhaustive in zip(
            GENERATION_CAPS["pruned"], GENERATION_CAPS["exhaustive"]
        ):
            assert pruned <= exhaustive

    def test_other_fields_untouched(self, doc):
        """The caps come from the table: a pruned run keeps its config
        object as given, with no rewritten copy."""
        config = InductionConfig(k=7, beta=0.8, search="pruned")
        ctx = PathInductionContext.for_doc(doc, config, ScoringParams())
        assert ctx.config is config


class TestConfigOptions:
    def test_options_map_onto_fields(self):
        config = config_with_options(
            InductionConfig(), {"search": "pruned", "diversity": 2.0}
        )
        assert config.search == "pruned"
        assert config.diversity == 2.0

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
        wire), not as a 500 deep inside induction.  The pruner's
        ``beam_width``, ``prune_trials`` and ``prune_seed`` are constants
        now, so those keys fail as unknown options whatever the value."""
        with pytest.raises(ValueError, match=key):
            config_with_options(InductionConfig(), {key: bad})

    def test_int_diversity_coerced_to_float(self):
        config = config_with_options(InductionConfig(), {"diversity": 1})
        assert config.diversity == 1.0
        assert isinstance(config.diversity, float)

    def test_config_stays_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            InductionConfig().search = "pruned"
