"""The induction config: five fields, validated where they are built.

Everything else that shapes induction is a constant (the caps table,
the string-predicate limits, the volatile meta key, the pruner's beam).
"""

import dataclasses
import math

import pytest

from repro.induction.config import (
    GENERATION_CAPS,
    MAX_K,
    OPTION_FIELDS,
    SEARCH_MODES,
    InductionConfig,
    config_with_options,
)
from repro.runtime.artifact import (
    ArtifactError,
    WrapperArtifact,
    config_from_payload,
    config_to_payload,
)

FIELDS = ["k", "beta", "search", "diversity", "enable_sideways"]


def test_five_fields():
    assert [f.name for f in dataclasses.fields(InductionConfig)] == FIELDS
    assert OPTION_FIELDS == {"search", "diversity"}
    assert set(GENERATION_CAPS) == set(SEARCH_MODES)


@pytest.mark.parametrize(
    "removed",
    [
        "beam_width",
        "prune_trials",
        "prune_seed",
        "max_node_patterns",
        "max_sideways_patterns",
        "allow_text_predicates",
        "volatile_meta_key",
    ],
)
def test_removed_fields_are_not_settable(removed):
    with pytest.raises(TypeError):
        InductionConfig(**{removed: 1})


@pytest.mark.parametrize(
    "key,value",
    [
        ("k", 1),
        ("k", MAX_K),
        ("beta", 1),
        ("beta", 2.5),
        ("search", "pruned"),
        ("diversity", 0),
        ("diversity", 3),
        ("enable_sideways", False),
    ],
)
def test_valid_values(key, value):
    assert getattr(InductionConfig(**{key: value}), key) == value


@pytest.mark.parametrize(
    "key,value",
    [
        ("k", 0),
        ("k", MAX_K + 1),
        ("k", 1000),
        ("k", "10"),
        ("k", 10.0),
        ("k", True),
        ("beta", "x"),
        ("beta", 0),
        ("beta", -0.5),
        ("beta", math.inf),
        ("beta", math.nan),
        ("beta", True),
        ("beta", 10**400),
        ("search", "greedy"),
        ("search", None),
        ("diversity", -1),
        ("diversity", "1"),
        ("diversity", math.nan),
        ("diversity", False),
        ("diversity", 10**400),
        ("enable_sideways", "no"),
        ("enable_sideways", 1),
    ],
)
def test_invalid_values_raise_value_error(key, value):
    with pytest.raises(ValueError, match=key):
        InductionConfig(**{key: value})


def test_diversity_is_stored_as_a_float():
    config = config_with_options(InductionConfig(), {"diversity": 2})
    assert config.diversity == 2.0 and isinstance(config.diversity, float)


def test_payload_ignores_old_keys_and_fills_missing_ones():
    old = {"k": 7, "max_sideways_patterns": 10000, "skipped_attributes": ["style"]}
    config = config_from_payload(old)
    assert config == InductionConfig(k=7)
    assert list(config_to_payload(config)) == FIELDS


def test_artifact_load_rejects_a_malformed_config():
    from repro.dom import parse_html
    from repro.induction.induce import WrapperInducer
    from repro.induction.samples import QuerySample

    doc = parse_html('<html><body><span class="p">10</span></body></html>')
    target = doc.find(tag="span")
    result = WrapperInducer().induce_one(doc, [target])
    artifact = WrapperArtifact.from_induction(
        result, [QuerySample(doc, [target])], task_id="shop/p", site_id="shop"
    )
    payload = artifact.to_payload()
    assert list(payload["config"]) == FIELDS
    for bad in ({"k": "10"}, {"beta": "x"}, {"enable_sideways": "no"}, {"k": 1000}):
        with pytest.raises(ArtifactError, match=next(iter(bad))):
            WrapperArtifact.from_payload({**payload, "config": {**payload["config"], **bad}})
    with pytest.raises(ArtifactError):
        WrapperArtifact.from_payload({**payload, "config": "pruned"})
    raised = {**payload, "config": {**payload["config"], "max_node_patterns": 10000}}
    assert WrapperArtifact.from_payload(raised).config == payload["config"]


HUGE = "x" * 1_000_000


@pytest.mark.parametrize(
    "make",
    [
        lambda: InductionConfig(beta=HUGE),
        lambda: InductionConfig(search=HUGE),
        lambda: InductionConfig(diversity=HUGE),
        lambda: InductionConfig(enable_sideways=HUGE),
        lambda: config_with_options(InductionConfig(), {HUGE: 1}),
    ],
    ids=["beta", "search", "diversity", "enable_sideways", "option-key"],
)
def test_errors_quote_client_input_short(make):
    """A 1,000,000-character value is quoted through ``reprlib`` (30
    characters), not echoed whole."""
    with pytest.raises(ValueError) as err:
        make()
    assert "'xxx" in str(err.value)
    assert len(str(err.value)) < 200


def test_ranked_query_errors_quote_the_payload_short():
    from repro.runtime.artifact import RankedQuery

    with pytest.raises(ArtifactError) as err:
        RankedQuery.from_payload({"query": HUGE, "score": "x", "tp": 1, "fp": 0, "fn": 0})
    assert "malformed ranked query payload" in str(err.value)
    assert len(str(err.value)) < 200
