"""Compatibility with what was written before the induction fold pool,
the NDJSON ``/extract_many`` stream mode and the deprecation shims were
removed, and before fourteen induction settings became constants.

* An artifact from then still loads, serves and repairs on every
  backend, although its config carries ``fold_workers`` and the
  fourteen removed fields, its samples a ``volatile_key``, and its
  provenance ``pooled``.  The repaired generation stores the five
  config fields left.
* ``fold_workers``, ``beam_width``, ``prune_trials`` and ``prune_seed``
  are unknown induce options now: a :class:`FacadeError` on every
  backend, a 422 on the wire.

``Accept: application/x-ndjson`` and the removed ``wire`` option of
``extract_many`` are covered in ``tests/runtime/test_bulk_wire.py``.
"""

import json

import pytest

from repro import FacadeError, Sample, WrapperClient, mark_volatile, parse_html
from repro.runtime.artifact import WrapperArtifact

from tests.api.test_facade_parity import _raw_status_and_body
from tests.api.test_facade_parity import client  # noqa: F401 - the five backends
from tests.serving_utils import spawn_listen, terminate

#: The payload of ``client.artifact("shop/price")`` after
#: ``client.induce("shop/price", [price_sample()], max_queries=3,
#: options={"fold_workers": 4})``, as the code before the removal wrote it.
PRE_REMOVAL_ARTIFACT = json.loads(
    r'{"baseline_paths":["/child::html[1]/child::body[1]/child::div[1]/child::span[1]"],'
    r'"beta":0.5,"config":{"allow_text_predicates":true,"beam_width":10,"beta":0.5,'
    r'"diversity":0.0,"enable_positional":true,"enable_sideways":true,"fold_workers":4,'
    r'"k":10,"max_attr_value_length":80,"max_node_patterns":48,"max_sideways_each_side":4,'
    r'"max_sideways_patterns":6,"max_target_spines":12,"max_text_length":60,'
    r'"max_words_per_value":4,"prune_seed":0,"prune_trials":4,"search":"exhaustive",'
    r'"skipped_attributes":["style"],"volatile_meta_key":"volatile"},'
    r'"ensemble":{"members":["descendant::*[last()]","descendant::span[@class=\"price\"]",'
    r'"descendant::h1[@class=\"name\"]/following-sibling::*"],"quorum":2},"generation":0,'
    r'"provenance":{"facade":{"induction":{"candidates_considered":0,'
    r'"candidates_pruned":0,"folds":1,"pooled":false,"search":"exhaustive"},'
    r'"mode":"node"}},"queries":[{"fn":0,"fp":0,"query":"descendant::*[last()]",'
    r'"score":22.0,"tp":1},{"fn":0,"fp":0,"query":"descendant::span[@class=\"price\"]",'
    r'"score":22.0,"tp":1},{"fn":0,"fp":0,'
    r'"query":"descendant::h1[@class=\"name\"]/following-sibling::*","score":26.0,'
    r'"tp":1}],"role":"",'
    r'"samples":[{"html":"<html><body><div class=\"item\">'
    r'<h1 class=\"name\">Alpha</h1><span class=\"price\">10</span></div></body></html>",'
    r'"targets":["/child::html[1]/child::body[1]/child::div[1]/child::span[1]"],'
    r'"volatile_key":"volatile","volatile_texts":["10"]}],"site_id":"shop",'
    r'"task_id":"shop/price","version":1}'
)

PAGE = PRE_REMOVAL_ARTIFACT["samples"][0]["html"]
CHANGED_PAGE = (
    '<html><body><div class="item"><h1 class="name">Beta</h1>'
    '<span class="cost">12</span></div><p>footer</p></body></html>'
)
PRICE_PATH = "/child::html[1]/child::body[1]/child::div[1]/child::span[1]"


def price_sample() -> Sample:
    doc = parse_html(PAGE)
    target = doc.find(tag="span", class_="price")
    mark_volatile(target)
    return Sample(doc, [target])


#: Pruned-search options that were config fields; each is an unknown
#: option now (``fold_workers`` has tests of its own below).
REMOVED_OPTIONS = {"beam_width": 6, "prune_trials": 8, "prune_seed": 3}


def test_the_fixture_is_the_old_shape():
    assert PRE_REMOVAL_ARTIFACT["config"]["fold_workers"] == 4
    assert len(PRE_REMOVAL_ARTIFACT["config"]) == 20  # 19 fields + fold_workers
    assert PRE_REMOVAL_ARTIFACT["samples"][0]["volatile_key"] == "volatile"
    assert PRE_REMOVAL_ARTIFACT["provenance"]["facade"]["induction"]["pooled"] is False


def test_pre_removal_artifact_loads_serves_and_repairs(client):  # noqa: F811
    artifact = WrapperArtifact.from_payload(PRE_REMOVAL_ARTIFACT)
    handle = client.deploy(artifact)
    assert handle.site_key == "shop/price"
    assert client.extract("shop/price", PAGE).values == ("10",)
    repaired = client.repair("shop/price", CHANGED_PAGE, target_paths=[PRICE_PATH])
    assert repaired.generation == 1
    assert client.extract("shop/price", CHANGED_PAGE).values == ("12",)


def test_pre_removal_artifact_repairs_to_the_five_config_fields():
    client = WrapperClient()
    client.deploy(WrapperArtifact.from_payload(PRE_REMOVAL_ARTIFACT))
    client.repair("shop/price", CHANGED_PAGE, target_paths=[PRICE_PATH])
    repaired = client.artifact("shop/price")
    assert repaired.generation == 1
    assert sorted(repaired.config) == [
        "beta", "diversity", "enable_sideways", "k", "search",
    ]
    assert all("volatile_key" not in sample for sample in repaired.to_payload()["samples"])


def test_fold_workers_option_is_a_facade_error(client):  # noqa: F811
    with pytest.raises(FacadeError, match="unknown induction options"):
        client.induce("shop/folds", [price_sample()], options={"fold_workers": 2})


@pytest.mark.parametrize("option", sorted(REMOVED_OPTIONS))
def test_removed_options_are_a_facade_error(client, option):  # noqa: F811
    with pytest.raises(FacadeError, match="unknown induction options"):
        client.induce(
            "shop/removed", [price_sample()], options={option: REMOVED_OPTIONS[option]}
        )


@pytest.fixture(scope="module")
def live_host():
    proc, host, port = spawn_listen()
    try:
        yield host, port
    finally:
        terminate([proc])


def test_fold_workers_option_is_422_on_the_wire(live_host):
    host, port = live_host
    status, body = _raw_status_and_body(
        host,
        port,
        "POST",
        "/induce",
        payload={
            "site_key": "shop/folds",
            "samples": [price_sample().to_payload()],
            "options": {"fold_workers": 2},
        },
    )
    answer = json.loads(body)
    assert status == 422, answer
    assert answer["code"] == "unprocessable"
    assert "unknown induction options" in answer["error"]


@pytest.mark.parametrize("option", sorted(REMOVED_OPTIONS))
def test_removed_options_are_422_on_the_wire(live_host, option):
    host, port = live_host
    status, body = _raw_status_and_body(
        host,
        port,
        "POST",
        "/induce",
        payload={
            "site_key": "shop/removed",
            "samples": [price_sample().to_payload()],
            "options": {"search": "pruned", option: REMOVED_OPTIONS[option]},
        },
    )
    answer = json.loads(body)
    assert status == 422, answer
    assert answer["code"] == "unprocessable"
    assert option in answer["error"]
