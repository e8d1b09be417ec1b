"""Compatibility with what was written before the induction fold pool,
the NDJSON ``/extract_many`` stream mode and the deprecation shims were
removed.

* An artifact from then still loads, serves and repairs on every
  backend, although its config carries ``fold_workers`` and its
  provenance ``pooled``.
* ``fold_workers`` is an unknown induce option now: a
  :class:`FacadeError` on every backend, a 422 on the wire.

``wire="stream"`` and ``Accept: application/x-ndjson`` are covered in
``tests/runtime/test_bulk_wire.py``.
"""

import json

import pytest

from repro import FacadeError, Sample, mark_volatile, parse_html
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


def test_the_fixture_is_the_old_shape():
    assert PRE_REMOVAL_ARTIFACT["config"]["fold_workers"] == 4
    assert PRE_REMOVAL_ARTIFACT["provenance"]["facade"]["induction"]["pooled"] is False


def test_pre_removal_artifact_loads_serves_and_repairs(client):  # noqa: F811
    artifact = WrapperArtifact.from_payload(PRE_REMOVAL_ARTIFACT)
    handle = client.deploy(artifact)
    assert handle.site_key == "shop/price"
    assert client.extract("shop/price", PAGE).values == ("10",)
    repaired = client.repair("shop/price", CHANGED_PAGE, target_paths=[PRICE_PATH])
    assert repaired.generation == 1
    assert client.extract("shop/price", CHANGED_PAGE).values == ("12",)


def test_fold_workers_option_is_a_facade_error(client):  # noqa: F811
    with pytest.raises(FacadeError, match="unknown induction options"):
        client.induce("shop/folds", [price_sample()], options={"fold_workers": 2})


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
