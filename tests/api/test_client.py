"""The local facade: induction modes, typed results, persistence,
drift signals, repair, and error behavior."""

import pytest

from repro import (
    CheckResult,
    ExtractionResult,
    FacadeError,
    Sample,
    WrapperClient,
    mark_volatile,
    parse_html,
)
from repro.induction.samples import QuerySample
from repro.runtime.artifact import WrapperArtifact
from repro.runtime.drift import DriftDetector
from repro.runtime.store import ShardedArtifactStore

from tests.api.pages import LIST_PAGE, PRICE_GONE, PRICE_V1, PRICE_V2, RECORD_PAGE


def price_sample():
    doc = parse_html(PRICE_V1)
    target = doc.find(tag="span", class_="price")
    mark_volatile(target)
    return Sample(doc, [target])


def list_sample():
    doc = parse_html(LIST_PAGE)
    rows = list(doc.root.iter_find(tag="tr"))[1:]
    mark_volatile(rows)
    return Sample(doc, rows)


def record_sample():
    doc = parse_html(RECORD_PAGE)
    items = list(doc.root.iter_find(tag="div", class_="s-item"))
    mark_volatile(items)
    return Sample(
        doc,
        items,
        fields={
            "title": [item.find(tag="a") for item in items],
            "price": [item.find(tag="span", class_="price") for item in items],
        },
    )


class TestInduceModes:
    def test_node_mode_single_target(self):
        client = WrapperClient()
        handle = client.induce("shop/price", [price_sample()])
        assert handle.mode == "node"
        assert handle.query == handle.queries[0]
        assert len(handle.ensemble) >= 1
        result = client.extract("shop/price", PRICE_V1)
        assert result.values == ("10",)
        assert not result.drifted

    def test_node_mode_list_target(self):
        client = WrapperClient()
        client.induce("reviews/rows", [list_sample()])
        result = client.extract("reviews/rows", LIST_PAGE)
        assert result.count == 5  # data rows only, not the header

    def test_ensemble_mode_serves_the_quorum_vote(self):
        client = WrapperClient()
        handle = client.induce("shop/price", [price_sample()], mode="ensemble")
        assert handle.mode == "ensemble"
        result = client.extract("shop/price", PRICE_V1)
        assert result.mode == "ensemble"
        assert result.values == ("10",)

    def test_record_mode_extracts_rows(self):
        client = WrapperClient()
        handle = client.induce("shop/items", [record_sample()], mode="record")
        assert handle.mode == "record"
        assert set(handle.fields) == {"title", "price"}
        result = client.extract("shop/items", RECORD_PAGE)
        assert len(result.records) == 3
        assert result.records[0] == {"title": "Quiet Tablet 300", "price": "$199.00"}
        # anchors are the values/paths surface in record mode
        assert result.count == 3

    def test_record_mode_requires_fields(self):
        client = WrapperClient()
        with pytest.raises(FacadeError, match="fields"):
            client.induce("shop/items", [price_sample()], mode="record")

    def test_record_mode_requires_one_sample(self):
        client = WrapperClient()
        with pytest.raises(FacadeError, match="exactly one"):
            client.induce(
                "shop/items", [record_sample(), record_sample()], mode="record"
            )

    def test_unknown_mode_is_rejected(self):
        client = WrapperClient()
        with pytest.raises(FacadeError, match="unknown induction mode"):
            client.induce("shop/price", [price_sample()], mode="magic")

    def test_query_samples_are_accepted(self):
        client = WrapperClient()
        sample = price_sample()
        legacy = QuerySample(sample.doc, sample.targets)
        handle = client.induce("shop/price", [legacy])
        assert client.extract("shop/price", PRICE_V1).values == ("10",)
        assert handle.generation == 0

    def test_empty_samples_rejected(self):
        client = WrapperClient()
        with pytest.raises(FacadeError, match="at least one sample"):
            client.induce("shop/price", [])

    def test_a_huge_mode_is_quoted_short(self):
        client = WrapperClient()
        with pytest.raises(FacadeError, match="unknown induction mode 'mmm") as err:
            client.induce("shop/price", [price_sample()], mode="m" * 1_000_000)
        assert len(str(err.value)) < 200

    def test_k_is_the_one_config_setting(self):
        """``k`` and ``options`` build the config; a config or provenance
        passed beside them has no parameter to land in."""
        import inspect

        from repro import RemoteWrapperClient

        local = inspect.signature(WrapperClient.induce).parameters
        remote = inspect.signature(RemoteWrapperClient.induce).parameters
        assert "config" not in local and "provenance" not in local
        assert list(local) == list(remote)
        client = WrapperClient()
        client.induce("shop/price", [price_sample()], k=5)
        assert client.artifact("shop/price").induction_config().k == 5


class TestRecordRowsMatchTheReference:
    """Record mode evaluates on the compiled engine; on every page the
    facade tests use, its rows must hold the very nodes the reference
    evaluator (``repro.xpath.evaluator``) finds."""

    @pytest.mark.parametrize(
        "page",
        [RECORD_PAGE, PRICE_V1, PRICE_V2, PRICE_GONE, LIST_PAGE],
        ids=["record", "price-v1", "price-v2", "price-gone", "list"],
    )
    def test_compiled_rows_equal_reference_rows(self, page):
        from repro.api.results import facade_fields
        from repro.induction.relative import RecordWrapper
        from repro.xpath import parse_query
        from repro.xpath.evaluator import evaluate as reference

        client = WrapperClient()
        client.induce("shop/items", [record_sample()], mode="record")
        artifact = client.artifact("shop/items")
        wrapper = RecordWrapper(
            anchor_query=artifact.best_query(),
            field_queries={
                name: parse_query(text)
                for name, text in facade_fields(artifact).items()
            },
        )
        doc = parse_html(page)
        expected = []
        for anchor in reference(wrapper.anchor_query, doc.root, doc):
            row = {"_anchor": anchor}
            for name, query in wrapper.field_queries.items():
                matches = reference(query, anchor, doc)
                row[name] = matches[0] if matches else None
            expected.append(row)
        assert wrapper.extract(doc) == expected
        if page is RECORD_PAGE:
            assert len(expected) == 3 and all(row["price"] for row in expected)
        rows = [
            {name: doc.normalized_text(node) if node is not None else None
             for name, node in row.items() if name != "_anchor"}
            for row in expected
        ]
        assert list(client.extract("shop/items", page).records) == rows


class TestRegistry:
    def test_get_keys_delete_contains(self):
        client = WrapperClient()
        client.induce("a/x", [price_sample()])
        client.induce("b/y", [list_sample()])
        assert client.keys() == ["a/x", "b/y"]
        assert "a/x" in client and "nope" not in client
        assert len(client) == 2
        assert client.get("a/x").site_key == "a/x"
        client.delete("a/x")
        assert "a/x" not in client
        with pytest.raises(KeyError):
            client.get("a/x")
        with pytest.raises(KeyError):
            client.delete("a/x")

    def test_unknown_site_key_raises_keyerror(self):
        client = WrapperClient()
        with pytest.raises(KeyError):
            client.extract("missing/key", PRICE_V1)
        with pytest.raises(KeyError):
            client.check("missing/key", PRICE_V1)
        with pytest.raises(KeyError):
            client.repair("missing/key", PRICE_V1)

    def test_store_backend_persists_across_clients(self, tmp_path):
        root = tmp_path / "store"
        first = WrapperClient(store=root, shards=4)
        first.induce("shop/price", [price_sample()])
        assert ShardedArtifactStore.is_store(root)

        second = WrapperClient(store=root)
        assert second.keys() == ["shop/price"]
        assert second.extract("shop/price", PRICE_V1).values == ("10",)

    def test_existing_store_object_is_accepted(self, tmp_path):
        store = ShardedArtifactStore(tmp_path / "s", n_shards=2)
        client = WrapperClient(store=store)
        client.induce("shop/price", [price_sample()])
        assert store.task_ids() == ["shop/price"]
        assert client.store is store

    def test_deploy_prebuilt_artifact(self, tmp_path):
        source = WrapperClient()
        source.induce("shop/price", [price_sample()])
        artifact = source.artifact("shop/price")
        reloaded = WrapperArtifact.loads(artifact.dumps())

        target = WrapperClient()
        handle = target.deploy(reloaded)
        assert handle.site_key == "shop/price"
        assert target.extract("shop/price", PRICE_V1).values == ("10",)


class TestDriftAndRepair:
    def test_redesign_fires_drift_signals(self):
        client = WrapperClient()
        client.induce("shop/price", [price_sample()])
        result = client.extract("shop/price", PRICE_V2)
        assert result.drifted
        assert result.drift_signals
        check = client.check("shop/price", PRICE_V2)
        assert check.drifted
        assert set(check.signals) == set(result.drift_signals)

    def test_removed_data_fires_empty_result(self):
        client = WrapperClient()
        client.induce("shop/price", [price_sample()])
        result = client.extract("shop/price", PRICE_GONE)
        assert result.is_empty
        assert "empty_result" in result.drift_signals
        assert result.drifted
        check = client.check("shop/price", PRICE_GONE)
        assert check.drifted and "empty_result" in check.signals
        assert check.result_count == 0

    def test_check_matches_the_runtime_drift_detector(self):
        """Facade checks feed the drift rule canonical paths from
        extraction records, the DOM-level DriftDetector feeds it node
        ids; both verdicts must agree field for field.  Inputs: the price
        pages, and corpus archives that break (weather-1, video-2,
        forum-1) or churn positionally (movies-0) over snapshots 1-15,
        under the default and the strict canonical-change config."""
        from repro.evolution import SyntheticArchive
        from repro.runtime.drift import DriftConfig
        from repro.sites import single_node_tasks

        inducer = WrapperClient()
        inducer.induce("shop/price", [price_sample()])
        cases = [
            ("shop/price", [parse_html(page) for page in (PRICE_V1, PRICE_V2, PRICE_GONE)])
        ]
        tasks = {task.task_id: task for task in single_node_tasks()}
        for task_id in ("weather-1/temp", "video-2/title", "forum-1/compose", "movies-0/director"):
            corpus_task = tasks[task_id]
            archive = SyntheticArchive(corpus_task.spec, n_snapshots=16)
            doc0 = archive.snapshot(0)
            targets = archive.targets(doc0, corpus_task.task.role)
            inducer.induce(task_id, [Sample(doc0, targets)], role=corpus_task.task.role)
            pages = [archive.snapshot(i) for i in range(1, 16) if not archive.is_broken(i)]
            cases.append((task_id, pages))

        fields = ("signals", "drifted", "result_count", "disagreeing_members", "member_count")
        seen: set[tuple[str, ...]] = set()
        for drift in (DriftConfig(), DriftConfig(canonical_change_is_hard=True)):
            client = WrapperClient(drift=drift)
            detector = DriftDetector(drift)
            for site_key, pages in cases:
                artifact = inducer.artifact(site_key)
                client.deploy(artifact)
                for index, page in enumerate(pages):
                    check = client.check(site_key, page)
                    report = detector.check(artifact, page)
                    assert [getattr(check, name) for name in fields] == [
                        getattr(report, name) for name in fields
                    ], f"{site_key} page {index} under {drift}"
                    seen.add(report.signals)
        # The inputs reach healthy pages, the soft signal alone, and
        # both hard signals together.
        assert {(), ("canonical_change",), ("empty_result", "ensemble_disagreement")} <= seen

    def test_explicit_reannotation_repair(self):
        client = WrapperClient()
        client.induce("shop/price", [price_sample()])

        doc2 = parse_html(PRICE_V2)
        new_target = doc2.find(tag="em", class_="cost")
        mark_volatile(new_target)
        from repro import canonical_path

        handle = client.repair(
            "shop/price", doc2, target_paths=[str(canonical_path(new_target))]
        )
        assert handle.generation == 1
        repaired = client.extract("shop/price", PRICE_V2)
        assert repaired.values == ("12",)
        assert not repaired.drifted
        assert repaired.generation == 1

    def test_repair_persists_the_new_generation(self, tmp_path):
        client = WrapperClient(store=tmp_path / "store")
        client.induce("shop/price", [price_sample()])
        doc2 = parse_html(PRICE_V2)
        target = doc2.find(tag="em", class_="cost")
        from repro import canonical_path

        client.repair("shop/price", doc2, target_paths=[str(canonical_path(target))])
        fresh = WrapperClient(store=tmp_path / "store")
        assert fresh.get("shop/price").generation == 1

    def test_automatic_repair_over_a_corpus_archive(self):
        """The full break-and-recover arc with ensemble-vote labels (no
        explicit re-annotation), on a seeded corpus site known to drift."""
        from repro.evolution import SyntheticArchive
        from repro.sites.verticals import make_weather_site

        spec = make_weather_site(1)
        archive = SyntheticArchive(spec, n_snapshots=30)
        doc0 = archive.snapshot(0)
        targets0 = archive.targets(doc0, "temp")

        client = WrapperClient()
        client.induce(f"{spec.site_id}/temp", [Sample(doc0, targets0)], role="temp")

        drifted_at = repaired_ok = None
        for index in range(1, archive.n_snapshots):
            if archive.is_broken(index):
                continue
            doc = archive.snapshot(index)
            truth = archive.targets(doc, "temp")
            if not truth:
                break
            result = client.extract(f"{spec.site_id}/temp", doc)
            if not result.drifted:
                continue
            drifted_at = index
            handle = client.repair(f"{spec.site_id}/temp", doc)
            assert handle.generation >= 1
            recovered = client.extract(f"{spec.site_id}/temp", doc)
            wanted = sorted(doc.normalized_text(n) for n in truth)
            repaired_ok = sorted(recovered.values) == wanted
            break
        assert drifted_at is not None, "scenario no longer drifts in the window"
        assert repaired_ok


class TestTypedResults:
    def test_extraction_result_payload_round_trip(self):
        client = WrapperClient()
        client.induce("shop/items", [record_sample()], mode="record")
        result = client.extract("shop/items", RECORD_PAGE)
        clone = ExtractionResult.from_payload(result.to_payload())
        assert clone == result

    def test_check_result_payload_round_trip(self):
        client = WrapperClient()
        client.induce("shop/price", [price_sample()])
        check = client.check("shop/price", PRICE_V2)
        assert CheckResult.from_payload(check.to_payload()) == check

    def test_wrapper_handle_payload_round_trip(self):
        client = WrapperClient()
        handle = client.induce("shop/items", [record_sample()], mode="record")
        from repro import WrapperHandle

        assert WrapperHandle.from_payload(handle.to_payload()) == handle

    def test_extract_accepts_documents_and_html(self):
        client = WrapperClient()
        client.induce("shop/price", [price_sample()])
        from_html = client.extract("shop/price", PRICE_V1)
        from_doc = client.extract("shop/price", parse_html(PRICE_V1))
        assert from_html == from_doc

    def test_unparseable_page_is_a_facade_error(self):
        client = WrapperClient()
        client.induce("shop/price", [price_sample()])
        with pytest.raises(FacadeError, match="parse"):
            client.extract("shop/price", 12345)  # not a page at all


class TestSampleModel:
    def test_sample_payload_round_trip_preserves_annotation(self):
        sample = record_sample()
        payload = sample.to_payload()
        clone = Sample.from_payload(payload)
        assert len(clone.targets) == len(sample.targets)
        assert set(clone.fields) == set(sample.fields)
        # Round-tripping again is stable (paths resolve to the same nodes).
        assert clone.to_payload() == payload

    def test_misaligned_fields_rejected(self):
        doc = parse_html(RECORD_PAGE)
        items = list(doc.root.iter_find(tag="div", class_="s-item"))
        with pytest.raises(ValueError, match="one per target"):
            Sample(doc, items, fields={"title": [items[0].find(tag="a")]})

    def test_empty_targets_rejected(self):
        doc = parse_html(RECORD_PAGE)
        with pytest.raises(ValueError, match="at least one target"):
            Sample(doc, [])

    def test_mark_volatile_rejects_non_nodes(self):
        with pytest.raises(TypeError):
            mark_volatile(42)

    def test_mark_volatile_accepts_documents(self):
        doc = parse_html(PRICE_V1)
        mark_volatile(doc)
        assert all(text.meta.get("volatile") for text in doc.index.texts)
