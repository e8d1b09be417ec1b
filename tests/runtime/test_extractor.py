"""Extraction: one parse per page matches the per-pair loop, record
order, grouping, node-reference fidelity, and the per-page kernel's
failure isolation."""

import pytest

from repro.dom.builder import E, T, document
from repro.dom.serialize import to_html
from repro.evolution import SyntheticArchive
from repro.induction import QuerySample, WrapperInducer
from repro.runtime import (
    PageJob,
    WrapperArtifact,
    extract_document,
    jobs_for_artifacts,
)
from repro.runtime.extractor import extract_pages, extract_records
from repro.sites import single_node_tasks
from repro.xpath.errors import XPathParseError


@pytest.fixture(scope="module")
def corpus_jobs():
    """Real corpus pages with every task wrapper of the site on them."""
    inducer = WrapperInducer()
    artifacts, page_html = [], {}
    for corpus_task in single_node_tasks(limit=8):
        archive = SyntheticArchive(corpus_task.spec, n_snapshots=1)
        doc = archive.snapshot(0)
        targets = archive.targets(doc, corpus_task.task.role)
        result = inducer.induce_one(doc, targets)
        artifacts.append(
            WrapperArtifact.from_induction(
                result,
                [QuerySample(doc, targets)],
                task_id=corpus_task.task_id,
                site_id=corpus_task.spec.site_id,
                role=corpus_task.task.role,
            )
        )
        page_html[corpus_task.spec.site_id] = to_html(doc)
    return jobs_for_artifacts(artifacts, page_html)


class TestSerialBatchEquivalence:
    def test_batch_matches_serial_loop(self, corpus_jobs):
        """One parse per page answers what one parse per (wrapper, page)
        pair answers."""
        per_pair = [
            PageJob(job.page_id, job.html, (wrapper,))
            for job in corpus_jobs
            for wrapper in job.wrappers
        ]
        assert extract_records(corpus_jobs) == extract_records(per_pair)

    def test_record_order_follows_job_order(self, corpus_jobs):
        records = extract_records(corpus_jobs)
        expected = [
            (job.page_id, wrapper_id)
            for job in corpus_jobs
            for wrapper_id, _ in job.wrappers
        ]
        assert [(r.page_id, r.wrapper_id) for r in records] == expected

    def test_results_are_nonempty_on_snapshot0(self, corpus_jobs):
        records = extract_records(corpus_jobs)
        assert records and all(not r.is_empty for r in records)


class TestNodeReferences:
    def test_values_and_paths_describe_matches(self):
        doc = document(
            E("html", E("body", E("div", E("span", "hello", class_="x"))))
        )
        records = extract_document(doc, [("w", 'descendant::span[@class="x"]')], "p")
        (record,) = records
        assert record.count == 1
        assert record.values == ("hello",)
        assert record.paths == (
            "/child::html[1]/child::body[1]/child::div[1]/child::span[1]",
        )

    def test_attribute_results_use_attribute_step(self):
        doc = document(E("html", E("body", E("a", "x", href="/target"))))
        (record,) = extract_document(doc, [("w", "descendant::a/attribute::href")], "p")
        assert record.values == ("/target",)
        assert record.paths[0].endswith("/attribute::href")

    def test_empty_result_is_recorded_not_dropped(self):
        doc = document(E("html", E("body", E("p", "x"))))
        (record,) = extract_document(doc, [("w", "descendant::table")], "p")
        assert record.is_empty and record.count == 0

    def test_text_node_results(self):
        doc = document(E("html", E("body", E("p", T("only text")))))
        (record,) = extract_document(doc, [("w", "descendant::p/child::text()")], "p")
        assert record.values == ("only text",)


class TestJobConstruction:
    def test_jobs_group_by_site_and_include_ensemble(self, corpus_jobs):
        for job in corpus_jobs:
            ids = [wrapper_id for wrapper_id, _ in job.wrappers]
            tops = [i for i in ids if "#m" not in i]
            assert tops, job.page_id
            members = [i for i in ids if "#m" in i]
            assert members, "ensemble members missing from jobs"


BAD_QUERY = "not a query (("


def _page_html() -> str:
    return to_html(document(E("html", E("body", E("p", "x")))))


class TestPageKernel:
    """``extract_pages``: the one per-page kernel behind
    ``extract_records`` and the serving layer (whose tests cover its
    parse cache and page-level failures)."""

    def test_failing_wrapper_fails_only_its_slot(self):
        wrappers = (("a", "descendant::p"), ("bad", BAD_QUERY), ("b", "descendant::body"))
        (slots,), stats = extract_pages([("p1", _page_html(), wrappers)])
        first, bad, last = slots
        assert (first.wrapper_id, first.values) == ("a", ("x",))
        assert isinstance(bad, XPathParseError)
        assert (last.wrapper_id, last.count) == ("b", 1)
        assert stats == {"parsed": 1, "cache_hits": 0, "cache_evictions": 0}

    def test_batch_raises_the_failing_wrappers_exception(self):
        html = _page_html()
        jobs = [
            PageJob("p1", html, (("a", "descendant::p"),)),
            PageJob("p2", html, (("bad", BAD_QUERY),)),
        ]
        with pytest.raises(XPathParseError, match="trailing input"):
            extract_records(jobs)
