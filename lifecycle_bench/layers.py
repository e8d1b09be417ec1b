"""Which program functions the traced pass wraps, and how their spans
become per-layer metrics.

Span names are the layer's module plus the timed function.  Counted
figures are events recorded where the work happens (pages parsed,
nodes indexed, candidates generated, ...).
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Optional

from spans import Recorder, Span, install, self_times

PARSE = "dom.parser.parse_html"
INDEX = "dom.node.build_index"
EVALUATE = "xpath.cache.evaluate_plan"
EXTRACT = "runtime.extractor.extract_document"
RESULT = "api.results.result"
DISPATCH = "runtime.net.dispatch"
QUEUE = "runtime.serve.extract_info"
STORE_GET = "runtime.store.get"
STORE_PUT = "runtime.store.put"
STEP_PATTERNS = "induction.step_pattern.step_patterns"
INDUCE_PATH = "induction.induce_path.induce_path"
PRUNE = "induction.prune.prune"
INDUCE = "induction.induce.induce"
INDUCE_MULTI = "induction.induce.induce_multi"
BUILD = "runtime.artifact.from_induction"
REMOTE = "api.remote.extract"

#: Counted events.
PAGES_KB = "dom.parser.kb"
NODES = "dom.node.nodes"
PATHS = "xpath.canonical.paths"
CANDIDATES = "induction.step_pattern.candidates"
PRUNE_CONSIDERED = "induction.prune.considered"
PRUNE_KEPT = "induction.prune.kept"


class _Requests:
    """Open serving requests, so that work the serving thread does for
    a request becomes a child of the request's ``extract_info`` span."""

    def __init__(self) -> None:
        self.by_html: dict[str, int] = {}
        self.by_page: dict[str, int] = {}

    def opened(self, sid: int, server, job) -> None:
        self.by_html.setdefault(job.html, sid)
        self.by_page.setdefault(job.page_id, sid)

    def closed(self, sid: int, result, server, job) -> None:
        if self.by_html.get(job.html) == sid:
            del self.by_html[job.html]
        if self.by_page.get(job.page_id) == sid:
            del self.by_page[job.page_id]

    def parent_of_parse(self, html, *args, **kwargs) -> Optional[int]:
        return self.by_html.get(html)

    def parent_of_extract(self, doc, wrappers, page_id="", *args, **kwargs) -> Optional[int]:
        return self.by_page.get(page_id)


def install_layers(recorder: Recorder) -> Callable[[], None]:
    """Wrap every measured function at every place it is bound;
    returns the function that restores the originals."""
    import repro  # noqa: F401 - load every module that binds a measured name
    import repro.api.remote  # noqa: F401
    import repro.runtime.cli  # noqa: F401
    import repro.runtime.net  # noqa: F401

    requests = _Requests()
    count = recorder.count
    wrap = recorder.wrap

    def on_parse(sid, result, html, *args, **kwargs):
        count(PAGES_KB, len(html) / 1024.0)

    def on_index(sid, index, *args, **kwargs):
        count(NODES, len(index.nodes))

    def on_candidates(sid, result, *args, **kwargs):
        count(CANDIDATES, len(result))

    def on_prune(sid, result, pruner, candidates, *args, **kwargs):
        count(PRUNE_CONSIDERED, len(candidates))
        count(PRUNE_KEPT, len(result))

    def on_induce(sid, samples, *args, **kwargs):
        # A zero-length child marks multi-sample calls: it changes no
        # self time, and it stays inside the run's window.
        if len(samples) > 1:
            now = time.perf_counter()
            recorder.add(INDUCE_MULTI, now, now, parent=sid)

    targets = [
        ("repro.dom.parser:parse_html",
         lambda fn: wrap(PARSE, fn, parent_of=requests.parent_of_parse, on_end=on_parse)),
        ("repro.dom.node:Document._build_index",
         lambda fn: wrap(INDEX, fn, on_end=on_index)),
        ("repro.xpath.cache:CachedEvaluator.evaluate_plan", lambda fn: wrap(EVALUATE, fn)),
        ("repro.runtime.extractor:extract_document",
         lambda fn: wrap(EXTRACT, fn, parent_of=requests.parent_of_extract)),
        ("repro.xpath.canonical:canonical_path", lambda fn: recorder.counting(PATHS, fn)),
        ("repro.api.results:result_from_records", lambda fn: wrap(RESULT, fn)),
        ("repro.api.results:check_from_records", lambda fn: wrap(RESULT, fn)),
        ("repro.api.results:ExtractionResult.to_payload", lambda fn: wrap(RESULT, fn)),
        ("repro.api.results:CheckResult.to_payload", lambda fn: wrap(RESULT, fn)),
        ("repro.runtime.net:WrapperHTTPServer._dispatch", lambda fn: wrap(DISPATCH, fn)),
        ("repro.runtime.serve:AsyncExtractionServer.extract_info",
         lambda fn: wrap(QUEUE, fn, on_start=requests.opened, on_end=requests.closed)),
        ("repro.runtime.store:ShardedArtifactStore.get", lambda fn: wrap(STORE_GET, fn)),
        ("repro.runtime.store:ShardedArtifactStore.put", lambda fn: wrap(STORE_PUT, fn)),
        ("repro.induction.step_pattern:step_patterns",
         lambda fn: wrap(STEP_PATTERNS, fn, on_end=on_candidates)),
        ("repro.induction.induce_path:induce_path", lambda fn: wrap(INDUCE_PATH, fn)),
        ("repro.induction.prune:CandidatePruner.prune",
         lambda fn: wrap(PRUNE, fn, on_end=on_prune)),
        ("repro.induction.induce:induce", lambda fn: wrap(INDUCE, fn, on_start=on_induce)),
        ("repro.runtime.artifact:WrapperArtifact.from_induction",
         lambda fn: wrap(BUILD, fn)),
        ("repro.api.remote:RemoteWrapperClient.extract", lambda fn: wrap(REMOTE, fn)),
    ]
    restores = [install(target, make) for target, make in targets]

    def restore() -> None:
        for undo in reversed(restores):
            undo()

    return restore


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def layer_metrics(spans: Iterable[Span], counts: dict[str, float]) -> dict[str, float]:
    """Per-layer figures of one process's spans and events (times in ms,
    summed self times)."""
    spans = list(spans)
    own = self_times(spans)
    by_name: dict[str, float] = {}
    n_by_name: dict[str, int] = {}
    for span in spans:
        by_name[span.name] = by_name.get(span.name, 0.0) + own[span.sid]
        n_by_name[span.name] = n_by_name.get(span.name, 0) + 1
    multi = {span.parent for span in spans if span.name == INDUCE_MULTI}
    aggregate = sum(own[span.sid] for span in spans if span.sid in multi)
    dispatch = sum(span.end - span.start for span in spans if span.name == DISPATCH)
    considered = counts.get(PRUNE_CONSIDERED, 0.0)
    return {
        "dom.parser.parse_ms": _ms(by_name.get(PARSE, 0.0)),
        "dom.parser.pages": n_by_name.get(PARSE, 0),
        "dom.parser.kb": counts.get(PAGES_KB, 0.0),
        "dom.node.index_ms": _ms(by_name.get(INDEX, 0.0)),
        "dom.node.nodes": counts.get(NODES, 0),
        "xpath.cache.evaluate_ms": _ms(by_name.get(EVALUATE, 0.0)),
        "xpath.cache.evaluations": n_by_name.get(EVALUATE, 0),
        "runtime.extractor.serialize_ms": _ms(by_name.get(EXTRACT, 0.0)),
        "xpath.canonical.paths": counts.get(PATHS, 0),
        "api.results.result_ms": _ms(by_name.get(RESULT, 0.0)),
        "runtime.net.server_ms": _ms(dispatch),
        "runtime.serve.queue_wait_ms": _ms(by_name.get(QUEUE, 0.0)),
        "runtime.store.get_ms": _ms(by_name.get(STORE_GET, 0.0)),
        "runtime.store.gets": n_by_name.get(STORE_GET, 0),
        "runtime.store.put_ms": _ms(by_name.get(STORE_PUT, 0.0)),
        "runtime.store.puts": n_by_name.get(STORE_PUT, 0),
        "induction.step_pattern.generate_ms": _ms(by_name.get(STEP_PATTERNS, 0.0)),
        "induction.step_pattern.candidates": counts.get(CANDIDATES, 0),
        "induction.induce_path.score_ms": _ms(by_name.get(INDUCE_PATH, 0.0)),
        "induction.prune.prune_ms": _ms(by_name.get(PRUNE, 0.0)),
        "induction.prune.kept_share": (
            counts.get(PRUNE_KEPT, 0.0) / considered if considered else 0.0
        ),
        "induction.induce.aggregate_ms": _ms(aggregate),
        "runtime.artifact.build_ms": _ms(by_name.get(BUILD, 0.0)),
        "python.gc_ms": _ms(by_name.get("python.gc", 0.0)),
        "python.gc_gen2": counts.get("python.gc_gen2", 0),
    }


def dispatch_coverage(spans: Iterable[Span]) -> float:
    """Share of the server's request time (its ``_dispatch`` spans) that
    the measured layers under it cover: 1 minus the dispatch spans'
    summed self time over their summed duration."""
    spans = list(spans)
    own = self_times(spans)
    dispatch = [span for span in spans if span.name == DISPATCH]
    total = sum(span.end - span.start for span in dispatch)
    return 1.0 - sum(own[span.sid] for span in dispatch) / total if total else 0.0


def thread_self_time(spans: Iterable[Span], threads: set[int]) -> float:
    """Summed self time (seconds) of the spans on ``threads``, garbage
    collection excluded."""
    spans = list(spans)
    own = self_times(spans)
    return sum(
        own[span.sid]
        for span in spans
        if span.thread in threads and span.name != "python.gc" and span.name != INDUCE_MULTI
    )
