"""Tests of the benchmark's own arithmetic.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest lifecycle_bench/test_arithmetic.py -q
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import spec  # noqa: E402
from layers import DISPATCH, QUEUE, dispatch_coverage  # noqa: E402
from spans import Recorder, Span, install, self_times  # noqa: E402
from stats import (  # noqa: E402
    MIN_BEYOND,
    InsufficientSamples,
    median,
    min_samples,
    percentile,
    samples_beyond,
    windowed_median,
    windowed_percentile,
    windowed_rate,
)


# -- percentiles ---------------------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = [float(i) for i in range(1, 1001)]
    assert percentile(samples, 99) == 990.0
    assert percentile(samples, 50) == 500.0
    assert percentile(list(reversed(samples)), 99) == 990.0


def test_percentile_refuses_fewer_than_ten_beyond():
    assert samples_beyond(1000, 99) == 10
    assert percentile([1.0] * 1000, 99) == 1.0
    with pytest.raises(InsufficientSamples):
        percentile([1.0] * 999, 99)
    with pytest.raises(InsufficientSamples):
        percentile([1.0] * 99, 90)
    assert MIN_BEYOND == 10


def test_min_samples_is_the_fewest_a_percentile_reports():
    assert min_samples(99) == 1000
    assert min_samples(90) == 100
    assert min_samples(50) == 20
    for q in (50, 90, 99):
        percentile([1.0] * min_samples(q), q)
        with pytest.raises(InsufficientSamples):
            percentile([1.0] * (min_samples(q) - 1), q)


def test_percentile_rejects_out_of_range():
    with pytest.raises(ValueError):
        percentile([1.0] * 100, 100)
    with pytest.raises(ValueError):
        percentile([1.0] * 100, 0)


def test_median_is_a_measured_value():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.0
    with pytest.raises(ValueError):
        median([])


def test_windowed_rate_is_the_median_window():
    # Windows of 2 completions: 2/1s, 2/4s (a stall), 2/1s; the partial
    # trailing window is dropped.
    ends = [0.5, 1.0, 3.0, 5.0, 5.5, 6.0, 6.5]
    assert windowed_rate(0.0, ends, 2) == 2.0
    with pytest.raises(InsufficientSamples):
        windowed_rate(0.0, [1.0], 2)


def test_windowed_median_is_the_median_of_window_medians():
    samples = [1.0, 9.0, 2.0, 2.0, 3.0, 3.0, 100.0]
    assert windowed_median(samples, 2) == 2.0
    with pytest.raises(InsufficientSamples):
        windowed_median([1.0], 2)


def test_windowed_percentile_is_the_median_of_window_percentiles():
    # Three windows of 1000 whose p99s are 990, 1980 (a slow window) and
    # 990; the trailing partial window of 500 is dropped.
    window = [float(i) for i in range(1, 1001)]
    samples = window + [2.0 * s for s in window] + window + [1e6] * 500
    assert windowed_percentile(samples, 99, 1000) == 990.0
    with pytest.raises(InsufficientSamples):
        windowed_percentile(samples, 99, 999)
    with pytest.raises(InsufficientSamples):
        windowed_percentile([1.0] * 10, 99, 1000)


# -- self time -------------------------------------------------------------------


def _span(sid, name, start, end, parent=None, thread=1):
    return Span(sid, name, start, end, parent, thread)


def test_self_time_of_nested_spans():
    spans = [
        _span(1, "outer", 0.0, 10.0),
        _span(2, "mid", 1.0, 5.0, parent=1),
        _span(3, "leaf", 2.0, 3.0, parent=2),
        _span(4, "mid", 6.0, 8.0, parent=1),
    ]
    own = self_times(spans)
    assert own == {1: 4.0, 2: 3.0, 3: 1.0, 4: 2.0}
    # Self times partition the outer span.
    assert sum(own.values()) == 10.0


def test_self_time_with_children_on_other_threads():
    # A request on the event-loop thread waits while two executor
    # threads work for it; their overlap counts once, and the part of a
    # child outside the parent's interval counts not at all.
    spans = [
        _span(1, "request", 0.0, 10.0, thread=1),
        _span(2, "parse", 2.0, 6.0, parent=1, thread=2),
        _span(3, "extract", 4.0, 8.0, parent=1, thread=3),
        _span(4, "late", 9.0, 12.0, parent=1, thread=2),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 6.0 - 1.0)
    assert own[2] == 4.0 and own[3] == 4.0 and own[4] == 3.0


def test_dispatch_coverage_is_the_share_layers_cover():
    # Two requests: 6 of 10 s and 4 of 4 s covered by measured layers
    # (an executor child of the queue span counts through its parent).
    spans = [
        _span(1, DISPATCH, 0.0, 10.0),
        _span(2, QUEUE, 1.0, 5.0, parent=1),
        _span(3, "runtime.store.get", 6.0, 8.0, parent=1),
        _span(4, DISPATCH, 20.0, 24.0),
        _span(5, QUEUE, 20.0, 22.0, parent=4),
        _span(6, "dom.parser.parse_html", 21.0, 24.0, parent=4, thread=2),
    ]
    assert dispatch_coverage(spans) == pytest.approx(1.0 - 4.0 / 14.0)
    assert dispatch_coverage([]) == 0.0


def test_recorder_links_spans_across_threads_and_windows_events():
    import threading

    recorder = Recorder()
    opened = {}
    # The worker thread's context holds no span, so parent_of names the
    # request's span, as the serving registry does.
    child = recorder.wrap("child", lambda: None, parent_of=lambda: opened["sid"])

    def request():
        worker = threading.Thread(target=child)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    traced_request = recorder.wrap(
        "request", request, on_start=lambda sid: opened.__setitem__("sid", sid)
    )
    traced_request()
    by_name = {span.name: span for span in recorder.spans}
    assert by_name["child"].parent == by_name["request"].sid
    assert by_name["child"].thread != by_name["request"].thread

    recorder.count("pages", 2)
    spans, counts = recorder.window(0.0, float("inf"))
    assert counts == {"pages": 2}
    assert len(spans) == 2


def test_install_replaces_every_binding_and_restores(monkeypatch):
    import types

    def original(x):
        return x + 1

    home = types.ModuleType("benchprobe.home")
    home.fn = original
    user = types.ModuleType("benchprobe.user")
    user.fn = original
    monkeypatch.setitem(sys.modules, "benchprobe", types.ModuleType("benchprobe"))
    monkeypatch.setitem(sys.modules, "benchprobe.home", home)
    monkeypatch.setitem(sys.modules, "benchprobe.user", user)

    recorder = Recorder()
    restore = install("benchprobe.home:fn",
                      lambda fn: recorder.wrap("probe", fn), prefix="benchprobe")
    assert home.fn(1) == 2 and user.fn(2) == 3
    assert [span.name for span in recorder.spans] == ["probe", "probe"]
    restore()
    assert home.fn is original and user.fn is original


# -- names and metadata ---------------------------------------------------------


@pytest.mark.parametrize("name", ["setup_s", "extract-fresh", "dom.parser.parse_ms", "9lives",
                                  "a" * 64])
def test_valid_names(name):
    assert spec.valid_name(name)


@pytest.mark.parametrize("name", ["", "_lead", ".lead", "-lead", "has space", "a/b", "a" * 65,
                                  "ümlaut"])
def test_invalid_names(name):
    assert not spec.valid_name(name)


def test_units():
    for unit in ("ms", "s", "1/s", "count", "ops/s", "%", "MB"):
        assert spec.valid_unit(unit)
    for unit in ("", "a" * 17, "m s"):
        assert not spec.valid_unit(unit)


E2E = spec.benchmark()["end_to_end"]
LAYERS = spec.benchmark()["per_layer"]


def test_benchmark_json_is_well_formed():
    names = list(spec.workload_names())
    names += [m["name"] for m in E2E] + [m["name"] for m in LAYERS]
    assert len(names) == len(set(names))
    assert all(spec.valid_name(name) for name in names)
    for metric in E2E + LAYERS:
        assert spec.valid_unit(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    for metric in E2E:
        assert 0 < metric["bound"] <= 0.25
    assert max(E2E, key=lambda m: m["bound"])["name"] == "setup_s"
    for workload in spec.benchmark()["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_metadata_names_the_benchmark_json_metrics():
    assert set(spec.E2E_META) == {m["name"] for m in E2E}
    assert set(spec.LAYER_META) == {m["name"] for m in LAYERS}
    workloads = set(spec.workload_names())
    for meta in spec.E2E_META.values():
        assert set(meta.per_workload) == workloads
    for meta in spec.LAYER_META.values():
        assert set(meta.on) <= workloads and set(meta.idle_on) <= workloads
        assert not set(meta.on) & set(meta.idle_on)
    assert spec.layer_of("dom.parser.parse_ms") == "dom.parser"


def test_superseded_headlines_exist():
    metas = list(spec.E2E_META.values()) + list(spec.LAYER_META.values())
    named = [h for meta in metas for h in meta.supersedes]
    named += list(spec.NOT_SUPERSEDED)
    for headline in named:
        filename, dotted = headline.split(" ")
        section, key = dotted.split(".", 1)
        payload = json.loads((BENCH.parent / filename).read_text())
        assert key in payload[section], headline


def test_inputs_are_seeded():
    import inputs

    def maintain_digest(seed):
        return inputs.digest([task.to_json() for task in inputs.maintain_inputs(seed)])

    assert maintain_digest(1) == maintain_digest(1)
    assert maintain_digest(1) != maintain_digest(2)
    first = inputs.extraction_inputs(1, 4, 5).to_json()
    assert inputs.digest(first) == inputs.digest(inputs.extraction_inputs(1, 4, 5).to_json())
    assert inputs.digest(first) != inputs.digest(inputs.extraction_inputs(2, 4, 5).to_json())
