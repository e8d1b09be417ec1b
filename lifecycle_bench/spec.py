"""What the benchmark measures, and why: workloads and metrics.

``BENCHMARK.json`` at the repository root names the workloads, with why
each exists, and the metrics, with their units, directions and bounds.
This module loads it and adds, keyed by name, what that file has no room
for: what each metric means on each workload, the end-to-end metric each
layer should move, and the ``BENCH_*.json`` headline each supersedes.
The benchmark's tests check that both name the same metrics.

End-to-end metrics carry one name across all three workloads, because
every run reports every end-to-end metric.  Each workload gives the name
its own meaning, listed in ``E2E_META`` under ``per_workload`` together
with the journey-specific name the report prints next to it.
"""

from __future__ import annotations

import functools
import json
import pathlib
import re
from dataclasses import dataclass

#: Metric and workload names: a letter or digit, then up to 63 letters,
#: digits, ``_``, ``.`` and ``-``.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: Units: up to 16 letters, digits, ``_``, ``/``, ``%``, ``.`` and ``-``.
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@functools.cache
def benchmark() -> dict:
    """``BENCHMARK.json`` at the root of the checkout, read once."""
    path = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    return json.loads(path.read_text(encoding="utf-8"))


def workload_names() -> tuple[str, ...]:
    return tuple(workload["name"] for workload in benchmark()["workloads"])


def valid_name(name: str) -> bool:
    return bool(NAME_RE.match(name))


def valid_unit(unit: str) -> bool:
    return bool(UNIT_RE.match(unit))


@dataclass(frozen=True)
class JourneyMetric:
    """What an end-to-end metric means on each workload."""

    #: workload → (journey-specific name, definition on that workload)
    per_workload: dict
    #: Existing ``BENCH_*.json`` headlines this metric supersedes.
    supersedes: tuple[str, ...] = ()


#: Bounds in BENCHMARK.json: the 2-vCPU Linux guest the benchmark was
#: tuned on changes speed by 10-40% for seconds to minutes at a time
#: (neighbours on the physical host), and a shift inside a set of runs
#: widens its spread.  Ten seeds in a set that met such shifts spread by
#: IQR/median 0.07-0.15 on the timings, serve-repeat's median latency
#: among the widest (0.14), as its sub-millisecond requests slow by about
#: twice the share in-process work does.  The timing bounds therefore
#: sit at the 0.25 ceiling (setup_s) or just under it.  Peak RSS repeats
#: within 1%.
E2E_META = {
    "setup_s": JourneyMetric({
        "extract-fresh": ("setup_s", "generate inputs, induce and deploy every wrapper"),
        "serve-repeat": (
            "setup_s",
            "generate inputs, induce the wrappers into a sharded store, spawn "
            "the server, wait until it is ready, warm up on off-stream pages",
        ),
        "maintain": ("setup_s", "generate inputs, create the empty store"),
    }),
    "ops_per_s": JourneyMetric(
        {
            "extract-fresh": (
                "extract_pages_per_s",
                "pages served to all their wrappers per second of run time; the "
                "median over the run's passes through the stream",
            ),
            "serve-repeat": (
                "http_requests_per_s",
                "completed requests per second of run time; the median over "
                "the run's passes through the stream",
            ),
            "maintain": (
                "maintain_tasks_per_s",
                "tasks carried through the whole loop per second of run time, "
                "each task's time the median of its passes",
            ),
        },
        (
            "BENCH_runtime.json speedup.batch_1worker_vs_serial",
            "BENCH_runtime.json speedup.batch_4workers_vs_serial",
            "BENCH_serving.json throughput.async_1worker_vs_serial_calls",
            "BENCH_serving.json throughput.async_2workers_vs_serial_calls",
            "BENCH_serving.json throughput.async_vs_serial_calls",
            "BENCH_net.json throughput.concurrent8_vs_serial_http",
            "BENCH_net.json throughput.auth_on_vs_off_concurrent8",
            "BENCH_net.json throughput.bulk_stream_vs_json",
        ),
    ),
    "latency_p50_ms": JourneyMetric(
        {
            "extract-fresh": (
                "extract_page_p50_ms",
                "median latency of one page's extract_many call; the median "
                "over passes through the stream of each pass's median",
            ),
            "serve-repeat": (
                "http_extract_p50_ms",
                "median latency of one RemoteWrapperClient.extract call, client "
                "side; the median over passes through the stream of each "
                "pass's median",
            ),
            "maintain": (
                "induce_p50_ms",
                "median WrapperClient.induce call, store write included; each "
                "task's induce the median of its passes",
            ),
        },
        (
            "BENCH_induction.json speedup.pruned_vs_exhaustive",
            "BENCH_xpath.json speedup.induction_median",
        ),
    ),
    "latency_tail_ms": JourneyMetric({
        "extract-fresh": (
            "extract_page_p99_ms", "p99 latency of one page's extract_many call"
        ),
        "serve-repeat": (
            "http_extract_p99_ms",
            "p99 latency of one RemoteWrapperClient.extract call, client side; "
            "the median over passes through the stream of each pass's p99",
        ),
        "maintain": (
            "heal_p50_ms",
            "median time from the check that first flags drift to the end of "
            "the healthy re-check (the slow step of the journey; a run holds "
            "too few heals for a tail percentile)",
        ),
    }),
    "rss_peak_mb": JourneyMetric({
        "extract-fresh": (
            "rss_peak_mb", "peak RSS (VmHWM) of the benchmark process over the timed loop"
        ),
        "serve-repeat": ("rss_peak_mb", "peak RSS (VmHWM) of the server process"),
        "maintain": (
            "rss_peak_mb", "peak RSS (VmHWM) of the benchmark process over the timed loop"
        ),
    }),
}


@dataclass(frozen=True)
class LayerMeta:
    """Where a per-layer figure comes from and what it should move."""

    #: Timed call or source of the figure.
    source: str
    #: The end-to-end metric (journey-specific name) it should move.
    moves: str
    #: Workloads it should move that metric on; it is predicted idle
    #: (reading zero) on the workloads listed in ``idle_on``.
    on: tuple[str, ...]
    idle_on: tuple[str, ...] = ()
    supersedes: tuple[str, ...] = ()


def layer_of(name: str) -> str:
    """The layer a per-layer metric belongs to: its name up to the last dot."""
    return name.rsplit(".", 1)[0]


_ALL = ("extract-fresh", "serve-repeat", "maintain")
_SERVE = ("serve-repeat",)
_MAINTAIN = ("maintain",)
_NOT_MAINTAIN = ("extract-fresh", "serve-repeat")
_NOT_SERVE = ("extract-fresh", "maintain")

#: Per-layer metrics of the traced pass.  Times are summed self times
#: (ms) over the traced pass's fixed amount of work; counts are totals.
LAYER_META = {
    "dom.parser.parse_ms": LayerMeta(
        "parse_html self time", "extract_pages_per_s, extract_page_p50_ms", ("extract-fresh",),
        supersedes=("BENCH_net.json throughput.cached_page_vs_cold",)),
    "dom.parser.pages": LayerMeta("parse_html calls", "extract_pages_per_s", ("extract-fresh",)),
    "dom.parser.kb": LayerMeta(
        "HTML parsed by parse_html", "extract_pages_per_s", ("extract-fresh",)),
    "dom.node.index_ms": LayerMeta(
        "first Document.index access (_build_index)", "extract_page_p50_ms", ("extract-fresh",)),
    "dom.node.nodes": LayerMeta("nodes indexed", "extract_page_p50_ms", ("extract-fresh",)),
    "xpath.cache.evaluate_ms": LayerMeta(
        "CachedEvaluator.evaluate_plan self time", "extract_page_p50_ms", ("extract-fresh",),
        supersedes=("BENCH_xpath.json speedup.evaluate_suite_s",
                    "BENCH_xpath.json speedup.descendant_axis_200_s",
                    "BENCH_xpath.json speedup.following_axis_200_s",
                    "BENCH_xpath.json speedup.preceding_axis_200_s",
                    "BENCH_xpath.json speedup.sort_nodes_full_s")),
    "xpath.cache.evaluations": LayerMeta(
        "CachedEvaluator.evaluate_plan calls", "extract_page_p50_ms", ("extract-fresh",)),
    "runtime.extractor.serialize_ms": LayerMeta(
        "extract_document self time", "extract_page_p99_ms, http_extract_p99_ms", _NOT_MAINTAIN),
    "xpath.canonical.paths": LayerMeta(
        "canonical_path calls", "extract_page_p99_ms, http_extract_p99_ms", _NOT_MAINTAIN),
    "api.results.result_ms": LayerMeta(
        "result_from_records / check_from_records + to_payload self time",
        "http_extract_p50_ms", _SERVE),
    "runtime.net.server_ms": LayerMeta(
        "WrapperHTTPServer._dispatch span (request parsed to payload built)",
        "http_extract_p50_ms", _SERVE, _NOT_SERVE),
    "runtime.net.non_2xx": LayerMeta(
        "/metrics status counters", "http_extract_p50_ms", _SERVE, _NOT_SERVE),
    "api.remote.wire_ms": LayerMeta(
        "RemoteWrapperClient.extract minus runtime.net.server_ms",
        "http_requests_per_s", _SERVE, _NOT_SERVE),
    "runtime.serve.queue_wait_ms": LayerMeta(
        "AsyncExtractionServer.extract_info self time", "http_extract_p99_ms", _SERVE, _NOT_SERVE),
    "runtime.serve.batches": LayerMeta(
        "/metrics serving.batches", "http_extract_p50_ms", _SERVE, _NOT_SERVE),
    "runtime.serve.parse_cache_hit_share": LayerMeta(
        "/metrics parse_cache", "http_extract_p50_ms", _SERVE, _NOT_SERVE),
    "runtime.serve.coalesced_share": LayerMeta(
        "/metrics serving counters (0 with serve-repeat's single caller: no two "
        "requests are in flight at once)", "http_extract_p50_ms", _SERVE, _NOT_SERVE),
    "runtime.store.get_ms": LayerMeta(
        "ShardedArtifactStore.get self time", "http_extract_p50_ms", _SERVE),
    "runtime.store.gets": LayerMeta(
        "ShardedArtifactStore.get calls", "http_extract_p50_ms", _SERVE),
    "runtime.store.put_ms": LayerMeta(
        "ShardedArtifactStore.put self time", "induce_p50_ms, heal_p50_ms",
        _MAINTAIN, _NOT_MAINTAIN),
    "runtime.store.puts": LayerMeta(
        "ShardedArtifactStore.put calls", "induce_p50_ms, heal_p50_ms", _MAINTAIN, _NOT_MAINTAIN),
    "induction.step_pattern.generate_ms": LayerMeta(
        "step_patterns self time", "induce_p50_ms, heal_p50_ms", _MAINTAIN, _NOT_MAINTAIN),
    "induction.step_pattern.candidates": LayerMeta(
        "candidates step_patterns returned", "induce_p50_ms, heal_p50_ms",
        _MAINTAIN, _NOT_MAINTAIN),
    "induction.induce_path.score_ms": LayerMeta(
        "induce_path self time", "induce_p50_ms", _MAINTAIN, _NOT_MAINTAIN),
    "induction.prune.prune_ms": LayerMeta(
        "CandidatePruner.prune self time", "maintain_tasks_per_s", _MAINTAIN, _NOT_MAINTAIN,
        supersedes=("BENCH_induction.json speedup.pruned_vs_exhaustive",)),
    "induction.prune.kept_share": LayerMeta(
        "candidates the pruner kept / candidates it considered", "maintain_tasks_per_s",
        _MAINTAIN, _NOT_MAINTAIN),
    "induction.induce.aggregate_ms": LayerMeta(
        "induce self time on multi-sample calls", "heal_p50_ms", _MAINTAIN, _NOT_MAINTAIN,
        supersedes=("BENCH_induction.json speedup.parallel_folds_vs_serial",)),
    "runtime.artifact.build_ms": LayerMeta(
        "WrapperArtifact.from_induction self time", "induce_p50_ms", _MAINTAIN, _NOT_MAINTAIN),
    "runtime.drift.vote_repair_share": LayerMeta(
        "repairs the ensemble vote completed / repairs attempted", "heal_p50_ms",
        _MAINTAIN, _NOT_MAINTAIN),
    "python.gc_ms": LayerMeta(
        "gc.callbacks, every process doing the work",
        "extract_page_p99_ms, http_extract_p99_ms", _ALL),
    "python.gc_gen2": LayerMeta(
        "gc.callbacks generation-2 collections", "extract_page_p99_ms, http_extract_p99_ms", _ALL),
    "trace.coverage_share": LayerMeta(
        "in process, summed self times on the calling threads / their wall time; on "
        "serve-repeat, the share of the server's _dispatch time that measured layers cover",
        "-", _ALL),
    "trace.overhead_share": LayerMeta(
        "traced wall / untraced wall - 1 on the same work", "-", _ALL),
}

#: ``BENCH_*.json`` headlines no metric here supersedes, and why.
NOT_SUPERSEDED = {
    "BENCH_cluster.json throughput.router2_vs_single_host":
        "the RouterClient path is out of scope until a host fits two servers",
    "BENCH_cluster.json throughput.degraded_ratio":
        "the RouterClient path is out of scope until a host fits two servers",
    "BENCH_sitegen.json throughput.pages_per_sec_vs_floor":
        "input generators only build inputs during set-up",
    "BENCH_sitegen.json throughput.parallel_gen_vs_serial":
        "input generators only build inputs during set-up",
}


def journey_name(metric: str, workload: str) -> str:
    """The name the report prints for end-to-end ``metric`` on ``workload``."""
    return E2E_META[metric].per_workload[workload][0]
