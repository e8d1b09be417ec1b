"""Wrapper lifecycle runtime: the save → serve → drift → repair loop.

Induction (:mod:`repro.induction`) produces in-memory
:class:`~repro.induction.induce.InductionResult`s; a production
deployment needs wrappers that *outlive* the process that induced them.
This package provides that layer:

* :mod:`repro.runtime.artifact` — versioned, JSON-serializable
  :class:`WrapperArtifact`\\ s bundling the ranked queries, the ensemble
  committee, and the annotated samples they were induced from, with a
  lossless round trip through the dsXPath canonical text;
* :mod:`repro.runtime.extractor` — the per-page extraction kernel,
  evaluating many (wrapper, page) pairs with one parse + one document
  index per page;
* :mod:`repro.runtime.drift` — drift detection (empty results,
  canonical-path c-changes, ensemble disagreement votes, all judged by
  the one rule :func:`drift_verdict` that the facade's results use
  too) and automatic re-induction from the stored samples plus the
  drifted page;
* :mod:`repro.runtime.store` — a :class:`ShardedArtifactStore`, the one
  on-disk form of an artifact, partitioning artifacts (and their
  drift-report JSONL streams) across shard directories by stable
  site-key hash, with one crash-safe writer and an mtime-validated LRU;
* :mod:`repro.runtime.serve` — an asyncio request/response front-end
  over the per-page extraction kernel with micro-batching, a
  content-hash parse cache, and bounded-queue backpressure;
* :mod:`repro.runtime.fleet` — the archive-replay loop
  (:func:`sweep_wrapper`, which ``check`` runs too) and a multi-process
  drift sweeper assigning whole store shards to workers, streaming full
  drift telemetry and chaining repairs generation over generation;
* :mod:`repro.runtime.net` — an HTTP/1.1 JSON front-end serving the
  :mod:`repro.api` facade over TCP (``serve --listen HOST:PORT``), with
  extraction traffic routed through the async serving layer and
  optional shard ownership (``--own-shards``) for cluster members
  routed by :mod:`repro.cluster`;
* ``python -m repro.runtime`` — an ``induce`` / ``extract`` / ``check``
  / ``serve`` / ``sweep`` CLI driving the loop over the synthetic
  archive corpus.

See docs/RUNTIME.md for the artifact format and the drift protocol.
"""

from repro.runtime.artifact import (
    ARTIFACT_VERSION,
    ArtifactError,
    RankedQuery,
    StoredSample,
    WrapperArtifact,
)
from repro.runtime.corpus import induce_corpus_task, snapshot0_annotation
from repro.runtime.drift import (
    DriftConfig,
    DriftDetector,
    DriftReport,
    drift_verdict,
    reinduce,
    replay_archive,
)
from repro.runtime.extractor import (
    ExtractionRecord,
    PageJob,
    extract_document,
    jobs_for_artifacts,
)
from repro.runtime.fleet import (
    SweepConfig,
    SweepSummary,
    WrapperSweep,
    sweep_store,
    sweep_wrapper,
)
from repro.runtime.serve import (
    AsyncExtractionServer,
    ParseCache,
    ParseCacheInfo,
    RequestError,
    ServerStats,
    ServingConfig,
    serve_jobs,
    serve_jobs_sync,
)
from repro.runtime.store import (
    MigrationMove,
    MigrationPlan,
    ShardedArtifactStore,
    StoreError,
    migrate_store,
    shard_index,
    site_key_of,
)

#: Lazily exported (PEP 562): the network front-end imports ``repro.api``,
#: which imports runtime submodules — an eager import here would cycle.
_NET_EXPORTS = ("NetConfig", "WrapperHTTPServer", "serve_http")


def __getattr__(name: str):
    if name in _NET_EXPORTS:
        from repro.runtime import net

        return getattr(net, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ARTIFACT_VERSION",
    "ArtifactError",
    "AsyncExtractionServer",
    "NetConfig",
    "DriftConfig",
    "DriftDetector",
    "DriftReport",
    "ExtractionRecord",
    "MigrationMove",
    "MigrationPlan",
    "PageJob",
    "ParseCache",
    "ParseCacheInfo",
    "RankedQuery",
    "RequestError",
    "ServerStats",
    "ServingConfig",
    "ShardedArtifactStore",
    "StoreError",
    "StoredSample",
    "SweepConfig",
    "SweepSummary",
    "WrapperArtifact",
    "WrapperHTTPServer",
    "WrapperSweep",
    "drift_verdict",
    "extract_document",
    "induce_corpus_task",
    "jobs_for_artifacts",
    "migrate_store",
    "reinduce",
    "replay_archive",
    "serve_http",
    "serve_jobs",
    "serve_jobs_sync",
    "shard_index",
    "site_key_of",
    "snapshot0_annotation",
    "sweep_store",
    "sweep_wrapper",
]
