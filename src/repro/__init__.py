"""repro — a reproduction of *Robust and Noise Resistant Wrapper Induction*
(Furche, Guo, Maneth, Schallhart; SIGMOD 2016).

The package implements the paper's dsXPath query language, its K-best
wrapper-induction algorithm with robustness scoring, the complete
evaluation harness (page-evolution studies, noise resistance, and
state-of-the-art comparisons) on a self-contained DOM substrate, and a
production wrapper lifecycle (artifacts, sharded stores, async serving,
drift detection and repair) behind one client facade.

Quickstart::

    from repro import Sample, WrapperClient, mark_volatile, parse_html

    client = WrapperClient()                     # or WrapperClient(store="store/")
    doc = parse_html(open("movie.html").read())
    target = doc.find(tag="span", itemprop="name")
    mark_volatile(target)                        # data text must not anchor the wrapper
    handle = client.induce("movie/director", [Sample(doc, [target])])
    print(handle.query)                          # a robust dsXPath wrapper

    result = client.extract("movie/director", open("movie.html").read())
    print(result.values, result.drift_signals)

The same surface is served over the wire by ``python -m repro.runtime
serve --listen HOST:PORT`` and :class:`RemoteWrapperClient`.  See
docs/API.md for the facade reference and the HTTP protocol.
"""

from repro.dom import Document, E, T, TextNode, document, parse_html, to_html
from repro.induction import (
    InductionConfig,
    InductionResult,
    QuerySample,
)
from repro.scoring import KBestTable, QueryInstance, Scorer, ScoringParams
from repro.xpath import Query, canonical_path, evaluate, parse_query
from repro.api import (
    REPLICATION_FACTOR,
    CheckResult,
    ClusterMap,
    ExtractionResult,
    FacadeError,
    AuthError,
    OwnershipError,
    RateLimitError,
    RemoteError,
    RemoteWrapperClient,
    RouterClient,
    Sample,
    ShardOwnership,
    WrapperClient,
    WrapperHandle,
    mark_volatile,
    qualify_key,
    replica_indexes,
    shard_index,
    site_key_of,
    split_tenant,
)

__version__ = "1.4.0"

__all__ = [
    "CheckResult",
    "ClusterMap",
    "Document",
    "E",
    "ExtractionResult",
    "FacadeError",
    "InductionConfig",
    "InductionResult",
    "KBestTable",
    "AuthError",
    "OwnershipError",
    "Query",
    "QueryInstance",
    "QuerySample",
    "REPLICATION_FACTOR",
    "RateLimitError",
    "RemoteError",
    "RemoteWrapperClient",
    "RouterClient",
    "Sample",
    "Scorer",
    "ScoringParams",
    "ShardOwnership",
    "T",
    "TextNode",
    "WrapperClient",
    "WrapperHandle",
    "canonical_path",
    "document",
    "evaluate",
    "mark_volatile",
    "parse_html",
    "parse_query",
    "qualify_key",
    "replica_indexes",
    "shard_index",
    "site_key_of",
    "split_tenant",
    "to_html",
    "__version__",
]
