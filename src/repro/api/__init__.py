"""``repro.api`` — the one client object model over the whole lifecycle.

The paper's value proposition is a complete wrapper *lifecycle*: induce
from a few annotated samples, serve robustly, detect drift, repair.
The engine layers implement each stage (:mod:`repro.induction`,
:mod:`repro.runtime`), but each speaks its own dataclasses.  This
package is the stable facade that the rest of the codebase — examples,
CLI, network front-end, benchmarks — converges on:

* :class:`Sample` / :func:`mark_volatile` — one portable annotation
  model (document + target nodes locally, HTML + canonical paths on the
  wire) covering single-node, list, and record extraction;
* :class:`WrapperClient` — induce / extract / check / repair against an
  in-memory registry or a :class:`~repro.runtime.store.ShardedArtifactStore`;
* :class:`RemoteWrapperClient` — the identical surface over the HTTP
  JSON front-end (:mod:`repro.runtime.net`), so local and remote are
  interchangeable backends;
* typed results — :class:`WrapperHandle`, :class:`ExtractionResult`,
  :class:`CheckResult` — instead of layer-specific dataclasses, each
  with a lossless JSON payload round trip (that payload *is* the wire
  protocol);
* :class:`RouterClient` + :class:`ClusterMap` — the same surface over a
  *cluster* of shard-owning hosts, each launched with ``serve --listen
  --own-shards``; placement helpers (:func:`site_key_of`,
  :func:`shard_index`, :func:`qualify_key`, :func:`split_tenant`) are
  re-exported here so deployment tooling shares the exact function the
  store, the hosts, and the router place keys with.

All three clients take a ``tenant`` namespace and grow an
``extract_many`` batch verb (parse-amortized locally, sent as
body-limited ``/extract_many`` requests remotely, fanned out across
hosts by the router).

Quickstart::

    from repro import Sample, WrapperClient, mark_volatile, parse_html

    client = WrapperClient()                 # or WrapperClient(store="store/")
    doc = parse_html(open("movie.html").read())
    target = doc.find(tag="span", itemprop="name")
    mark_volatile(target)                    # data text must not anchor the wrapper
    handle = client.induce("movie/director", [Sample(doc, [target])])
    result = client.extract("movie/director", open("movie.html").read())
    print(handle.query, result.values, result.drift_signals)

See docs/API.md for the full facade reference and the wire protocol.
"""

from repro.api.client import WrapperClient
from repro.api.remote import (
    AuthError,
    OwnershipError,
    RateLimitError,
    RemoteError,
    RemoteWrapperClient,
)
from repro.api.results import (
    CheckResult,
    ExtractionResult,
    FacadeError,
    WrapperHandle,
)
from repro.api.sample import Sample, mark_volatile
from repro.cluster.placement import (
    ClusterMap,
    REPLICATION_FACTOR,
    ShardOwnership,
    qualify_key,
    replica_indexes,
    shard_index,
    site_key_of,
    split_tenant,
)
from repro.cluster.router import RouterClient

#: Facade modes accepted by :meth:`WrapperClient.induce`.
MODES = ("node", "record", "ensemble")

__all__ = [
    "MODES",
    "REPLICATION_FACTOR",
    "CheckResult",
    "ClusterMap",
    "ExtractionResult",
    "FacadeError",
    "AuthError",
    "OwnershipError",
    "RateLimitError",
    "RemoteError",
    "RemoteWrapperClient",
    "RouterClient",
    "Sample",
    "ShardOwnership",
    "WrapperClient",
    "WrapperHandle",
    "mark_volatile",
    "qualify_key",
    "replica_indexes",
    "shard_index",
    "site_key_of",
    "split_tenant",
]
