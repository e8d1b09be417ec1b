""":class:`WrapperClient` — the local facade over the whole lifecycle.

One object, four verbs::

    client = WrapperClient()                  # in-memory registry
    client = WrapperClient(store="store/")    # sharded artifact store

    handle = client.induce(site_key, samples, mode="node")   # deploy
    result = client.extract(site_key, html)                  # serve
    check  = client.check(site_key, html)                    # monitor
    handle = client.repair(site_key, html)                   # recover

``mode`` selects the induction variant — all three land in the same
:class:`~repro.runtime.artifact.WrapperArtifact` format, so every
deployed wrapper (whatever its mode) is served, checked, repaired, and
swept by the same machinery:

* ``node`` — absolute single-/multi-node wrappers (Algorithm 3); served
  by the top-ranked query.
* ``ensemble`` — same induction, but extraction serves the
  feature-diverse committee's quorum vote instead of the single best
  query (the paper's future-work item 4: survives a class rename that
  breaks individual members).
* ``record`` — anchor + relative field wrappers (future-work item 1);
  extraction yields one ``{field: value}`` row per anchor.

Every served page doubles as a drift check: :class:`ExtractionResult`
carries the signals the page exhibited, so callers get monitoring for
free.  :class:`~repro.api.remote.RemoteWrapperClient` exposes the
identical surface over the network front-end.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from typing import Optional, Sequence, Union

from repro.cluster.placement import (
    DEFAULT_TENANT,
    qualify_key,
    tenant_of,
    validate_tenant,
)
from repro.dom.node import Document
from repro.dom.parser import parse_html
from repro.induction.config import InductionConfig, config_with_options
from repro.induction.induce import WrapperInducer
from repro.induction.relative import RecordWrapper, RelativeWrapperInducer
from repro.induction.samples import QuerySample
from repro.runtime.artifact import ArtifactError, WrapperArtifact, resolve_path
from repro.runtime.drift import DriftConfig, reinduce
from repro.runtime.extractor import extract_document
from repro.runtime.store import ShardedArtifactStore, site_key_of
from repro.xpath.parser import parse_query
from repro.api.results import (
    CheckResult,
    ExtractionResult,
    FACADE_KEY,
    FacadeError,
    WrapperHandle,
    check_from_records,
    extraction_wrappers,
    facade_fields,
    facade_mode,
    result_from_records,
)
from repro.api.sample import Sample, coerce_samples

#: A page, as the facade accepts it: raw HTML or an already-parsed DOM.
Page = Union[str, Document]


def _as_doc(page: Page) -> Document:
    if isinstance(page, Document):
        return page
    try:
        return parse_html(page)
    except Exception as exc:
        raise FacadeError(f"page failed to parse: {exc}") from exc


def record_rows(artifact: WrapperArtifact, doc: Document) -> list[dict]:
    """Record-mode rows for one page: evaluate the anchor query, then
    each stored field query relative to every anchor."""
    wrapper = RecordWrapper(
        anchor_query=artifact.best_query(),
        field_queries={
            name: parse_query(text)
            for name, text in facade_fields(artifact).items()
        },
    )
    return wrapper.extract_values(doc)


class WrapperClient:
    """Induce, serve, monitor, and repair wrappers behind one facade.

    ``store`` selects the backend: ``None`` keeps artifacts in an
    in-process dict (throwaway sessions, tests); a path or an existing
    :class:`~repro.runtime.store.ShardedArtifactStore` persists them
    (creating a new store at a fresh path).  ``drift`` tunes the
    signal thresholds applied by ``extract``/``check``.

    ``tenant`` scopes the client into one namespace: every site key is
    qualified to ``tenant::key`` on the way in, so two tenants' copies
    of the same site key never share an artifact, a store path, or a
    drift-telemetry stream, and ``keys()``/``handles()`` list only this
    tenant's wrappers.  The default (empty) tenant sees every key —
    including other tenants' qualified keys — unchanged.
    """

    def __init__(
        self,
        store: Union[str, os.PathLike, ShardedArtifactStore, None] = None,
        *,
        shards: Optional[int] = None,
        drift: Optional[DriftConfig] = None,
        tenant: str = DEFAULT_TENANT,
    ) -> None:
        self.drift = drift or DriftConfig()
        try:
            self.tenant = validate_tenant(tenant)
        except ValueError as exc:
            raise FacadeError(str(exc)) from exc
        self._memory: dict[str, WrapperArtifact] = {}
        #: Aggregate induce-side counters (surfaced by the serving
        #: layer's ``/metrics`` induction block).  The serving layer
        #: updates these from its multi-threaded induce executor, so
        #: writes go through :meth:`_bump_counters` and readers take
        #: :meth:`induction_counter_snapshot`.
        self.induction_counters: dict[str, int] = {
            "inductions": 0,
            "repairs": 0,
            "candidates_considered": 0,
            "pruned_candidates_skipped": 0,
        }
        self._counters_lock = threading.Lock()
        if store is None:
            self._store: Optional[ShardedArtifactStore] = None
        elif isinstance(store, ShardedArtifactStore):
            self._store = store
        else:
            self._store = ShardedArtifactStore(store, n_shards=shards)

    @property
    def store(self) -> Optional[ShardedArtifactStore]:
        """The persistent backend, or ``None`` for in-memory clients."""
        return self._store

    def _bump_counters(self, **deltas: int) -> None:
        """Atomically add ``deltas`` to :attr:`induction_counters`."""
        with self._counters_lock:
            for key, delta in deltas.items():
                self.induction_counters[key] += delta

    def induction_counter_snapshot(self) -> dict[str, int]:
        """A consistent copy of :attr:`induction_counters` (the
        ``/metrics`` reader runs concurrently with inductions)."""
        with self._counters_lock:
            return dict(self.induction_counters)

    def _qualify(self, site_key: str) -> str:
        """``site_key`` in this client's namespace (FacadeError on a
        cross-tenant key — one tenant never reaches another's)."""
        try:
            return qualify_key(site_key, self.tenant)
        except ValueError as exc:
            raise FacadeError(str(exc)) from exc

    # -- registry -----------------------------------------------------------

    def artifact(self, site_key: str) -> WrapperArtifact:
        """The raw deployed artifact (the escape hatch to the runtime
        layers).  Raises :class:`KeyError` for unknown keys."""
        site_key = self._qualify(site_key)
        if self._store is not None:
            return self._store.get(site_key)
        return self._memory[site_key]

    def _put(self, artifact: WrapperArtifact) -> None:
        if self._store is not None:
            self._store.put(artifact)
        else:
            self._memory[artifact.task_id] = artifact

    def deploy(self, artifact: WrapperArtifact) -> WrapperHandle:
        """Deploy a prebuilt artifact (migration path for wrappers
        induced by pre-facade tooling; they serve in ``node`` mode).

        A tenant-scoped client deploys into its own namespace: a bare
        ``task_id`` is qualified (so the wrapper is reachable through
        this client's verbs), and an artifact already qualified for a
        different tenant is rejected.
        """
        qualified = self._qualify(artifact.task_id)
        if qualified != artifact.task_id:
            artifact = dataclasses.replace(artifact, task_id=qualified)
        self._put(artifact)
        return WrapperHandle.from_artifact(artifact)

    def get(self, site_key: str) -> WrapperHandle:
        return WrapperHandle.from_artifact(self.artifact(site_key))

    def keys(self) -> list[str]:
        if self._store is not None:
            ids = self._store.task_ids()
        else:
            ids = sorted(self._memory)
        if self.tenant:
            ids = [key for key in ids if tenant_of(key) == self.tenant]
        return ids

    def handles(self) -> list[WrapperHandle]:
        return [self.get(site_key) for site_key in self.keys()]

    def delete(self, site_key: str) -> None:
        site_key = self._qualify(site_key)
        if self._store is not None:
            self._store.remove(site_key)
        else:
            del self._memory[site_key]

    def __contains__(self, site_key: str) -> bool:
        try:
            site_key = self._qualify(site_key)
        except FacadeError:
            return False
        if self._store is not None:
            return site_key in self._store
        return site_key in self._memory

    def __len__(self) -> int:
        return len(self.keys())

    # -- induce -------------------------------------------------------------

    def induce(
        self,
        site_key: str,
        samples: Sequence[Union[Sample, QuerySample]],
        mode: str = "node",
        *,
        k: int = 10,
        ensemble_size: int = 3,
        max_queries: int = 10,
        config: Optional[InductionConfig] = None,
        role: str = "",
        provenance: Optional[dict] = None,
        options: Optional[dict] = None,
    ) -> WrapperHandle:
        """Induce and deploy a wrapper for ``site_key``.

        ``samples`` are :class:`Sample` annotations (legacy
        :class:`~repro.induction.samples.QuerySample` accepted).  Record
        mode requires exactly one sample carrying ``fields``.

        ``options`` tunes induction without constructing a config:
        ``search="pruned"`` (stochastic beam instead of the exhaustive
        DP) and ``diversity`` (fragile-feature-penalized ensemble
        selection).  Unknown keys raise :class:`FacadeError`, as do an
        invalid option value, a ``k`` outside 1 to
        :data:`~repro.induction.config.MAX_K`, and an ``ensemble_size``
        or ``max_queries`` that is not an integer >= 1.
        """
        if mode not in ("node", "record", "ensemble"):
            raise FacadeError(f"unknown induction mode {mode!r}")
        for name, value in (
            ("ensemble_size", ensemble_size),
            ("max_queries", max_queries),
        ):
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise FacadeError(f"{name} must be an integer >= 1, got {value!r}")
        site_key = self._qualify(site_key)
        try:
            config = config_with_options(
                config or InductionConfig(k=k), dict(options or {})
            )
        except (TypeError, ValueError) as exc:
            raise FacadeError(str(exc)) from exc
        facade_samples = coerce_samples(samples)
        meta: dict = {"mode": mode}
        try:
            if mode == "record":
                if len(facade_samples) != 1:
                    raise FacadeError(
                        "record mode induces from exactly one annotated page"
                    )
                (sample,) = facade_samples
                examples = sample.as_record_examples()
                inducer = RelativeWrapperInducer(k=config.k, config=config)
                result, field_queries = inducer.induce_ranked(sample.doc, examples)
                query_samples = [QuerySample(sample.doc, sample.targets)]
                meta["fields"] = {
                    name: str(query) for name, query in field_queries.items()
                }
            else:
                query_samples = [s.as_query_sample() for s in facade_samples]
                result = WrapperInducer(k=config.k, config=config).induce(
                    query_samples
                )
            stats = getattr(result, "stats", None)
            if stats is not None:
                # Deterministic counters only — identical on every
                # backend, so handle/artifact parity is unaffected.
                meta["induction"] = stats.as_payload()
                self._bump_counters(
                    candidates_considered=stats.candidates_considered,
                    pruned_candidates_skipped=stats.candidates_pruned,
                )
            artifact = WrapperArtifact.from_induction(
                result,
                query_samples,
                task_id=site_key,
                site_id=site_key_of(site_key),
                role=role,
                ensemble_size=ensemble_size,
                max_queries=max_queries,
                provenance={**(provenance or {}), FACADE_KEY: meta},
                config=config,
            )
        except FacadeError:
            raise
        except (ArtifactError, ValueError) as exc:
            raise FacadeError(f"{site_key}: {exc}") from exc
        self._put(artifact)
        self._bump_counters(inductions=1)
        return WrapperHandle.from_artifact(artifact)

    # -- serve / monitor ----------------------------------------------------

    def extract(self, site_key: str, page: Page) -> ExtractionResult:
        """Serve one page: values + paths + the drift signals it showed."""
        artifact = self.artifact(site_key)
        doc = _as_doc(page)
        records = extract_document(doc, extraction_wrappers(artifact))
        rows: list[dict] = []
        if facade_mode(artifact) == "record":
            rows = record_rows(artifact, doc)
        return result_from_records(artifact, records, self.drift, rows)

    def extract_many(
        self, items: Sequence[tuple[str, Page]], *, return_errors: bool = False
    ) -> list:
        """Serve a batch of ``(site_key, page)`` pairs in item order.

        Each distinct HTML string is parsed once for the whole batch
        (co-served wrappers on one rendered page amortize the parse,
        as the serving layer does).  With ``return_errors`` a failed
        item yields its exception in place; otherwise the first failure
        raises.  The remote and router clients expose the same method
        with the same semantics, sent as ``/extract_many`` requests to
        one host or fanned out across hosts.
        """
        results: list = [None] * len(items)
        docs: dict[str, Document] = {}
        for index, (site_key, page) in enumerate(items):
            try:
                if isinstance(page, str):
                    doc = docs.get(page)
                    if doc is None:
                        doc = docs[page] = _as_doc(page)
                    page = doc
                results[index] = self.extract(site_key, page)
            except Exception as exc:  # noqa: BLE001 - reported per item
                if not return_errors:
                    raise
                results[index] = exc
        return results

    def check(self, site_key: str, page: Page) -> CheckResult:
        """Drift-check one page without materializing extraction values."""
        artifact = self.artifact(site_key)
        doc = _as_doc(page)
        records = extract_document(doc, extraction_wrappers(artifact))
        return check_from_records(artifact, records, self.drift)

    # -- repair -------------------------------------------------------------

    def repair(
        self,
        site_key: str,
        page: Page,
        target_paths: Optional[Sequence[str]] = None,
    ) -> WrapperHandle:
        """Re-induce a drifted wrapper from its stored samples plus
        ``page`` and deploy the repaired generation.

        ``target_paths`` (canonical paths on ``page``) is an explicit
        re-annotation; when omitted, the surviving ensemble majority
        labels the page.  Record-mode repairs re-induce the anchor
        wrapper; the stored field queries are carried over.
        """
        artifact = self.artifact(site_key)
        doc = _as_doc(page)
        try:
            targets = (
                [resolve_path(doc, str(path)) for path in target_paths]
                if target_paths
                else None
            )
            repaired = reinduce(artifact, doc, targets=targets)
        except (ArtifactError, ValueError) as exc:
            raise FacadeError(f"{site_key}: {exc}") from exc
        self._put(repaired)
        stats = repaired.provenance.get("induction_stats")
        stats = stats if isinstance(stats, dict) else {}
        self._bump_counters(
            inductions=1,
            repairs=1,
            candidates_considered=int(stats.get("candidates_considered", 0)),
            pruned_candidates_skipped=int(stats.get("candidates_pruned", 0)),
        )
        return WrapperHandle.from_artifact(repaired)


__all__ = ["Page", "WrapperClient", "record_rows"]
