"""Typed facade results and the record → result assembly logic.

Every facade verb returns one of three result types, each with a
lossless JSON payload round trip — those payloads *are* the network
protocol (:mod:`repro.runtime.net`), which is what makes
:class:`~repro.api.client.WrapperClient` and
:class:`~repro.api.remote.RemoteWrapperClient` interchangeable:

* :class:`WrapperHandle` — a deployed wrapper (``induce``/``repair``/
  ``get``): the ranked queries, the ensemble, the mode, the generation;
* :class:`ExtractionResult` — one served page (``extract``): values,
  node paths, the queries that ran, record rows in record mode, and the
  drift signals observed *on this very page*;
* :class:`CheckResult` — a drift check (``check``): signals + vote
  counts.

Drift signals come from :func:`~repro.runtime.drift.drift_verdict`, the
rule :class:`~repro.runtime.drift.DriftDetector` uses too, fed with the
canonical paths of the extraction records (they identify nodes
uniquely).  Serving and checking share one page evaluation — no second
parse, and the network server computes signals from
:class:`~repro.runtime.extractor.ExtractionRecord` batches without ever
materializing a DOM on the event loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.cluster.placement import tenant_of
from repro.runtime.artifact import WrapperArtifact
from repro.runtime.drift import DriftConfig, drift_verdict
from repro.runtime.extractor import ExtractionRecord


class FacadeError(ValueError):
    """A facade request was invalid or could not be served."""


#: Provenance key under which facade metadata (mode, record fields)
#: rides inside a :class:`WrapperArtifact` — artifacts stay version-1
#: compatible and fully usable by the lower runtime layers.
FACADE_KEY = "facade"

#: Wrapper id of the top-ranked query in extraction batches.
BEST_ID = "best"

#: Largest request body the network server accepts, and the budget
#: ``RemoteWrapperClient.extract_many`` packs each ``/extract_many``
#: request under.  Both read it at call time, so a test patches this
#: one name.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Most items one ``/extract_many`` request may carry: the network
#: server answers more with 413 before any item runs, and
#: ``RemoteWrapperClient.extract_many`` packs each request under it.
#: An answer waits for its last item, so 8 MiB of tiny pages (~89,000
#: items) took about a minute; 1024 take ~0.5 s (2-CPU host).
MAX_BATCH_ITEMS = 1024


def facade_meta(artifact: WrapperArtifact) -> dict:
    meta = artifact.provenance.get(FACADE_KEY)
    return meta if isinstance(meta, dict) else {}


def facade_mode(artifact: WrapperArtifact) -> str:
    """The induction mode an artifact was built under (``node`` for
    artifacts produced by pre-facade tooling)."""
    return str(facade_meta(artifact).get("mode", "node"))


def facade_fields(artifact: WrapperArtifact) -> dict[str, str]:
    """Record-mode field queries (name → canonical dsXPath text)."""
    fields = facade_meta(artifact).get("fields", {})
    return {str(name): str(text) for name, text in fields.items()}


def extraction_wrappers(artifact: WrapperArtifact) -> tuple[tuple[str, str], ...]:
    """The (wrapper id, query text) batch one served page evaluates:
    the best query plus every ensemble member."""
    return ((BEST_ID, artifact.best.text),) + tuple(
        (f"m{i}", text) for i, text in enumerate(artifact.ensemble)
    )


def _vote(
    member_records: Sequence[ExtractionRecord], quorum: int
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Quorum vote over member result sets, keyed by canonical path
    (deterministic path-sorted order — stable across processes)."""
    votes: dict[str, int] = {}
    values: dict[str, str] = {}
    for record in member_records:
        for path, value in zip(record.paths, record.values):
            votes[path] = votes.get(path, 0) + 1
            values[path] = value
    selected = sorted(path for path, count in votes.items() if count >= quorum)
    return tuple(selected), tuple(values[path] for path in selected)


@dataclass(frozen=True)
class WrapperHandle:
    """A deployed wrapper, as the facade sees it."""

    site_key: str
    mode: str
    query: str
    score: float
    queries: tuple[str, ...]
    ensemble: tuple[str, ...]
    quorum: int
    generation: int = 0
    site_id: str = ""
    role: str = ""
    fields: dict[str, str] = field(default_factory=dict)

    @property
    def tenant(self) -> str:
        """The namespace this wrapper lives in (``""`` untenanted) —
        derived from the (possibly qualified) site key, so tenancy
        rides every payload without a second source of truth."""
        return tenant_of(self.site_key)

    @classmethod
    def from_artifact(cls, artifact: WrapperArtifact) -> "WrapperHandle":
        return cls(
            site_key=artifact.task_id,
            mode=facade_mode(artifact),
            query=artifact.best.text,
            score=artifact.best.score,
            queries=tuple(ranked.text for ranked in artifact.queries),
            ensemble=artifact.ensemble,
            quorum=artifact.quorum,
            generation=artifact.generation,
            site_id=artifact.site_id,
            role=artifact.role,
            fields=facade_fields(artifact),
        )

    def to_payload(self) -> dict:
        return {
            "site_key": self.site_key,
            "tenant": self.tenant,
            "mode": self.mode,
            "query": self.query,
            "score": self.score,
            "queries": list(self.queries),
            "ensemble": list(self.ensemble),
            "quorum": self.quorum,
            "generation": self.generation,
            "site_id": self.site_id,
            "role": self.role,
            "fields": dict(self.fields),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "WrapperHandle":
        try:
            return cls(
                site_key=str(payload["site_key"]),
                mode=str(payload["mode"]),
                query=str(payload["query"]),
                score=float(payload["score"]),
                queries=tuple(str(q) for q in payload["queries"]),
                ensemble=tuple(str(m) for m in payload["ensemble"]),
                quorum=int(payload["quorum"]),
                generation=int(payload.get("generation", 0)),
                site_id=str(payload.get("site_id", "")),
                role=str(payload.get("role", "")),
                fields={
                    str(k): str(v) for k, v in payload.get("fields", {}).items()
                },
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FacadeError(f"malformed wrapper handle payload: {exc}") from exc


@dataclass(frozen=True)
class ExtractionResult:
    """What one page yielded: values + node paths + the drift signals
    observed while serving it.

    ``values``/``paths`` follow the serving mode: the best query's
    matches in ``node``/``record`` mode (record anchors), the quorum
    vote in ``ensemble`` mode.  ``records`` holds one ``{field: value}``
    row per anchor in record mode (``None`` for a missing field).
    """

    site_key: str
    mode: str
    values: tuple[str, ...]
    paths: tuple[str, ...]
    query: str
    queries: tuple[str, ...]
    drift_signals: tuple[str, ...] = ()
    drifted: bool = False
    generation: int = 0
    records: tuple[dict, ...] = ()

    @property
    def count(self) -> int:
        return len(self.paths)

    @property
    def is_empty(self) -> bool:
        return not self.paths

    @property
    def tenant(self) -> str:
        return tenant_of(self.site_key)

    def to_payload(self) -> dict:
        return {
            "site_key": self.site_key,
            "tenant": self.tenant,
            "mode": self.mode,
            "values": list(self.values),
            "paths": list(self.paths),
            "query": self.query,
            "queries": list(self.queries),
            "drift_signals": list(self.drift_signals),
            "drifted": self.drifted,
            "generation": self.generation,
            "records": [dict(row) for row in self.records],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ExtractionResult":
        try:
            return cls(
                site_key=str(payload["site_key"]),
                mode=str(payload["mode"]),
                values=tuple(str(v) for v in payload["values"]),
                paths=tuple(str(p) for p in payload["paths"]),
                query=str(payload["query"]),
                queries=tuple(str(q) for q in payload["queries"]),
                drift_signals=tuple(str(s) for s in payload.get("drift_signals", ())),
                drifted=bool(payload.get("drifted", False)),
                generation=int(payload.get("generation", 0)),
                records=tuple(dict(row) for row in payload.get("records", ())),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FacadeError(f"malformed extraction result payload: {exc}") from exc


@dataclass(frozen=True)
class CheckResult:
    """Drift verdict for one (wrapper, page) check."""

    site_key: str
    signals: tuple[str, ...]
    drifted: bool
    result_count: int = 0
    disagreeing_members: int = 0
    member_count: int = 0
    generation: int = 0

    @property
    def healthy(self) -> bool:
        return not self.signals

    @property
    def tenant(self) -> str:
        return tenant_of(self.site_key)

    def to_payload(self) -> dict:
        return {
            "site_key": self.site_key,
            "tenant": self.tenant,
            "signals": list(self.signals),
            "drifted": self.drifted,
            "result_count": self.result_count,
            "disagreeing_members": self.disagreeing_members,
            "member_count": self.member_count,
            "generation": self.generation,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CheckResult":
        try:
            return cls(
                site_key=str(payload["site_key"]),
                signals=tuple(str(s) for s in payload["signals"]),
                drifted=bool(payload["drifted"]),
                result_count=int(payload.get("result_count", 0)),
                disagreeing_members=int(payload.get("disagreeing_members", 0)),
                member_count=int(payload.get("member_count", 0)),
                generation=int(payload.get("generation", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FacadeError(f"malformed check result payload: {exc}") from exc


def result_from_records(
    artifact: WrapperArtifact,
    records: Sequence[ExtractionRecord],
    drift: Optional[DriftConfig] = None,
    record_rows: Sequence[dict] = (),
) -> ExtractionResult:
    """Assemble an :class:`ExtractionResult` from the page's extraction
    batch (best query first, then the ensemble members, in
    :func:`extraction_wrappers` order).

    Shared by the local client and the network front-end so both
    backends produce byte-identical results for the same page.
    """
    best, members = records[0], records[1 : 1 + len(artifact.ensemble)]
    signals, drifted, _ = drift_verdict(
        artifact,
        frozenset(best.paths),
        lambda: tuple(sorted(best.paths)),
        [frozenset(record.paths) for record in members],
        drift or DriftConfig(),
    )
    mode = facade_mode(artifact)
    if mode == "ensemble":
        paths, values = _vote(members, artifact.quorum)
    else:
        paths, values = best.paths, best.values
    return ExtractionResult(
        site_key=artifact.task_id,
        mode=mode,
        values=values,
        paths=paths,
        query=artifact.best.text,
        queries=tuple(text for _, text in extraction_wrappers(artifact)),
        drift_signals=signals,
        drifted=drifted,
        generation=artifact.generation,
        records=tuple(dict(row) for row in record_rows),
    )


def check_from_records(
    artifact: WrapperArtifact,
    records: Sequence[ExtractionRecord],
    drift: Optional[DriftConfig] = None,
) -> CheckResult:
    """Assemble a :class:`CheckResult` from the same extraction batch."""
    best, members = records[0], records[1 : 1 + len(artifact.ensemble)]
    signals, drifted, disagreeing = drift_verdict(
        artifact,
        frozenset(best.paths),
        lambda: tuple(sorted(best.paths)),
        [frozenset(record.paths) for record in members],
        drift or DriftConfig(),
    )
    return CheckResult(
        site_key=artifact.task_id,
        signals=signals,
        drifted=drifted,
        result_count=best.count,
        disagreeing_members=disagreeing,
        member_count=len(members),
        generation=artifact.generation,
    )


__all__ = [
    "BEST_ID",
    "CheckResult",
    "ExtractionResult",
    "FACADE_KEY",
    "FacadeError",
    "MAX_BATCH_ITEMS",
    "MAX_BODY_BYTES",
    "WrapperHandle",
    "check_from_records",
    "extraction_wrappers",
    "facade_fields",
    "facade_mode",
    "result_from_records",
]
