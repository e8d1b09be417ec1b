"""Versioned, JSON-serializable wrapper artifacts.

A :class:`WrapperArtifact` is everything a serving/maintenance process
needs to know about one induced wrapper:

* the ranked queries (canonical dsXPath text + accuracy counts + the
  robustness score each was ranked by);
* the feature-diverse ensemble committee and its quorum;
* the canonical-path fingerprint of the targets at induction time (the
  baseline for c-change drift detection);
* the annotated samples themselves — page HTML plus canonical paths of
  the target/context nodes — so a degraded wrapper can be *re-induced*
  without access to the original annotation session;
* provenance (site/task ids, snapshot, repair generation) and the five
  :class:`~repro.induction.config.InductionConfig` fields the wrapper
  was induced under.

Queries round-trip through their canonical text
(``str(query)`` → :func:`repro.xpath.parser.parse_query`), which is
lossless for everything the induction emits; a reloaded artifact
therefore compiles to the exact same plan and selects the exact same
node sets (enforced by ``tests/runtime/test_artifact.py``).  Samples
round-trip through :func:`repro.dom.serialize.to_html` /
:func:`repro.dom.parser.parse_html`; target nodes are re-located by
evaluating their canonical paths on the reparsed page, and volatile
(data, non-template) text is re-marked by value so re-induction obeys
the same no-data-predicates protocol as the original run.  Loading
validates the config as it parses the queries, so a malformed one is
an :class:`ArtifactError` at load time, never a failure at repair time.

This module only turns artifacts into JSON and back
(:meth:`WrapperArtifact.dumps` / :meth:`WrapperArtifact.loads`); the
sharded store (:mod:`repro.runtime.store`) owns every artifact file.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import asdict, dataclass, field, fields as dataclass_fields, replace
from typing import Optional, Sequence

from repro.dom.node import Document, Node
from repro.dom.parser import parse_html
from repro.dom.serialize import to_html
from repro.induction.config import VOLATILE_KEY, InductionConfig
from repro.induction.ensemble import EnsembleWrapper, build_ensemble
from repro.induction.induce import InductionResult
from repro.induction.samples import QuerySample
from repro.xpath.ast import Query
from repro.xpath.canonical import canonical_key, canonical_path
from repro.xpath.compile import compile_text, evaluate_compiled
from repro.xpath.errors import XPathParseError
from repro.xpath.parser import parse_query

#: Current artifact format version.  Bump on any incompatible change to
#: the JSON payload; ``from_payload`` refuses versions it does not know.
ARTIFACT_VERSION = 1


class ArtifactError(ValueError):
    """A wrapper artifact could not be built, parsed, or restored."""


@dataclass(frozen=True)
class RankedQuery:
    """One ranked induction candidate in serializable form.

    ``text`` is the canonical dsXPath text; ``score`` the robustness
    score; ``tp``/``fp``/``fn`` the accuracy counts against the samples
    the wrapper was induced from.
    """

    text: str
    score: float
    tp: int
    fp: int
    fn: int

    def parse(self) -> Query:
        return parse_query(self.text)

    def to_payload(self) -> dict:
        return {
            "query": self.text,
            "score": self.score,
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "RankedQuery":
        try:
            return cls(
                text=str(payload["query"]),
                score=float(payload["score"]),
                tp=int(payload["tp"]),
                fp=int(payload["fp"]),
                fn=int(payload["fn"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ArtifactError(
                f"malformed ranked query payload: {reprlib.repr(payload)}"
            ) from exc


def config_to_payload(config: InductionConfig) -> dict:
    """Serialize the induction configuration: every field, so repairs
    re-induce under exactly the settings the deployment signed off on."""
    return asdict(config)


def config_from_payload(payload: dict) -> InductionConfig:
    """Rebuild an :class:`InductionConfig`, ignoring unknown keys (fields
    an older writer had, which are constants now) and tolerating missing
    ones (fields added after the artifact was written keep their
    defaults).  An invalid value raises ``ValueError``."""
    known = {f.name for f in dataclass_fields(InductionConfig)}
    return InductionConfig(
        **{key: value for key, value in payload.items() if key in known}
    )


def resolve_path(doc: Document, path: str) -> Node:
    """Evaluate a canonical path; it must select exactly one node.

    The shared re-location primitive: stored samples, facade samples,
    and explicit re-annotations all address nodes this way.
    """
    try:
        query = parse_query(path)
    except XPathParseError as exc:
        raise ArtifactError(
            f"canonical path {path!r} does not parse: "
            f"{exc.message} at offset {exc.position}"
        ) from exc
    matches = evaluate_compiled(query, doc.root, doc)
    if len(matches) != 1:
        raise ArtifactError(
            f"canonical path {path!r} selects {len(matches)} nodes on the stored page"
        )
    return matches[0]


@dataclass(frozen=True)
class StoredSample:
    """One annotated sample in serializable form.

    ``context_path`` is ``None`` when the context is the document node
    (the overwhelmingly common case).  ``volatile_texts`` holds the
    normalized values of the page's volatile (data) text nodes: the
    ``meta`` marks do not survive HTML serialization, so on restore any
    text node *containing* one of these values is re-marked volatile —
    a conservative re-marking (template text that merely embeds a data
    value is data-bearing too) that keeps re-induction from anchoring
    wrappers on page data.  Marks are read and written under
    :data:`~repro.induction.config.VOLATILE_KEY`.
    """

    html: str
    target_paths: tuple[str, ...]
    context_path: Optional[str] = None
    volatile_texts: tuple[str, ...] = ()

    @classmethod
    def from_sample(cls, sample: QuerySample) -> "StoredSample":
        doc = sample.doc
        target_paths = tuple(str(canonical_path(node)) for node in sample.targets)
        context_path = (
            None if sample.context is doc.root else str(canonical_path(sample.context))
        )
        volatile = {
            doc.normalized_text(node)
            for node in doc.index.texts
            if node.meta.get(VOLATILE_KEY)
        }
        stored = cls(
            html=to_html(doc),
            target_paths=target_paths,
            context_path=context_path,
            volatile_texts=tuple(sorted(v for v in volatile if v)),
        )
        stored.restore()  # fail at build time, not at repair time
        return stored

    def restore(self) -> QuerySample:
        """Reparse the page and re-locate targets/context/volatile text."""
        doc = parse_html(self.html)
        if self.volatile_texts:
            for node in doc.index.texts:
                text = doc.normalized_text(node)
                if any(value in text for value in self.volatile_texts):
                    node.meta[VOLATILE_KEY] = True
        targets = [resolve_path(doc, path) for path in self.target_paths]
        context = (
            resolve_path(doc, self.context_path)
            if self.context_path is not None
            else None
        )
        return QuerySample(doc, targets, context)

    def to_payload(self) -> dict:
        payload = {
            "html": self.html,
            "targets": list(self.target_paths),
            "volatile_texts": list(self.volatile_texts),
        }
        if self.context_path is not None:
            payload["context"] = self.context_path
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "StoredSample":
        try:
            return cls(
                html=str(payload["html"]),
                target_paths=tuple(str(p) for p in payload["targets"]),
                context_path=(
                    None if payload.get("context") is None else str(payload["context"])
                ),
                volatile_texts=tuple(str(v) for v in payload.get("volatile_texts", ())),
            )
        except (KeyError, TypeError) as exc:
            raise ArtifactError("malformed stored sample payload") from exc


@dataclass(frozen=True)
class WrapperArtifact:
    """A deployable wrapper: ranked queries + ensemble + samples + provenance."""

    task_id: str
    site_id: str
    role: str
    queries: tuple[RankedQuery, ...]
    ensemble: tuple[str, ...]
    quorum: int
    baseline_paths: tuple[str, ...]
    samples: tuple[StoredSample, ...]
    beta: float = 0.5
    generation: int = 0
    provenance: dict = field(default_factory=dict)
    #: The induction configuration the wrapper was built with (the
    #: ``config_to_payload`` form); re-induction reuses it so a repair
    #: ranks exactly the candidate space the original induction did.
    config: dict = field(default_factory=dict)
    version: int = ARTIFACT_VERSION

    def __post_init__(self) -> None:
        if not self.queries:
            raise ArtifactError("an artifact needs at least one ranked query")
        if not self.ensemble:
            raise ArtifactError("an artifact needs at least one ensemble member")
        if not 1 <= self.quorum <= len(self.ensemble):
            # quorum 0 degrades the vote to a union; quorum > members can
            # never pass — both silently corrupt drift detection/repair.
            raise ArtifactError(
                f"quorum {self.quorum} out of range for {len(self.ensemble)} members"
            )

    # -- construction -------------------------------------------------------

    @classmethod
    def from_induction(
        cls,
        result: InductionResult,
        samples: Sequence[QuerySample],
        *,
        task_id: str,
        site_id: str,
        role: str = "",
        ensemble_size: int = 3,
        max_queries: int = 10,
        generation: int = 0,
        provenance: Optional[dict] = None,
        config: Optional[InductionConfig] = None,
    ) -> "WrapperArtifact":
        """Package an induction result and its samples for deployment."""
        if result.best is None:
            raise ArtifactError(f"induction produced no wrapper for {task_id}")
        if not samples:
            raise ArtifactError("an artifact needs at least one sample")
        for sample in samples:
            # The serving stack (extractor, drift detector, repair) always
            # evaluates from the document node; a non-root-context sample
            # would fingerprint one context and serve another.
            if sample.context is not sample.doc.root:
                raise ArtifactError(
                    f"{task_id}: runtime artifacts require document-node "
                    "contexts (got a non-root sample context)"
                )
        config = config or InductionConfig()
        ensemble = build_ensemble(
            result, size=ensemble_size, diversity=config.diversity or None
        )
        return cls(
            task_id=task_id,
            site_id=site_id,
            role=role,
            queries=tuple(
                RankedQuery.from_payload(entry)
                for entry in result.export(limit=max_queries)
            ),
            ensemble=ensemble.member_texts(),
            quorum=ensemble.quorum or 1,
            # Fingerprint what the deployed query *actually selects* on the
            # newest sample page (not the annotation targets): a wrapper
            # induced from noisy annotations (fp/fn > 0) would otherwise
            # report a canonical change on every page, including unchanged
            # ones.  The newest sample keeps repaired artifacts monitoring
            # against the page version they were repaired on.
            baseline_paths=canonical_key(
                evaluate_compiled(
                    result.best.query, samples[-1].context, samples[-1].doc
                )
            ),
            samples=tuple(StoredSample.from_sample(s) for s in samples),
            beta=result.beta,
            generation=generation,
            provenance=dict(provenance or {}),
            config=config_to_payload(config),
        )

    def induction_config(self) -> InductionConfig:
        """The induction settings this wrapper was built with — repairs
        re-induce under exactly the configuration of the original run."""
        return config_from_payload(self.config)

    # -- deployment views ---------------------------------------------------

    @property
    def best(self) -> RankedQuery:
        return self.queries[0]

    def best_query(self) -> Query:
        """The top-ranked wrapper, parsed once and memoized (drift checks
        run per served page; re-parsing per check would dominate)."""
        try:
            return self._best_query
        except AttributeError:
            query = self.best.parse()
            object.__setattr__(self, "_best_query", query)
            return query

    def all_queries(self) -> list[Query]:
        return [ranked.parse() for ranked in self.queries]

    def ensemble_wrapper(self) -> EnsembleWrapper:
        """The committee, parsed once and memoized (see :meth:`best_query`)."""
        try:
            return self._ensemble_wrapper
        except AttributeError:
            wrapper = EnsembleWrapper.from_texts(self.ensemble, quorum=self.quorum)
            object.__setattr__(self, "_ensemble_wrapper", wrapper)
            return wrapper

    def restore_samples(self) -> list[QuerySample]:
        """Rebuild the annotated samples this wrapper was induced from."""
        return [sample.restore() for sample in self.samples]

    def with_provenance(self, **entries) -> "WrapperArtifact":
        return replace(self, provenance={**self.provenance, **entries})

    # -- serialization ------------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "version": self.version,
            "task_id": self.task_id,
            "site_id": self.site_id,
            "role": self.role,
            "beta": self.beta,
            "generation": self.generation,
            "queries": [ranked.to_payload() for ranked in self.queries],
            "ensemble": {"members": list(self.ensemble), "quorum": self.quorum},
            "baseline_paths": list(self.baseline_paths),
            "samples": [sample.to_payload() for sample in self.samples],
            "provenance": self.provenance,
            "config": self.config,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "WrapperArtifact":
        if not isinstance(payload, dict):
            raise ArtifactError("artifact payload must be a JSON object")
        version = payload.get("version")
        if version != ARTIFACT_VERSION:
            raise ArtifactError(
                f"unsupported artifact version {version!r} (supported: {ARTIFACT_VERSION})"
            )
        try:
            ensemble = payload["ensemble"]
            artifact = cls(
                task_id=str(payload["task_id"]),
                site_id=str(payload["site_id"]),
                role=str(payload.get("role", "")),
                queries=tuple(
                    RankedQuery.from_payload(q) for q in payload["queries"]
                ),
                ensemble=tuple(str(m) for m in ensemble["members"]),
                quorum=int(ensemble["quorum"]),
                baseline_paths=tuple(str(p) for p in payload["baseline_paths"]),
                samples=tuple(
                    StoredSample.from_payload(s) for s in payload["samples"]
                ),
                beta=float(payload.get("beta", 0.5)),
                generation=int(payload.get("generation", 0)),
                provenance=dict(payload.get("provenance", {})),
                config=config_to_payload(
                    config_from_payload(dict(payload.get("config", {})))
                ),
                version=int(version),
            )
        except ArtifactError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ArtifactError(f"malformed artifact payload: {exc}") from exc
        # The config is rebuilt above and every query must parse — catch
        # corruption at load time, not at repair time — and the deployed
        # wrappers compile into the global plan memo here,
        # so serving never pays parse/compile cost inside a request.
        for ranked in artifact.queries:
            ranked.parse()
        artifact.ensemble_wrapper()
        for text in (artifact.best.text, *artifact.ensemble):
            compile_text(text)
        return artifact

    def dumps(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_payload(), indent=indent, sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "WrapperArtifact":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ArtifactError(f"artifact is not valid JSON: {exc}") from exc
        return cls.from_payload(payload)
