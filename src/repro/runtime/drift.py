"""Drift detection and automatic re-induction.

A deployed wrapper degrades silently: the page keeps serving, the
wrapper keeps returning *something* (or nothing), and no exception is
ever raised.  The detector watches three signals on every served page:

* ``empty_result`` — the top query selects nothing.  The strongest
  signal; a wrapper that finds nothing is broken (or the data left the
  page, which the repair loop discovers when re-induction fails too).
* ``ensemble_disagreement`` — the feature-diverse committee members no
  longer agree with the top query's result set.  Members anchor on
  *independent* features (Sec. 7's future-work item, implemented in
  :mod:`repro.induction.ensemble`), so a class rename breaks some
  members but not others: disagreement above the configured fraction
  means the page moved under the wrapper even while the top query still
  returns a plausible-looking result.
* ``canonical_change`` — the canonical paths of the selected nodes
  differ from the fingerprint stored at induction time (the paper's
  c-change measure, Sec. 2).  Soft by default: positional churn is
  routine (avg ≈ 4.1 c-changes per surviving wrapper, Sec. 6.2) and a
  robust wrapper is *supposed* to absorb it — the signal is recorded
  for monitoring but does not alone flag drift.

:func:`drift_verdict` is the one place these rules live.  Two callers
feed it result sets keyed differently, each the cheap key for what it
already holds: :class:`DriftDetector` (the ``check``/``sweep`` replay
loop and the lead-time study) uses node ids from the DOM, and the
facade and network server (:mod:`repro.api.results`) use the canonical
paths of their extraction records.

On drift, :func:`reinduce` rebuilds the wrapper from the artifact's
stored samples plus the drifted page: labels for the new page come from
the surviving ensemble majority (or an explicit re-annotation), and the
multi-sample aggregation of Algorithm 3 then favors queries accurate on
*both* page versions — the features that survived the change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, AbstractSet, Callable, Optional, Sequence

from repro.dom.node import Document, Node
from repro.induction.induce import WrapperInducer
from repro.induction.samples import QuerySample
from repro.runtime.artifact import ArtifactError, WrapperArtifact
from repro.xpath.canonical import canonical_key
from repro.xpath.compile import evaluate_compiled

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.evolution.archive import SyntheticArchive

#: Signal names (stable identifiers — they appear in reports and logs).
EMPTY_RESULT = "empty_result"
ENSEMBLE_DISAGREEMENT = "ensemble_disagreement"
CANONICAL_CHANGE = "canonical_change"

#: Signals that flag a wrapper as drifted (vs. merely monitored).
HARD_SIGNALS = frozenset({EMPTY_RESULT, ENSEMBLE_DISAGREEMENT})

#: The fraction of ensemble members that must disagree with the top
#: query before the ensemble signal fires: a single broken member of a
#: 3-committee stays quiet (members break independently by design)
#: while a majority break fires.
DISAGREEMENT_THRESHOLD = 0.5


@dataclass(frozen=True)
class DriftConfig:
    """``canonical_change_is_hard`` promotes the c-change signal to a
    drift trigger for paranoid deployments."""

    canonical_change_is_hard: bool = False

    def hard_signals(self) -> frozenset[str]:
        if self.canonical_change_is_hard:
            return HARD_SIGNALS | {CANONICAL_CHANGE}
        return HARD_SIGNALS


@dataclass(frozen=True)
class DriftReport:
    """Detector verdict for one (wrapper, page) check."""

    task_id: str
    signals: tuple[str, ...]
    drifted: bool
    snapshot: Optional[int] = None
    result_count: int = 0
    disagreeing_members: int = 0
    member_count: int = 0

    @property
    def healthy(self) -> bool:
        return not self.signals


def drift_verdict(
    artifact: WrapperArtifact,
    result: AbstractSet,
    sorted_paths: Callable[[], tuple[str, ...]],
    members: Sequence[AbstractSet],
    config: DriftConfig,
) -> tuple[tuple[str, ...], bool, int]:
    """The drift rules: ``(signals, drifted, disagreeing members)`` for
    one evaluation of ``artifact`` on a page.

    ``result`` is the top query's result set and ``members`` each
    ensemble member's, all keyed the same way — node ids when the
    caller holds the DOM (:class:`DriftDetector`), canonical paths when
    it holds extraction records (the facade and the network server).
    ``sorted_paths`` yields the top query's sorted canonical paths and
    is called only when ``result`` is non-empty.
    """
    signals: list[str] = []
    if not result:
        signals.append(EMPTY_RESULT)
    elif sorted_paths() != artifact.baseline_paths:
        signals.append(CANONICAL_CHANGE)
    disagreeing = sum(1 for member in members if member != result)
    if members and disagreeing / len(members) >= DISAGREEMENT_THRESHOLD:
        signals.append(ENSEMBLE_DISAGREEMENT)
    hard = config.hard_signals()
    return tuple(signals), any(signal in hard for signal in signals), disagreeing


class DriftDetector:
    """Check deployed wrappers for drift on served pages."""

    def __init__(self, config: Optional[DriftConfig] = None) -> None:
        self.config = config or DriftConfig()

    def check(
        self,
        artifact: WrapperArtifact,
        doc: Document,
        snapshot: Optional[int] = None,
    ) -> DriftReport:
        result = evaluate_compiled(artifact.best_query(), doc.root, doc)
        member_ids = [
            doc.node_ids(iter(evaluate_compiled(member, doc.root, doc)))
            for member in artifact.ensemble_wrapper().members
        ]
        signals, drifted, disagreeing = drift_verdict(
            artifact,
            doc.node_ids(iter(result)),
            lambda: canonical_key(result),
            member_ids,
            self.config,
        )
        return DriftReport(
            task_id=artifact.task_id,
            signals=signals,
            drifted=drifted,
            snapshot=snapshot,
            result_count=len(result),
            disagreeing_members=disagreeing,
            member_count=len(member_ids),
        )


def reinduce(
    artifact: WrapperArtifact,
    doc: Document,
    targets: Optional[Sequence[Node]] = None,
    inducer: Optional[WrapperInducer] = None,
    snapshot: Optional[int] = None,
) -> WrapperArtifact:
    """Repair a drifted wrapper: re-induce from stored samples + the new page.

    ``targets`` labels the new page explicitly (a re-annotation event);
    when omitted, the surviving ensemble majority labels it (automatic
    repair).  Raises :class:`ArtifactError` when no labels can be
    produced — the caller then knows human re-annotation is required.
    """
    labels = "explicit"
    if targets is None:
        labels = "ensemble_vote"
        targets = artifact.ensemble_wrapper().select(doc)
    if not targets:
        source = "ensemble vote is empty" if labels == "ensemble_vote" else "no labels given"
        raise ArtifactError(
            f"{artifact.task_id}: {source} on the drifted page; re-annotation required"
        )
    samples = artifact.restore_samples()
    samples.append(QuerySample(doc, list(targets)))
    if inducer is None:
        # Repair under the settings the wrapper was originally induced
        # with — a different k or volatile key would rank a different
        # candidate pool than the deployment signed off on.
        inducer = WrapperInducer(artifact.induction_config())
    result = inducer.induce(samples)
    if result.best is None:
        raise ArtifactError(f"{artifact.task_id}: re-induction produced no wrapper")
    stats = getattr(result, "stats", None)
    provenance = {
        **artifact.provenance,
        "repaired_from_generation": artifact.generation,
        "repaired_at_snapshot": snapshot,
        "repair_labels": labels,
    }
    if stats is not None:
        # Deterministic counters (search mode, fold/prune counts) — the
        # serving layer's induce metrics read them off the repaired
        # artifact, and parity is unaffected.
        provenance["induction_stats"] = stats.as_payload()
    repaired = WrapperArtifact.from_induction(
        result,
        samples,
        task_id=artifact.task_id,
        site_id=artifact.site_id,
        role=artifact.role,
        ensemble_size=max(1, len(artifact.ensemble)),
        max_queries=max(1, len(artifact.queries)),
        generation=artifact.generation + 1,
        provenance=provenance,
        config=inducer.config,
    )
    return repaired


def replay_archive(
    artifact: WrapperArtifact,
    archive: "SyntheticArchive",
    snapshots: Sequence[int],
    detector: Optional[DriftDetector] = None,
) -> list[DriftReport]:
    """Run the detector over every snapshot — no early stop, no repair.

    :func:`repro.runtime.fleet.sweep_wrapper` answers the *operational*
    question ("when do I first have to act?") and stops or repairs at
    each hard drift.  Lead-time studies (:mod:`repro.sitegen.study`)
    need the *full* signal trace instead: every report, healthy or not,
    so the distance between a scripted break snapshot and the first
    signal — and any false alarms before it — can be measured.  Broken
    archive captures are skipped, exactly as in the sweep (an erroneous
    capture says nothing about the wrapper).
    """
    detector = detector or DriftDetector()
    reports: list[DriftReport] = []
    for index in snapshots:
        if archive.is_broken(index):
            continue
        doc = archive.snapshot(index)
        reports.append(detector.check(artifact, doc, snapshot=index))
    return reports
