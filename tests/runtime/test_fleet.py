"""Drift-check fleet: shard assignment, telemetry streams, repair
chains, multi-process sweeps over a sharded store, and the abort on a
store/corpus mismatch."""

import os
import subprocess
import sys

import pytest

import repro
from repro.evolution import SyntheticArchive
from repro.runtime import (
    DriftConfig,
    ShardedArtifactStore,
    StoreError,
    SweepConfig,
    WrapperArtifact,
    induce_corpus_task,
    sweep_store,
    sweep_wrapper,
)
from repro.runtime.fleet import _assign_shards
from repro.induction import WrapperInducer
from repro.sites import single_node_tasks

#: A task whose archive drifts early (empty_result + disagreement at
#: snapshot 4 — exercised by the CLI tests too).
DRIFTING_TASK = "weather-1/temp"

INDUCER = WrapperInducer(k=10)


def _artifact_for(task_id):
    (corpus_task,) = [t for t in single_node_tasks() if t.task_id == task_id]
    result, sample = induce_corpus_task(corpus_task, INDUCER)
    return corpus_task, WrapperArtifact.from_induction(
        result,
        [sample],
        task_id=corpus_task.task_id,
        site_id=corpus_task.spec.site_id,
        role=corpus_task.task.role,
    )


@pytest.fixture(scope="module")
def fleet_store(tmp_path_factory):
    """A store with a handful of wrappers, including one that drifts."""
    store = ShardedArtifactStore(tmp_path_factory.mktemp("fleet") / "store", n_shards=4)
    for task_id in ["academic-0/scholar", "academic-1/scholar", DRIFTING_TASK]:
        _, artifact = _artifact_for(task_id)
        store.put(artifact)
    return store


class TestShardAssignment:
    def test_every_shard_assigned_exactly_once(self):
        for workers in (1, 2, 3, 8, 11):
            groups = _assign_shards(8, workers)
            flat = sorted(shard for group in groups for shard in group)
            assert flat == list(range(8))
            assert len(groups) == min(workers, 8)

    def test_workers_beyond_shards_collapse(self):
        assert len(_assign_shards(2, 16)) == 2


class TestSweepWrapper:
    def test_healthy_wrapper_streams_every_check(self):
        corpus_task, artifact = _artifact_for("academic-0/scholar")
        archive = SyntheticArchive(corpus_task.spec, n_snapshots=8)
        outcome, lines, repaired = sweep_wrapper(
            artifact, archive, SweepConfig(n_snapshots=8)
        )
        assert not outcome.drifted
        assert repaired is None
        assert outcome.checked == len(lines)
        # Telemetry records the soft signals too, not just hard drift.
        assert all({"snapshot", "signals", "generation"} <= line.keys() for line in lines)

    def test_drifting_wrapper_repairs_and_continues(self):
        corpus_task, artifact = _artifact_for(DRIFTING_TASK)
        archive = SyntheticArchive(corpus_task.spec, n_snapshots=12)
        outcome, lines, repaired = sweep_wrapper(
            artifact, archive, SweepConfig(n_snapshots=12)
        )
        assert outcome.drifted
        assert outcome.repairs >= 1
        assert repaired is not None
        assert repaired.generation == outcome.final_generation >= 1
        # The sweep continued past the drift point with the repaired
        # generation: later lines carry generation >= 1.
        post = [l for l in lines if l["snapshot"] > outcome.drift_snapshots[0]]
        assert post and all(line["generation"] >= 1 for line in post)

    def test_no_repair_stops_at_first_drift(self):
        corpus_task, artifact = _artifact_for(DRIFTING_TASK)
        archive = SyntheticArchive(corpus_task.spec, n_snapshots=12)
        outcome, lines, repaired = sweep_wrapper(
            artifact, archive, SweepConfig(n_snapshots=12, repair=False)
        )
        assert outcome.drift_snapshots == (lines[-1]["snapshot"],)
        assert repaired is None
        assert outcome.final_generation == 0


class TestSweepStore:
    def test_sweep_writes_streams_and_repairs(self, fleet_store):
        summary = sweep_store(fleet_store, SweepConfig(n_snapshots=10))
        assert len(summary.wrappers) == 3
        assert summary.drifted == 1
        assert summary.repaired >= 1
        assert summary.repair_failures == 0
        # Every wrapper has a telemetry stream under its own shard.
        for wrapper in summary.wrappers:
            reports = fleet_store.read_reports(wrapper.task_id)
            assert len(reports) >= wrapper.checked
        # The repaired generation is what the store now serves.
        assert fleet_store.get(DRIFTING_TASK).generation >= 1

    def test_multiprocess_sweep_matches_single_process(self, tmp_path):
        stores = []
        for name in ("solo", "fleet"):
            store = ShardedArtifactStore(tmp_path / name, n_shards=4)
            for task_id in ["academic-0/scholar", DRIFTING_TASK]:
                _, artifact = _artifact_for(task_id)
                store.put(artifact)
            stores.append(store)
        solo = sweep_store(stores[0], SweepConfig(n_snapshots=10, workers=1))
        fleet = sweep_store(stores[1], SweepConfig(n_snapshots=10, workers=3))
        assert [w.task_id for w in solo.wrappers] == [w.task_id for w in fleet.wrappers]
        for a, b in zip(solo.wrappers, fleet.wrappers):
            assert a == b
        assert stores[0].read_reports(DRIFTING_TASK) == stores[1].read_reports(
            DRIFTING_TASK
        )

    def test_repeat_sweeps_append_to_streams(self, tmp_path):
        store = ShardedArtifactStore(tmp_path / "again", n_shards=2)
        _, artifact = _artifact_for("academic-0/scholar")
        store.put(artifact)
        sweep_store(store, SweepConfig(n_snapshots=6))
        first = len(store.read_reports("academic-0/scholar"))
        sweep_store(store, SweepConfig(n_snapshots=6))
        assert len(store.read_reports("academic-0/scholar")) == 2 * first

    def test_strict_canonical_config_reaches_workers(self, tmp_path):
        store = ShardedArtifactStore(tmp_path / "strict", n_shards=2)
        _, artifact = _artifact_for("academic-0/scholar")
        store.put(artifact)
        config = SweepConfig(
            n_snapshots=6, drift=DriftConfig(canonical_change_is_hard=True)
        )
        # Just exercising the path: strict mode must not crash and the
        # summary must stay coherent.
        summary = sweep_store(store, config)
        assert len(summary.wrappers) == 1

    def test_invalid_config_is_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(n_snapshots=1)
        with pytest.raises(ValueError):
            SweepConfig(workers=0)


@pytest.fixture
def mismatched_store(tmp_path):
    """A corpus wrapper next to a facade-induced ``shop/price``, whose
    site ``shop`` the corpus does not know."""
    from repro import Sample, WrapperClient, mark_volatile, parse_html
    from tests.api.pages import PRICE_V1

    store = ShardedArtifactStore(tmp_path / "mixed", n_shards=4)
    _, artifact = _artifact_for("academic-0/scholar")
    store.put(artifact)
    doc = parse_html(PRICE_V1)
    target = doc.find(tag="span", class_="price")
    mark_volatile(target)
    WrapperClient(store=store).induce("shop/price", [Sample(doc, [target])])
    return store


class TestSweepAbort:
    MESSAGE = "sweep aborted: shop/price: unknown site id 'shop'"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unknown_site_aborts_the_sweep(self, mismatched_store, workers):
        with pytest.raises(StoreError) as error:
            sweep_store(mismatched_store, SweepConfig(n_snapshots=3, workers=workers))
        assert str(error.value) == self.MESSAGE
        # Every worker finished first: the known wrapper was swept.
        assert mismatched_store.read_reports("academic-0/scholar")

    def test_cli_sweep_exits_2_with_the_message(self, mismatched_store):
        src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.runtime",
                "sweep",
                "--store",
                str(mismatched_store.root),
                "--snapshots",
                "3",
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 2
        assert proc.stderr.strip() == self.MESSAGE
