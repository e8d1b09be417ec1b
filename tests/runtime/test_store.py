"""Sharded artifact store: stable placement, crash safety, LRU,
multi-process access, and the drift-report streams."""

import json
import multiprocessing
import os
import stat
import subprocess
import sys
import threading
from collections import OrderedDict

import pytest

from repro.runtime import (
    ShardedArtifactStore,
    StoreError,
    WrapperArtifact,
    shard_index,
    site_key_of,
    store as store_mod,
)
from repro.runtime.corpus import snapshot0_annotation
from repro.induction import QuerySample, WrapperInducer
from repro.sites import single_node_tasks

INDUCER = WrapperInducer()


@pytest.fixture(scope="module")
def artifacts():
    """A handful of real corpus artifacts (shared — induction is the
    expensive part of these tests)."""
    built = []
    for corpus_task in single_node_tasks()[:6]:
        doc, targets = snapshot0_annotation(corpus_task)
        result = INDUCER.induce_one(doc, targets)
        built.append(
            WrapperArtifact.from_induction(
                result,
                [QuerySample(doc, targets)],
                task_id=corpus_task.task_id,
                site_id=corpus_task.spec.site_id,
                role=corpus_task.task.role,
            )
        )
    return built


@pytest.fixture
def store(tmp_path, artifacts):
    store = ShardedArtifactStore(tmp_path / "store", n_shards=4)
    for artifact in artifacts:
        store.put(artifact)
    return store


class TestPlacementStability:
    def test_same_key_same_shard_across_instances(self, tmp_path, artifacts):
        a = ShardedArtifactStore(tmp_path / "a", n_shards=8)
        b = ShardedArtifactStore(tmp_path / "b", n_shards=8)
        for artifact in artifacts:
            assert a.shard_of(artifact.task_id) == b.shard_of(artifact.task_id)

    def test_placement_survives_process_boundaries(self):
        """The shard function must not depend on the per-process hash
        seed — a subprocess with a different PYTHONHASHSEED must compute
        the identical placement."""
        keys = ["academic-0", "movies-3", "weather-1", "nba-2"]
        local = [shard_index(key, 8) for key in keys]
        code = (
            "import sys; sys.path.insert(0, 'src'); "
            "from repro.runtime.store import shard_index; "
            f"print([shard_index(k, 8) for k in {keys!r}])"
        )
        for seed in ("0", "1", "424242"):
            out = subprocess.run(
                [sys.executable, "-c", code],
                env={**os.environ, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                check=True,
                cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            )
            assert json.loads(out.stdout.replace("'", '"')) == local

    def test_colocated_tasks_share_a_shard(self):
        assert site_key_of("movies-0/director") == "movies-0"
        assert shard_index("movies-0", 8) == shard_index(
            site_key_of("movies-0/title"), 8
        )

    def test_path_of_matches_put(self, store, artifacts):
        for artifact in artifacts:
            assert store.path_of(artifact.task_id).exists()

    def test_reopen_reads_shard_count_from_metadata(self, store, artifacts):
        reopened = ShardedArtifactStore(store.root)
        assert reopened.n_shards == store.n_shards
        assert reopened.task_ids() == sorted(a.task_id for a in artifacts)

    def test_conflicting_shard_count_is_rejected(self, store):
        with pytest.raises(StoreError, match="re-sharding"):
            ShardedArtifactStore(store.root, n_shards=16)


class TestAtomicWrites:
    def test_partial_write_is_never_visible(self, tmp_path, artifacts, monkeypatch):
        """A crash between temp write and publish must leave get()/scan()
        seeing either the old artifact or nothing — never a torn file."""
        store = ShardedArtifactStore(tmp_path / "store", n_shards=2)
        artifact = artifacts[0]

        def crash(src, dst):
            raise OSError("simulated crash before publish")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="simulated crash"):
            store.put(artifact)
        # Creating a store publishes store.json the same way.
        with pytest.raises(OSError, match="simulated crash"):
            ShardedArtifactStore(tmp_path / "new", n_shards=2)
        monkeypatch.undo()
        assert artifact.task_id not in store
        assert list(store.scan()) == []
        assert not ShardedArtifactStore.is_store(tmp_path / "new")
        # The failed temp files were cleaned up, not left to rot.
        assert list(tmp_path.rglob("*.tmp-*")) == []
        # The same store keeps working after the "crash".
        store.put(artifact)
        assert store.get(artifact.task_id) == artifact

    def test_temp_files_are_invisible_to_readers(self, store, artifacts):
        """Even an *uncleaned* temp file (hard kill) is ignored."""
        shard = store.path_of(artifacts[0].task_id).parent
        (shard / "stray.json.tmp-999").write_text("{ torn")
        assert store.task_ids() == sorted(a.task_id for a in artifacts)
        list(store.scan())  # does not try to parse the torn file

    def test_published_files_keep_the_umask_mode(self, tmp_path, artifacts):
        previous = os.umask(0o022)
        try:
            store = ShardedArtifactStore(tmp_path / "store", n_shards=2)
            path = store.put(artifacts[0])
        finally:
            os.umask(previous)
        for published in (path, store.root / "store.json"):
            assert stat.S_IMODE(os.stat(published).st_mode) == 0o644

    def test_put_replaces_previous_generation(self, store, artifacts):
        artifact = artifacts[0]
        from dataclasses import replace

        newer = replace(artifact, generation=artifact.generation + 1)
        store.put(newer)
        assert store.get(artifact.task_id).generation == newer.generation
        assert len(store) == len(artifacts)


class TestLRUCache:
    def test_hot_get_skips_reload(self, store, artifacts):
        task_id = artifacts[0].task_id
        store.get(task_id)
        before = store.cache_info()
        again = store.get(task_id)
        after = store.cache_info()
        assert after.hits == before.hits + 1
        assert after.misses == before.misses
        assert again == artifacts[0]

    def test_eviction_at_capacity(self, tmp_path, artifacts, monkeypatch):
        monkeypatch.setattr(store_mod, "ARTIFACT_CACHE_SIZE", 2)
        store = ShardedArtifactStore(tmp_path / "small", n_shards=2)
        for artifact in artifacts[:4]:
            store.put(artifact)
        info = store.cache_info()
        assert info.size == 2
        assert info.evictions == 2
        # Evicted entries still load (from disk), newest entries hit.
        assert store.get(artifacts[0].task_id) == artifacts[0]

    def test_out_of_band_write_invalidates(self, store, artifacts):
        """A put from another process changes the file mtime; the cached
        entry must not be served stale."""
        artifact = artifacts[0]
        store.get(artifact.task_id)
        from dataclasses import replace

        other = ShardedArtifactStore(store.root)
        other.put(replace(artifact, generation=7))
        path = store.path_of(artifact.task_id)
        os.utime(path, ns=(os.stat(path).st_mtime_ns + 1,) * 2)
        assert store.get(artifact.task_id).generation == 7

    def test_cache_disabled(self, tmp_path, artifacts, monkeypatch):
        """A zero-size LRU evicts what it remembers: every get reads
        the file."""
        monkeypatch.setattr(store_mod, "ARTIFACT_CACHE_SIZE", 0)
        store = ShardedArtifactStore(tmp_path / "nocache", n_shards=2)
        store.put(artifacts[0])
        assert store.get(artifacts[0].task_id) == artifacts[0]
        info = store.cache_info()
        assert (info.size, info.hits, info.capacity) == (0, 0, 0)

    def test_cache_size_is_a_constant(self, tmp_path):
        store = ShardedArtifactStore(tmp_path / "default")
        assert store.cache_info().capacity == store_mod.ARTIFACT_CACHE_SIZE == 128
        with pytest.raises(TypeError):
            ShardedArtifactStore(tmp_path / "sized", cache_size=8)


def _hammer(args):
    """Worker for the concurrency test: re-put and re-read every
    artifact repeatedly; any torn read raises."""
    root, task_ids, rounds = args
    store_mod.ARTIFACT_CACHE_SIZE = 0  # this worker process reads every get from disk
    store = ShardedArtifactStore(root)
    for _ in range(rounds):
        for task_id in task_ids:
            artifact = store.get(task_id)
            store.put(artifact.with_provenance(writer=os.getpid()))
            store.get(task_id)
    return os.getpid()


class TestConcurrentAccess:
    def test_parallel_put_get_never_tears(self, store, artifacts):
        task_ids = [a.task_id for a in artifacts]
        with multiprocessing.Pool(3) as pool:
            pids = pool.map(_hammer, [(str(store.root), task_ids, 3)] * 3)
        assert len(set(pids)) == 3
        # Every artifact is intact and parses/validates cleanly.
        loaded = list(ShardedArtifactStore(store.root).scan())
        assert sorted(a.task_id for a in loaded) == sorted(task_ids)


class TestThreadedWriters:
    """Threads of one process (the server's induce pool and executor)
    writing one key must never share a temp file."""

    def test_concurrent_puts_of_one_key_never_tear(self, store, artifacts):
        artifact = artifacts[0]
        path = store.path_of(artifact.task_id)
        errors, torn = [], []
        writing = True

        def write():
            try:
                for _ in range(150):
                    store.put(artifact)
            except Exception as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        def read():
            while writing:
                try:
                    WrapperArtifact.loads(path.read_text())
                except Exception as exc:  # noqa: BLE001 - collected
                    torn.append(exc)

        reader = threading.Thread(target=read)
        writers = [threading.Thread(target=write) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            reader.start()
            for thread in writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=120)
            writing = False
            reader.join(timeout=10)
        finally:
            writing = False
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in (reader, *writers))
        assert errors == []
        assert torn == []
        assert list(store.root.rglob("*.tmp-*")) == []
        assert store.get(artifact.task_id) == artifact

    def test_reader_and_evicting_writer_share_the_lru_safely(
        self, tmp_path, artifacts, monkeypatch
    ):
        """A get() parked between its cache lookup and move_to_end while
        another thread's put() evicts that entry must still answer."""
        monkeypatch.setattr(store_mod, "ARTIFACT_CACHE_SIZE", 1)
        store = ShardedArtifactStore(tmp_path / "lru", n_shards=4)
        first, second = artifacts[0], artifacts[1]
        store.put(first)
        looked_up, resume = threading.Event(), threading.Event()
        reader_ident = []

        class ParkingDict(OrderedDict):
            def get(self, key, default=None):
                entry = super().get(key, default)
                if threading.get_ident() in reader_ident and not looked_up.is_set():
                    looked_up.set()
                    resume.wait(timeout=30)
                return entry

            def popitem(self, last=True):
                item = super().popitem(last)
                resume.set()  # the reader may go on only after an eviction
                return item

        store._cache = ParkingDict(store._cache)
        answers = []

        def read():
            reader_ident.append(threading.get_ident())
            try:
                answers.append(store.get(first.task_id))
            except Exception as exc:  # noqa: BLE001 - re-raised below
                answers.append(exc)

        reader = threading.Thread(target=read)
        reader.start()
        assert looked_up.wait(timeout=30)
        writer = threading.Thread(target=store.put, args=(second,))
        writer.start()
        # A writer that cannot evict while the reader is parked (the LRU
        # is locked) is released by letting the reader finish first.
        writer.join(timeout=1.0)
        resume.set()
        reader.join(timeout=30)
        writer.join(timeout=30)
        assert not reader.is_alive() and not writer.is_alive()
        (answer,) = answers
        if isinstance(answer, BaseException):
            raise answer
        assert answer == first
        assert store.cache_info().size == 1

    def test_lru_counters_survive_threads_sharing_a_small_cache(
        self, tmp_path, artifacts, monkeypatch
    ):
        """More threads than cores, a short switch interval, a cache one
        entry too small: no get fails and no hit or miss is lost."""
        monkeypatch.setattr(store_mod, "ARTIFACT_CACHE_SIZE", 2)
        store = ShardedArtifactStore(tmp_path / "lru", n_shards=4)
        for artifact in artifacts[:3]:
            store.put(artifact)
        gets_per_thread, errors = 100, []

        def hammer(offset):
            try:
                for i in range(gets_per_thread):
                    artifact = artifacts[(offset + i) % 3]
                    assert store.get(artifact.task_id) == artifact
            except Exception as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(n,)) for n in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        info = store.cache_info()
        assert info.hits + info.misses == 6 * gets_per_thread
        assert info.size <= 2

    def test_put_leaves_another_writers_temp_file_alone(self, store, artifacts):
        path = store.path_of(artifacts[0].task_id)
        other = path.with_name(f"{path.name}.tmp-{os.getpid()}")
        other.write_text("another writer's half-written artifact")
        store.put(artifacts[0])
        assert other.read_text() == "another writer's half-written artifact"


class TestReportStreams:
    def test_append_and_read_round_trip(self, store, artifacts):
        task_id = artifacts[0].task_id
        store.append_reports(task_id, [{"snapshot": 1, "signals": []}])
        store.append_reports(task_id, [{"snapshot": 2, "signals": ["empty_result"]}])
        reports = store.read_reports(task_id)
        assert [r["snapshot"] for r in reports] == [1, 2]
        assert store.reports_path(task_id) in store.report_paths()

    def test_stream_lives_in_the_artifact_shard(self, store, artifacts):
        task_id = artifacts[0].task_id
        store.append_reports(task_id, [{"snapshot": 1}])
        assert store.reports_path(task_id).parent.parent == store.path_of(
            task_id
        ).parent

    def test_missing_stream_reads_empty(self, store):
        assert store.read_reports("no-such/task") == []


class TestMigrationAndDiscovery:
    def test_get_missing_raises_keyerror(self, store):
        with pytest.raises(KeyError):
            store.get("no-such/task")

    def test_corrupt_metadata_is_rejected(self, tmp_path):
        root = tmp_path / "corrupt"
        root.mkdir()
        (root / "store.json").write_text("not json")
        with pytest.raises(StoreError, match="corrupt store metadata"):
            ShardedArtifactStore(root)
