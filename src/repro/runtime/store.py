"""Sharded, crash-safe wrapper artifact store: the one on-disk form of a
wrapper artifact.

A deployment serving every corpus site holds one :class:`WrapperArtifact`
per task, and more than one worker may own the fleet.
:class:`ShardedArtifactStore` partitions artifacts across ``N`` shard
directories by a *stable* hash of the site key, so:

* co-located tasks (same site, different roles) land in the same shard —
  one sweep worker parses a site's archive once for all its wrappers;
* shard ownership is a pure function of the key: any process (today's
  CLI, tomorrow's fleet worker on another host) computes the same
  placement with no coordination and no directory listing;
* a sweep fleet assigns *whole shards* to workers — disjoint file sets,
  so workers never contend on the same artifact or report stream.

Placement uses SHA-1 of the site key (:func:`shard_index`), **not**
Python's builtin ``hash`` — the builtin is salted per process
(``PYTHONHASHSEED``) and would scatter the same key across different
shards in different processes.

Durability: every file the store publishes — an artifact on :meth:`put`,
``store.json`` when a store is created, a report stream copied by
:func:`migrate_store` — goes through one writer, :func:`_write_atomic`.
It writes a temp file of its own next to the target, fsyncs it and
renames it into place, so a reader (or a crash) never observes a
partially written file, and two threads of one process writing the same
key never share a temp file.  Temp names do not match the
``*.json`` pattern ``scan()``/``get()`` read.  Reads go through an
in-process LRU of :data:`ARTIFACT_CACHE_SIZE` artifacts keyed by file
mtime, so repeated ``get()``s of a hot wrapper skip JSON parsing +
query validation while an out-of-band ``put`` from another process
still invalidates naturally.  One lock
guards the LRU's entries and counters (threads of one serving process
read and write it), never the file reads and writes around it.

Drift telemetry lives next to the artifacts: per-wrapper
:class:`~repro.runtime.drift.DriftReport` streams append to
``<shard>/reports/<task>.jsonl`` (see :meth:`append_reports`), keeping
the store the single root a fleet needs to mount.
"""

from __future__ import annotations

import json
import os
import pathlib
import secrets
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

# Placement is a first-class subsystem shared with the fleet, the
# serving front-end, and the router client (repro.cluster) — the store
# re-exports it so seed-era imports keep working.
from repro.cluster.placement import DEFAULT_SHARDS, shard_index, site_key_of
from repro.runtime.artifact import ArtifactError, WrapperArtifact

#: Name of the store metadata file at the store root.
STORE_META = "store.json"

#: Current store layout version; bump on incompatible layout changes.
STORE_VERSION = 1

#: Artifacts the in-process LRU holds.  A serving host's hot set fits:
#: the lifecycle benchmark deploys 25 wrappers for serve-repeat and
#: runs 29 tasks in maintain.
ARTIFACT_CACHE_SIZE = 128


class StoreError(RuntimeError):
    """The store root is missing, corrupt, or opened inconsistently."""


def _artifact_filename(task_id: str) -> str:
    return task_id.replace("/", "__") + ".json"


def _task_id_of(path: pathlib.Path) -> str:
    return path.stem.replace("__", "/")


def _write_atomic(path: pathlib.Path, text: str) -> int:
    """Publish ``text`` at ``path``; the one way the store writes a file.

    The text goes to a temp file of this call's own next to ``path``
    (``<name>.tmp-<random>``, created with mode ``"x"`` so it gets the
    umask's usual mode), is flushed and fsync'd, then renamed into
    place.  A failure before the rename removes the temp file, so
    readers see the previous file or the new one, never a torn one.
    Returns the published file's mtime in nanoseconds.
    """
    tmp = path.with_name(f"{path.name}.tmp-{secrets.token_hex(8)}")
    handle = open(tmp, "x", encoding="utf-8")
    try:
        with handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
            mtime = os.fstat(handle.fileno()).st_mtime_ns
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return mtime


@dataclass(frozen=True)
class CacheInfo:
    """Counters for the in-process artifact LRU."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int


class ShardedArtifactStore:
    """Artifacts partitioned over ``shard-NN/`` directories by site key.

    Layout::

        <root>/store.json            {"version": 1, "n_shards": N}
        <root>/shard-00/<task>.json  artifacts (atomic tmp+fsync+replace)
        <root>/shard-00/reports/<task>.jsonl   drift-report streams
        ...
        <root>/shard-NN/...

    Opening an existing root reads ``n_shards`` from the metadata;
    passing a conflicting ``n_shards`` raises (re-sharding is a
    migration, not an accident).
    """

    def __init__(
        self,
        root: str | os.PathLike,
        n_shards: Optional[int] = None,
        epoch: Optional[int] = None,
    ) -> None:
        self.root = pathlib.Path(root)
        meta_path = self.root / STORE_META
        if meta_path.exists():
            meta = self._read_meta(meta_path)
            if n_shards is not None and n_shards != meta["n_shards"]:
                raise StoreError(
                    f"store at {self.root} has {meta['n_shards']} shards; "
                    f"reopening with n_shards={n_shards} would misplace keys "
                    "(re-sharding requires an explicit migration)"
                )
            if epoch is not None and epoch != meta["epoch"]:
                raise StoreError(
                    f"store at {self.root} was written at epoch {meta['epoch']}; "
                    f"reopening with epoch={epoch} would mislabel its placement "
                    "(advancing the epoch requires an explicit migration)"
                )
            self.n_shards = int(meta["n_shards"])
            self.epoch = int(meta["epoch"])
        else:
            self.n_shards = DEFAULT_SHARDS if n_shards is None else int(n_shards)
            self.epoch = 0 if epoch is None else int(epoch)
            if self.n_shards < 1:
                raise StoreError("a store needs at least one shard")
            if self.epoch < 0:
                raise StoreError("a store epoch must be >= 0")
            self.root.mkdir(parents=True, exist_ok=True)
            for index in range(self.n_shards):
                self._shard_dir(index).mkdir(exist_ok=True)
            _write_atomic(
                meta_path,
                json.dumps(
                    {
                        "version": STORE_VERSION,
                        "n_shards": self.n_shards,
                        "epoch": self.epoch,
                    }
                )
                + "\n",
            )
        self._cache: OrderedDict[str, tuple[int, WrapperArtifact]] = OrderedDict()
        # Guards the LRU and its counters, not the disk work: a serving
        # host reads from executor threads while its induce pool writes.
        self._lock = threading.Lock()
        self._hits = self._misses = self._evictions = 0

    @staticmethod
    def _read_meta(meta_path: pathlib.Path) -> dict:
        try:
            meta = json.loads(meta_path.read_text())
            version = int(meta["version"])
            n_shards = int(meta["n_shards"])
            # Pre-epoch stores (written before migrate existed) are epoch 0.
            epoch = int(meta.get("epoch", 0))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise StoreError(f"corrupt store metadata at {meta_path}: {exc}") from exc
        if version != STORE_VERSION:
            raise StoreError(
                f"unsupported store version {version} (supported: {STORE_VERSION})"
            )
        if n_shards < 1:
            raise StoreError(f"store metadata claims {n_shards} shards")
        if epoch < 0:
            raise StoreError(f"store metadata claims epoch {epoch}")
        return {"version": version, "n_shards": n_shards, "epoch": epoch}

    @classmethod
    def is_store(cls, root: str | os.PathLike) -> bool:
        """Whether ``root`` looks like a store (has the metadata file)."""
        return (pathlib.Path(root) / STORE_META).exists()

    # -- placement ----------------------------------------------------------

    def _shard_dir(self, index: int) -> pathlib.Path:
        return self.root / f"shard-{index:02d}"

    def shard_of(self, task_id: str) -> int:
        return shard_index(site_key_of(task_id), self.n_shards)

    def path_of(self, task_id: str) -> pathlib.Path:
        """Where the artifact for ``task_id`` lives (whether or not it
        exists yet) — placement is computable without touching disk."""
        return self._shard_dir(self.shard_of(task_id)) / _artifact_filename(task_id)

    # -- read/write ---------------------------------------------------------

    def put(self, artifact: WrapperArtifact) -> pathlib.Path:
        """Persist atomically through :func:`_write_atomic`: a crash
        mid-write leaves no trace; readers see either the old generation
        or the new one."""
        final = self.path_of(artifact.task_id)
        mtime = _write_atomic(final, artifact.dumps() + "\n")
        self._remember(artifact.task_id, artifact, mtime)
        return final

    def get(self, task_id: str) -> WrapperArtifact:
        """Load one artifact, through the mtime-validated LRU.

        Raises :class:`KeyError` when absent and
        :class:`~repro.runtime.artifact.ArtifactError` when corrupt.
        """
        path = self.path_of(task_id)
        try:
            mtime = os.stat(path).st_mtime_ns
        except FileNotFoundError:
            with self._lock:
                self._cache.pop(task_id, None)
            raise KeyError(task_id) from None
        with self._lock:
            cached = self._cache.get(task_id)
            if cached is not None and cached[0] == mtime:
                self._hits += 1
                self._cache.move_to_end(task_id)
                return cached[1]
            self._misses += 1
        artifact = WrapperArtifact.loads(path.read_text(encoding="utf-8"))
        self._remember(task_id, artifact, mtime)
        return artifact

    def remove(self, task_id: str) -> None:
        with self._lock:
            self._cache.pop(task_id, None)
        try:
            os.unlink(self.path_of(task_id))
        except FileNotFoundError:
            raise KeyError(task_id) from None

    def _remember(self, task_id: str, artifact: WrapperArtifact, mtime: int) -> None:
        with self._lock:
            self._cache[task_id] = (mtime, artifact)
            self._cache.move_to_end(task_id)
            while len(self._cache) > ARTIFACT_CACHE_SIZE:
                self._cache.popitem(last=False)
                self._evictions += 1

    def cache_info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._cache),
                capacity=ARTIFACT_CACHE_SIZE,
            )

    # -- enumeration --------------------------------------------------------

    def shard_task_ids(self, index: int) -> list[str]:
        """Task ids stored in one shard, sorted for determinism."""
        shard = self._shard_dir(index)
        if not shard.is_dir():
            raise StoreError(f"missing shard directory {shard}")
        return sorted(_task_id_of(path) for path in shard.glob("*.json"))

    def task_ids(self) -> list[str]:
        out: list[str] = []
        for index in range(self.n_shards):
            out.extend(self.shard_task_ids(index))
        return sorted(out)

    def scan(self) -> Iterator[WrapperArtifact]:
        """Iterate every stored artifact (shard by shard, sorted ids)."""
        for index in range(self.n_shards):
            for task_id in self.shard_task_ids(index):
                yield self.get(task_id)

    def __len__(self) -> int:
        return len(self.task_ids())

    def __contains__(self, task_id: str) -> bool:
        return self.path_of(task_id).exists()

    # -- drift-report streams ----------------------------------------------

    def reports_path(self, task_id: str) -> pathlib.Path:
        shard = self._shard_dir(self.shard_of(task_id))
        return shard / "reports" / (_artifact_filename(task_id) + "l")  # .jsonl

    def append_reports(self, task_id: str, reports: Iterable[dict]) -> pathlib.Path:
        """Append drift-report dicts to the wrapper's JSONL stream.

        Appends are the durability model here: report lines are an
        ever-growing telemetry stream (drift lead-time studies read the
        whole history), and each line is written in one ``write`` call of
        a line-buffered append handle, so concurrent sweeps of *other*
        wrappers never interleave into this stream (shard ownership
        keeps two sweeps off the same wrapper).
        """
        path = self.reports_path(task_id)
        path.parent.mkdir(exist_ok=True)
        with open(path, "a", encoding="utf-8") as handle:
            for report in reports:
                handle.write(json.dumps(report, sort_keys=True) + "\n")
        return path

    def read_reports(self, task_id: str) -> list[dict]:
        path = self.reports_path(task_id)
        if not path.exists():
            return []
        lines = path.read_text().splitlines()
        return [json.loads(line) for line in lines if line.strip()]

    def report_paths(self) -> list[pathlib.Path]:
        """Every report stream in the store (for artifact upload jobs)."""
        return sorted(self.root.glob("shard-*/reports/*.jsonl"))


@dataclass(frozen=True)
class MigrationMove:
    """One artifact's placement across a migration."""

    task_id: str
    src_shard: int
    dest_shard: int

    @property
    def moved(self) -> bool:
        return self.src_shard != self.dest_shard


@dataclass(frozen=True)
class MigrationPlan:
    """What ``migrate_store`` did (or, with ``dry_run``, would do)."""

    src_root: pathlib.Path
    dest_root: pathlib.Path
    src_shards: int
    dest_shards: int
    src_epoch: int
    dest_epoch: int
    moves: tuple[MigrationMove, ...]
    report_streams: int
    dry_run: bool

    @property
    def n_moved(self) -> int:
        return sum(1 for move in self.moves if move.moved)


def migrate_store(
    src: str | os.PathLike,
    dest: str | os.PathLike,
    n_shards: Optional[int] = None,
    epoch: Optional[int] = None,
    dry_run: bool = False,
) -> MigrationPlan:
    """Re-shard a store into a new root at the next epoch.

    Every artifact is re-placed under ``n_shards`` (default: the source
    count — a pure epoch bump) and published into ``dest`` with the
    store's one writer (:func:`_write_atomic`), so the cut-over is
    **atomic per artifact**: a crash mid-migration leaves a prefix of
    fully-published artifacts and zero torn ones, and re-running the
    same migration resumes idempotently (an existing destination store
    is reopened when its recorded shape matches).  Drift-report streams
    ride along through the same writer, whole, so a resume never
    duplicates telemetry lines.  Corrupt source artifacts raise — a
    migration must not silently drop wrappers.

    ``epoch`` defaults to ``src.epoch + 1`` and must advance: the epoch
    is what lets serving hosts and routers tell the old placement from
    the new one during the cut-over.  ``dry_run`` computes and returns
    the full move plan without creating or writing anything.
    """
    if not ShardedArtifactStore.is_store(src):
        raise StoreError(f"{src} is not a sharded artifact store")
    source = ShardedArtifactStore(src)
    dest_root = pathlib.Path(dest)
    if dest_root.resolve() == source.root.resolve():
        raise StoreError(
            "cannot migrate a store onto itself — re-sharding cuts over "
            "into a fresh root, then traffic moves at the new epoch"
        )
    dest_shards = source.n_shards if n_shards is None else int(n_shards)
    if dest_shards < 1:
        raise StoreError("a store needs at least one shard")
    dest_epoch = source.epoch + 1 if epoch is None else int(epoch)
    if dest_epoch <= source.epoch:
        raise StoreError(
            f"migration epoch {dest_epoch} does not advance the source "
            f"epoch {source.epoch} — epochs order placements; stale clients "
            "must be able to tell old from new"
        )

    task_ids = source.task_ids()
    moves = tuple(
        MigrationMove(
            task_id=task_id,
            src_shard=source.shard_of(task_id),
            dest_shard=shard_index(site_key_of(task_id), dest_shards),
        )
        for task_id in task_ids
    )
    streams = sum(1 for task_id in task_ids if source.reports_path(task_id).exists())
    plan = MigrationPlan(
        src_root=source.root,
        dest_root=dest_root,
        src_shards=source.n_shards,
        dest_shards=dest_shards,
        src_epoch=source.epoch,
        dest_epoch=dest_epoch,
        moves=moves,
        report_streams=streams,
        dry_run=dry_run,
    )
    if dry_run:
        return plan

    dest_store = ShardedArtifactStore(dest_root, n_shards=dest_shards, epoch=dest_epoch)
    for task_id in task_ids:
        try:
            artifact = source.get(task_id)
        except ArtifactError as exc:
            raise StoreError(f"cannot migrate {task_id!r}: {exc}") from exc
        dest_store.put(artifact)
        src_reports = source.reports_path(task_id)
        if src_reports.exists():
            dest_reports = dest_store.reports_path(task_id)
            dest_reports.parent.mkdir(exist_ok=True)
            _write_atomic(dest_reports, src_reports.read_text(encoding="utf-8"))
    missing = [task_id for task_id in task_ids if task_id not in dest_store]
    if missing:  # pragma: no cover - put() raising is the expected path
        raise StoreError(f"migration lost {len(missing)} artifact(s): {missing[:3]}")
    return plan


__all__ = [
    "ARTIFACT_CACHE_SIZE",
    "CacheInfo",
    "DEFAULT_SHARDS",
    "MigrationMove",
    "MigrationPlan",
    "STORE_META",
    "STORE_VERSION",
    "ShardedArtifactStore",
    "StoreError",
    "migrate_store",
    "shard_index",
    "site_key_of",
]
