"""The ``python -m repro.runtime`` CLI: induce → extract → check →
serve → sweep, including the documented exit codes."""

import json

import pytest

from repro.runtime.cli import EXIT_DRIFT, EXIT_OK, main


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    assert main(["induce", "--out", str(out), "--limit", "3"]) == 0
    return out


def test_main_module_import_is_side_effect_free():
    """Spawn-started pool workers re-import the parent's main module;
    ``repro.runtime.__main__`` must not run the CLI on bare import
    (only under ``__name__ == "__main__"``)."""
    import importlib
    import sys

    sys.modules.pop("repro.runtime.__main__", None)
    importlib.import_module("repro.runtime.__main__")  # must not SystemExit


class TestInduce:
    def test_writes_one_artifact_per_task(self, artifact_dir):
        assert len(list(artifact_dir.glob("*.json"))) == 3

    def test_artifacts_are_loadable(self, artifact_dir):
        from repro.runtime import WrapperArtifact

        for path in artifact_dir.glob("*.json"):
            artifact = WrapperArtifact.load(path)
            assert artifact.queries and artifact.samples

    def test_specific_task_selection(self, tmp_path, capsys):
        out = tmp_path / "one"
        assert main(["induce", "--out", str(out), "--task", "movies-0/director"]) == 0
        assert [p.name for p in out.glob("*.json")] == ["movies-0__director.json"]
        assert "movies-0/director" in capsys.readouterr().out

    def test_unknown_task_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["induce", "--out", str(tmp_path), "--task", "no-such/task"])


class TestExtract:
    def test_extracts_against_later_snapshot(self, artifact_dir, tmp_path, capsys):
        records_path = tmp_path / "records.json"
        rc = main(
            [
                "extract",
                "--artifacts",
                str(artifact_dir),
                "--snapshot",
                "1",
                "--workers",
                "2",
                "--json",
                str(records_path),
            ]
        )
        assert rc == 0
        records = json.loads(records_path.read_text())
        assert records
        assert {"page_id", "wrapper_id", "paths", "values"} <= records[0].keys()
        assert "(wrapper, page) pairs" in capsys.readouterr().out

    def test_empty_artifact_dir_fails(self, tmp_path):
        with pytest.raises(SystemExit, match="no artifacts"):
            main(["extract", "--artifacts", str(tmp_path / "nothing_here")])


class TestCheck:
    def test_healthy_fleet_exits_zero(self, artifact_dir, capsys):
        rc = main(
            ["check", "--artifacts", str(artifact_dir), "--snapshots", "6", "--repair"]
        )
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "wrappers checked over 5 snapshots" in out

    def test_drifting_wrapper_is_repaired_and_exits_nonzero(self, tmp_path, capsys):
        out_dir = tmp_path / "weather"
        repaired_dir = tmp_path / "repaired"
        assert main(["induce", "--out", str(out_dir), "--task", "weather-1/temp"]) == 0
        rc = main(
            [
                "check",
                "--artifacts",
                str(out_dir),
                "--snapshots",
                "16",
                "--repair",
                "--out",
                str(repaired_dir),
            ]
        )
        # Drift was detected: CI gates on a non-zero exit even though
        # the repair succeeded (exit 1 = drift, 3 = failed repairs).
        assert rc == EXIT_DRIFT
        output = capsys.readouterr().out
        assert "DRIFT weather-1/temp" in output
        assert "repaired (gen 1)" in output
        from repro.runtime import WrapperArtifact

        (path,) = repaired_dir.glob("*.json")
        assert WrapperArtifact.load(path).generation == 1


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-store") / "store"
    rc = main(
        [
            "induce",
            "--store",
            str(root),
            "--shards",
            "4",
            "--task",
            "academic-0/scholar",
            "--task",
            "weather-1/temp",
        ]
    )
    assert rc == 0
    return root


class TestStoreWorkflow:
    def test_induce_populates_shards(self, store_dir):
        from repro.runtime import ShardedArtifactStore

        store = ShardedArtifactStore(store_dir)
        assert store.task_ids() == ["academic-0/scholar", "weather-1/temp"]

    def test_extract_reads_store_layout(self, store_dir, capsys):
        rc = main(["extract", "--artifacts", str(store_dir), "--snapshot", "1"])
        assert rc == 0
        assert "(wrapper, page) pairs" in capsys.readouterr().out

    def test_reopen_existing_store_without_shards_flag(self, tmp_path):
        """Appending to an existing store must not require re-passing
        the original --shards (the store records its shard count)."""
        root = tmp_path / "s"
        assert (
            main(
                ["induce", "--store", str(root), "--shards", "4",
                 "--task", "academic-0/scholar"]
            )
            == 0
        )
        assert (
            main(["induce", "--store", str(root), "--task", "academic-1/scholar"])
            == 0
        )
        from repro.runtime import ShardedArtifactStore

        store = ShardedArtifactStore(root)
        assert store.n_shards == 4
        assert len(store.task_ids()) == 2

    def test_conflicting_shards_flag_is_a_clean_error(self, tmp_path):
        root = tmp_path / "s2"
        assert (
            main(
                ["induce", "--store", str(root), "--shards", "4",
                 "--task", "academic-0/scholar"]
            )
            == 0
        )
        with pytest.raises(SystemExit, match="re-sharding"):
            main(
                ["induce", "--store", str(root), "--shards", "8",
                 "--task", "academic-1/scholar"]
            )

    def test_out_and_store_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "induce",
                    "--out",
                    str(tmp_path),
                    "--store",
                    str(tmp_path),
                    "--limit",
                    "1",
                ]
            )


class TestServe:
    def test_serves_request_stream_with_stats(self, store_dir, tmp_path, capsys):
        stats_path = tmp_path / "serve.json"
        rc = main(
            [
                "serve",
                "--artifacts",
                str(store_dir),
                "--snapshot",
                "1",
                "--concurrency",
                "4",
                "--json",
                str(stats_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "requests over" in out and "requests/s" in out
        stats = json.loads(stats_path.read_text())
        assert stats["stats"]["requests"] == stats["requests"]
        assert stats["stats"]["coalesced_requests"] > 0

    def test_workers_flag_is_gone(self, store_dir):
        """Serving runs on one thread; the process mode and its flag
        were removed."""
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--artifacts", str(store_dir), "--workers", "2"])
        assert exit_info.value.code == 2


class TestServeListen:
    def test_parse_listen_accepts_host_port(self):
        from repro.runtime.cli import _parse_listen

        assert _parse_listen("127.0.0.1:8080") == ("127.0.0.1", 8080)
        assert _parse_listen("0.0.0.0:0") == ("0.0.0.0", 0)
        for bad in ("8080", "host:", "host:notaport", ":1"):
            with pytest.raises(SystemExit):
                _parse_listen(bad)

    def test_client_for_listen_backends(self, store_dir, artifact_dir, tmp_path):
        from repro.runtime.cli import _client_for_listen

        fresh = _client_for_listen(None)
        assert fresh.store is None and len(fresh) == 0

        store_backed = _client_for_listen(str(store_dir))
        assert store_backed.store is not None
        assert "weather-1/temp" in store_backed

        preloaded = _client_for_listen(str(artifact_dir))
        assert preloaded.store is None and len(preloaded) == 3

        created = _client_for_listen(str(tmp_path / "new-store"))
        assert created.store is not None and len(created) == 0

    def test_serve_without_artifacts_or_listen_fails(self):
        with pytest.raises(SystemExit, match="--artifacts"):
            main(["serve"])


class TestSweep:
    def test_sweep_detects_drift_and_gates(self, store_dir, capsys):
        rc = main(["sweep", "--store", str(store_dir), "--snapshots", "10"])
        assert rc == EXIT_DRIFT
        out = capsys.readouterr().out
        assert "DRIFT weather-1/temp" in out
        assert "repaired x1" in out

    def test_fail_on_repair_tolerates_repaired_drift(self, store_dir):
        rc = main(
            [
                "sweep",
                "--store",
                str(store_dir),
                "--snapshots",
                "10",
                "--fail-on",
                "repair",
            ]
        )
        assert rc == EXIT_OK

    def test_sweep_requires_a_store(self, tmp_path):
        with pytest.raises(SystemExit, match="not a sharded artifact store"):
            main(["sweep", "--store", str(tmp_path)])
