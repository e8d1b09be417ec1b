"""The ``python -m repro.runtime`` CLI: induce → extract → check →
serve → sweep, including the documented exit codes."""

import json

import pytest

from repro.runtime.cli import EXIT_DRIFT, EXIT_OK, main


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    assert main(["induce", "--store", str(out), "--limit", "3"]) == 0
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
        assert len(list(artifact_dir.glob("shard-*/*.json"))) == 3

    def test_artifacts_are_loadable(self, artifact_dir):
        from repro.runtime import ShardedArtifactStore

        for artifact in ShardedArtifactStore(artifact_dir).scan():
            assert artifact.queries and artifact.samples

    def test_specific_task_selection(self, tmp_path, capsys):
        out = tmp_path / "one"
        assert main(["induce", "--store", str(out), "--task", "movies-0/director"]) == 0
        assert [p.name for p in out.glob("shard-*/*.json")] == ["movies-0__director.json"]
        assert "movies-0/director" in capsys.readouterr().out

    def test_unknown_task_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["induce", "--store", str(tmp_path), "--task", "no-such/task"])

    def test_k_above_its_bound_exits_2_before_writing(self, tmp_path, capsys):
        out = tmp_path / "store"
        with pytest.raises(SystemExit) as exit_info:
            main(["induce", "--store", str(out), "--k", "65", "--limit", "1"])
        assert exit_info.value.code == 2
        assert "k must be an integer from 1 to 64, got 65" in capsys.readouterr().err
        assert not out.exists()


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
                "--json",
                str(records_path),
            ]
        )
        assert rc == 0
        records = json.loads(records_path.read_text())
        assert records
        assert {"page_id", "wrapper_id", "paths", "values"} <= records[0].keys()
        assert "(wrapper, page) pairs" in capsys.readouterr().out

    def test_empty_artifact_dir_fails(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["extract", "--artifacts", str(tmp_path / "nothing_here")])
        assert exit_info.value.code == 2
        assert "not a sharded artifact store" in capsys.readouterr().err

    def test_directory_of_artifact_files_is_not_a_store(self, artifact_dir, tmp_path, capsys):
        """A directory of bare ``*.json`` artifacts (no ``store.json``)
        is refused by every command, and left as it was."""
        loose = tmp_path / "loose"
        loose.mkdir()
        for path in artifact_dir.glob("shard-*/*.json"):
            (loose / path.name).write_bytes(path.read_bytes())
        before = sorted(p.name for p in loose.iterdir())
        for argv in (
            ["extract", "--artifacts", str(loose)],
            ["check", "--artifacts", str(loose), "--snapshots", "2"],
            ["serve", "--listen", "127.0.0.1:0", "--artifacts", str(loose)],
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            assert "not a sharded artifact store" in capsys.readouterr().err
        assert sorted(p.name for p in loose.iterdir()) == before


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
        assert main(
            ["induce", "--store", str(out_dir), "--shards", "4", "--task", "weather-1/temp"]
        ) == 0
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
        from repro.runtime import ShardedArtifactStore

        # The repaired generation lands in a store of the input's shape,
        # which the reading commands take like any other.
        repaired = ShardedArtifactStore(repaired_dir)
        assert repaired.n_shards == 4
        assert repaired.get("weather-1/temp").generation == 1
        assert main(["extract", "--artifacts", str(repaired_dir), "--snapshot", "15"]) == 0
        assert "weather-1/temp: 1 node(s)" in capsys.readouterr().out


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

    def test_conflicting_shards_flag_is_a_clean_error(self, tmp_path, capsys):
        root = tmp_path / "s2"
        assert (
            main(
                ["induce", "--store", str(root), "--shards", "4",
                 "--task", "academic-0/scholar"]
            )
            == 0
        )
        with pytest.raises(SystemExit) as exit_info:
            main(
                ["induce", "--store", str(root), "--shards", "8",
                 "--task", "academic-1/scholar"]
            )
        assert exit_info.value.code == 2
        assert "re-sharding" in capsys.readouterr().err


class TestServe:
    def test_workers_flag_is_gone(self, store_dir, capsys):
        """Serving runs on one thread with no per-site limits; the
        process mode, the per-site semaphores and their flags were
        removed."""
        for flag in ("--workers", "--per-site-limit"):
            with pytest.raises(SystemExit) as exit_info:
                main(
                    ["serve", "--listen", "127.0.0.1:0", "--artifacts",
                     str(store_dir), flag, "2"]
                )
            assert exit_info.value.code == 2
            assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


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

        created = _client_for_listen(str(tmp_path / "new-store"))
        assert created.store is not None and len(created) == 0

    def test_serve_without_artifacts_or_listen_fails(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve"])
        assert exit_info.value.code == 2
        assert "required: --listen" in capsys.readouterr().err


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

    def test_sweep_requires_a_store(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--store", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "not a sharded artifact store" in capsys.readouterr().err


#: Usage and setup errors, each with the message it must print: exit 2
#: before any work, never a traceback, a silently wrong run, or the
#: drift exit code 1.
BAD_INVOCATIONS = [
    (["sweep", "--store", "{tmp}", "--snapshots", "1"], "--snapshots: must be >= 2"),
    (["sweep", "--store", "{tmp}", "--workers", "0"], "--workers: must be >= 1"),
    (["check", "--artifacts", "{tmp}", "--snapshots", "0"], "--snapshots: must be >= 2"),
    (["check", "--artifacts", "{tmp}", "--snapshots", "1"], "--snapshots: must be >= 2"),
    (["extract", "--artifacts", "{tmp}", "--workers", "0"], "unrecognized arguments: --workers 0"),
    (["extract", "--artifacts", "{tmp}", "--snapshot", "-1"], "--snapshot: must be >= 0"),
    (["serve", "--listen", "127.0.0.1:0", "--max-pending", "0"], "--max-pending: must be >= 1"),
    (["serve", "--artifacts", "{tmp}", "--concurrency", "0"], "required: --listen"),
    (["serve", "--listen", "127.0.0.1:0", "--epoch", "-1"], "--epoch: must be >= 0"),
    # The stream replay and its flags are gone: serve always listens.
    (["serve", "--listen", "127.0.0.1:0", "--snapshot", "3"], "unrecognized arguments: --snapshot 3"),
    (["serve", "--listen", "127.0.0.1:0", "--concurrency", "99"], "unrecognized arguments: --concurrency 99"),
    (["serve", "--listen", "127.0.0.1:0", "--no-ensemble"], "unrecognized arguments: --no-ensemble"),
    (["serve", "--listen", "127.0.0.1:0", "--json", "{tmp}/x.json"], "unrecognized arguments: --json"),
    (["induce", "--store", "{tmp}", "--k", "0"], "--k: must be >= 1"),
    (["induce", "--store", "{tmp}", "--limit", "-1"], "--limit: must be >= 1"),
    (["induce", "--store", "{tmp}", "--ensemble-size", "0"], "--ensemble-size: must be >= 1"),
    (["induce", "--store", "{tmp}", "--k", "ten"], "--k: invalid int value: 'ten'"),
    # A store is the only output: the directory of loose files is gone.
    (["induce", "--store", "{tmp}/s", "--out", "{tmp}"], "unrecognized arguments: --out"),
    (["migrate", "--store", "{tmp}", "--dest", "{tmp}", "--shards", "0"], "--shards: must be >= 1"),
    (["check", "--artifacts", "{tmp}"], "not a sharded artifact store"),
]


@pytest.mark.parametrize(
    "argv, message",
    BAD_INVOCATIONS,
    ids=[" ".join(argv[:1] + argv[-2:]) for argv, _ in BAD_INVOCATIONS],
)
def test_usage_and_setup_errors_exit_2(argv, message, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([arg.format(tmp=tmp_path) for arg in argv])
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())  # nothing was written
