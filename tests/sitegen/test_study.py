"""The lead-time study harness and its CLI, at smoke scale."""

import json

import pytest

from repro.runtime.drift import DriftConfig
from repro.sitegen import (
    FamilySpec,
    StudyConfig,
    bench_payload,
    run_family_payload,
    run_family_study,
    write_bench,
)
from repro.sitegen.breaks import BreakPoint, BreakScript
from repro.sitegen.cli import main

N_SNAPSHOTS = 8
BREAK_AT = 4


@pytest.fixture(scope="module")
def study():
    spec = FamilySpec(
        family_id="st-movies",
        vertical="movies",
        n_sites=1,
        breaks=(BreakScript(points=(BreakPoint(BREAK_AT, "wrap_div", "cast"),)),),
    )
    return run_family_study(spec, StudyConfig(n_snapshots=N_SNAPSHOTS))


class TestFamilyStudy:
    def test_every_break_observed_per_task(self, study):
        assert len(study.observations) == study.n_tasks - len(study.skips)
        assert {o.break_at for o in study.observations} == {BREAK_AT}

    def test_no_false_healthy_at_break(self, study):
        """The acceptance property: the page verifiably changed at the
        break snapshot, so no verdict there may read healthy."""
        assert study.false_healthy == 0
        for o in study.observations:
            assert o.healthy_at_break is False
            assert o.signals_at_break

    def test_breaks_detected_with_zero_lead(self, study):
        assert study.all_detected
        for o in study.observations:
            assert o.signal_lead == 0
            assert o.detected

    def test_calm_prefix_has_no_false_alarms(self, study):
        for o in study.observations:
            assert o.false_alarms_before == 0

    def test_paranoid_default_repairs_at_the_break(self, study):
        assert study.repairs, "paranoid detector must trigger the repair arm"
        for repair in study.repairs:
            assert repair.snapshot == BREAK_AT
            assert repair.repair_ok
            assert repair.policy in ("ensemble_vote", "re_annotation")
            if repair.policy == "ensemble_vote":
                assert repair.annotation_cost == 0
            assert repair.manual_cost >= 1

    def test_soft_detector_lets_wrappers_survive(self):
        spec = FamilySpec(
            family_id="st-movies",
            vertical="movies",
            n_sites=1,
            breaks=(BreakScript(points=(BreakPoint(BREAK_AT, "wrap_div", "cast"),)),),
        )
        soft = run_family_study(
            spec,
            StudyConfig(
                n_snapshots=N_SNAPSHOTS,
                drift=DriftConfig(canonical_change_is_hard=False),
            ),
        )
        # Detection is detector-independent (the c-change signal still
        # fires) but under the serving default a robust wrapper absorbs
        # the structural change instead of triggering a repair.
        assert soft.false_healthy == 0
        assert soft.all_detected
        assert not soft.repairs

    def test_records_are_jsonl_ready(self, study):
        records = study.records()
        kinds = {r["type"] for r in records}
        assert "break" in kinds and "family_summary" in kinds
        for record in records:
            json.dumps(record)  # every record must serialize as-is
        summary = records[-1]
        assert summary["type"] == "family_summary"
        assert summary["breaks_detected"] == summary["breaks"]
        assert summary["false_healthy_at_break"] == 0

    def test_payload_entry_point_matches_in_process(self, study):
        spec = FamilySpec(
            family_id="st-movies",
            vertical="movies",
            n_sites=1,
            breaks=(BreakScript(points=(BreakPoint(BREAK_AT, "wrap_div", "cast"),)),),
        )
        result = run_family_payload(spec.to_payload(), N_SNAPSHOTS)
        assert result["family_id"] == "st-movies"
        assert result["records"] == study.records()


class TestCli:
    def test_sweep_exits_zero_and_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "study.jsonl"
        bench = tmp_path / "BENCH_sitegen.json"
        code = main(
            [
                "sweep",
                "--families",
                "2",
                "--snapshots",
                str(N_SNAPSHOTS),
                "--out",
                str(out),
                "--bench",
                str(bench),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "false_healthy_at_break: 0" in stdout
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert any(r["type"] == "break" for r in records)
        assert any(r["type"] == "family_summary" for r in records)
        payload = json.loads(bench.read_text())
        assert payload["throughput"]["pages_per_sec_vs_floor"] > 0

    def test_sweep_no_bench_skips_the_measurement(self, tmp_path):
        out = tmp_path / "study.jsonl"
        code = main(
            [
                "sweep",
                "--families",
                "1",
                "--snapshots",
                str(N_SNAPSHOTS),
                "--out",
                str(out),
                "--no-bench",
            ]
        )
        assert code == 0
        assert out.exists()

    def test_roster_prints_valid_payloads(self, capsys):
        assert main(["roster", "--families", "3"]) == 0
        payloads = json.loads(capsys.readouterr().out)
        assert len(payloads) == 3
        for payload in payloads:
            FamilySpec.from_payload(payload)

    def test_roster_file_round_trips_through_sweep(self, tmp_path, capsys):
        assert main(["roster", "--families", "1", "--snapshots", "6"]) == 0
        roster = tmp_path / "roster.json"
        roster.write_text(capsys.readouterr().out)
        code = main(
            [
                "sweep",
                "--roster",
                str(roster),
                "--snapshots",
                "6",
                "--out",
                str(tmp_path / "s.jsonl"),
                "--no-bench",
            ]
        )
        assert code == 0

    def test_generate_writes_pages(self, tmp_path):
        out = tmp_path / "fleet"
        code = main(
            [
                "generate",
                "--families",
                "1",
                "--snapshots",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        pages = list(out.rglob("snapshot-*.html"))
        assert len(pages) == 4  # 1 family x 2 sites x 2 snapshots
        assert pages[0].read_text().startswith("<")


class TestBenchPayload:
    def test_payload_shape_and_gate(self, tmp_path):
        specs = [FamilySpec(family_id="b-movies", vertical="movies", n_sites=1)]
        payload = bench_payload(specs, n_snapshots=2)
        assert payload["current"]["serial"]["pages"] == 2
        assert set(payload["throughput"]) == {"pages_per_sec_vs_floor"}
        # The one headline is gated on every host: nothing disarms it.
        assert "gate_applies" not in payload
        target = tmp_path / "BENCH_sitegen.json"
        write_bench(target, payload)
        assert json.loads(target.read_text()) == payload
