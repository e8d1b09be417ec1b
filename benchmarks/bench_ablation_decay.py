"""Ablation — the decay factor δ (Sec. 6.3).

The paper fixed δ = 2.5 after sweeping 0.5–5: the decay favors putting
expensive, discriminative anchors *early* (far from the target).  This
ablation repeats the sweep and reports robustness of the top-1 wrapper.
"""

from dataclasses import replace

from conftest import scale

from repro.experiments.reporting import banner, format_table
from repro.experiments.robustness_study import run_study
from repro.induction import WrapperInducer
from repro.scoring import ScoringParams
from repro.sites import single_node_tasks

DELTAS = [0.5, 1.0, 2.5, 5.0]


def test_ablation_decay_factor(benchmark, emit):
    tasks = single_node_tasks(limit=scale(8, 30))

    def sweep():
        rows = {}
        for delta in DELTAS:
            inducer = WrapperInducer(params=replace(ScoringParams(), decay=delta))
            study = run_study(tasks, n_snapshots=60, inducer=inducer)
            rows[delta] = study.summary("generated")
        return rows

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [
        [
            delta,
            f"{summary['median_days']:.0f}",
            f"{summary['mean_days']:.0f}",
            summary["full_period"],
        ]
        for delta, summary in results.items()
    ]
    report = [
        banner("Ablation: decay factor delta (paper default 2.5)"),
        format_table(["delta", "median days", "mean days", "full period"], rows),
    ]
    emit("ablation_decay", "\n".join(report))

    assert set(results) == set(DELTAS)
