"""Ablation — the selectivity penalties (Sec. 4).

The no-predicate (1000) and no-function (15) penalties bias induction
toward selective predicates.  Dropping them lets bare positional or
generic-test wrappers win the ranking; this ablation measures the
robustness cost.
"""

from dataclasses import replace

from conftest import scale

from repro.experiments.reporting import banner, format_table
from repro.experiments.robustness_study import run_study
from repro.induction import WrapperInducer
from repro.scoring import ScoringParams
from repro.sites import single_node_tasks

VARIANTS = {
    "paper (1000 / 15)": {},
    "no penalties": {"no_predicate_penalty": 0.0, "no_function_penalty": 0.0},
    "per-step penalty": {"no_predicate_penalty_scope": "step"},
}


def test_ablation_penalties(benchmark, emit):
    tasks = single_node_tasks(limit=scale(8, 30))

    def sweep():
        out = {}
        for label, overrides in VARIANTS.items():
            params = replace(ScoringParams(), **overrides)
            study = run_study(
                tasks, n_snapshots=60, inducer=WrapperInducer(params=params)
            )
            out[label] = study.summary("generated")
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [
        [label, f"{s['median_days']:.0f}", f"{s['mean_days']:.0f}", s["full_period"]]
        for label, s in results.items()
    ]
    report = [
        banner("Ablation: selectivity penalties"),
        format_table(["variant", "median days", "mean days", "full period"], rows),
    ]
    emit("ablation_penalties", "\n".join(report))

    assert set(results) == set(VARIANTS)
