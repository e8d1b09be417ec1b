"""Ablation — sideways checks (Sec. 6.3).

"To identify the correct subset of siblings belonging to our target
list ... robustly matching lists require sibling anchors."  Disabling
sideways generation should cost accuracy (and robustness) on the
multi-target dataset.
"""

from dataclasses import replace

from conftest import scale

from repro.evolution import SyntheticArchive
from repro.experiments.reporting import banner, format_table
from repro.induction import InductionConfig, WrapperInducer
from repro.metrics.robustness import wrapper_matches_targets
from repro.sites import multi_node_tasks


def accuracy_with(tasks, enable_sideways):
    config = replace(InductionConfig(), enable_sideways=enable_sideways)
    inducer = WrapperInducer(config)
    exact = 0
    for corpus_task in tasks:
        archive = SyntheticArchive(corpus_task.spec, n_snapshots=1)
        doc = archive.snapshot(0)
        targets = archive.targets(doc, corpus_task.task.role)
        result = inducer.induce_one(doc, targets)
        if result.best is not None and wrapper_matches_targets(
            result.best.query, doc, targets
        ):
            exact += 1
    return exact / len(tasks)


def test_ablation_sideways_checks(benchmark, emit):
    tasks = multi_node_tasks(limit=scale(14, None))

    def run():
        return {
            "with sideways": accuracy_with(tasks, True),
            "without sideways": accuracy_with(tasks, False),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    report = [
        banner("Ablation: sideways checks on the multi-target dataset"),
        format_table(
            ["variant", "top-1 exact accuracy"],
            [[k, f"{v:.0%}"] for k, v in results.items()],
        ),
    ]
    emit("ablation_sideways", "\n".join(report))

    assert results["with sideways"] >= results["without sideways"]
