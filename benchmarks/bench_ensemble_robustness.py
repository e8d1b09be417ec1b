"""Extension bench — multiple independent wrappers (Sec. 7, item 4).

The paper's closing direction: a single wrapper's robustness is bounded,
so induce several wrappers using *independent* selection features and
vote.  This bench replays the single-node archive study with a
3-member feature-diverse ensemble against the top-1 wrapper.
"""

from conftest import scale

from repro.evolution import SyntheticArchive
from repro.experiments.reporting import banner, format_table
from repro.induction import WrapperInducer
from repro.induction.ensemble import build_ensemble
from repro.metrics.robustness import same_result_set
from repro.sites import single_node_tasks


def survival_days(select, archive, role, n_snapshots):
    for index in range(1, n_snapshots):
        if archive.is_broken(index):
            return archive.day(index - 1)
        doc = archive.snapshot(index)
        truth = archive.targets(doc, role)
        if not truth:
            return archive.day(index - 1)
        if not same_result_set(select(doc), truth):
            return archive.day(index - 1)
    return archive.day(n_snapshots - 1)


def run(tasks, n_snapshots=90):
    inducer = WrapperInducer()
    single_days, ensemble_days = [], []
    for corpus_task in tasks:
        archive = SyntheticArchive(corpus_task.spec, n_snapshots=n_snapshots)
        doc0 = archive.snapshot(0)
        targets = archive.targets(doc0, corpus_task.task.role)
        result = inducer.induce_one(doc0, targets)
        if result.best is None:
            continue
        top1 = result.best.query
        ensemble = build_ensemble(result, size=3)
        from repro.xpath.evaluator import evaluate

        single_days.append(
            survival_days(
                lambda d, q=top1: evaluate(q, d.root, d), archive,
                corpus_task.task.role, n_snapshots,
            )
        )
        ensemble_days.append(
            survival_days(ensemble.select, archive, corpus_task.task.role, n_snapshots)
        )
    return single_days, ensemble_days


def test_ensemble_vs_single_wrapper(benchmark, emit):
    tasks = single_node_tasks(limit=scale(12, 40))
    single_days, ensemble_days = benchmark.pedantic(
        lambda: run(tasks), rounds=1, iterations=1
    )

    def avg(values):
        return sum(values) / len(values) if values else 0.0

    report = [
        banner("Extension: 3-member feature-diverse ensembles vs top-1 wrapper"),
        format_table(
            ["wrapper", "n", "mean survival days"],
            [
                ["top-1 single", len(single_days), f"{avg(single_days):.0f}"],
                ["ensemble (vote)", len(ensemble_days), f"{avg(ensemble_days):.0f}"],
            ],
        ),
    ]
    emit("ensemble_robustness", "\n".join(report))

    # The committee should not be less robust than its top member on average.
    assert avg(ensemble_days) >= avg(single_days) * 0.75
