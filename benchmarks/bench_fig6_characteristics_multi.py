"""Figure 6 — node tests and predicates of multi-target queries.

The paper's multi-node expressions are longer (34 of 50 use two steps),
lean on list markup (ul/td/li), and — unlike single-node queries —
need sibling axes to pick the right subset of siblings.
"""

from conftest import scale

from repro.evolution import SyntheticArchive
from repro.experiments.characteristics import analyze_queries, top_labels
from repro.experiments.reporting import banner, format_table
from repro.induction import WrapperInducer
from repro.sites import multi_node_tasks


def induce_top1_queries(tasks):
    inducer = WrapperInducer()
    queries = []
    for corpus_task in tasks:
        archive = SyntheticArchive(corpus_task.spec, n_snapshots=1)
        doc = archive.snapshot(0)
        targets = archive.targets(doc, corpus_task.task.role)
        result = inducer.induce_one(doc, targets)
        if result.best is not None:
            queries.append(result.best.query)
    return queries


def test_fig6_multi_target_characteristics(benchmark, emit):
    tasks = multi_node_tasks(limit=scale(16, None))
    queries = benchmark.pedantic(
        lambda: induce_top1_queries(tasks), rounds=1, iterations=1
    )
    stats = analyze_queries(queries)

    lines = [banner("Figure 6: nodetests/predicates of multi-target queries")]
    lines.append(
        f"queries={stats.n_queries}  steps={stats.total_steps}  "
        f"step counts={dict(sorted(stats.step_count_distribution.items()))}"
    )
    lines.append(
        format_table(["nodetest", "count"], top_labels(stats.nodetest_totals(), limit=9))
    )
    lines.append(
        format_table(["predicate", "count"], top_labels(stats.predicate_totals(), limit=9))
    )
    lines.append(f"axis usage: {dict(stats.axis_usage.most_common())}")
    emit("fig6_characteristics_multi", "\n".join(lines))

    # Paper shape: sibling axes appear in multi-target wrappers.
    sibling_steps = stats.axis_usage.get("following-sibling", 0) + stats.axis_usage.get(
        "preceding-sibling", 0
    )
    assert sibling_steps >= 1
    assert stats.step_count_distribution.get(2, 0) + stats.step_count_distribution.get(
        3, 0
    ) >= stats.step_count_distribution.get(1, 0)
