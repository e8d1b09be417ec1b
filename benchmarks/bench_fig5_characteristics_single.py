"""Figure 5 — node tests and predicates of single-target queries.

The paper tabulates, over the 53 induced single-node expressions, the
step-count distribution (34 one-step, 19 two-step), the node tests per
step (div dominating), and the predicate kinds (id, class, positional
leading; text rare).
"""

from conftest import scale

from repro.evolution import SyntheticArchive
from repro.experiments.characteristics import analyze_queries, top_labels
from repro.experiments.reporting import banner, format_table
from repro.induction import WrapperInducer
from repro.sites import single_node_tasks


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


def test_fig5_single_target_characteristics(benchmark, emit):
    tasks = single_node_tasks(limit=scale(24, None))
    queries = benchmark.pedantic(
        lambda: induce_top1_queries(tasks), rounds=1, iterations=1
    )
    stats = analyze_queries(queries)

    lines = [banner("Figure 5: nodetests/predicates of single-target queries")]
    lines.append(
        f"queries={stats.n_queries}  steps={stats.total_steps}  "
        f"step counts={dict(sorted(stats.step_count_distribution.items()))}"
    )
    lines.append(
        format_table(
            ["nodetest", "count"], top_labels(stats.nodetest_totals(), limit=9)
        )
    )
    lines.append(
        format_table(
            ["predicate", "count"], top_labels(stats.predicate_totals(), limit=9)
        )
    )
    lines.append(f"axis usage: {dict(stats.axis_usage.most_common())}")
    emit("fig5_characteristics_single", "\n".join(lines))

    # Paper shape: single-node queries are short (1–2 steps dominate).
    short = stats.step_count_distribution[1] + stats.step_count_distribution[2]
    assert short >= 0.8 * stats.n_queries
    assert stats.axis_usage.get("descendant", 0) >= 0.7 * stats.total_steps
