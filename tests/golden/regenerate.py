"""Regenerate the golden induction corpus (``tests/golden/induction.json``).

Run after any *intentional* change to induction ranking or scoring:

    PYTHONPATH=src python tests/golden/regenerate.py

then review the diff — every changed line is a behavior change the PR
must justify.  The file freezes, for every single-node corpus task, the
canonical text, robustness score, and accuracy counts of the best
induced query at snapshot 0; ``tests/integration/test_golden_corpus.py``
asserts induction reproduces them bit-for-bit.  ``pruned_tasks`` freezes
the same for every golden task (``tasks`` and ``sitegen_tasks``) under
``search="pruned"``.
"""

from __future__ import annotations

import json
import pathlib
import sys

GOLDEN_PATH = pathlib.Path(__file__).parent / "induction.json"


def _freeze_tasks(corpus_tasks, search: str = "exhaustive") -> dict[str, dict]:
    from repro.induction.config import InductionConfig
    from repro.induction.induce import WrapperInducer
    from repro.runtime.corpus import induce_corpus_task

    inducer = WrapperInducer(k=10, config=InductionConfig(search=search))
    entries: dict[str, dict] = {}
    for corpus_task in corpus_tasks:
        induced = induce_corpus_task(corpus_task, inducer)
        if induced is None:
            raise SystemExit(f"{corpus_task.task_id}: no targets at snapshot 0")
        best = induced[0].best
        if best is None:
            raise SystemExit(f"{corpus_task.task_id}: induction produced no wrapper")
        entries[corpus_task.task_id] = {
            "query": str(best.query),
            "score": best.score,
            "tp": best.tp,
            "fp": best.fp,
            "fn": best.fn,
        }
    return entries


def build_golden() -> dict:
    from repro.sitegen.golden import golden_sitegen_tasks
    from repro.sites import single_node_tasks

    return {
        "description": (
            "Frozen best induced query per single-node corpus task "
            "(snapshot 0, WrapperInducer(k=10), default scoring params). "
            "'sitegen_tasks' additionally freezes the pinned generated-"
            "family members from repro.sitegen.golden. "
            "Regenerate with: PYTHONPATH=src python tests/golden/regenerate.py"
        ),
        "inducer": {"k": 10, "beta": 0.5},
        "tasks": _freeze_tasks(single_node_tasks()),
        "sitegen_tasks": _freeze_tasks(golden_sitegen_tasks()),
        "pruned_tasks": _freeze_tasks(
            single_node_tasks() + golden_sitegen_tasks(), search="pruned"
        ),
    }


def main() -> int:
    payload = build_golden()
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(
        f"{len(payload['tasks'])} tasks + {len(payload['sitegen_tasks'])} "
        f"sitegen tasks + {len(payload['pruned_tasks'])} pruned tasks "
        f"frozen to {GOLDEN_PATH}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
