"""Golden regression corpus: induction must reproduce frozen results.

``tests/golden/induction.json`` freezes the best induced query
(canonical text + robustness score + accuracy counts) for **every**
single-node corpus task.  Any change to candidate generation, scoring,
or ranking that silently moves a single top-1 result fails here —
bit-for-bit, not approximately.  ``pruned_tasks`` holds pruned search
(``search="pruned"``) to the same standard on every golden task.

Intentional changes regenerate the file
(``PYTHONPATH=src python tests/golden/regenerate.py``) and justify the
diff in the PR.
"""

import json
import pathlib

import pytest

from repro.induction.config import InductionConfig
from repro.induction.induce import WrapperInducer
from repro.runtime.corpus import induce_corpus_task
from repro.sitegen.golden import golden_sitegen_tasks
from repro.sites import single_node_tasks

GOLDEN_PATH = pathlib.Path(__file__).parent.parent / "golden" / "induction.json"
_GOLDEN_DOC = json.loads(GOLDEN_PATH.read_text())
GOLDEN = _GOLDEN_DOC["tasks"]
GOLDEN_SITEGEN = _GOLDEN_DOC["sitegen_tasks"]
GOLDEN_PRUNED = _GOLDEN_DOC["pruned_tasks"]
TASKS = single_node_tasks()
SITEGEN_TASKS = golden_sitegen_tasks()


class TestGoldenCoverage:
    def test_every_single_node_task_is_frozen(self):
        """New tasks must be added to the golden corpus (regenerate it)."""
        missing = {t.task_id for t in TASKS} - GOLDEN.keys()
        assert not missing, f"tasks missing from golden corpus: {sorted(missing)}"

    def test_no_stale_golden_entries(self):
        """Removed tasks must leave the golden corpus (regenerate it)."""
        stale = GOLDEN.keys() - {t.task_id for t in TASKS}
        assert not stale, f"golden entries for unknown tasks: {sorted(stale)}"

    def test_corpus_is_complete(self):
        assert len(GOLDEN) >= 50  # the paper's single-node dataset size

    def test_sitegen_roster_matches_golden(self):
        """The pinned generated-family tasks and the golden file must
        list exactly the same task ids (regenerate after roster edits)."""
        assert {t.task_id for t in SITEGEN_TASKS} == GOLDEN_SITEGEN.keys()

    def test_pruned_block_covers_every_golden_task(self):
        assert GOLDEN_PRUNED.keys() == GOLDEN.keys() | GOLDEN_SITEGEN.keys()


def _assert_reproduces(corpus_task, golden, inducer=None):
    induced = induce_corpus_task(corpus_task, inducer)
    assert induced is not None
    best = induced[0].best
    assert best is not None
    assert str(best.query) == golden["query"]
    assert best.score == golden["score"]
    assert (best.tp, best.fp, best.fn) == (golden["tp"], golden["fp"], golden["fn"])


@pytest.mark.parametrize("corpus_task", TASKS, ids=lambda t: t.task_id)
def test_induction_reproduces_golden(corpus_task):
    _assert_reproduces(corpus_task, GOLDEN[corpus_task.task_id])


@pytest.mark.parametrize("corpus_task", SITEGEN_TASKS, ids=lambda t: t.task_id)
def test_induction_reproduces_golden_sitegen(corpus_task):
    _assert_reproduces(corpus_task, GOLDEN_SITEGEN[corpus_task.task_id])


@pytest.mark.parametrize("corpus_task", TASKS + SITEGEN_TASKS, ids=lambda t: t.task_id)
def test_pruned_induction_reproduces_golden(corpus_task):
    inducer = WrapperInducer(k=10, config=InductionConfig(search="pruned"))
    _assert_reproduces(corpus_task, GOLDEN_PRUNED[corpus_task.task_id], inducer)
