"""Every function the benchmark traces by name still exists.

`perfbench/run.py --trace 1` wraps each `workloads.TRACED` target, so
deleting or renaming one of them breaks the traced run with an
AttributeError. This reads `perfbench/` and runs nothing from it.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

from drsort import valuenet  # noqa: E402


@pytest.mark.parametrize("target", workloads.TRACED, ids=lambda t: t.name)
def test_traced_target_resolves(target):
    owners = tracing._owners(target)
    assert owners
    for _, _, original in owners:
        assert callable(original)


def test_replay_units_count_q_transitions():
    # workloads._q_transitions counts the Q-net's replay batches by this type
    assert isinstance(valuenet.Transition, type)
