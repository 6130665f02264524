"""Every op of the benchmark's workloads still runs and certifies.

``perfbench/workloads.py`` builds its ops from the public ``obslat`` API and
checks each output from outside.  An op that no longer certifies (a changed
return type or field, an exit code, a failed certificate) counts as a failed
operation in a benchmark run, so it is caught here at the smoke sizes.  The
module is only imported; nothing under ``perfbench/`` is changed.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_ops_certify(tmp_path, name):
    ops = workloads.WORKLOADS[name](np.random.default_rng(0), tmp_path, True)
    assert ops
    for op in ops:
        outcome = op.check(op.run())
        assert (op.label, outcome.status, outcome.problems) == (op.label, "certified", [])


def test_documented_stall_is_verified_as_stall():
    # suite seed 25, instance 0 still freezes above PG_TOL within the budget
    energy, box = workloads._stall_instance(25, 0)
    outcome = workloads._check_library(energy, box, workloads.PG_TOL, True,
                                       workloads._pg_op(energy, box))
    assert (outcome.status, outcome.problems) == ("stall", [])
