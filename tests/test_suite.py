"""run_suite's worker pool: the same rows from any worker count, errors as before.

The checks run in forked workers, one per CPU in the affinity mask.  The
affinity mask is patched here so that the pool runs on a one-CPU machine too,
and so that one CPU takes the in-process path.  A forked worker sees
``CHECKS`` as the test patched it.
"""

import multiprocessing
import os

import pytest

import obslat.suite
from obslat.errors import PreconditionError, SolverError
from obslat.suite import CHECKS, run_suite


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _no_pool(monkeypatch):
    def refuse(method=None):
        raise AssertionError("the in-process path created a pool")

    monkeypatch.setattr(obslat.suite.multiprocessing, "get_context", refuse)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pool_rows_equal_single_check_and_in_process_rows(monkeypatch, seed):
    _cpus(monkeypatch, 3)
    rows, all_pass = run_suite(seed)
    assert all_pass and not multiprocessing.active_children()
    singles = [row for name in CHECKS for row in run_suite(seed, [name])[0]]
    assert rows == sorted(singles, key=lambda r: r["check_name"])
    _cpus(monkeypatch, 1)
    _no_pool(monkeypatch)
    assert run_suite(seed) == (rows, all_pass)


def test_check_errors_in_workers(monkeypatch):
    _cpus(monkeypatch, 2)

    def unconverged(seed):
        raise SolverError("did not converge")

    monkeypatch.setitem(CHECKS, "zmatrix", unconverged)
    rows, all_pass = run_suite(0, ["maximum_principle", "zmatrix", "scalar_sub2"])
    assert not all_pass and not multiprocessing.active_children()
    assert [r["check_name"] for r in rows] == [
        "maximum_principle", "scalar_sub2", "zmatrix_error:SolverError"]
    assert rows[-1]["n_instances"] == 0 and not rows[-1]["pass"]

    def broken(seed):
        raise RuntimeError("not a package error")

    monkeypatch.setitem(CHECKS, "zmatrix", broken)
    with pytest.raises(RuntimeError, match="not a package error"):
        run_suite(0, ["maximum_principle", "zmatrix", "scalar_sub2"])
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("checks, named", [
    (["zmatrix", "no_such_check"], "unknown checks: ['no_such_check']"),
    (["scalar_sub2", "scalar_sub2"], "repeated checks: ['scalar_sub2']"),
    (["zmatrix", ["lattice"], "zmatrix"], "unknown checks: [['lattice']]; repeated checks: ['zmatrix']"),
], ids=["unknown", "repeated", "both"])
def test_selection_is_checked_before_any_check_runs(monkeypatch, checks, named):
    # a repeated name ran its check once per mention and returned its rows twice
    def refuse(seed):
        raise AssertionError("a check ran")

    for name in CHECKS:
        monkeypatch.setitem(CHECKS, name, refuse)
    with pytest.raises(PreconditionError) as err:
        run_suite(0, checks)
    assert str(err.value) == named
