"""Forked verify workers: same results as one process, failures surface, no child outlives verify.

Each test fixes the worker count by patching _worker_count, so the children
are forked even where one CPU is usable.
"""

import os
import signal
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcbatch import codecheck
from funcbatch.codecheck import HOLDS, simplex, verify
from funcbatch.gf2 import GeneratorMatrix

# not invariant, so its full sweep of 84 multisets at t=3 is split into ranges
MATRIX = GeneratorMatrix(3, (1, 1, 0, 6, 7, 7, 2))


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fixed_workers(workers):
    return mock.patch.object(codecheck, "_worker_count", lambda jobs, chunks: min(workers, chunks))


def counted_forks():
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    return forks, mock.patch.object(os, "fork", fork)


def in_children(action):
    """Patch the batch decider so that forked workers run action instead of deciding."""
    parent = os.getpid()
    real = codecheck._serves

    def serves(*args):
        if os.getpid() != parent:
            action()
        return real(*args)

    return mock.patch.object(codecheck, "_serves", serves)


@pytest.mark.parametrize("jobs,workers", [(2, 2), (3, 2), (3, 3), (8, 3)])
def test_forked_sweep_matches_in_process(jobs, workers):
    forks, counting = counted_forks()
    with fixed_workers(1):
        expected = verify(simplex(3), 4, 2, jobs=jobs)
    with fixed_workers(workers), counting:
        got = verify(simplex(3), 4, 2, jobs=jobs)
    assert len(forks) == workers - 1
    assert got.status == HOLDS
    assert (got.status, got.assignments_checked, got.batches_searched) == (
        expected.status, expected.assignments_checked, expected.batches_searched)
    assert_no_children()


@st.composite
def fanout_cases(draw):
    k = draw(st.integers(1, 3))
    cols = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=7))
    return (GeneratorMatrix(k, tuple(cols)), draw(st.integers(1, 4)), draw(st.integers(1, 3)),
            draw(st.sampled_from([2, 3])), draw(st.sampled_from([2, 3])))


@settings(max_examples=40, deadline=None)
@given(fanout_cases(), st.booleans(), st.none() | st.integers(0, 40))
def test_forked_scan_matches_in_process_scan(case, deterministic, budget):
    matrix, t, r, jobs, workers = case
    runs = []
    for count in (1, workers):
        with fixed_workers(count):
            v = verify(matrix, t, r, deterministic=deterministic, jobs=jobs, budget_batches=budget)
        runs.append((v.status, v.counterexample, v.assignments_checked, v.batches_searched))
    assert runs[0] == runs[1]
    assert_no_children()


def test_worker_exception_surfaces_in_the_parent():
    def boom():
        raise ValueError("boom in a worker")

    with fixed_workers(2), in_children(boom):
        with pytest.raises(RuntimeError, match="boom in a worker"):
            verify(MATRIX, 3, 2, screen=False, jobs=2)
    assert_no_children()


def test_worker_death_surfaces_in_the_parent():
    with fixed_workers(2), in_children(lambda: os.kill(os.getpid(), signal.SIGKILL)):
        with pytest.raises(RuntimeError, match="wait status"):
            verify(MATRIX, 3, 2, screen=False, jobs=2)
    assert_no_children()


def test_parent_exception_kills_and_reaps_the_workers():
    parent = os.getpid()
    real = codecheck._serves

    def serves(*args):
        if os.getpid() != parent:
            time.sleep(60)  # killed long before this ends
        elif (1, 1, 1) in args:
            raise ValueError("boom in the parent")
        return real(*args)

    start = time.monotonic()
    with fixed_workers(3), mock.patch.object(codecheck, "_serves", serves):
        with pytest.raises(ValueError, match="boom in the parent"):
            verify(MATRIX, 3, 2, screen=False, jobs=3)
    assert time.monotonic() - start < 30
    assert_no_children()


def test_normal_runs_leave_no_children():
    with fixed_workers(2):
        assert verify(MATRIX, 3, 2, screen=False, jobs=2).counterexample == (1, 2, 2)
        assert verify(simplex(3), 4, 2, jobs=3).status == HOLDS
    assert_no_children()
