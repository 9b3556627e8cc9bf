"""Forked verify workers: same results as one process, failures surface, no child outlives verify.

Each test fixes the usable CPU count by patching _worker_count, so the
children are forked even where one CPU is usable.  Only the unreduced sweep
forks: an invariant matrix's sweep runs in this process at every jobs.
"""

import errno
import os
import signal
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcbatch import cli, codecheck
from funcbatch.cli import format_matrix
from funcbatch.codecheck import FAILS, HOLDS, UNDECIDED, simplex, verify
from funcbatch.gf2 import GeneratorMatrix

# not invariant, so its full sweep walks all 84 multisets at t=3
MATRIX = GeneratorMatrix(3, (1, 1, 0, 6, 7, 7, 2))
# simplex(3) plus a repeated column: not invariant, and it holds at t=4, so
# its screen passes and its full sweep walks all 210 multisets in workers
HOLDING = GeneratorMatrix(3, tuple(range(1, 8)) + (1,))


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fixed_workers(workers):
    return mock.patch.object(codecheck, "_worker_count", lambda jobs: min(jobs, workers))


def counted_forks():
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    return forks, mock.patch.object(os, "fork", fork)


def no_fork():
    def fork():
        raise AssertionError("os.fork called")

    return mock.patch.object(os, "fork", fork)


def holding_matrix_file(tmp_path):
    path = tmp_path / "holding.txt"
    path.write_text(format_matrix(HOLDING))
    return str(path)


# what os.fork raises when no process can be made
NO_PROCESS = f"[Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}"


def failing_fork(at):
    """Patch os.fork so that its at-th call raises EAGAIN."""
    calls = []
    real_fork = os.fork

    def fork():
        calls.append(1)
        if len(calls) == at:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real_fork()

    return mock.patch.object(os, "fork", fork)


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
        expected = verify(HOLDING, 4, 2, jobs=jobs)
    with fixed_workers(workers), counting:
        got = verify(HOLDING, 4, 2, jobs=jobs)
    assert len(forks) == workers - 1
    assert got.status == HOLDS
    assert (got.status, got.assignments_checked, got.batches_searched) == (
        expected.status, expected.assignments_checked, expected.batches_searched)
    assert_no_children()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_scan_forked_returns_every_workers_result_in_worker_order(workers):
    forks, counting = counted_forks()
    with counting:
        results = codecheck._scan_forked(lambda i: (i, i * i, (i,) * i), workers)
    assert results == [(i, i * i, (i,) * i) for i in range(workers)]
    assert len(forks) == workers - 1
    assert_no_children()


def calls_by_pid(name):
    """Patch codecheck's name to record os.getpid() at each call; forked children record in their own copy."""
    pids = []
    real = getattr(codecheck, name)

    def wrapper(*args):
        pids.append(os.getpid())
        return real(*args)

    return pids, mock.patch.object(codecheck, name, wrapper)


@pytest.mark.parametrize("name,case", [
    ("_representatives", (simplex(3), 4, 2, False)),
    ("_multisets", (MATRIX, 3, 2, True)),
])
def test_the_parent_builds_its_stream_once_at_every_jobs(name, case):
    # each worker builds its own stream after the fork, so the parent's
    # memory does not grow with jobs
    matrix, t, r, deterministic = case
    pids, recording = calls_by_pid(name)
    forks, counting = counted_forks()
    with fixed_workers(3), recording, counting:
        verify(matrix, t, r, deterministic=deterministic, jobs=3)
    assert pids == [os.getpid()]
    # the reduced sweep forks nothing; the full sweep forks two workers
    assert len(forks) == (0 if name == "_representatives" else 2)
    assert_no_children()


@pytest.mark.parametrize("deterministic", [False, True])
@pytest.mark.parametrize("matrix,t,status", [
    (simplex(3), 4, HOLDS),
    # the sweep fails at (1, 1, 1, 1, 1); without --deterministic the screen
    # fails first, at (7, 7, 7, 7, 7)
    (simplex(3), 5, FAILS),
])
def test_a_reduced_sweep_forks_nothing_at_any_jobs(matrix, t, status, deterministic):
    one = verify(matrix, t, 2, deterministic=deterministic)
    with fixed_workers(3), no_fork():
        got = verify(matrix, t, 2, deterministic=deterministic, jobs=3)
    assert got.status == status
    assert (got.status, got.counterexample, got.assignments_checked, got.batches_searched) == (
        one.status, one.counterexample, one.assignments_checked, one.batches_searched)
    assert_no_children()


@st.composite
def fanout_cases(draw):
    k = draw(st.integers(1, 3))
    cols = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=7))
    return (GeneratorMatrix(k, tuple(cols)), draw(st.integers(1, 4)), draw(st.integers(1, 3)),
            draw(st.sampled_from([2, 3])), draw(st.sampled_from([2, 3])))


def scan_in_process(scan, workers):
    return [scan(i) for i in range(workers)]


@settings(max_examples=40, deadline=None)
@given(fanout_cases(), st.booleans(), st.none() | st.integers(0, 40))
def test_forked_scan_matches_in_process_scan(case, deterministic, budget):
    # the same tasks, scanned by forked children or one after another here
    matrix, t, r, jobs, workers = case
    runs = []
    for forking in (False, True):
        with fixed_workers(workers), mock.patch.object(
                codecheck, "_scan_forked", codecheck._scan_forked if forking else scan_in_process):
            v = verify(matrix, t, r, deterministic=deterministic, jobs=jobs, budget_batches=budget)
        runs.append((v.status, v.counterexample, v.assignments_checked, v.batches_searched))
    assert runs[0] == runs[1]
    assert_no_children()


@pytest.mark.parametrize("deterministic,expected", [
    # the settled prefix ends where this process was cut off, at (1, 3), rank 2
    (True, (UNDECIDED, None, 2)),
    # past the cut-off the child's failure at (3, 7), rank 17, still counts
    (False, (FAILS, (3, 7), 7 + 2)),
])
def test_a_range_cut_off_ahead_of_a_failing_range(deterministic, expected):
    # screen served, first failure at rank 17 of 28, an odd position, so the
    # child of two workers decides it
    matrix = GeneratorMatrix(3, (1, 5, 6, 4, 2))
    assert verify(matrix, 2, 2, deterministic=True).counterexample == (3, 7)
    parent = os.getpid()
    real = codecheck._serves

    def serves(catalog, batch, deadline):
        # this process runs out of time at its first non-uniform batch
        if os.getpid() == parent and len(set(batch)) > 1:
            raise TimeoutError
        return real(catalog, batch, deadline)

    with fixed_workers(2), mock.patch.object(codecheck, "_serves", serves):
        v = verify(matrix, 2, 2, deterministic=deterministic, jobs=2)
    assert (v.status, v.counterexample, v.assignments_checked) == expected
    assert_no_children()


def boom_in_a_worker():
    raise ValueError("boom in a worker")


def test_worker_exception_surfaces_in_the_parent():
    with fixed_workers(2), in_children(boom_in_a_worker):
        with pytest.raises(RuntimeError, match="boom in a worker"):
            verify(MATRIX, 3, 2, deterministic=True, jobs=2)
    assert_no_children()


def test_worker_death_surfaces_in_the_parent():
    with fixed_workers(2), in_children(lambda: os.kill(os.getpid(), signal.SIGKILL)):
        with pytest.raises(RuntimeError, match="wait status"):
            verify(MATRIX, 3, 2, deterministic=True, jobs=2)
    assert_no_children()


@pytest.mark.parametrize("action", [boom_in_a_worker, lambda: os.kill(os.getpid(), signal.SIGKILL)])
def test_a_failed_worker_is_a_software_error_at_the_cli(action, capsys, tmp_path):
    # not a falsification: exit 70, no verdict on stdout
    argv = ["verify", "--matrix", holding_matrix_file(tmp_path), "--t", "4", "--r", "2", "--jobs", "2"]
    with fixed_workers(2), in_children(action):
        code = cli.main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (cli.EX_SOFTWARE, "")
    # one error: line, not the child's traceback
    assert err.startswith("error: verify worker 1 ") and err.count("\n") == 1 and err.endswith("\n"), err
    assert_no_children()


def test_a_worker_that_cannot_be_forked_is_a_runtime_error():
    # the second of three forks fails: worker 1, already forked, is killed and reaped
    def scan(i):
        time.sleep(60)  # killed long before this ends
        return i, 0, None

    start = time.monotonic()
    with failing_fork(2):
        with pytest.raises(RuntimeError) as exc:
            codecheck._scan_forked(scan, 4)
    assert str(exc.value) == f"verify worker 2 could not start: {NO_PROCESS}"
    assert time.monotonic() - start < 30
    assert_no_children()


def test_a_worker_that_cannot_be_forked_is_a_software_error_at_the_cli(capsys, tmp_path):
    # not an I/O error (74): the sweep has no verdict, as when a worker fails
    argv = ["verify", "--matrix", holding_matrix_file(tmp_path), "--t", "4", "--r", "2", "--jobs", "2"]
    with fixed_workers(2), failing_fork(1):
        code = cli.main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (cli.EX_SOFTWARE, "")
    assert err == f"error: verify worker 1 could not start: {NO_PROCESS}\n"
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
            verify(MATRIX, 3, 2, deterministic=True, jobs=3)
    assert time.monotonic() - start < 30
    assert_no_children()


def test_normal_runs_leave_no_children():
    forks, counting = counted_forks()
    with fixed_workers(2), counting:
        assert verify(MATRIX, 3, 2, deterministic=True, jobs=2).counterexample == (1, 2, 2)
        assert len(forks) == 1
        # the reduced sweep forks nothing
        assert verify(simplex(3), 4, 2, jobs=3).status == HOLDS
        assert len(forks) == 1
    assert_no_children()
