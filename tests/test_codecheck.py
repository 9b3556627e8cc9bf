import os
import random
import subprocess
import sys
import time
from itertools import (chain, combinations, combinations_with_replacement, count, islice, product, starmap,
                       zip_longest)
from operator import eq
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import funcbatch
from funcbatch import codecheck
from funcbatch.bounds import necessary_condition
from funcbatch.codecheck import (
    FAILS,
    HOLDS,
    UNDECIDED,
    RecoveryCatalog,
    _heaviest_first,
    _is_invariant,
    _multisets,
    _representatives,
    _serves,
    _worker_count,
    build_catalog,
    double_simplex,
    find_disjoint_assignment,
    simplex,
    verify,
)
from funcbatch.cli import format_matrix
from funcbatch.gf2 import GeneratorMatrix, rank
from oracles import in_span, rank_multiset
from test_cli import run_capped
from test_fanout import fixed_workers
from worked_example import worked_example_holds

SRC = str(Path(funcbatch.__file__).resolve().parents[1])


def test_simplex_columns_are_all_nonzero_vectors():
    m = simplex(3)
    assert m.k == 3 and m.n == 7
    assert m.cols == (1, 2, 3, 4, 5, 6, 7)
    assert rank(m, (1 << 7) - 1) == 3


def test_simplex_k2_is_the_worked_example_matrix():
    assert format_matrix(simplex(2)) == "2 3\n1 0 1\n0 1 1\n"


def test_simplex_k1():
    assert simplex(1).cols == (1,)


def test_simplex_range_errors():
    with pytest.raises(ValueError):
        simplex(0)
    with pytest.raises(ValueError):
        simplex(8)


def test_double_simplex_duplicates_every_column():
    m = double_simplex(2)
    assert m.n == 6
    half = (1 << 2) - 1
    for j in range(half):
        assert m.cols[j] == m.cols[j + half]
    assert double_simplex(3).n == 14
    with pytest.raises(ValueError):
        double_simplex(7)


def test_catalog_worked_example_rows():
    cat = build_catalog(simplex(2), 2)
    assert cat.sets[1] == (0b001, 0b110)
    assert cat.sets[2] == (0b010, 0b101)
    assert cat.sets[3] == (0b100, 0b011)


def test_catalog_simplex3_all_ones_query():
    cat = build_catalog(simplex(3), 2)
    # singleton at the position of value 7, plus the three complementary pairs
    assert cat.sets[7] == (1 << 6, 0b0001100, 0b0010010, 0b0100001)


def subset_catalog_oracle(matrix, r):
    """Filter every subset of size <= r through span + proper-subset checks."""
    out = {}
    for alpha_word in range(1, 1 << matrix.k):
        found = []
        for size in range(1, r + 1):
            for combo in combinations(range(matrix.n), size):
                mask = sum(1 << j for j in combo)
                if not in_span(matrix, mask, alpha_word):
                    continue
                minimal = True
                for sub_size in range(1, size):
                    for sub in combinations(combo, sub_size):
                        if in_span(matrix, sum(1 << j for j in sub), alpha_word):
                            minimal = False
                            break
                    if not minimal:
                        break
                if minimal:
                    found.append(mask)
        if found:
            out[alpha_word] = tuple(sorted(found, key=lambda m: (m.bit_count(), m)))
    return out


@pytest.mark.parametrize("matrix,r", [
    (simplex(2), 2),
    (simplex(3), 2),
    (simplex(3), 3),
    (double_simplex(2), 2),
    (GeneratorMatrix(3, (1, 1, 0, 6, 7, 7, 2)), 3),
])
def test_catalog_matches_subset_enumeration(matrix, r):
    cat = build_catalog(matrix, r)
    assert cat.sets == subset_catalog_oracle(matrix, r)


@st.composite
def catalog_cases(draw):
    k = draw(st.integers(1, 4))
    cols = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=9))
    return GeneratorMatrix(k, tuple(cols)), draw(st.integers(1, 4))


@settings(max_examples=150, deadline=None)
@given(catalog_cases())
def test_catalog_matches_subset_enumeration_random(case):
    matrix, r = case
    assert build_catalog(matrix, r).sets == subset_catalog_oracle(matrix, r)


def test_grow_at_depth_builds_nothing():
    # two columns at cap 1: once size 1 is built, grow() used to build the
    # pair {1, 2} (query 3), and then a size past n
    m = GeneratorMatrix(2, (1, 2))
    cat = RecoveryCatalog(m, 1)
    assert [cat.grow() for _ in range(3)] == [True, False, False]
    assert cat.size == 1
    assert cat.sets == build_catalog(m, 1).sets == {1: (1,), 2: (2,)}
    assert find_disjoint_assignment(cat, (3,)) is None


@settings(max_examples=100, deadline=None)
@given(catalog_cases(), st.integers(0, 4))
def test_grow_past_depth_keeps_the_catalog(case, extra):
    matrix, r = case
    cat = RecoveryCatalog(matrix, r)
    # grow() builds a size exactly min(r, n) times, then builds nothing
    assert [cat.grow() for _ in range(min(r, matrix.n))] == [True] * min(r, matrix.n)
    sets = dict(cat.sets)
    assert [cat.grow() for _ in range(1 + extra)] == [False] * (1 + extra)
    assert cat.size == min(r, matrix.n)
    assert cat.sets == sets == build_catalog(matrix, r).sets


def test_grow_cut_off_while_building_keeps_the_catalog(monkeypatch):
    # sizes 1 and 2 of simplex:4 at cap 3 are built with no deadline; while
    # size 3 is built the clock passes the deadline at its fifth read, once
    # _level has read it on entry and at three prefixes
    matrix = simplex(4)
    cat = RecoveryCatalog(matrix, 3)
    assert cat.grow() and cat.grow()
    sets = dict(cat.sets)
    reads = []

    def monotonic():
        reads.append(None)
        return 0.0 if len(reads) < 5 else 100.0

    monkeypatch.setattr(codecheck.time, "monotonic", monotonic)
    with pytest.raises(TimeoutError):
        cat.grow(10.0)
    assert len(reads) == 5
    assert (cat.size, cat.sets) == (2, sets)
    # a later grow() builds size 3 whole, as build_catalog does
    assert cat.grow() and not cat.grow()
    assert cat.sets == build_catalog(matrix, 3).sets


def test_catalog_simplex7_r3_sizes():
    cat = build_catalog(simplex(7), 3)
    assert len(cat.sets) == 127
    assert {len(masks) for masks in cat.sets.values()} == {2668}


def test_catalog_sets_are_sorted_and_capped():
    cat = build_catalog(double_simplex(3), 2)
    for masks in cat.sets.values():
        keyed = [(m.bit_count(), m) for m in masks]
        assert keyed == sorted(keyed)
        assert all(m.bit_count() <= 2 for m in masks)


def assert_disjoint_assignment(cat, batch, got):
    """got holds one catalog set per query of the batch, no two sharing a column."""
    assert got is not None and len(got) == len(batch)
    used = 0
    for w, mask in zip(batch, got):
        assert mask in cat.sets[w]
        assert not used & mask
        used |= mask


def test_assignment_worked_example_first_row():
    cat = build_catalog(simplex(2), 2)
    assert_disjoint_assignment(cat, (1, 1), find_disjoint_assignment(cat, (1, 1)))


def test_assignment_unit_queries_take_singletons():
    # identity columns first, extra mixed columns after
    m = GeneratorMatrix(3, (1, 2, 4, 7, 3))
    cat = build_catalog(m, 2)
    got = find_disjoint_assignment(cat, (1, 2, 4))
    assert_disjoint_assignment(cat, (1, 2, 4), got)
    assert [mask.bit_count() for mask in got] == [1, 1, 1]


def test_assignment_respects_disjointness():
    cat = build_catalog(simplex(3), 2)
    batch = (7, 7, 7, 7)
    assert_disjoint_assignment(cat, batch, find_disjoint_assignment(cat, batch))


def test_assignment_absent_when_sets_run_out():
    cat = build_catalog(simplex(3), 2)
    assert find_disjoint_assignment(cat, (7,) * 5) is None


def test_assignment_validates_queries():
    cat = build_catalog(simplex(2), 2)
    with pytest.raises(ValueError):
        find_disjoint_assignment(cat, (0, 1))
    with pytest.raises(ValueError):
        find_disjoint_assignment(cat, (4,))
    # a query that is not an int is not a vector, even one equal to a valid query
    with pytest.raises(ValueError, match=r"^query 2\.5 is not a nonzero 2-bit vector$"):
        find_disjoint_assignment(cat, (2.5,))
    with pytest.raises(ValueError, match=r"^query 2\.0 is not a nonzero 2-bit vector$"):
        find_disjoint_assignment(cat, (1, 2.0))


def test_verify_worked_example_rows():
    assert worked_example_holds()


def test_verify_simplex2_serves_two_queries():
    v = verify(simplex(2), 2, 2)
    assert v.status == HOLDS and v.holds
    assert v.counterexample is None


def test_verify_simplex3_batch4_holds():
    v = verify(simplex(3), 4, 2)
    assert v.status == HOLDS
    # 7 uniform screen batches plus C(10, 4) multisets
    assert v.assignments_checked == 7 + 210


def test_verify_simplex3_batch5_fails_on_heaviest_uniform():
    v = verify(simplex(3), 5, 2)
    assert v.status == FAILS and not v.holds
    assert v.counterexample == (7, 7, 7, 7, 7)


def test_verify_deterministic_reports_lex_least():
    v = verify(simplex(3), 5, 2, deterministic=True)
    assert v.status == FAILS
    assert v.counterexample == (1, 1, 1, 1, 1)


def uniform_bound(k, t):
    """ceil(2tq / (q + 1)) with q = 2^k - 1, a lower bound on the length at every r >= 2.

    A batch of t copies of w needs t disjoint recovery sets, and at most m_w
    of them, the columns equal to w, are single columns, so n >= 2t - m_w.
    Summed over the q values of w, with the m_w summing to at most n, this
    gives (q + 1) n >= 2tq.
    """
    q = (1 << k) - 1
    return -(-2 * t * q // (q + 1))


@pytest.mark.parametrize("t,shortest", [(3, 5), (4, 6)])
def test_uniform_bound_is_the_shortest_length_at_k2(t, shortest):
    def some_matrix_holds(n):
        # every multiset of n columns over {0..3}, zero columns included
        return any(verify(GeneratorMatrix(2, cols), t, 2).holds
                   for cols in combinations_with_replacement(range(4), n))

    assert uniform_bound(2, t) == shortest
    assert not some_matrix_holds(shortest - 1) and some_matrix_holds(shortest)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(1, 5), st.integers(1, 4), st.data())
def test_screen_fails_every_matrix_shorter_than_the_uniform_bound(k, t, r, data):
    q = (1 << k) - 1
    assume(uniform_bound(k, t) > 1)
    n = data.draw(st.integers(1, uniform_bound(k, t) - 1), label="n")
    # zero and repeated columns included
    matrix = GeneratorMatrix(k, data.draw(st.lists(st.integers(0, q), min_size=n, max_size=n),
                                          label="cols"))
    v = verify(matrix, t, r)
    assert v.status == FAILS and v.assignments_checked <= q
    first = v.counterexample[0]
    assert 1 <= first <= q and v.counterexample == (first,) * t
    # the queries that too few columns equal, by the bound's own count
    short = [w for w in range(1, q + 1) if n < 2 * t - min(t, matrix.cols.count(w))]
    assert short
    catalog = build_catalog(matrix, r)
    for w in short:
        assert find_disjoint_assignment(catalog, (w,) * t) is None


def test_verify_double_simplex_serves_doubled_batch():
    # the doubled simplex at t = 2^k and the simplex at t = 2^(k-1) meet the
    # uniform bound, so each is a shortest code there
    cases = [(double_simplex, k, 1 << k, (1 << (k + 1)) - 2) for k in (1, 2, 3)]
    cases += [(simplex, k, 1 << (k - 1), (1 << k) - 1) for k in (1, 2, 3, 4)]
    for construct, k, t, length in cases:
        assert construct(k).n == length == uniform_bound(k, t)
        assert verify(construct(k), t, 2).status == HOLDS


def test_verify_failure_is_monotone_in_batch_size():
    assert verify(simplex(3), 5, 2).status == FAILS
    assert verify(simplex(3), 6, 2).status == FAILS


def test_verify_positive_fixtures_satisfy_necessary_condition():
    fixtures = [
        (simplex(2), 2, 2),
        (simplex(3), 4, 2),
        (double_simplex(2), 4, 2),
        (double_simplex(3), 8, 2),
    ]
    for matrix, t, r in fixtures:
        assert verify(matrix, t, r).status == HOLDS
        assert necessary_condition(matrix.n, matrix.k, t, r)


def ordered_sweep_holds(matrix, t, r):
    """Order-sensitive oracle: enumerate every ordered batch, not multisets."""
    cat = build_catalog(matrix, r)
    q = (1 << matrix.k) - 1
    for batch in product(range(1, q + 1), repeat=t):
        if find_disjoint_assignment(cat, batch) is None:
            return False
    return True


@pytest.mark.parametrize("t,r", [(1, 2), (2, 2), (3, 2), (2, 1), (3, 1)])
def test_verify_agrees_with_ordered_enumeration(t, r):
    m = simplex(2)
    assert verify(m, t, r).holds == ordered_sweep_holds(m, t, r)


def test_verify_batch_budget_gives_undecided():
    v = verify(simplex(3), 4, 2, budget_batches=10)
    assert v.status == UNDECIDED
    assert v.counterexample is None
    assert v.assignments_checked == 10


def test_verify_time_budget_gives_undecided():
    v = verify(simplex(3), 4, 2, budget_seconds=1e-9)
    assert v.status == UNDECIDED


def test_verify_rejects_a_nan_time_budget():
    # time.monotonic() > nan is never true, so it would be no budget at all
    with pytest.raises(ValueError, match="NaN"):
        verify(simplex(2), 2, 2, budget_seconds=float("nan"))
    # neither reaches isnan, which would raise TypeError
    for bad in ("1", [1]):
        with pytest.raises(ValueError, match="budget_seconds"):
            verify(simplex(2), 2, 2, budget_seconds=bad)
    assert verify(simplex(2), 2, 2, budget_seconds=float("inf")).holds


def test_verify_rejects_a_cap_that_is_not_an_int():
    # r = 2.5 never equals a catalog size, so the sweep would grow sizes without end;
    # the time budget only keeps a faulty check from hanging
    with pytest.raises(ValueError, match="r must be an int"):
        verify(simplex(3), 5, 2.5, budget_seconds=1)
    with pytest.raises(ValueError, match="r must be an int"):
        RecoveryCatalog(simplex(3), 2.5)


@pytest.mark.parametrize("arg, value", [("t", 2.0), ("jobs", 1.5), ("budget_batches", 2.5)])
def test_verify_rejects_counts_that_are_not_ints(arg, value):
    kwargs = {"t": 4, "r": 2, "jobs": 1, "budget_batches": None, arg: value}
    with pytest.raises(ValueError, match=f"{arg} must be an int"):
        verify(simplex(3), **kwargs)


def counted_levels(monkeypatch, on_build=lambda size: None):
    """Record the size of every _level call that returns; on_build runs after each."""
    sizes = []
    real = codecheck._level

    def level(matrix, size, deadline=None):
        out = real(matrix, size, deadline)
        sizes.append(size)
        on_build(size)
        return out

    monkeypatch.setattr(codecheck, "_level", level)
    return sizes


@pytest.mark.parametrize("deterministic", [False, True])
def test_time_budget_covers_catalog_building(monkeypatch, deterministic):
    # the first batch, (3, 3) in the screen or (1, 1) in lex order, needs a
    # pair; the clock passes the deadline while size 1 is built, so building
    # size 2 is cut off on entry and the batch stays unsettled
    clock = [0.0]
    after_build = [100.0]
    monkeypatch.setattr(codecheck.time, "monotonic", lambda: clock[0])
    sizes = counted_levels(monkeypatch, lambda size: clock.__setitem__(0, after_build[0]))
    v = verify(simplex(2), 2, 2, deterministic=deterministic, budget_seconds=10)
    assert (v.status, v.counterexample, v.assignments_checked, v.batches_searched) == (
        UNDECIDED, None, 0, 0)
    assert sizes == [1]
    # with the clock standing still the same run builds size 2 and holds
    clock[0] = after_build[0] = 0.0
    assert verify(simplex(2), 2, 2, deterministic=deterministic, budget_seconds=10).holds
    assert sizes == [1, 1, 2]


@pytest.mark.parametrize("deterministic,screened", [(False, 15), (True, 0)])
def test_time_budget_covers_listing_representatives(monkeypatch, tmp_path, deterministic, screened):
    # the reduced sweep runs in this process alone at jobs=2, which logs each
    # representative it walks; the clock passes the deadline once three are
    # walked, so the sweep stops at position 2 without deciding it
    clock = [0.0]
    deadline_passes_at = [3]
    log = tmp_path / "walked"
    real = codecheck._representatives

    def representatives(q, t):
        for walked, pair in enumerate(real(q, t), 1):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            if walked == deadline_passes_at[0]:
                clock[0] = 100.0
            yield pair

    def walked_per_process():
        pids = log.read_text().split()
        log.unlink()
        return sorted(pids.count(pid) for pid in set(pids))

    monkeypatch.setattr(codecheck.time, "monotonic", lambda: clock[0])
    monkeypatch.setattr(codecheck, "_representatives", representatives)
    ranks = [rank for rank, _ in real(15, 5)]
    with fixed_workers(2):
        v = verify(simplex(4), 5, 2, deterministic=deterministic, jobs=2, budget_seconds=10)
        # the settled prefix ends at the representative left at position 2;
        # the two before it were decided
        assert (v.status, v.counterexample, v.assignments_checked, v.batches_searched) == (
            UNDECIDED, None, screened + ranks[2], screened + 2)
        assert walked_per_process() == [3]
        # with the clock standing still the sweep walks all 20 and the run holds
        clock[0] = 0.0
        deadline_passes_at[0] = None
        v = verify(simplex(4), 5, 2, deterministic=deterministic, jobs=2, budget_seconds=10)
    assert (v.status, v.assignments_checked) == (HOLDS, screened + 11_628)
    assert walked_per_process() == [20]


def test_time_budget_covers_the_complete_search(monkeypatch):
    # (1, 1, 1, 1, 1, 2, 2, 2), rank 120, is the first representative that
    # first fit misses with every size built; the clock passes the deadline as
    # its complete search starts, so the search stops within 256 nodes and the
    # batch stays unsettled behind the five representatives ranked before it
    clock = [0.0]
    searched = []
    real = codecheck.find_disjoint_assignment

    def search(catalog, batch, **kwargs):
        searched.append(batch)
        clock[0] = 100.0
        return real(catalog, batch, **kwargs)

    monkeypatch.setattr(codecheck.time, "monotonic", lambda: clock[0])
    monkeypatch.setattr(codecheck, "find_disjoint_assignment", search)
    v = verify(simplex(4), 8, 2, deterministic=True, budget_seconds=10)
    assert (v.status, v.counterexample, v.assignments_checked, v.batches_searched) == (
        UNDECIDED, None, 120, 5)
    assert searched == [(1, 1, 1, 1, 1, 2, 2, 2)]
    catalog = build_catalog(simplex(4), 2)
    with pytest.raises(TimeoutError):
        real(catalog, (1, 1, 1, 1, 1, 2, 2, 2), deadline=10.0)
    assert real(catalog, (1, 1, 1, 1, 1, 2, 2, 2), deadline=1000.0) is not None


def test_verify_builds_only_the_sizes_its_batches_need(monkeypatch):
    sizes = counted_levels(monkeypatch)
    v = verify(simplex(7), 2, 4)
    assert (v.status, v.assignments_checked) == (HOLDS, 127 + 8128)
    assert sizes == [1, 2]


def test_verify_simplex7_r4_runs_in_512_mib():
    # every set of up to 4 of the 127 columns would take over 500 MiB
    proc = run_capped("verify", "--construct", "simplex:7", "--t", "2", "--r", "4", mib=512)
    assert (proc.returncode, proc.stdout) == (0, "holds\n"), proc.stderr


@pytest.mark.parametrize("args", [("--t", "64", "--deterministic"), ("--t", "127")])
def test_time_budget_bounds_building_a_size_in_256_mib(args):
    # both sweeps need size 4 of simplex:7, over 500 MiB of sets; the clock
    # is read while a size is built, so the budget cuts it off instead of
    # the address space (the checked count depends on timing)
    proc = run_capped("verify", "--construct", "simplex:7", "--r", "4", *args,
                      "--budget-seconds", "0.3")
    assert (proc.returncode, proc.stdout) == (2, "undecided\n"), proc.stderr


@pytest.mark.parametrize("k", range(1, 13))
def test_screen_order_is_heaviest_first(k):
    q = (1 << k) - 1
    assert list(_heaviest_first(k)) == sorted(range(1, q + 1), key=lambda v: (-v.bit_count(), -v))


def units_and_ones_file(tmp_path, k=24):
    """A (k + 1)-column matrix file: the k unit vectors plus the all-ones column."""
    cols = tuple(1 << i for i in range(k)) + ((1 << k) - 1,)
    path = tmp_path / "m.txt"
    path.write_text(format_matrix(GeneratorMatrix(k, cols)))
    return str(path)


def test_verify_batch_budget_bounds_the_screen_at_k24(tmp_path):
    # the screen once sorted all 2^24 - 1 queries before its first batch
    start = time.monotonic()
    proc = run_capped("verify", "--matrix", units_and_ones_file(tmp_path), "--t", "1", "--r", "2",
                      "--budget-batches", "10")
    assert time.monotonic() - start < 5
    assert (proc.returncode, proc.stdout) == (2, "undecided\n"), proc.stderr
    assert proc.stderr.startswith("checked 10 batches ")


@pytest.mark.parametrize("t, counterexample, budget", [
    pytest.param(1, "7", ("--budget-batches", "10"), id="1-7"),
    pytest.param(2, "1 1", ("--budget-batches", "10"), id="2-1 1"),
    pytest.param(1, "7", ("--budget-seconds", "1"), id="1-7-budget-seconds"),
    pytest.param(2, "1 1", ("--budget-seconds", "1"), id="2-1 1-budget-seconds"),
])
def test_verify_batch_budget_bounds_the_deterministic_pool_at_k24(tmp_path, t, counterexample, budget):
    # the unreduced sweep once built a pool of all 2^24 - 1 queries before its
    # first batch, and a time budget alone did not bound it; the lex-least
    # counterexample lies within either budget
    start = time.monotonic()
    proc = run_capped("verify", "--matrix", units_and_ones_file(tmp_path), "--t", str(t), "--r", "2",
                      *budget, "--deterministic")
    assert time.monotonic() - start < 5
    assert (proc.returncode, proc.stdout) == (1, f"fails\n{counterexample}\n"), proc.stderr


@pytest.mark.skipif(_worker_count(2) < 2, reason="needs 2 usable CPUs")
def test_verify_jobs_does_not_multiply_the_parents_pool_at_k22(tmp_path):
    # each process builds its own pools after the fork, and only as far as
    # its ranks reach, so no process holds a pool of all 2^22 - 1 queries
    proc = run_capped("verify", "--matrix", units_and_ones_file(tmp_path, 22), "--t", "2", "--r", "2",
                      "--deterministic", "--jobs", "2", "--budget-seconds", "2", mib=128)
    assert (proc.returncode, proc.stdout) == (1, "fails\n1 1\n"), proc.stderr


@pytest.mark.parametrize("t", range(1, 6))
def test_multisets_is_the_lex_stream_of_all_multisets(t):
    # at most C(44, 5) = 1,086,008 multisets per q
    for q in range(1, 41):
        expected = enumerate(combinations_with_replacement(range(1, q + 1), t))
        assert all(starmap(eq, zip_longest(_multisets(q, t), expected))), q


@pytest.mark.parametrize("q, t, n, largest", [
    (1 << 24, 2, 10, 16),
    (1 << 24, 1, 1000, 1024),
    (1 << 20, 3, 5000, 8192),
])
def test_multisets_builds_pools_only_as_far_as_its_ranks_reach(q, t, n, largest):
    pools = []
    real = codecheck.combinations_with_replacement

    def recording(pool, size):
        pools.append(len(pool))
        return real(pool, size)

    with mock.patch.object(codecheck, "combinations_with_replacement", recording):
        assert [rank for rank, _ in islice(_multisets(q, t), n)] == list(range(n))
    assert max(pools) == largest <= 2 * n


def test_verify_batch_budget_bounds_the_reduced_sweep_at_huge_t():
    # the reduced sweep once built a (t + 1) x 2^k table of binomials before its first batch
    proc = run_capped("verify", "--construct", "simplex:2", "--t", "1000000", "--r", "2",
                      "--budget-batches", "10", "--deterministic")
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == "fails\n" + " ".join(["1"] * 1000000) + "\n"


def test_verify_parallel_matches_sequential():
    assert verify(simplex(3), 4, 2, jobs=2).status == HOLDS
    v = verify(simplex(3), 5, 2, jobs=3, deterministic=True)
    assert v.status == FAILS
    assert v.counterexample == (1, 1, 1, 1, 1)


def test_verify_deterministic_parallel_budget_is_undecided():
    # the budget ends the sweep before (1, 2, 3), rank 8; (2, 5, 5), rank 43,
    # lies past the budget's prefix at every worker count
    m = GeneratorMatrix(3, (4, 6, 1, 1, 7, 5, 1))
    for jobs in (1, 2, 3):
        with fixed_workers(jobs):
            v = verify(m, 3, 2, deterministic=True, jobs=jobs, budget_batches=4)
        assert (v.status, v.counterexample, v.assignments_checked) == (UNDECIDED, None, 4)
    assert verify(m, 3, 2, deterministic=True).counterexample == (1, 2, 3)


@pytest.mark.parametrize("matrix,t,deterministic,budget,expected", [
    (GeneratorMatrix(3, (1, 2, 3, 4, 5, 6, 7, 1)), 4, True, 1, (UNDECIDED, None, 1)),
    (GeneratorMatrix(3, (1, 2, 3, 4, 5, 6, 7, 1)), 4, False, 8, (UNDECIDED, None, 8)),
    # rank 0 fails, and the one batch the budget leaves needs one worker
    (GeneratorMatrix(2, (1, 2)), 2, True, 1, (FAILS, (1, 1), 1)),
])
def test_verify_parallel_budget_keeps_its_remainder(matrix, t, deterministic, budget, expected):
    # a budget of one sweep batch (1, or 8 minus the 7 screened) is one lex
    # prefix, however many workers jobs asks for
    for jobs in (1, 2):
        v = verify(matrix, t, 2, deterministic=deterministic, jobs=jobs, budget_batches=budget)
        assert (v.status, v.counterexample, v.assignments_checked) == expected


@st.composite
def small_matrices(draw):
    k = draw(st.integers(1, 3))
    cols = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=7))
    return GeneratorMatrix(k, tuple(cols)), draw(st.integers(1, 4)), draw(st.integers(1, 3))


@settings(max_examples=60, deadline=None)
@given(small_matrices(), st.booleans(), st.none() | st.integers(0, 60), st.sampled_from([2, 3]))
def test_verify_agrees_at_every_worker_count(case, deterministic, budget, jobs):
    """A batch budget is one lex prefix, so forked workers settle what one process settles."""
    matrix, t, r = case
    one = verify(matrix, t, r, deterministic=deterministic, budget_batches=budget)
    with fixed_workers(jobs):
        forked = verify(matrix, t, r, deterministic=deterministic, jobs=jobs, budget_batches=budget)
    assert (forked.status, forked.counterexample, forked.assignments_checked) == (
        one.status, one.counterexample, one.assignments_checked)
    if one.holds:
        assert forked.batches_searched == one.batches_searched


@pytest.mark.parametrize("matrix,t", [
    # not invariant: the stream is every multiset
    (GeneratorMatrix(4, tuple(range(1, 16)) + (1,)), 4),
    # invariant: the stream is the representatives, decided in this process alone
    (simplex(4), 6),
])
def test_verify_interleaves_stream_positions_across_workers(monkeypatch, tmp_path, matrix, t):
    # every process, forked children included, logs each batch it decides
    log = tmp_path / "decided"
    real = codecheck._serves

    def serves(catalog, batch, deadline):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()} {' '.join(map(str, batch))}\n")
        return real(catalog, batch, deadline)

    monkeypatch.setattr(codecheck, "_serves", serves)
    with fixed_workers(3):
        v = verify(matrix, t, 2, deterministic=True, jobs=10**6)
    assert v.holds
    decided = {}
    for line in log.read_text().splitlines():
        pid, *batch = map(int, line.split())
        decided.setdefault(pid, []).append(tuple(batch))
    q = 15
    if _is_invariant(matrix):
        stream = [batch for _, batch in _representatives(q, t)]
        assert decided == {os.getpid(): stream}
    else:
        stream = list(combinations_with_replacement(range(1, q + 1), t))
        # process i decides exactly positions i, i + 3, .., so each batch once
        assert sorted(decided.values()) == [stream[i::3] for i in range(3)]
    assert v.batches_searched == len(stream)


@settings(max_examples=40, deadline=None)
@given(small_matrices(), st.integers(0, 40))
def test_verify_deterministic_parallel_budget_never_misreports(case, budget):
    matrix, t, r = case
    expected = verify(matrix, t, r, deterministic=True)
    v = verify(matrix, t, r, deterministic=True, jobs=2, budget_batches=budget)
    assert v.status == UNDECIDED or (
        v.status, v.counterexample) == (expected.status, expected.counterexample)


def brute_force_serves(catalog_sets, batch):
    """Try every choice of one oracle catalog set per query; True when one is pairwise disjoint."""
    def extend(pos, used):
        if pos == len(batch):
            return True
        return any(not mask & used and extend(pos + 1, used | mask)
                   for mask in catalog_sets.get(batch[pos], ()))
    return extend(0, 0)


@settings(max_examples=200, deadline=None)
@given(small_matrices(), st.data())
def test_first_fit_decider_matches_search_and_oracle(case, data):
    matrix, _, r = case
    q = (1 << matrix.k) - 1
    batch = tuple(data.draw(st.lists(st.integers(1, q), min_size=1, max_size=5)))
    cat = build_catalog(matrix, r)
    expected = brute_force_serves(subset_catalog_oracle(matrix, r), batch)
    masks = find_disjoint_assignment(cat, batch)
    # the complete search grows a fresh catalog until grow() builds nothing,
    # so it picks the same masks on it as on cat
    fresh = RecoveryCatalog(matrix, r)
    assert find_disjoint_assignment(fresh, batch) == masks
    assert fresh.size == min(r, matrix.n)
    assert not fresh.grow() and fresh.sets == cat.sets
    # _serves grows a fresh catalog only as far as the batch needs
    assert _serves(RecoveryCatalog(matrix, r), batch, None) == _serves(cat, batch, None) == (
        masks is not None) == expected


@st.composite
def invariant_matrices(draw):
    """Every nonzero vector as a column equally often, in any order, maybe with a zero column."""
    k = draw(st.integers(1, 3))
    cols = list(range(1, 1 << k)) * draw(st.integers(1, 2)) + [0] * draw(st.integers(0, 1))
    return GeneratorMatrix(k, tuple(draw(st.permutations(cols)))), draw(st.integers(1, 4)), draw(
        st.integers(1, 3))


@settings(max_examples=120, deadline=None)
@given(small_matrices() | invariant_matrices(), st.booleans(), st.sampled_from([1, 2]),
       st.integers(0, 30))
def test_time_budget_never_misreports(case, deterministic, jobs, budget):
    """A clock that ticks at every read cuts the sweep off anywhere, building a size included.

    Budgets of up to 30 reads leave about one run in six undecided, half of
    those cut off in _level.
    """
    matrix, t, r = case
    expected = verify(matrix, t, r, deterministic=deterministic)
    ticks = count()
    reads = []
    built = []  # (deadline, clock values read) of each _level call that returned
    real = codecheck._level

    def monotonic():
        reads.append(next(ticks))
        return reads[-1]

    def level(matrix, size, deadline=None):
        start = len(reads)
        out = real(matrix, size, deadline)
        built.append((deadline, reads[start:]))
        return out

    with mock.patch.object(codecheck.time, "monotonic", monotonic), \
            mock.patch.object(codecheck, "_level", level), fixed_workers(jobs):
        v = verify(matrix, t, r, deterministic=deterministic, jobs=jobs, budget_seconds=budget)
    assert v.status in (UNDECIDED, expected.status)
    if v.status == FAILS:
        assert not brute_force_serves(subset_catalog_oracle(matrix, r), v.counterexample)
        if deterministic:
            assert v.counterexample == expected.counterexample
    # each size this process built read the clock, and never past the deadline
    assert all(values and max(values) <= deadline for deadline, values in built)


def test_serves_past_its_deadline_raises_and_builds_no_size(monkeypatch):
    sizes = counted_levels(monkeypatch)
    catalog = RecoveryCatalog(simplex(3), 2)
    with pytest.raises(TimeoutError):
        _serves(catalog, (7, 7), time.monotonic() - 1)
    assert (catalog.size, catalog.sets, sizes) == (0, {}, [])
    # the complete search grows the same catalog to size 2 and serves the batch
    assert find_disjoint_assignment(catalog, (7, 7)) == [64, 12]
    assert (catalog.size, sizes) == (2, [1, 2])


def test_search_past_its_deadline_raises_and_builds_no_size():
    # _level reads the clock on entry, so a search handed a passed deadline
    # builds none of simplex:7's 338,836 sets of size <= 3
    catalog = RecoveryCatalog(simplex(7), 3)
    with pytest.raises(TimeoutError):
        find_disjoint_assignment(catalog, (127,), deadline=time.monotonic() - 1)
    assert (catalog.size, catalog.sets) == (0, {})


def test_verify_matrix_without_full_span_fails():
    m = GeneratorMatrix(2, (1, 1))
    v = verify(m, 1, 2)
    assert v.status == FAILS and v.counterexample == (3,)  # heaviest query screened first
    v = verify(m, 1, 2, deterministic=True)
    assert v.counterexample == (2,)  # lex-least unservable query


def test_verify_rejects_bad_batch_size():
    with pytest.raises(ValueError):
        verify(simplex(2), 0, 2)


def test_verify_simplex4_batch8_stretch():
    v = verify(simplex(4), 8, 2, jobs=2)
    assert v.status == HOLDS


@pytest.mark.stretch
def test_verify_simplex4_batch8_full_sweep_stretch():
    # the extra column breaks the symmetry, so every multiset is searched
    m = GeneratorMatrix(4, tuple(range(1, 16)) + (1,))
    v = verify(m, 8, 2, jobs=2)
    assert v.status == HOLDS
    assert v.assignments_checked == v.batches_searched == 15 + 319_770


@pytest.mark.stretch
def test_verify_double_simplex4_t16_keeps_its_time_budget_stretch():
    # the complete search of one batch, (1,)*6 + (2,)*6 + (4,)*4, runs for
    # about a minute; the budget cuts it off, and no process lists the
    # 251,108 representatives up front, so the launching process stays small
    if not os.path.exists("/proc/self/status"):
        pytest.skip("reads the peak resident set size, VmHWM, from /proc")
    # VmHWM is this process's own peak; ru_maxrss would keep the peak of the
    # process it was forked from across the exec
    script = (
        "from funcbatch.codecheck import double_simplex, verify\n"
        "v = verify(double_simplex(4), 16, 2, jobs=2, budget_seconds=2)\n"
        "peak = next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:'))\n"
        "print(v.status, v.wall_time, peak)\n")
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    status, seconds, peak_kib = proc.stdout.split()
    assert status == UNDECIDED
    assert float(seconds) < 4
    assert int(peak_kib) < 30 << 10


def full_sweep(matrix, t, r, deterministic, budget=None):
    """Reference sweep: screen unless deterministic, then every multiset in lex order."""
    cat = build_catalog(matrix, r)
    q = (1 << matrix.k) - 1
    screen = [] if deterministic else [
        (w,) * t for w in sorted(range(1, q + 1), key=lambda v: (-v.bit_count(), -v))]
    checked = 0
    for batch in chain(screen, combinations_with_replacement(range(1, q + 1), t)):
        if budget is not None and checked >= budget:
            return UNDECIDED, None, checked
        checked += 1
        if find_disjoint_assignment(cat, batch) is None:
            return FAILS, batch, checked
    return HOLDS, None, checked


@st.composite
def invariant_cases(draw):
    k = draw(st.integers(1, 3))
    cols = list(range(1, 1 << k)) * draw(st.integers(1, 2)) + [0] * draw(st.integers(0, 2))
    cols = draw(st.permutations(cols))
    return GeneratorMatrix(k, tuple(cols)), draw(st.integers(1, 5)), draw(st.integers(1, 3))


@settings(max_examples=150, deadline=None)
@given(invariant_cases(), st.booleans(), st.none() | st.integers(0, 60))
def test_reduced_sweep_matches_full_sweep(case, deterministic, budget):
    matrix, t, r = case
    assert _is_invariant(matrix)
    v = verify(matrix, t, r, deterministic=deterministic, budget_batches=budget)
    assert (v.status, v.counterexample, v.assignments_checked) == full_sweep(
        matrix, t, r, deterministic, budget)
    assert v.batches_searched <= v.assignments_checked


@settings(max_examples=25, deadline=None)
@given(invariant_cases(), st.booleans())
def test_reduced_sweep_parallel_matches_full_sweep(case, deterministic):
    matrix, t, r = case
    v = verify(matrix, t, r, deterministic=deterministic, jobs=2)
    assert (v.status, v.counterexample) == full_sweep(matrix, t, r, deterministic)[:2]


@st.composite
def lazy_catalog_cases(draw):
    k = draw(st.integers(1, 4))
    cols = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=9))
    return GeneratorMatrix(k, tuple(cols)), draw(st.integers(1, 4)), draw(st.integers(1, 4))


@settings(max_examples=80, deadline=None)
@given(lazy_catalog_cases(), st.booleans(), st.none() | st.integers(0, 60), st.sampled_from([1, 2]))
def test_sizes_built_on_demand_match_the_full_catalog(case, deterministic, budget, jobs):
    """verify against the same sweep deciding every batch by the complete search over build_catalog.

    jobs=1 runs in this process; jobs=2 forks one worker unless the matrix is invariant.
    """
    matrix, t, r = case
    full = build_catalog(matrix, r)

    def full_catalog_decider(catalog, batch, deadline):
        return find_disjoint_assignment(full, batch) is not None

    runs = []
    for decider in (codecheck._serves, full_catalog_decider):
        with fixed_workers(jobs), mock.patch.object(codecheck, "_serves", decider):
            v = verify(matrix, t, r, deterministic=deterministic, jobs=jobs, budget_batches=budget)
        runs.append((v.status, v.counterexample, v.assignments_checked, v.batches_searched))
    assert runs[0] == runs[1]
    if jobs == 1:
        assert runs[0][:3] == full_sweep(matrix, t, r, deterministic, budget)


def gl_images(k):
    """Every invertible k x k map over GF(2), as the images of the unit vectors."""
    for images in product(range(1, 1 << k), repeat=k):
        if rank(GeneratorMatrix(k, images), (1 << k) - 1) == k:
            yield images


def apply_map(images, w):
    out = 0
    for i, image in enumerate(images):
        if w >> i & 1:
            out ^= image
    return out


@pytest.mark.parametrize("k", [1, 2, 3])
def test_representatives_hold_every_orbit_minimum(k):
    q = (1 << k) - 1
    maps = list(gl_images(k))
    for t in range(1, 5):
        reps = list(_representatives(q, t))
        assert [rank for rank, _ in reps] == [rank_multiset(b, q) for _, b in reps]
        batches = [b for _, b in reps]
        assert all(a < b for a, b in zip(batches, batches[1:]))
        minima = {
            min(tuple(sorted(apply_map(g, w) for w in batch)) for g in maps)
            for batch in combinations_with_replacement(range(1, q + 1), t)
        }
        assert minima <= set(batches)


def gl4_orbit_minima(t):
    """The lex-least member of every GL(4,2) orbit on sorted t-multisets over 1..15.

    Each orbit is the closure of one member under two generators of
    GL(4,2): e2 -> e1 + e2 fixing the other unit vectors, and the cycle
    e1 -> e2 -> e3 -> e4 -> e1.  Multisets are visited in lex order, so the
    first member seen of each orbit is its least.
    """
    generators = [[apply_map(images, w) for w in range(16)] for images in ((1, 3, 4, 8), (2, 4, 8, 1))]
    seen = set()
    minima = []
    for batch in combinations_with_replacement(range(1, 16), t):
        if batch in seen:
            continue
        minima.append(batch)
        seen.add(batch)
        todo = [batch]
        while todo:
            member = todo.pop()
            for g in generators:
                image = tuple(sorted(g[w] for w in member))
                if image not in seen:
                    seen.add(image)
                    todo.append(image)
    return minima


def assert_representatives_hold_gl4_orbit_minima(t, orbits):
    reps = list(_representatives(15, t))
    assert [rank for rank, _ in reps] == [rank_multiset(b, 15) for _, b in reps]
    minima = gl4_orbit_minima(t)
    # Burnside's orbit counts for GL(4,2)
    assert len(minima) == orbits
    assert set(minima) <= {b for _, b in reps}


@pytest.mark.parametrize("t,orbits", [(1, 1), (2, 2), (3, 4), (4, 8), (5, 15), (6, 30)])
def test_representatives_hold_every_gl4_orbit_minimum(t, orbits):
    assert_representatives_hold_gl4_orbit_minima(t, orbits)


@pytest.mark.stretch
def test_representatives_hold_every_gl4_orbit_minimum_t8_stretch():
    assert_representatives_hold_gl4_orbit_minima(8, 107)


def test_representative_counts():
    assert sum(1 for _ in _representatives(15, 8)) == 398
    assert sum(1 for _ in _representatives(127, 2)) == 2


@pytest.mark.parametrize("matrix", [simplex(4), double_simplex(4)], ids=["simplex4", "double4"])
@pytest.mark.parametrize("t", [4, 5])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_reduced_sweep_matches_full_sweep_k4(matrix, t, r):
    cols = list(matrix.cols) + [0, 0]
    random.Random(10 * t + r).shuffle(cols)
    matrix = GeneratorMatrix(4, tuple(cols))
    assert _is_invariant(matrix)
    for deterministic in (False, True):
        for budget in (None, 0, 37, 500):
            expected = full_sweep(matrix, t, r, deterministic, budget)
            for jobs in (1, 2):
                with fixed_workers(jobs):
                    v = verify(matrix, t, r, deterministic=deterministic, jobs=jobs,
                               budget_batches=budget)
                assert (v.status, v.counterexample, v.assignments_checked) == expected, (
                    deterministic, budget, jobs)


def test_invariance_ignores_order_and_zero_columns():
    assert _is_invariant(simplex(3)) and _is_invariant(double_simplex(2))
    assert _is_invariant(GeneratorMatrix(2, (3, 0, 1, 2, 0)))
    assert not _is_invariant(GeneratorMatrix(2, (1, 2, 3, 1)))
    assert not _is_invariant(GeneratorMatrix(2, (1, 2)))
    assert not _is_invariant(GeneratorMatrix(2, (0, 0)))


def test_reduced_sweep_searches_representatives_only():
    v = verify(simplex(3), 4, 2)
    assert v.assignments_checked == 7 + 210
    assert v.batches_searched == 7 + 7


@pytest.mark.parametrize("deterministic", [False, True])
@pytest.mark.parametrize("matrix,t", [
    (GeneratorMatrix(3, (1, 1, 0, 6, 7, 7, 2)), 3),
    (GeneratorMatrix(3, (1, 2, 3, 4, 5, 6, 7, 1)), 3),
    (GeneratorMatrix(2, (1, 2, 3, 1, 2)), 2),
])
def test_full_sweep_searches_every_checked_batch(matrix, t, deterministic):
    assert not _is_invariant(matrix)
    v = verify(matrix, t, 2, deterministic=deterministic)
    assert v.batches_searched == v.assignments_checked


def test_worker_count_clamp(monkeypatch):
    # the cap is the CPUs this process may use (e.g. under taskset), not the host's
    monkeypatch.setattr(codecheck.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(codecheck.os, "cpu_count", lambda: 64)
    assert _worker_count(8) == 2
    assert _worker_count(10**6) == 2
    assert _worker_count(1) == 1
    assert _worker_count(0) == 1
    # a platform without affinity masks falls back to the CPU count, 1 if unknown
    monkeypatch.delattr(codecheck.os, "sched_getaffinity", raising=False)
    assert _worker_count(8) == 8
    monkeypatch.setattr(codecheck.os, "cpu_count", lambda: None)
    assert _worker_count(4) == 1
