import random
import re
from decimal import Decimal
from math import factorial, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcbatch import bounds
from funcbatch.bounds import (
    AMGM,
    BASELINE,
    CHAIN,
    EXACT,
    PRODUCT,
    SQRT,
    chain_bound_table,
    construction_length,
    min_n,
    min_n_exact,
    necessary_condition,
    r2_comparison_table,
)
from funcbatch.counting import LabellingTable
from oracles import first_true_by_halving


def product_cert(n, k, t, r):
    if n < t:
        return False
    return (2 * n - t + 1) * (n - t) ** (r - 1) >= 2 * ((1 << k) - 1) * factorial(r - 1)


def amgm_cert(n, k, t, r):
    b = 2 * r * (n - t) + t + 1
    return b > 0 and b ** r >= (2 * r) ** r * ((1 << k) - 1) * factorial(r - 1)


def chain_cert(n, k, t, r):
    b = 2 * n - t - r + 2
    return b > 0 and b ** r >= (1 << r) * ((1 << k) - 1) * factorial(r - 1)


def sqrt_cert(n, k, t):
    b = 4 * n - 3 * t + 5
    return b >= 0 and b * b >= 32 * ((1 << k) - 1)


def baseline_cert(n, k, t):
    return (t + 1) ** n >= ((1 << k) - 1) ** t


def test_code_params_validation():
    # k in 1..24, t and r positive: every solver checks the code parameters alike
    for solve in (lambda k, t, r: min_n(CHAIN, k, t, r), min_n_exact,
                  lambda k, t, r: necessary_condition(40, k, t, r)):
        solve(24, 1, 1)
        for (k, t, r), message in [((0, 1, 1), "k must be in 1..24, got 0"),
                                   ((25, 1, 1), "k must be in 1..24, got 25"),
                                   ((3, 0, 1), "t must be positive"),
                                   ((3, 1, 0), "r must be positive")]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                solve(k, t, r)


def test_necessary_condition_fixtures():
    assert necessary_condition(5, 2, 4, 2)          # 360 >= 81
    assert not necessary_condition(4, 2, 4, 2)      # 24 < 81
    assert not necessary_condition(9, 3, 8, 2)
    assert necessary_condition(10, 3, 8, 2)


def test_necessary_condition_monotone_in_n():
    for k in (2, 3):
        for t in (2, 4):
            for r in (1, 2):
                seen_true = False
                for n in range(0, 30):
                    value = necessary_condition(n, k, t, r)
                    if seen_true:
                        assert value
                    seen_true = seen_true or value


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 40), st.data())
def test_exact_search_matches_a_direct_count(k, t, r, data):
    # necessary_condition stops its search just past n; the table counts at n alone
    table, rhs = LabellingTable(r), ((1 << k) - 1) ** t
    n = data.draw(st.integers(0, 2 * min_n_exact(k, t, r) + 2), label="n")
    assert necessary_condition(n, k, t, r) == (table.count(n, t) >= rhs)
    for bound_id in (PRODUCT, AMGM, CHAIN):
        outcome = min_n(bound_id, k, t, r)
        assert outcome.vacuous == (table.count(outcome.applicability_floor - 1, t) >= rhs)


def test_min_n_exact_fixtures():
    assert min_n_exact(2, 4, 2) == 5
    assert min_n_exact(4, 16, 2) == 19
    assert min_n_exact(7, 128, 2) == 146
    assert min_n_exact(3, 8, 2) == 10


def test_min_n_exact_is_a_boundary():
    for (k, t, r) in [(2, 4, 2), (3, 8, 2), (5, 3, 3), (1, 4, 2)]:
        n = min_n_exact(k, t, r)
        assert necessary_condition(n, k, t, r)
        if n > 0:
            assert not necessary_condition(n - 1, k, t, r)


def r2_count_closed_form(n, t):
    """Cap-2 count: j labels used twice, t - j once, on t + j of the n positions.

    Term j is C(t, j) * n! / ((n - t - j)! * 2^j); the falling factorial
    n! / (n - t - j)! and C(t, j) are carried from one term to the next, each
    by one exact step, and 2^j divides the product of the two.
    """
    total = 0
    falling = perm(n, t)
    choose = 1
    for j in range(0, min(t, n - t) + 1):
        if j:
            falling *= n - t - j + 1
            choose = choose * (t - j + 1) // j
        total += choose * falling >> j
    return total


def test_r2_closed_form_matches_table():
    table = LabellingTable(2)
    for t in range(0, 12):
        for n in range(t, 40):
            assert r2_count_closed_form(n, t) == table.count(n, t)


def test_min_n_exact_matches_linear_scan():
    for r in range(1, 5):
        table = LabellingTable(r)
        for k in range(1, 7):
            for t in (1, 2, 3, 5, 8, 13, 32, 64):
                n = t
                while table.count(n, t) < ((1 << k) - 1) ** t:
                    n += 1
                assert min_n_exact(k, t, r) == n


def test_min_n_exact_k10_pinned_by_closed_form():
    t, rhs = 1024, 1023 ** 1024
    assert r2_count_closed_form(1132, t) >= rhs > r2_count_closed_form(1131, t)
    assert min_n_exact(10, t, 2) == 1132


@pytest.mark.parametrize("k,n", [(11, 2248), (12, 4468)])
def test_min_n_exact_past_k10_pinned_by_closed_form(k, n):
    t = 1 << k
    rhs = ((1 << k) - 1) ** t
    assert r2_count_closed_form(n, t) >= rhs > r2_count_closed_form(n - 1, t)
    assert min_n_exact(k, t, 2) == n


@pytest.mark.stretch
def test_min_n_exact_k13_pinned_by_closed_form_stretch():
    t, rhs = 8192, 8191 ** 8192
    assert r2_count_closed_form(8888, t) >= rhs > r2_count_closed_form(8887, t)
    assert min_n_exact(13, t, 2) == 8888


def test_min_n_product_fixture():
    o = min_n(PRODUCT, 10, 2, 3)
    assert o.min_n == 15 and not o.clamped and not o.vacuous
    assert o.applicability_floor == 5


def test_min_n_product_cap_one_shape():
    # at cap 1 the inequality is 2^k - 1 <= n - (t-1)/2
    for k in (3, 6):
        for t in (1, 4):
            o = min_n(PRODUCT, k, t, 1)
            n = o.raw_min_n
            assert 2 * n - t + 1 >= 2 * ((1 << k) - 1)
            assert 2 * (n - 1) - t + 1 < 2 * ((1 << k) - 1)


def test_min_n_amgm_fixture():
    o = min_n(AMGM, 10, 2, 3)
    assert o.min_n == 15
    # mean-inequality relaxation never exceeds the product bound by more than a unit
    for k in range(1, 16):
        for t in range(1, 5):
            for r in range(1, 6):
                assert min_n(AMGM, k, t, r).raw_min_n <= min_n(PRODUCT, k, t, r).raw_min_n + 1


def test_min_n_amgm_monotone_in_k():
    prev = 0
    for k in range(1, 16):
        cur = min_n(AMGM, k, 2, 3).raw_min_n
        assert cur >= prev
        prev = cur


def test_min_n_chain_fixtures():
    assert min_n(CHAIN, 15, 2, 2).min_n == 183
    assert min_n(CHAIN, 5, 2, 3).min_n == 6
    assert min_n(CHAIN, 15, 3, 3).min_n == 43


def test_min_n_chain_near_tie_certification():
    # 64^3 = 262144 barely clears 2^3 * 16383 * 2 = 262128
    o = min_n(CHAIN, 14, 3, 3)
    assert o.min_n == 34
    assert chain_cert(34, 14, 3, 3)
    assert not chain_cert(33, 14, 3, 3)


def test_min_n_chain_clamped_and_vacuous_cells():
    o = min_n(CHAIN, 7, 2, 5)
    assert (o.min_n, o.raw_min_n, o.clamped, o.vacuous) == (9, 8, True, False)
    o = min_n(CHAIN, 5, 2, 5)
    assert (o.min_n, o.raw_min_n, o.clamped, o.vacuous) == (9, 7, True, True)
    o = min_n(CHAIN, 6, 2, 5)
    assert (o.min_n, o.raw_min_n, o.clamped, o.vacuous) == (9, 7, True, True)
    o = min_n(CHAIN, 8, 2, 5)
    assert (o.min_n, o.raw_min_n, o.clamped, o.vacuous) == (9, 9, False, False)


def test_bound_outcome_repr_prints_rhs_past_the_int_digit_cap():
    prefix = "BoundOutcome(bound_id='baseline', raw_min_n=1778, applicability_floor=0, vacuous=False, rhs="
    outcome = min_n(BASELINE, 24, 700, 1)
    assert outcome.rhs.bit_length() == 16800  # about 5,060 digits, past the 4,300 cap
    text = repr(outcome)
    assert text.startswith(prefix) and text.endswith(")")
    assert Decimal(text[len(prefix):-1]) == outcome.rhs
    # a large-cap chain cell is solved at once and prints alike
    assert repr(min_n(CHAIN, 3, 2, 2000)).startswith(
        "BoundOutcome(bound_id='chain', raw_min_n=1736, applicability_floor=3999, vacuous=True, rhs=")
    # an ordinary rhs prints as the NamedTuple default does
    assert repr(min_n(CHAIN, 7, 2, 5)) == (
        "BoundOutcome(bound_id='chain', raw_min_n=8, applicability_floor=9, vacuous=False, rhs=97536)")


def test_min_n_sqrt_fixtures():
    assert min_n(SQRT, 7, 128, 2).min_n == 111
    assert min_n(SQRT, 5, 32, 2).min_n == 31
    assert min_n(SQRT, 2, 4, 2).min_n == 5
    assert not min_n(SQRT, 7, 128, 2).clamped


def test_min_n_baseline_fixtures():
    assert min_n(BASELINE, 5, 2, 1).min_n == 7
    assert min_n(BASELINE, 15, 2, 1).min_n == 19
    for t in (1, 3, 9):
        assert min_n(BASELINE, 1, t, 1).min_n == 0


def test_construction_length():
    assert construction_length(1) == 2
    assert construction_length(3) == 14
    assert construction_length(7) == 254
    with pytest.raises(ValueError):
        construction_length(0)


def test_r2_comparison_rows():
    rows = r2_comparison_table()
    got = [(r.k, r.t, r.sqrt_min, r.exact_min, r.construction) for r in rows]
    assert got == [
        (2, 4, 5, 5, 6),
        (3, 8, 9, 10, 14),
        (4, 16, 17, 19, 30),
        (5, 32, 31, 38, 62),
        (6, 64, 58, 74, 126),
        (7, 128, 111, 146, 254),
    ]
    for r in rows:
        assert r.sqrt_min <= r.exact_min <= r.construction


def test_every_closed_form_left_side_is_nondecreasing_from_zero():
    # min_n searches every closed-form bound from n = 0, so no left side may
    # dip on the way up: product's is 0 below n = t
    for bound_id, spec in bounds._SPECS.items():
        for t in range(1, 41):
            for r in range(1, 7):
                lhs = [spec.lhs(n, t, r) for n in range(2 * (t + r) + 40)]
                assert lhs == sorted(lhs), (bound_id, t, r)


def test_first_true_probes_as_the_halving_loop_does():
    rng = random.Random(20261019)
    cases = [(lo, first) for lo in range(12) for first in range(lo, lo + 300)]
    cases += [(lo, lo + rng.randrange(1 << rng.randrange(1, 48)))
              for lo in (rng.randrange(5000) for _ in range(3000))]
    for lo, first in cases:
        probes = {}
        for search in (bounds._first_true, first_true_by_halving):
            seen = probes[search] = []

            def cert(n, seen=seen, first=first):
                seen.append(n)
                return n >= first

            assert search(cert, lo) == first
        assert probes[bounds._first_true] == probes[first_true_by_halving], (lo, first)


def test_chain_table_cells():
    rows = chain_bound_table()
    cells = {}
    for row in rows:
        cells[row.k] = (row.baseline_min,) + tuple(None if o.vacuous else o.min_n for o in row.cells)
    assert cells[5] == (7, 7, 6, 6, None)
    assert cells[6] == (8, 9, 7, 8, None)
    assert cells[7] == (9, 13, 8, 9, 9)
    assert cells[8] == (11, 17, 10, 10, 9)
    assert cells[9] == (12, 24, 12, 13, 10)
    assert cells[10] == (13, 33, 15, 15, 11)
    assert cells[15] == (19, 183, 42, 43, 18)


def test_certified_minimum_property_random_draws():
    rng = random.Random(20250810)
    draws = [(rng.randrange(1, 21), rng.randrange(1, 65), rng.randrange(1, 7)) for _ in range(200)]
    # caps at which (2^k - 1)(r-1)! exceeds the float range
    draws += [(rng.randrange(1, 21), rng.randrange(1, 65), r) for r in (171, 200) for _ in range(2)]
    for k, t, r in draws:
        checks = [
            (min_n(PRODUCT, k, t, r), lambda n: product_cert(n, k, t, r), 0),
            (min_n(AMGM, k, t, r), lambda n: amgm_cert(n, k, t, r), 0),
            (min_n(CHAIN, k, t, r), lambda n: chain_cert(n, k, t, r), 0),
            (min_n(SQRT, k, t, r), lambda n: sqrt_cert(n, k, t), 1),
            (min_n(BASELINE, k, t, r), lambda n: baseline_cert(n, k, t), 0),
        ]
        for outcome, cert, lowest in checks:
            if outcome.clamped:
                assert outcome.min_n == outcome.applicability_floor
                assert outcome.raw_min_n < outcome.applicability_floor
            else:
                assert outcome.min_n == outcome.raw_min_n
            assert cert(outcome.raw_min_n)
            if outcome.raw_min_n > lowest:
                assert not cert(outcome.raw_min_n - 1)


def test_sqrt_and_baseline_ignore_r():
    # sqrt fixes cap 2 and baseline cap 1, whatever r the caller passes
    for k, t in [(3, 2), (7, 128), (12, 5)]:
        for bound_id in (SQRT, BASELINE):
            assert len({min_n(bound_id, k, t, r) for r in (0, 1, 2, 3, 200)}) == 1
    with pytest.raises(ValueError):
        min_n(EXACT, 3, 2, 2)
