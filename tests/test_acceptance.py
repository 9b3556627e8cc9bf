"""Acceptance suite: one test per release criterion, each printing a pass line.

Expected values marked exact are compared exactly; elapsed times are printed
for information but not asserted.
"""

import random
import time
from math import factorial

from funcbatch import bounds
from funcbatch.bounds import chain_bound_table, min_n, min_n_exact, r2_comparison_table
from funcbatch.codecheck import double_simplex, simplex, verify
from funcbatch.counting import LabellingTable, labelling_count_egf
from oracles import (
    brute_force_count,
    labelling_count_direct,
    labelling_upper_general,
    labelling_upper_iterated,
    labelling_upper_r2,
)
from worked_example import worked_example_holds


def _report(num, label, started):
    print(f"acceptance criterion {num} ({label}): PASS [{time.monotonic() - started:.2f}s]")


def test_criterion_1_r2_comparison_table():
    started = time.monotonic()
    rows = [(r.k, r.t, r.sqrt_min, r.exact_min, r.construction)
            for r in r2_comparison_table(7)]
    assert rows == [
        (2, 4, 5, 5, 6),
        (3, 8, 9, 10, 14),
        (4, 16, 17, 19, 30),
        (5, 32, 31, 38, 62),
        (6, 64, 58, 74, 126),
        (7, 128, 111, 146, 254),
    ]
    _report(1, "bound comparison table at cap 2", started)


def test_criterion_2_chain_bound_table():
    started = time.monotonic()
    expected = {
        5: (7, 7, 6, 6, None),
        6: (8, 9, 7, 8, None),
        7: (9, 13, 8, 9, 9),
        8: (11, 17, 10, 10, 9),
        9: (12, 24, 12, 13, 10),
        10: (13, 33, 15, 15, 11),
        11: (14, 47, 18, 18, 12),
        12: (16, 65, 22, 23, 13),
        13: (17, 92, 27, 28, 14),
        14: (18, 129, 34, 34, 16),
        15: (19, 183, 42, 43, 18),
    }
    rows = chain_bound_table()
    assert [row.k for row in rows] == list(range(5, 16))
    for row in rows:
        got = (row.baseline_min,) + tuple(None if o.vacuous else o.min_n for o in row.cells)
        assert got == expected[row.k], f"k={row.k}: {got} != {expected[row.k]}"
    # the flagged cell: certified exactly at 9, neither clamped nor vacuous
    flagged = rows[3].cells[3]
    assert rows[3].k == 8
    assert (flagged.min_n, flagged.raw_min_n, flagged.clamped, flagged.vacuous) == (9, 9, False, False)
    # suppressed cells sit below the floor with shorter lengths unexcluded
    for k_idx in (0, 1):
        cell = rows[k_idx].cells[3]
        assert cell.vacuous and cell.clamped and cell.raw_min_n < cell.applicability_floor
    _report(2, "chain bound table", started)


def test_criterion_3_count_method_equivalence():
    started = time.monotonic()
    for r in range(1, 5):
        table = LabellingTable(r)
        for t in range(0, 5):
            for n in range(0, 13):
                value = table.count(n, t)
                assert labelling_count_direct(n, t, r) == value
                assert labelling_count_egf(n, t, r) == value
    for r in range(1, 4):
        table = LabellingTable(r)
        for t in range(0, 4):
            for n in range(0, 8):
                assert table.count(n, t) == brute_force_count(n, t, r)
    _report(3, "count method equivalence", started)


def test_criterion_4_bound_sandwich():
    started = time.monotonic()
    for r in range(1, 6):
        table = LabellingTable(r)
        for t in range(0, 7):
            for n in range(0, 21):
                value = table.count(n, t)
                assert value <= (t + 1) ** n
                if r == 2 and n >= t:
                    assert value <= labelling_upper_r2(n, t)
                if n >= t + r:
                    assert value <= labelling_upper_general(n, t, r)
                if n >= max(t + 1, 2 * r - 1):
                    assert value <= labelling_upper_iterated(n, t, r)
    _report(4, "bound sandwich", started)


def test_criterion_5_soundness_ordering():
    started = time.monotonic()
    for k in range(1, 11):
        for t in range(1, 7):
            for r in range(1, 6):
                exact = min_n_exact(k, t, r)
                ids = [bounds.PRODUCT, bounds.AMGM, bounds.CHAIN, bounds.BASELINE]
                if r == 2:
                    ids.append(bounds.SQRT)
                outcomes = [min_n(bound_id, k, t, r) for bound_id in ids]
                for o in outcomes:
                    # vacuous flags exactly the cells whose floor overshoots
                    # the true minimum; every other cell must not exceed it
                    assert o.vacuous == (exact < o.applicability_floor), (k, t, r, o)
                    if not o.vacuous:
                        assert o.min_n <= exact, (k, t, r, o, exact)
    _report(5, "soundness ordering", started)


def test_criterion_6_verifier_fixtures():
    started = time.monotonic()
    assert verify(simplex(2), 2, 2).holds
    assert worked_example_holds()
    v = verify(simplex(3), 4, 2)
    assert v.holds and v.assignments_checked >= 210
    assert verify(double_simplex(2), 4, 2).holds
    v = verify(simplex(3), 5, 2)
    assert v.status == "fails" and v.counterexample == (7, 7, 7, 7, 7)
    v = verify(double_simplex(3), 8, 2)
    assert v.holds and v.assignments_checked >= 3003
    _report(6, "verifier fixtures", started)


def test_criterion_6_stretch_simplex4():
    started = time.monotonic()
    v = verify(simplex(4), 8, 2, jobs=2)
    assert v.holds
    _report(6, "stretch: simplex k=4 batch 8", started)


def test_criterion_7_certification_property():
    started = time.monotonic()
    rng = random.Random(1729)
    def holds_at(bound_id, n, k, t, r):
        big = (1 << k) - 1
        if bound_id == bounds.PRODUCT:
            return n >= t and (2 * n - t + 1) * (n - t) ** (r - 1) >= 2 * big * factorial(r - 1)
        if bound_id == bounds.AMGM:
            b = 2 * r * (n - t) + t + 1
            return b > 0 and b ** r >= (2 * r) ** r * big * factorial(r - 1)
        if bound_id == bounds.CHAIN:
            b = 2 * n - t - r + 2
            return b > 0 and b ** r >= (1 << r) * big * factorial(r - 1)
        if bound_id == bounds.SQRT:
            b = 4 * n - 3 * t + 5
            return b >= 0 and b * b >= 32 * big
        return (t + 1) ** n >= big ** t

    for _ in range(200):
        k = rng.randrange(1, 21)
        t = rng.randrange(1, 65)
        r = rng.randrange(1, 7)
        for bound_id in (bounds.PRODUCT, bounds.AMGM, bounds.CHAIN, bounds.SQRT, bounds.BASELINE):
            o = min_n(bound_id, k, t, r)
            if o.clamped:
                assert o.min_n == o.applicability_floor
                assert o.raw_min_n < o.applicability_floor
            else:
                assert o.min_n == o.raw_min_n
            assert holds_at(bound_id, o.raw_min_n, k, t, r)
            if o.raw_min_n > 0:
                assert not holds_at(bound_id, o.raw_min_n - 1, k, t, r)
    _report(7, "certified minimum property", started)
