from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import comb, factorial, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcbatch import counting
from funcbatch.bounds import min_n_exact
from funcbatch.counting import LabellingTable, labelling_count_egf, labelling_counter
from oracles import (
    brute_force_count,
    egf_numerators,
    labelling_count_direct,
    labelling_upper_general,
    labelling_upper_iterated,
    labelling_upper_r2,
)


def test_count_matches_brute_force_oracle():
    for n in range(0, 8):
        for t in range(0, 4):
            for r in range(1, 4):
                expected = brute_force_count(n, t, r)
                assert labelling_count_direct(n, t, r) == expected
                assert LabellingTable(r).count(n, t) == expected
                assert labelling_count_egf(n, t, r) == expected


def test_count_direct_fixed_values():
    assert labelling_count_direct(5, 4, 2) == 360
    assert labelling_count_direct(3, 0, 2) == 1
    assert labelling_count_direct(2, 4, 2) == 0  # n < t
    assert labelling_count_direct(0, 3, 2) == 0
    assert labelling_count_direct(0, 0, 5) == 1


def test_count_recursion_fixed_values():
    assert LabellingTable(1).count(1, 1) == 1
    assert LabellingTable(2).count(9, 8) == 1814400
    assert LabellingTable(2).count(10, 8) == 41731200
    assert LabellingTable(3).count(8, 4) == 148680


def test_three_methods_agree_on_wider_grid():
    for r in range(1, 5):
        table = LabellingTable(r)
        for t in range(0, 5):
            for n in range(0, 13):
                expected = table.count(n, t)
                assert labelling_count_direct(n, t, r) == expected
                assert labelling_count_egf(n, t, r) == expected


def test_table_agrees_with_direct_on_audit_grid():
    for r in range(1, 4):
        table = LabellingTable(r)
        for t in range(0, 5):
            for n in range(0, 11):
                assert table.count(n, t) == labelling_count_direct(n, t, r)


def test_cap_one_count_is_falling_factorial():
    for n in range(0, 10):
        for t in range(0, n + 1):
            assert LabellingTable(1).count(n, t) == perm(n, t)


def test_count_monotone_in_n_and_r():
    for r in range(1, 4):
        table = LabellingTable(r)
        bigger = LabellingTable(r + 1)
        for t in range(0, 4):
            for n in range(0, 10):
                assert table.count(n, t) <= table.count(n + 1, t)
                assert table.count(n, t) <= bigger.count(n, t)


def test_count_never_exceeds_total_labellings():
    for r in range(1, 5):
        for t in range(0, 5):
            for n in range(0, 13):
                assert LabellingTable(r).count(n, t) <= (t + 1) ** n


def test_one_step_recursion_inequality():
    # count(n, t) <= r * C(n, r) * count(n-1, t-1) once n >= 2r - 1
    for r in range(1, 5):
        table = LabellingTable(r)
        for t in range(1, 5):
            for n in range(max(1, 2 * r - 1), 13):
                assert table.count(n, t) <= r * comb(n, r) * table.count(n - 1, t - 1)


def test_args_validation():
    with pytest.raises(ValueError):
        labelling_count_direct(3, 2, 0)
    with pytest.raises(ValueError):
        LabellingTable(2).count(-1, 2)
    with pytest.raises(ValueError):
        labelling_count_egf(3, -1, 2)


def frac_poly_power(r, t, max_deg):
    """Independent series oracle: coefficients of (x/1! + ... + x^r/r!)^t over Fractions."""
    base = [Fraction(0)] + [Fraction(1, factorial(j)) for j in range(1, r + 1)]
    acc = [Fraction(1)]
    for _ in range(t):
        out = [Fraction(0)] * (min(max_deg, len(acc) + len(base) - 2) + 1)
        for i, a in enumerate(acc):
            for j, b in enumerate(base):
                if i + j < len(out):
                    out[i + j] += a * b
        acc = out
    return acc


@dataclass(frozen=True)
class EgfPoly:
    """Integer numerators (c_0, ..., c_d) of the series sum_j c_j x^j / j!."""

    coeffs: tuple[int, ...]

    def mul(self, other, max_deg):
        """Product in the exponential basis: c_m = sum_j C(m, j) a_j b_{m-j}."""
        a, b = self.coeffs, other.coeffs
        deg = min(max_deg, len(a) + len(b) - 2)
        out = [0] * (deg + 1)
        for i, ai in enumerate(a):
            if ai == 0 or i > deg:
                continue
            for j in range(min(len(b), deg - i + 1)):
                bj = b[j]
                if bj:
                    out[i + j] += comb(i + j, i) * ai * bj
        return EgfPoly(tuple(out))


def single_label_series(r):
    """Numerators of x/1! + ... + x^r/r!: one label used between 1 and r times."""
    return EgfPoly((0,) + (1,) * r)


def egf_product_numerators(t, r):
    """Second oracle: the t-fold product of single_label_series(r) in the exponential basis."""
    acc = EgfPoly((1,))
    for _ in range(t):
        acc = acc.mul(single_label_series(r), r * t)
    return acc.coeffs


def test_series_numerators_match_fraction_oracle():
    for r in range(1, 5):
        for t in range(0, 6):
            oracle = frac_poly_power(r, t, r * t)
            product_form = egf_product_numerators(t, r)
            assert product_form[:t] == (0,) * t
            assert product_form[t:] == egf_numerators(t, r, r * t)
            for m, c in enumerate(egf_numerators(t, r, r * t), start=t):
                assert Fraction(c, factorial(m)) == oracle[m]


def test_series_numerators_are_integers_by_type():
    assert all(isinstance(c, int) for c in egf_product_numerators(4, 3))
    assert all(isinstance(c, int) for c in egf_numerators(4, 3, 12))


def test_numerator_recurrence_divides_exactly():
    # the returned vector satisfies the cleared recurrence with no remainder
    for r in range(1, 7):
        r_fact = factorial(r)
        for t in range(0, 13):
            c = egf_numerators(t, r, r * t)
            assert len(c) == (r - 1) * t + 1 and c[0] == factorial(t)
            for m in range(1, len(c)):
                rhs = sum((t * i - m + i) * perm(t + m, i)
                          * (r_fact // factorial(i + 1)) * c[m - i]
                          for i in range(1, min(m, r - 1) + 1))
                assert m * r_fact * c[m] == rhs


def test_numerators_up_to_n_are_a_prefix():
    for r in range(1, 6):
        for t in range(0, 9):
            full = egf_numerators(t, r, r * t)
            for n in range(t, r * t + 3):
                assert egf_numerators(t, r, n) == full[:n - t + 1]


def reduced_numerators(t, r, j_max):
    """The first j_max + 1 reduced numerators of the counter's private generator."""
    return tuple(islice(counting._reduced_numerators(t, r), j_max + 1))


def test_reduced_numerators_are_numerators_over_t_factorial():
    for r in range(1, 7):
        for t in range(0, 13):
            c = egf_numerators(t, r, r * t)
            g = reduced_numerators(t, r, (r - 1) * t)
            assert len(g) == len(c)
            assert [factorial(t) * gj for gj in g] == list(c)


def fresh_reduced(t, r, j_max):
    """Reduced numerators divided out of the oracle's numerators."""
    return tuple(c // factorial(t) for c in egf_numerators(t, r, t + j_max))


def test_reduced_numerators_do_not_depend_on_call_order():
    keys = [(9, 3, 14), (9, 3, 2), (7, 5, 20), (9, 2, 9), (7, 5, 3), (9, 3, 18), (9, 2, 0)]
    orders = {
        "large then small": [(9, 3, 18), (9, 3, 14), (9, 3, 2)],
        "small then large": [(9, 3, 2), (9, 3, 14), (9, 3, 18)],
        "interleaved keys": keys,
    }
    for order in orders.values():
        for t, r, j_max in order:
            assert reduced_numerators(t, r, j_max) == fresh_reduced(t, r, j_max)
            assert labelling_count_egf(t + j_max, t, r) == labelling_count_direct(t + j_max, t, r)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 8), st.integers(1, 4), st.data())
def test_one_counter_answers_lengths_in_any_order(t, r, data):
    drawn = data.draw(st.lists(st.integers(0, r * t + 3), max_size=12))
    # whatever was drawn, an ascent, a descent below t, repeats and the numerators' end
    lengths = drawn + [0, r * t + 3, t // 2, r * t + 3, t, t]
    count, table = labelling_counter(t, r), LabellingTable(r)
    for n in lengths:
        assert count(n) == table.count(n, t)


def test_counter_rejects_negative_arguments():
    with pytest.raises(ValueError):
        labelling_counter(-1, 2)
    with pytest.raises(ValueError):
        labelling_counter(3, 0)
    count = labelling_counter(3, 2)
    with pytest.raises(ValueError):
        count(-1)
    assert count(4) == LabellingTable(2).count(4, 3)


def test_one_exact_search_builds_its_numerators_once(monkeypatch):
    made = []
    real = counting._reduced_numerators

    def tracked(t, r):
        made.append((t, r))
        return real(t, r)

    monkeypatch.setattr(counting, "_reduced_numerators", tracked)
    assert min_n_exact(10, 1024, 2) == 1132
    assert made == [(1024, 2)]


def test_egf_count_matches_table_on_large_grid():
    for r in range(1, 6):
        table = LabellingTable(r)
        for t in range(0, 12):
            for n in range(0, 40):
                assert labelling_count_egf(n, t, r) == table.count(n, t)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 14), st.integers(0, 5), st.integers(1, 4))
def test_egf_count_matches_table_and_direct(n, t, r):
    expected = labelling_count_direct(n, t, r)
    assert LabellingTable(r).count(n, t) == expected
    assert labelling_count_egf(n, t, r) == expected


def test_upper_r2_values():
    assert labelling_upper_r2(5, 4) == Fraction(1215, 2)
    assert labelling_upper_r2(3, 0) == 1
    assert labelling_upper_r2(10, 8) == 464486400
    with pytest.raises(ValueError):
        labelling_upper_r2(3, 4)


def test_upper_r2_dominates_counts():
    table = LabellingTable(2)
    for t in range(0, 7):
        for n in range(t, 21):
            assert table.count(n, t) <= labelling_upper_r2(n, t)


def test_upper_general_values():
    assert labelling_upper_general(10, 8, 2) == 13 ** 8
    assert labelling_upper_general(8, 4, 3) == 52 ** 4 == 7311616
    assert LabellingTable(3).count(8, 4) <= labelling_upper_general(8, 4, 3)
    assert labelling_upper_general(9, 0, 3) == 1
    with pytest.raises(ValueError):
        labelling_upper_general(5, 4, 2)


def test_upper_iterated_values():
    assert labelling_upper_iterated(10, 8, 2) == 6 ** 16 == 2821109907456
    assert LabellingTable(2).count(10, 8) <= labelling_upper_iterated(10, 8, 2)
    assert labelling_upper_iterated(9, 0, 5) == 1
    with pytest.raises(ValueError):
        labelling_upper_iterated(8, 8, 2)


def test_upper_bounds_dominate_on_grid():
    for r in range(1, 6):
        table = LabellingTable(r)
        for t in range(0, 7):
            for n in range(0, 21):
                value = table.count(n, t)
                if n >= t + r:
                    assert value <= labelling_upper_general(n, t, r)
                if n >= max(t + 1, 2 * r - 1):
                    assert value <= labelling_upper_iterated(n, t, r)


def test_falling_factorial_mean_inequality():
    # (n)_m <= (n - (m-1)/2)^m <= n^m, compared exactly
    for n in range(1, 31):
        for m in range(1, n + 1):
            mid = Fraction(2 * n - m + 1, 2) ** m
            assert perm(n, m) <= mid <= n ** m
