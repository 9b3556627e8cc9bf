"""Exact counts of bounded-multiplicity labellings.

The central quantity is the number of ways to label n positions with labels
{0, 1, ..., t} so that every nonzero label appears at least once and at most
r times.  labelling_counter computes it, in integers throughout, from the
series numerators divided by t!, which each counter builds for itself only
as far as the lengths asked of it; the exact counting bound keeps one
counter for its whole search, and labelling_count_egf, which the CLI's count
reads, builds one per call.  No state is shared between calls.  The
closed-form ceilings on the count are stated once, as the bound
inequalities of bounds._SPECS.  Every entry point, the counter returned
included, checks its integer arguments with funcbatch.check_int: n and t
nonnegative ints, r a positive int.
"""

from __future__ import annotations

from itertools import islice
from math import comb, factorial
from typing import Callable, Iterator

from funcbatch import check_int


class LabellingTable:
    """Memoized (t, n) table of labelling counts for a fixed per-label cap r.

    Row t is filled from row t-1 through
        count(n, t) = sum_{i=1..min(r,n)} C(n, i) * count(n-i, t-1),
    with count(n, 0) = 1.  Rows extend lazily; memory is O(t * n) integers.
    Not safe for concurrent writers; give each worker its own table.  No
    engine uses it: it is the tests' reference for labelling_count_egf, and
    it stays here only because bench/tracer.py wraps LabellingTable.count
    by name, until the benchmark drops that metric (ROADMAP item 1).
    """

    def __init__(self, r: int) -> None:
        check_int("r", r, 1)
        self.r = r
        self._rows: dict[int, list[int]] = {0: [1]}

    def count(self, n: int, t: int) -> int:
        check_int("n", n, 0)
        check_int("t", t, 0)
        row0 = self._rows[0]
        while len(row0) <= n:
            row0.append(1)
        for tt in range(1, t + 1):
            row = self._rows.setdefault(tt, [])
            prev = self._rows[tt - 1]
            for m in range(len(row), n + 1):
                val = 0
                for i in range(1, min(self.r, m) + 1):
                    p = prev[m - i]
                    if p:
                        val += comb(m, i) * p
                row.append(val)
        return self._rows[t][n]


def _reduced_numerators(t: int, r: int) -> Iterator[int]:
    """Reduced numerators g_j = c_{t+j} / t! for j = 0, 1, ..., (r-1)t, in order.

    c_m = m! [x^m] (x/1! + ... + x^r/r!)^t counts the labellings of m
    positions by 1..t that use every label between 1 and r times.  Permuting
    the labels acts freely on them, since every label is used, so t!
    divides every c_m.  Miller's recurrence for a power of a power series
    (Knuth, TAOCP vol. 2, 4.7), applied to (x/1! + ... + x^r/r!)/x, cleared
    of denominators and divided by t!, gives g_0 = 1 and for j >= 1
        j r! g_j = sum_{i=1..min(j, r-1)} (ti - j + i) (t+j)_i (r!/(i+1)!) g_{j-i}
    with (t+j)_i a falling factorial; the division is exact.
    """
    r_fact = factorial(r)
    weights = [r_fact // factorial(i + 1) for i in range(r)]
    g = [1]
    yield 1
    for j in range(1, (r - 1) * t + 1):
        total, falling = 0, 1
        for i in range(1, min(j, r - 1) + 1):
            falling *= t + j - i + 1
            total += (t * i - j + i) * falling * weights[i] * g[j - i]
        g.append(total // (j * r_fact))
        yield g[j]


def labelling_counter(t: int, r: int) -> Callable[[int], int]:
    """count(n), the labelling count of length n for this (t, r), at any n in any order.

    count(n) = t! sum_j C(n, t+j) g_j over the reduced numerators g_j.
    C(n, t+j) places the t+j positions with a nonzero label (the e^x factor
    of the series); each binomial comes from the one before by the exact
    step C(n, m+1) = C(n, m) (n-m) / (m+1), and only the numerators up to
    j = n - t are read.  The counter keeps its own numerators, extended only
    past the largest n - t asked so far, so a search over many lengths
    builds each numerator once; give each thread its own counter.
    """
    check_int("t", t, 0)
    check_int("r", r, 1)
    numerators, g, t_fact = _reduced_numerators(t, r), [], factorial(t)

    def count(n: int) -> int:
        check_int("n", n, 0)
        if n < t:
            return 0  # some label has no position; no numerator is built
        g.extend(islice(numerators, max(0, n - t + 1 - len(g))))
        binom, total = comb(n, t), 0
        for j, gj in enumerate(islice(g, n - t + 1)):
            total += binom * gj
            binom = binom * (n - t - j) // (t + j + 1)
        return t_fact * total

    return count


def labelling_count_egf(n: int, t: int, r: int) -> int:
    """Labelling count of length n, from a counter built for this one call."""
    return labelling_counter(t, r)(n)
