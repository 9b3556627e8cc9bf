"""Exact counts of bounded-multiplicity labellings.

The central quantity is the number of ways to label n positions with labels
{0, 1, ..., t} so that every nonzero label appears at least once and at most
r times.  Three methods compute it in integers throughout: direct summation,
the memoized recursion of LabellingTable, and the series numerators behind
the exact counting bound.  The closed-form ceilings on the count are stated
once, as the bound inequalities of bounds._SPECS.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial


def _validate_count_args(n: int, t: int, r: int) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if r < 1:
        raise ValueError("r must be positive")


def labelling_count_direct(n: int, t: int, r: int) -> int:
    """Labelling count by direct summation over label-multiplicity vectors.

    Sums multinomial(n; n-s, i_1, ..., i_t) over all (i_1, ..., i_t) in
    [1, r]^t with s = sum(i) <= n.  Cost grows like r^t; intended as the
    slow reference next to the recursion and the series numerators.
    """
    _validate_count_args(n, t, r)
    if t == 0:
        return 1
    n_fact = factorial(n)
    total = 0

    def walk(pos: int, used: int, denom: int) -> None:
        nonlocal total
        if pos == t:
            total += n_fact // (denom * factorial(n - used))
            return
        # each remaining label still needs at least one position
        cap = min(r, n - used - (t - pos - 1))
        for i in range(1, cap + 1):
            walk(pos + 1, used + i, denom * factorial(i))

    walk(0, 0, 1)
    return total


class LabellingTable:
    """Memoized (t, n) table of labelling counts for a fixed per-label cap r.

    Row t is filled from row t-1 through
        count(n, t) = sum_{i=1..min(r,n)} C(n, i) * count(n-i, t-1),
    with count(n, 0) = 1.  Rows extend lazily; memory is O(t * n) integers.
    Not safe for concurrent writers; give each worker its own table.
    """

    def __init__(self, r: int) -> None:
        if r < 1:
            raise ValueError("r must be positive")
        self.r = r
        self._rows: dict[int, list[int]] = {0: [1]}

    def count(self, n: int, t: int) -> int:
        _validate_count_args(n, t, self.r)
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


def labelling_count(n: int, t: int, r: int) -> int:
    """Labelling count via the memoized recursion (fresh table per call)."""
    return LabellingTable(r).count(n, t)


@lru_cache(maxsize=64)
def egf_numerators(t: int, r: int, n: int) -> tuple[int, ...]:
    """Numerators c_m = m! [x^m] (x/1! + ... + x^r/r!)^t for m = t..min(n, r*t), at index m - t.

    c_m counts the labellings of m positions by 1..t that use every label
    between 1 and r times.  Miller's recurrence for a power of a power series
    (Knuth, TAOCP vol. 2, 4.7), applied to (x/1! + ... + x^r/r!)/x and
    cleared of denominators, gives c_t = t! and for m >= 1
        m r! c_{t+m} = sum_{i=1..min(m, r-1)} (ti - m + i) (t+m)_i (r!/(i+1)!) c_{t+m-i}
    with (t+m)_i a falling factorial; the division is exact.  c_t is built
    even when n < t.
    """
    _validate_count_args(n, t, r)
    r_fact = factorial(r)
    weights = [r_fact // factorial(i + 1) for i in range(r)]
    c = [factorial(t)]
    for m in range(1, min(n, r * t) - t + 1):
        total, falling = 0, 1
        for i in range(1, min(m, r - 1) + 1):
            falling *= t + m - i + 1
            total += (t * i - m + i) * falling * weights[i] * c[m - i]
        c.append(total // (m * r_fact))
    return tuple(c)


def labelling_count_egf(n: int, t: int, r: int) -> int:
    """Labelling count sum_m C(n, m) c_m over the numerators of egf_numerators(t, r, n).

    C(n, m) places the m positions with a nonzero label (the e^x factor of
    the series); only the numerators up to m = n are built.
    """
    _validate_count_args(n, t, r)
    if n < t:
        return 0  # some label has no position; no vector is built
    return sum(comb(n, m) * c for m, c in enumerate(egf_numerators(t, r, n), start=t))
