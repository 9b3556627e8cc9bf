"""Reference implementations the tests compare the library against; nothing in src/ calls them."""

from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, factorial, perm

from funcbatch import check_int


def in_span(matrix, col_mask, alpha):
    """True iff the nonzero query alpha is a GF(2) combination of the columns col_mask selects."""
    if not 0 < alpha < 1 << matrix.k:
        raise ValueError(f"alpha must be a nonzero {matrix.k}-bit vector")
    if not 0 <= col_mask < 1 << matrix.n:
        raise ValueError("column mask selects positions outside the matrix")
    span = {0}
    for j, c in enumerate(matrix.cols):
        if col_mask >> j & 1:
            span |= {v ^ c for v in span}
    return alpha in span


def brute_force_count(n, t, r):
    """Enumerate all (t+1)^n label functions; keep those using each nonzero label 1..r times."""
    total = 0
    for labels in product(range(t + 1), repeat=n):
        tally = Counter(labels)
        if all(1 <= tally.get(l, 0) <= r for l in range(1, t + 1)):
            total += 1
    return total


def labelling_count_direct(n: int, t: int, r: int) -> int:
    """Labelling count by direct summation over label-multiplicity vectors.

    Sums multinomial(n; n-s, i_1, ..., i_t) over all (i_1, ..., i_t) in
    [1, r]^t with s = sum(i) <= n.  Cost grows like r^t; a slow reference
    for the tests, next to LabellingTable.
    """
    check_int("n", n, 0)
    check_int("t", t, 0)
    check_int("r", r, 1)
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


def first_true_by_halving(cert, lo):
    """Smallest n >= lo with cert(n): a gallop from lo, then bisection written out by hand.

    The reference for bounds._first_true, which hands its bisection to the
    bisect module: for the same cert and lo, both probe the same lengths in
    the same order.
    """
    if cert(lo):
        return lo
    prev, step = lo, 1
    while not cert(prev + step):
        prev += step
        step *= 2
    lo2, hi = prev + 1, prev + step
    while lo2 < hi:
        mid = (lo2 + hi) // 2
        if cert(mid):
            hi = mid
        else:
            lo2 = mid + 1
    return lo2


def labelling_upper_r2(n, t):
    """Closed-form ceiling (n)_t * (n-t+2)^t / 2^t on the labelling count at per-label cap 2."""
    if not 0 <= t <= n:
        raise ValueError("requires 0 <= t <= n")
    return Fraction(perm(n, t) * (n - t + 2) ** t, 1 << t)


def labelling_upper_general(n, t, r):
    """Closed-form ceiling ((n-(t-1)/2) * (n-t)^(r-1) / (r-1)!)^t, valid for n >= t+r."""
    if t < 0 or r < 1 or n < t + r:
        raise ValueError(f"requires t >= 0, r >= 1 and n >= t + r = {t + r}")
    num = ((2 * n - t + 1) * (n - t) ** (r - 1)) ** t
    return Fraction(num, (1 << t) * factorial(r - 1) ** t)


def labelling_upper_iterated(n, t, r):
    """Ceiling (n-(t+r)/2+1)^(rt) / ((r-1)!)^t from iterating the one-label recursion.

    Valid for n >= max(t+1, 2r-1); t = 0 is a degenerate boundary where the
    empty product gives 1.
    """
    if t < 0 or r < 1 or n < max(t + 1, 2 * r - 1):
        raise ValueError(f"requires t >= 0, r >= 1 and n >= max(t+1, 2r-1) = {max(t + 1, 2 * r - 1)}")
    return Fraction((2 * n - t - r + 2) ** (r * t), (1 << (r * t)) * factorial(r - 1) ** t)


def egf_numerators(t, r, n):
    """Numerators c_m = m! [x^m] (x/1! + ... + x^r/r!)^t for m = t..min(n, r*t), at index m - t.

    c_m counts the labellings of m positions by 1..t that use every label
    between 1 and r times.  Miller's recurrence for a power of a power series
    (Knuth, TAOCP vol. 2, 4.7), applied to (x/1! + ... + x^r/r!)/x and
    cleared of denominators, gives c_t = t! and for m >= 1
        m r! c_{t+m} = sum_{i=1..min(m, r-1)} (ti - m + i) (t+m)_i (r!/(i+1)!) c_{t+m-i}
    with (t+m)_i a falling factorial; the division is exact.  c_t is built
    even when n < t.
    """
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


def rank_multiset(batch, q):
    """Lex rank of a sorted multiset among all sorted len(batch)-multisets over 1..q."""
    t = len(batch)
    m = q + t - 1
    combo = [batch[i] - 1 + i for i in range(t)]
    rem = 0
    prev = -1
    for i, c in enumerate(combo):
        for v in range(prev + 1, c):
            rem += comb(m - v - 1, t - i - 1)
        prev = c
    return rem
