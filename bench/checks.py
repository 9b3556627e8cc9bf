"""Arithmetic and a brute-force oracle the benchmark uses to judge funcbatch's answers.

Nothing here imports funcbatch: the checks must not share code with the
program they check.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Sequence


def multiset_count(q: int, t: int) -> int:
    """Number of sorted t-multisets over 1..q."""
    return comb(q + t - 1, t)


def multiset_rank(batch: Sequence[int], q: int) -> int:
    """Lex rank of a sorted multiset among all sorted len(batch)-multisets over 1..q."""
    t = len(batch)
    rank = 0
    low = 1
    for i, value in enumerate(batch):
        # multisets that agree before position i and hold a smaller value there
        for v in range(low, value):
            rank += multiset_count(q - v + 1, t - i - 1)
        low = value
    return rank


def decided_batches(k: int, t: int, counterexample: Sequence[int] | None) -> int:
    """Batches a verify run settles: all C(2^k-2+t, t) when it holds, rank+1 when it fails."""
    q = (1 << k) - 1
    if counterexample is None:
        return multiset_count(q, t)
    return multiset_rank(counterexample, q) + 1


def subsets_upto(n: int, r: int) -> int:
    """Column subsets of sizes 1..r that catalog construction enumerates: sum of C(n, s)."""
    return sum(comb(n, s) for s in range(1, min(r, n) + 1))


def _in_span(cols: Sequence[int], subset: Sequence[int], query: int) -> bool:
    pivots: dict[int, int] = {}
    for j in subset:
        word = cols[j]
        while word:
            top = word.bit_length() - 1
            if top not in pivots:
                pivots[top] = word
                break
            word ^= pivots[top]
    while query:
        top = query.bit_length() - 1
        if top not in pivots:
            return False
        query ^= pivots[top]
    return True


def brute_force_serves(cols: Sequence[int], r: int, batch: Sequence[int]) -> bool:
    """True iff the batch has pairwise-disjoint recovery sets of size <= r.

    Candidates are *all* column subsets of size <= r whose span holds the
    query, minimal or not, so this does not rely on the minimality argument
    the engine's catalog uses.
    """
    n = len(cols)
    candidates: dict[int, list[int]] = {}
    for query in set(batch):
        candidates[query] = [
            sum(1 << j for j in subset)
            for size in range(1, min(r, n) + 1)
            for subset in combinations(range(n), size)
            if _in_span(cols, subset, query)
        ]
    queries = sorted(batch)

    def extend(pos: int, used: int, first: int) -> bool:
        if pos == len(queries):
            return True
        options = candidates[queries[pos]]
        # equal queries are interchangeable: take their sets in index order
        start = first if pos > 0 and queries[pos] == queries[pos - 1] else 0
        for idx in range(start, len(options)):
            mask = options[idx]
            if not mask & used and extend(pos + 1, used | mask, idx + 1):
                return True
        return False

    return extend(0, 0, 0)
