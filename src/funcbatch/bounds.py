"""Lower bounds on code length: exact counting condition, closed-form relaxations, tables.

Every solver returns the smallest length passing its bound, found by one
gallop-and-bisect search over an inequality cleared of denominators, in
exact integer arithmetic throughout.  A raw value below the bound's
applicability floor is clamped to the floor; an outcome is marked vacuous
whenever some length below the floor survives the exact counting condition,
since the bound then certifies no unconditional minimum.  The solvers take
k in 1..MAX_DIMENSION and positive t and r; every integer argument is
checked by funcbatch.check_int, which raises ValueError naming a bad one.
"""

from __future__ import annotations

from math import factorial
from typing import Callable, NamedTuple, Optional

from funcbatch import BOUND_IDS, MAX_DIMENSION, check_int

EXACT, PRODUCT, AMGM, CHAIN, SQRT, BASELINE = BOUND_IDS


def _check_code(k: int, t: int, r: int) -> None:
    """Raise ValueError unless k is in 1..MAX_DIMENSION and t and r are positive ints."""
    check_int("k", k, 1, MAX_DIMENSION)
    check_int("t", t, 1)
    check_int("r", r, 1)


class BoundOutcome(NamedTuple):
    """Result of a minimal-length solver.

    raw_min_n is the uncapped solution of the bound inequality, and rhs the
    exact threshold of the certified integer comparison.  The reported
    minimum min_n is raw_min_n raised to the applicability floor; clamped
    means the raw value sat below that floor.  vacuous means some length
    below the floor still passes the exact counting condition; since the
    bound only speaks about lengths at or above its floor, such an outcome
    certifies no unconditional minimum and renders as '-'.
    """

    bound_id: str
    raw_min_n: int
    applicability_floor: int
    vacuous: bool
    rhs: int

    @property
    def min_n(self) -> int:
        return max(self.raw_min_n, self.applicability_floor)

    @property
    def clamped(self) -> bool:
        return self.raw_min_n < self.applicability_floor


def necessary_condition(n: int, k: int, t: int, r: int) -> bool:
    """Pigeonhole test: the labelling count at length n must cover all (2^k-1)^t batches.

    False certifies that no [n, k, t, r] functional batch code exists.
    """
    # imported on first use: sqrt and baseline have floors of at most 1, never
    # test this condition, and so a minn launch that solves either skips it
    from funcbatch.counting import labelling_count_egf

    _check_code(k, t, r)
    check_int("n", n, 0)
    return labelling_count_egf(n, t, r) >= ((1 << k) - 1) ** t


def _first_true(cert: Callable[[int], bool], lo: int) -> int:
    """Smallest n >= lo with cert(n), for cert monotone and eventually true."""
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


def min_n_exact(k: int, t: int, r: int) -> int:
    """Smallest length passing the exact counting condition; every probe reads one counter."""
    from funcbatch.counting import labelling_counter

    _check_code(k, t, r)
    count, rhs = labelling_counter(t, r), ((1 << k) - 1) ** t
    return _first_true(lambda n: count(n) >= rhs, lo=t)


class _Spec(NamedTuple):
    """A closed-form bound: least n >= start(t) with lhs(n, t, r) >= rhs(2^k - 1, t, r)."""

    cap: Optional[int]  # the cap the bound fixes; None takes the caller's r
    start: Callable[[int], int]
    floor: Callable[[int, int], int]
    lhs: Callable[[int, int, int], int]  # nondecreasing in n from start(t)
    rhs: Callable[[int, int, int], int]


# q = 2^k - 1 is the number of nonzero queries
_SPECS = {
    # (n-(t-1)/2)(n-t)^(r-1)/(r-1)! >= q, cleared of denominators; from n = t
    # on, where n - t is nonnegative and the left side is monotone
    PRODUCT: _Spec(None, lambda t: t, lambda t, r: t + r,
                   lambda n, t, r: (2 * n - t + 1) * (n - t) ** (r - 1),
                   lambda q, t, r: 2 * q * factorial(r - 1)),
    # mean-inequality relaxation n >= t - (t+1)/(2r) + (q(r-1)!)^(1/r)
    AMGM: _Spec(None, lambda t: 0, lambda t, r: t + r,
                lambda n, t, r: max(2 * r * (n - t) + t + 1, 0) ** r,
                lambda q, t, r: (2 * r) ** r * q * factorial(r - 1)),
    # iterated recursion n >= (t+r)/2 - 1 + (q(r-1)!)^(1/r)
    CHAIN: _Spec(None, lambda t: 0, lambda t, r: max(t + 1, 2 * r - 1),
                 lambda n, t, r: max(2 * n - t - r + 2, 0) ** r,
                 lambda q, t, r: (1 << r) * q * factorial(r - 1)),
    # cap 2: n >= (2q)^(1/2) + 3t/4 - 5/4 and n >= 1
    SQRT: _Spec(2, lambda t: 1, lambda t, r: 1,
                lambda n, t, r: max(4 * n - 3 * t + 5, 0) ** 2,
                lambda q, t, r: 32 * q),
    # unrestricted cap: (t+1)^n >= q^t
    BASELINE: _Spec(1, lambda t: 0, lambda t, r: 0,
                    lambda n, t, r: (t + 1) ** n,
                    lambda q, t, r: q ** t),
}


def min_n(bound_id: str, k: int, t: int, r: int) -> BoundOutcome:
    """Smallest length passing a closed-form bound (product, amgm, chain, sqrt, baseline).

    sqrt fixes the cap at 2 and baseline at 1, whatever r is passed.  The
    raw minimum is found by gallop and bisection on the bound's integer
    inequality, then clamped to the applicability floor.
    """
    if bound_id not in _SPECS:
        raise ValueError(f"no closed-form bound {bound_id!r}")
    spec = _SPECS[bound_id]
    r = r if spec.cap is None else spec.cap
    _check_code(k, t, r)
    rhs = spec.rhs((1 << k) - 1, t, r)
    raw = _first_true(lambda n: spec.lhs(n, t, r) >= rhs, spec.start(t))
    floor = spec.floor(t, r)
    # the outcome is an unconditional bound only when every length below
    # the applicability floor already fails the exact counting condition
    vacuous = floor > 1 and necessary_condition(floor - 1, k, t, r)
    return BoundOutcome(bound_id, raw_min_n=raw, applicability_floor=floor,
                        vacuous=vacuous, rhs=rhs)


def construction_length(k: int) -> int:
    """Length 2^(k+1) - 2 achieved by doubling the simplex generator columns."""
    check_int("k", k, 1)
    return (1 << (k + 1)) - 2


class R2ComparisonRow(NamedTuple):
    """One row comparing lower bounds with the doubled-simplex length at cap 2."""

    k: int
    t: int
    sqrt_min: int
    exact_min: int
    construction: int


def r2_comparison_table(k_max: int = 7) -> list[R2ComparisonRow]:
    """Rows for k = 2..k_max at batch size t = 2^k, cap r = 2.

    The exact column's search reads one labelling counter per row, whose
    reduced numerators are built once up to the largest length tested, and
    no t-by-n table, so k = 12 (t = 4096) takes well under a second.
    """
    check_int("k_max", k_max, 2)
    # checked before any row is solved, not by min_n_exact at the last row
    if k_max > MAX_DIMENSION:
        raise ValueError(f"k_max must be at most {MAX_DIMENSION}, got {k_max}")
    rows = []
    for k in range(2, k_max + 1):
        t = 1 << k
        rows.append(R2ComparisonRow(
            k=k,
            t=t,
            sqrt_min=min_n(SQRT, k, t, 2).min_n,
            exact_min=min_n_exact(k, t, 2),
            construction=construction_length(k),
        ))
    return rows


CHAIN_TABLE_CONFIGS: tuple[tuple[int, int], ...] = ((2, 2), (2, 3), (3, 3), (2, 5))


class ChainBoundRow(NamedTuple):
    """One row of chain-bound minima next to the baseline bound at t = 2."""

    k: int
    baseline_min: int
    cells: tuple[BoundOutcome, ...]


def chain_bound_table() -> list[ChainBoundRow]:
    """Chain-bound minima for each (t, r) in CHAIN_TABLE_CONFIGS, for dimensions k = 5..15."""
    rows = []
    for k in range(5, 16):
        cells = tuple(min_n(CHAIN, k, t, r) for (t, r) in CHAIN_TABLE_CONFIGS)
        rows.append(ChainBoundRow(k=k, baseline_min=min_n(BASELINE, k, 2, 1).min_n, cells=cells))
    return rows
