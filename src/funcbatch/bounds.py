"""Lower bounds on code length: exact counting condition, closed-form relaxations, tables.

Every solver returns the smallest length passing its bound, certified by
exact integer arithmetic after clearing denominators; floating point only
seeds the search.  A raw value below the bound's applicability floor is
clamped to the floor; an outcome is marked vacuous whenever some length
below the floor survives the exact counting condition, since the bound then
certifies no unconditional minimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, log, sqrt
from typing import Callable, Iterable, Optional

from funcbatch.counting import labelling_count_egf
from funcbatch.gf2 import MAX_DIMENSION

EXACT = "exact"
PRODUCT = "product"
AMGM = "amgm"
CHAIN = "chain"
SQRT = "sqrt"
BASELINE = "baseline"

BOUND_IDS = (EXACT, PRODUCT, AMGM, CHAIN, SQRT, BASELINE)


@dataclass(frozen=True)
class CodeParams:
    """Parameter bundle: dimension k, batch size t, recovery-set cap r."""

    k: int
    t: int
    r: int

    def __post_init__(self) -> None:
        if not 1 <= self.k <= MAX_DIMENSION:
            raise ValueError(f"k must be in 1..{MAX_DIMENSION}, got {self.k}")
        if self.t < 1:
            raise ValueError("t must be positive")
        if self.r < 1:
            raise ValueError("r must be positive")


@dataclass(frozen=True)
class BoundOutcome:
    """Result of a minimal-length solver.

    min_n is the reported minimum, raw_min_n the uncapped solution of the
    bound inequality, and rhs the exact threshold of the certified integer
    comparison (None for the exact-count bound).  clamped means the raw
    value sat below the applicability floor.  vacuous means some length
    below the floor still passes the exact counting condition; since the
    bound only speaks about lengths at or above its floor, such an outcome
    certifies no unconditional minimum and renders as '-'.
    """

    bound_id: str
    min_n: int
    raw_min_n: int
    applicability_floor: int
    clamped: bool
    vacuous: bool
    rhs: Optional[Fraction]

    def __post_init__(self) -> None:
        if self.clamped and self.min_n < self.applicability_floor:
            raise ValueError("clamped outcome below its applicability floor")

    @property
    def table_value(self) -> Optional[int]:
        """Cell value for table emission: None renders as the vacuous marker."""
        return None if self.vacuous else self.min_n


def necessary_condition(n: int, k: int, t: int, r: int) -> bool:
    """Pigeonhole test: the labelling count at length n must cover all (2^k-1)^t batches.

    False certifies that no [n, k, t, r] functional batch code exists.
    """
    CodeParams(k, t, r)
    if n < 0:
        raise ValueError("n must be nonnegative")
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
    """Smallest length passing the exact counting condition (gallop + bisect)."""
    CodeParams(k, t, r)
    return _first_true(lambda n: necessary_condition(n, k, t, r), lo=t)


def _certified_min(cert: Callable[[int], bool], estimate: float, lowest: int = 0) -> int:
    """Exact smallest n >= lowest with cert(n), seeded by a float estimate."""
    cand = max(lowest, int(estimate) - 2)
    while not cert(cand):
        cand += 1
    while cand > lowest and cert(cand - 1):
        cand -= 1
    return cand


def _outcome(bound_id: str, raw: int, floor: int, rhs: Optional[Fraction],
             k: int, t: int, r: int) -> BoundOutcome:
    raw = max(raw, 0)
    clamped = raw < floor
    vacuous = False
    if floor - 1 >= 1:
        # the outcome is an unconditional bound only when every length below
        # the applicability floor already fails the exact counting condition
        vacuous = necessary_condition(floor - 1, k, t, r)
    return BoundOutcome(
        bound_id=bound_id,
        min_n=floor if clamped else raw,
        raw_min_n=raw,
        applicability_floor=floor,
        clamped=clamped,
        vacuous=vacuous,
        rhs=rhs,
    )


def min_n_product(k: int, t: int, r: int) -> BoundOutcome:
    """Product-form bound: smallest n with (n-(t-1)/2)(n-t)^(r-1)/(r-1)! >= 2^k - 1.

    Certified as (2n-t+1)(n-t)^(r-1) >= 2(2^k-1)(r-1)!; applicability floor t+r.
    """
    CodeParams(k, t, r)
    threshold = 2 * ((1 << k) - 1) * factorial(r - 1)

    def cert(n: int) -> bool:
        # restricted to n >= t, where the factor n - t is nonnegative and the
        # comparison is monotone; (n-t)^(r-1) is an empty product at n = t, r = 1
        return n >= t and (2 * n - t + 1) * (n - t) ** (r - 1) >= threshold

    raw = _first_true(cert, lo=t)
    return _outcome(PRODUCT, raw, t + r, Fraction(threshold), k, t, r)


def min_n_amgm(k: int, t: int, r: int) -> BoundOutcome:
    """Mean-inequality relaxation: smallest n >= t - (t+1)/(2r) + ((2^k-1)(r-1)!)^(1/r).

    Certified as (2r(n-t)+t+1)^r >= (2r)^r (2^k-1)(r-1)!; applicability floor t+r.
    """
    CodeParams(k, t, r)
    base = ((1 << k) - 1) * factorial(r - 1)
    threshold = (2 * r) ** r * base

    def cert(n: int) -> bool:
        b = 2 * r * (n - t) + t + 1
        return b > 0 and b ** r >= threshold

    estimate = t - (t + 1) / (2 * r) + base ** (1 / r)
    raw = _certified_min(cert, estimate)
    return _outcome(AMGM, raw, t + r, Fraction(threshold), k, t, r)


def min_n_chain(k: int, t: int, r: int) -> BoundOutcome:
    """Iterated-recursion bound: smallest n >= (t+r)/2 - 1 + ((2^k-1)(r-1)!)^(1/r).

    Certified as (2n-t-r+2)^r >= 2^r (2^k-1)(r-1)!; applicability floor
    max(t+1, 2r-1).
    """
    CodeParams(k, t, r)
    base = ((1 << k) - 1) * factorial(r - 1)
    threshold = (1 << r) * base

    def cert(n: int) -> bool:
        b = 2 * n - t - r + 2
        return b > 0 and b ** r >= threshold

    estimate = (t + r) / 2 - 1 + base ** (1 / r)
    raw = _certified_min(cert, estimate)
    return _outcome(CHAIN, raw, max(t + 1, 2 * r - 1), Fraction(threshold), k, t, r)


def min_n_sqrt(k: int, t: int) -> BoundOutcome:
    """Square-root bound at cap 2: smallest n >= sqrt(2(2^k-1)) + 3t/4 - 5/4.

    Certified as 4n-3t+5 >= 0 and (4n-3t+5)^2 >= 32(2^k-1); no floor beyond 1.
    """
    CodeParams(k, t, 2)
    threshold = 32 * ((1 << k) - 1)

    def cert(n: int) -> bool:
        b = 4 * n - 3 * t + 5
        return b >= 0 and b * b >= threshold

    estimate = sqrt(2 * ((1 << k) - 1)) + 0.75 * t - 1.25
    raw = _certified_min(cert, estimate, lowest=1)
    return _outcome(SQRT, raw, 1, Fraction(threshold), k, t, 2)


def min_n_baseline(k: int, t: int) -> BoundOutcome:
    """Unrestricted-cap bound: smallest n with (t+1)^n >= (2^k-1)^t, exact throughout."""
    CodeParams(k, t, 1)
    rhs = ((1 << k) - 1) ** t

    def cert(n: int) -> bool:
        return (t + 1) ** n >= rhs

    estimate = 0.0 if k == 1 else t * log((1 << k) - 1) / log(t + 1)
    raw = _certified_min(cert, estimate)
    return _outcome(BASELINE, raw, 0, Fraction(rhs), k, t, 1)


def construction_length(k: int) -> int:
    """Length 2^(k+1) - 2 achieved by doubling the simplex generator columns."""
    if k < 1:
        raise ValueError("k must be positive")
    return (1 << (k + 1)) - 2


@dataclass(frozen=True)
class R2ComparisonRow:
    """One row comparing lower bounds with the doubled-simplex length at cap 2."""

    k: int
    t: int
    sqrt_min: int
    exact_min: int
    construction: int


def r2_comparison_table(k_max: int = 7) -> list[R2ComparisonRow]:
    """Rows for k = 2..k_max at batch size t = 2^k, cap r = 2.

    The exact column reads one cached vector of t + 1 big-integer numerators
    per k (see counting.egf_numerators) and no t-by-n table, so k = 12
    (t = 4096) is within reach.
    """
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    rows = []
    for k in range(2, k_max + 1):
        t = 1 << k
        rows.append(R2ComparisonRow(
            k=k,
            t=t,
            sqrt_min=min_n_sqrt(k, t).min_n,
            exact_min=min_n_exact(k, t, 2),
            construction=construction_length(k),
        ))
    return rows


DEFAULT_CHAIN_CONFIGS: tuple[tuple[int, int], ...] = ((2, 2), (2, 3), (3, 3), (2, 5))


@dataclass(frozen=True)
class ChainBoundRow:
    """One row of chain-bound minima next to the baseline bound at t = 2."""

    k: int
    baseline_min: int
    cells: tuple[BoundOutcome, ...]


def chain_bound_table(ks: Iterable[int] = range(5, 16),
                      configs: tuple[tuple[int, int], ...] = DEFAULT_CHAIN_CONFIGS,
                      ) -> list[ChainBoundRow]:
    """Chain-bound minima for each (t, r) configuration, keyed by dimension k."""
    rows = []
    for k in ks:
        cells = tuple(min_n_chain(k, t, r) for (t, r) in configs)
        rows.append(ChainBoundRow(k=k, baseline_min=min_n_baseline(k, 2).min_n, cells=cells))
    return rows
