"""GF(2) generator matrices stored as packed column words, and column-set rank.

A vector in GF(2)^k is an int whose bit i holds coordinate i+1; a set of
columns is an int mask whose bit j selects column j.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from funcbatch import MAX_DIMENSION

MAX_LENGTH = 128


class _GeneratorMatrixFields(NamedTuple):
    k: int
    cols: tuple[int, ...]


class GeneratorMatrix(_GeneratorMatrixFields):
    """k x n matrix over GF(2) stored column-wise.

    Column order is part of the identity: recovery sets index positions,
    not values, so duplicate columns are permitted.  cols may be any
    iterable of ints; it is stored as a tuple.
    """

    __slots__ = ()

    def __new__(cls, k: int, cols: Iterable[int]) -> "GeneratorMatrix":
        if not 1 <= k <= MAX_DIMENSION:
            raise ValueError(f"dimension must be in 1..{MAX_DIMENSION}, got {k}")
        cols = tuple(cols)
        if not 1 <= len(cols) <= MAX_LENGTH:
            raise ValueError(f"length must be in 1..{MAX_LENGTH}, got {len(cols)}")
        for j, c in enumerate(cols):
            if not 0 <= c < (1 << k):
                raise ValueError(f"column {j} does not fit dimension {k}")
        return super().__new__(cls, k, cols)

    @property
    def n(self) -> int:
        return len(self.cols)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "GeneratorMatrix":
        """Build from k row vectors of 0/1 entries (row i supplies bit i of each column)."""
        if not rows:
            raise ValueError("matrix needs at least one row")
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ValueError("all rows must have the same length")
        n = widths.pop()
        cols = [0] * n
        for i, row in enumerate(rows):
            for j, b in enumerate(row):
                if b not in (0, 1):
                    raise ValueError(f"entries must be 0 or 1, got {b!r}")
                cols[j] |= b << i
        return cls(len(rows), tuple(cols))

    def rows(self) -> list[list[int]]:
        return [[(c >> i) & 1 for c in self.cols] for i in range(self.k)]


def rank(matrix: GeneratorMatrix, col_mask: int) -> int:
    """Rank over GF(2) of the columns selected by col_mask."""
    if not 0 <= col_mask < (1 << matrix.n):
        raise ValueError("column mask selects positions outside the matrix")
    basis: dict[int, int] = {}  # reduced word keyed by its leading bit
    for j, word in enumerate(matrix.cols):
        if col_mask >> j & 1:
            while word:
                h = word.bit_length() - 1
                if h not in basis:
                    basis[h] = word
                    break
                word ^= basis[h]
    return len(basis)
