"""GF(2) generator matrices stored as packed column words, and column-set rank.

A vector in GF(2)^k is an int whose bit i holds coordinate i+1; a set of
columns is an int mask whose bit j selects column j.  A matrix checks its
dimension and length with funcbatch.check_int, and that each column is an
int that fits the dimension; rank, that its mask is an int within the length.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from funcbatch import MAX_DIMENSION, check_int

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
        check_int("dimension", k, 1, MAX_DIMENSION)
        cols = tuple(cols)
        check_int("length", len(cols), 1, MAX_LENGTH)
        for j, c in enumerate(cols):
            if not isinstance(c, int) or not 0 <= c < (1 << k):
                raise ValueError(f"column {j} does not fit dimension {k}")
        return super().__new__(cls, k, cols)

    @property
    def n(self) -> int:
        return len(self.cols)


def rank(matrix: GeneratorMatrix, col_mask: int) -> int:
    """Rank over GF(2) of the columns selected by col_mask."""
    if not isinstance(col_mask, int) or not 0 <= col_mask < (1 << matrix.n):
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
