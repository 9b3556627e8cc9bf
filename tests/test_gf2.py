import random

import pytest

from funcbatch.cli import MatrixFormatError, format_matrix, parse_matrix
from funcbatch.gf2 import GeneratorMatrix, rank
from oracles import in_span

EXAMPLE = GeneratorMatrix(2, (1, 2, 3))  # rows 1 0 1 and 0 1 1
SIMPLEX3 = GeneratorMatrix(3, tuple(range(1, 8)))


def test_matrix_validation():
    with pytest.raises(ValueError):
        GeneratorMatrix(0, (1,))
    with pytest.raises(ValueError):
        GeneratorMatrix(2, ())
    with pytest.raises(ValueError):
        GeneratorMatrix(2, (4,))
    with pytest.raises(ValueError):
        GeneratorMatrix(2, tuple([1] * 129))
    # the text format is the one way in by rows: ragged rows, no rows, entry 2
    with pytest.raises(MatrixFormatError, match="^line 3: expected 2 entries, got 1$"):
        parse_matrix("2 2\n1 0\n1\n")
    with pytest.raises(MatrixFormatError, match="^expected 2 rows, got 0$"):
        parse_matrix("2 2\n")
    with pytest.raises(MatrixFormatError, match="^line 2: entries must be 0 or 1, got '2'$"):
        parse_matrix("1 2\n1 2\n")


def test_rank_rejects_a_mask_past_the_length():
    with pytest.raises(ValueError):
        rank(EXAMPLE, 1 << EXAMPLE.n)


def test_matrix_rows_round_trip():
    text = "2 4\n1 0 1 1\n0 1 1 0\n"
    m = parse_matrix(text)
    assert format_matrix(m) == text
    assert m.cols == (0b01, 0b10, 0b11, 0b01)  # row i is bit i of each column
    assert m.n == 4


def test_in_span_worked_example_pair_sum():
    # columns 2 and 3 sum to (1,0)
    assert in_span(EXAMPLE, 0b110, 0b01)


def test_in_span_empty_set_is_false():
    for w in range(1, 4):
        assert not in_span(EXAMPLE, 0, w)


def test_in_span_simplex_small_spans():
    s = 0b11  # columns with values 1 and 2
    assert in_span(SIMPLEX3, s, 3)
    assert not in_span(SIMPLEX3, s, 4)


def test_in_span_rejects_zero_alpha():
    with pytest.raises(ValueError):
        in_span(EXAMPLE, 0b1, 0)


def test_in_span_monotone_under_superset():
    rng = random.Random(11)
    for _ in range(200):
        k = rng.randrange(1, 5)
        n = rng.randrange(1, 9)
        m = GeneratorMatrix(k, tuple(rng.randrange(1 << k) for _ in range(n)))
        alpha = rng.randrange(1, 1 << k)
        small = rng.randrange(1 << n)
        big = small | rng.randrange(1 << n)
        if in_span(m, small, alpha):
            assert in_span(m, big, alpha)


def test_rank_counts_independent_columns():
    assert rank(SIMPLEX3, 0b111) == 2  # 1 ^ 2 == 3
    assert rank(SIMPLEX3, 0b1111111) == 3
    assert rank(EXAMPLE, 0) == 0
