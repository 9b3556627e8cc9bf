"""The result records are named tuples: immutable and equal by value.

Only GeneratorMatrix still validates its fields on construction; a
BoundOutcome derives min_n and clamped from its fields, so it cannot
disagree with itself.
"""

import pytest

from funcbatch import bounds
from funcbatch.bounds import CHAIN, min_n
from funcbatch.codecheck import HOLDS, Verdict
from funcbatch.gf2 import GeneratorMatrix


def records():
    """One instance of every record type, built the way the engines build them."""
    return [
        GeneratorMatrix(2, (1, 2, 3)),
        Verdict(HOLDS, None, 12, 0.5, 3),
        min_n(CHAIN, 5, 2, 2),
        bounds._SPECS[CHAIN],
        bounds.r2_comparison_table(2)[0],
        bounds.chain_bound_table()[0],
    ]


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_records_are_equal_by_value(record):
    # rebuilt through the constructor, so validated records revalidate
    twin = type(record)(*record)
    assert twin == record and twin is not record
    assert twin == tuple(record)
    assert hash(twin) == hash(record)


def test_records_unpack_by_field():
    k, cols = GeneratorMatrix(2, (1, 2, 3))
    assert (k, cols) == (2, (1, 2, 3))
    outcome = min_n(CHAIN, 5, 2, 2)
    assert outcome._asdict()["raw_min_n"] == outcome[1] == outcome.raw_min_n


def test_matrix_from_a_list_equals_one_from_a_tuple():
    from_list = GeneratorMatrix(2, [1, 2, 3])
    from_tuple = GeneratorMatrix(2, (1, 2, 3))
    assert type(from_list.cols) is tuple
    assert from_list == from_tuple and hash(from_list) == hash(from_tuple)
    assert GeneratorMatrix(k=2, cols=iter([1, 2, 3])) == from_tuple


@pytest.mark.parametrize("build", [
    lambda: GeneratorMatrix(2, [4]),
    lambda: GeneratorMatrix(k=0, cols=(1,)),
])
def test_validators_still_raise(build):
    with pytest.raises(ValueError):
        build()


def test_bound_rhs_is_an_int():
    for bound_id in bounds._SPECS:
        assert type(min_n(bound_id, 5, 4, 2).rhs) is int
