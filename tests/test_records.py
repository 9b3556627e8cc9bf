"""The result records are named tuples: immutable and equal by value.

Only GeneratorMatrix still validates its fields on construction; a
BoundOutcome derives min_n and clamped from its fields, so it cannot
disagree with itself.
"""

import re

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
        bounds.r2_comparison_table()[0],
        bounds.chain_bound_table()[0],
    ]


# each record type's fields, field defaults and repr, the repr with any
# object address left out
SHAPES = {
    "GeneratorMatrix": (("k", "cols"), {}, "GeneratorMatrix(k=2, cols=(1, 2, 3))"),
    "Verdict": (
        ("status", "counterexample", "assignments_checked", "wall_time", "batches_searched"),
        {"batches_searched": 0},
        "Verdict(status='holds', counterexample=None, assignments_checked=12, wall_time=0.5,"
        " batches_searched=3)"),
    "BoundOutcome": (
        ("bound_id", "raw_min_n", "applicability_floor", "vacuous", "rhs"), {},
        "BoundOutcome(bound_id='chain', raw_min_n=7, applicability_floor=3, vacuous=False,"
        " rhs=124)"),
    "_Spec": (("floor", "lhs", "rhs"), {},
              "_Spec(floor=<function <lambda>>, lhs=<function <lambda>>,"
              " rhs=<function <lambda>>)"),
    "R2ComparisonRow": (("k", "t", "sqrt_min", "exact_min", "construction"), {},
                        "R2ComparisonRow(k=2, t=4, sqrt_min=5, exact_min=5, construction=6)"),
    "ChainBoundRow": (
        ("k", "baseline_min", "cells"), {},
        "ChainBoundRow(k=5, baseline_min=7, cells=("
        "BoundOutcome(bound_id='chain', raw_min_n=7, applicability_floor=3, vacuous=False,"
        " rhs=124), "
        "BoundOutcome(bound_id='chain', raw_min_n=6, applicability_floor=5, vacuous=False,"
        " rhs=496), "
        "BoundOutcome(bound_id='chain', raw_min_n=6, applicability_floor=5, vacuous=False,"
        " rhs=496), "
        "BoundOutcome(bound_id='chain', raw_min_n=7, applicability_floor=9, vacuous=True,"
        " rhs=23808)))"),
}


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_record_fields_defaults_and_repr(record):
    fields, defaults, text = SHAPES[type(record).__name__]
    assert record._fields == fields
    assert record._field_defaults == defaults
    assert re.sub(r" at 0x[0-9a-fA-F]+", "", repr(record)) == text


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
