"""Every engine entry point rejects a bad integer argument with ValueError naming it.

A value that is not an int (even a float equal to a valid int) never gets
past the check to raise TypeError deep inside, loop without end or return a
result; an int out of range raises the message each call has always raised.
"""

import pytest

from funcbatch.bounds import (
    CHAIN,
    construction_length,
    min_n,
    min_n_exact,
    necessary_condition,
    r2_comparison_table,
)
from funcbatch.codecheck import (
    RecoveryCatalog,
    build_catalog,
    double_simplex,
    find_disjoint_assignment,
    simplex,
    verify,
)
from funcbatch.counting import LabellingTable, labelling_count_egf, labelling_counter
from funcbatch.gf2 import GeneratorMatrix, rank


def verify_with(**kwargs):
    # the time budget only keeps a faulty check from hanging the suite
    args = {"t": 2, "r": 2, "jobs": 1, "budget_batches": None, **kwargs}
    return verify(simplex(2), budget_seconds=5, **args)


# (entry point, argument, call with that argument's value, an int out of range,
# the message that int raises); every other argument of the call is valid.  A
# matrix's length is len(cols), always an int; tests/test_gf2.py checks its range
CASES = [
    ("min_n", "k", lambda v: min_n(CHAIN, v, 2, 2), 25, "k must be in 1..24, got 25"),
    ("min_n", "t", lambda v: min_n(CHAIN, 5, v, 2), 0, "t must be positive"),
    ("min_n", "r", lambda v: min_n(CHAIN, 5, 2, v), 0, "r must be positive"),
    ("min_n_exact", "k", lambda v: min_n_exact(v, 8, 2), 0, "k must be in 1..24, got 0"),
    ("min_n_exact", "t", lambda v: min_n_exact(3, v, 2), 0, "t must be positive"),
    ("min_n_exact", "r", lambda v: min_n_exact(3, 8, v), 0, "r must be positive"),
    ("necessary_condition", "n", lambda v: necessary_condition(v, 3, 8, 2), -1,
     "n must be nonnegative"),
    ("necessary_condition", "k", lambda v: necessary_condition(10, v, 8, 2), 25,
     "k must be in 1..24, got 25"),
    ("necessary_condition", "t", lambda v: necessary_condition(10, 3, v, 2), 0,
     "t must be positive"),
    ("necessary_condition", "r", lambda v: necessary_condition(10, 3, 8, v), 0,
     "r must be positive"),
    ("construction_length", "k", construction_length, 0, "k must be positive"),
    ("r2_comparison_table", "k_max", r2_comparison_table, 1, "k_max must be at least 2"),
    ("LabellingTable", "r", LabellingTable, 0, "r must be positive"),
    ("LabellingTable.count", "n", lambda v: LabellingTable(2).count(v, 2), -1,
     "n must be nonnegative"),
    ("LabellingTable.count", "t", lambda v: LabellingTable(2).count(5, v), -1,
     "t must be nonnegative"),
    ("labelling_counter", "t", lambda v: labelling_counter(v, 2), -1, "t must be nonnegative"),
    ("labelling_counter", "r", lambda v: labelling_counter(2, v), 0, "r must be positive"),
    ("count", "n", lambda v: labelling_counter(2, 2)(v), -1, "n must be nonnegative"),
    ("labelling_count_egf", "n", lambda v: labelling_count_egf(v, 2, 2), -1,
     "n must be nonnegative"),
    ("labelling_count_egf", "t", lambda v: labelling_count_egf(5, v, 2), -1,
     "t must be nonnegative"),
    ("labelling_count_egf", "r", lambda v: labelling_count_egf(5, 2, v), 0,
     "r must be positive"),
    ("simplex", "k", simplex, 8, "k must be in 1..7, got 8"),
    ("double_simplex", "k", double_simplex, 7, "k must be in 1..6, got 7"),
    ("RecoveryCatalog", "r", lambda v: RecoveryCatalog(simplex(2), v), 0, "r must be positive"),
    ("build_catalog", "r", lambda v: build_catalog(simplex(2), v), 0, "r must be positive"),
    ("find_disjoint_assignment", "query",
     lambda v: find_disjoint_assignment(build_catalog(simplex(2), 2), (1, v)), 4,
     "query 4 is not a nonzero 2-bit vector"),
    ("verify", "t", lambda v: verify_with(t=v), 0, "t must be positive"),
    ("verify", "r", lambda v: verify_with(r=v), 0, "r must be positive"),
    ("verify", "jobs", lambda v: verify_with(jobs=v), 0, "jobs must be positive"),
    ("verify", "budget_batches", lambda v: verify_with(budget_batches=v), -1,
     "budget_batches must be nonnegative"),
    ("GeneratorMatrix", "dimension", lambda v: GeneratorMatrix(v, (1, 2, 3)), 25,
     "dimension must be in 1..24, got 25"),
    ("GeneratorMatrix", "column", lambda v: GeneratorMatrix(2, (1, v)), 4,
     "column 1 does not fit dimension 2"),
    ("rank", "column mask", lambda v: rank(GeneratorMatrix(2, (1, 2, 3)), v), 8,
     "column mask selects positions outside the matrix"),
]

# None is a valid budget_batches: no batch budget
PARAMS = [pytest.param(call, name, value, bad, message, id=f"{entry}-{name}-{value}")
          for entry, name, call, bad, message in CASES
          for value in (2.5, 2.0, "3", None, "out of range")
          if not (value is None and name == "budget_batches")]


@pytest.mark.parametrize("call, name, value, bad, message", PARAMS)
def test_integer_arguments_are_checked(call, name, value, bad, message):
    with pytest.raises(ValueError) as exc:
        call(bad if value == "out of range" else value)
    if value == "out of range":
        assert str(exc.value) == message
    else:
        assert str(exc.value).startswith(f"{name} ")
