"""Length bounds and exhaustive verification for binary functional batch codes.

A functional batch code serves any batch of t nonzero GF(2) query vectors
from pairwise-disjoint sets of coded symbols; here every recovery set is
additionally capped at r symbols.  The package computes the exact
bounded-multiplicity labelling counts behind the pigeonhole length bounds,
solves each closed-form bound for its minimal length with exact
certification, reproduces the bound comparison tables, and exhaustively
verifies the disjoint-recovery property for concrete generator matrices.
"""

from funcbatch.bounds import (
    AMGM,
    BASELINE,
    BOUND_IDS,
    CHAIN,
    EXACT,
    PRODUCT,
    SQRT,
    BoundOutcome,
    CodeParams,
    chain_bound_table,
    construction_length,
    min_n,
    min_n_exact,
    necessary_condition,
    r2_comparison_table,
)
from funcbatch.codecheck import (
    RecoveryCatalog,
    Verdict,
    build_catalog,
    double_simplex,
    find_disjoint_assignment,
    simplex,
    verify,
)
from funcbatch.counting import (
    LabellingTable,
    falling_factorial,
    labelling_count,
    labelling_count_direct,
    labelling_count_egf,
    labelling_upper_general,
    labelling_upper_iterated,
    labelling_upper_r2,
    multinomial,
)
from funcbatch.gf2 import (
    BitVec,
    GeneratorMatrix,
    column_mask,
    encode,
    in_span,
    is_independent_and_sums_to,
    mask_columns,
    rank,
)

__version__ = "0.1.0"

__all__ = [
    "AMGM",
    "BASELINE",
    "BOUND_IDS",
    "CHAIN",
    "EXACT",
    "PRODUCT",
    "SQRT",
    "BitVec",
    "BoundOutcome",
    "CodeParams",
    "GeneratorMatrix",
    "LabellingTable",
    "RecoveryCatalog",
    "Verdict",
    "build_catalog",
    "chain_bound_table",
    "column_mask",
    "construction_length",
    "double_simplex",
    "encode",
    "falling_factorial",
    "find_disjoint_assignment",
    "in_span",
    "is_independent_and_sums_to",
    "labelling_count",
    "labelling_count_direct",
    "labelling_count_egf",
    "labelling_upper_general",
    "labelling_upper_iterated",
    "labelling_upper_r2",
    "mask_columns",
    "min_n",
    "min_n_exact",
    "multinomial",
    "necessary_condition",
    "r2_comparison_table",
    "rank",
    "simplex",
    "verify",
]
