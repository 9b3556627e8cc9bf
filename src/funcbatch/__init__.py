"""Length bounds and exhaustive verification for binary functional batch codes.

A functional batch code serves any batch of t nonzero GF(2) query vectors
from pairwise-disjoint sets of coded symbols; here every recovery set is
additionally capped at r symbols.  The package computes the exact
bounded-multiplicity labelling counts behind the pigeonhole length bounds,
solves each closed-form bound for its minimal length with exact
certification, reproduces the bound comparison tables, and exhaustively
verifies the disjoint-recovery property for concrete generator matrices.
"""

import importlib

# submodule -> the public names it defines.  Names and submodules are
# imported on first access (PEP 562), so a launch loads only the engines it uses
_EXPORTS = {
    "bounds": (
        "AMGM", "BASELINE", "BOUND_IDS", "CHAIN", "EXACT", "PRODUCT", "SQRT",
        "BoundOutcome", "CodeParams", "chain_bound_table", "construction_length",
        "min_n", "min_n_exact", "necessary_condition", "r2_comparison_table",
    ),
    "codecheck": (
        "RecoveryCatalog", "Verdict", "build_catalog", "double_simplex",
        "find_disjoint_assignment", "simplex", "verify",
    ),
    "counting": (
        "LabellingTable", "falling_factorial", "labelling_count",
        "labelling_count_direct", "labelling_count_egf", "labelling_upper_general",
        "labelling_upper_iterated", "labelling_upper_r2", "multinomial",
    ),
    "gf2": (
        "BitVec", "GeneratorMatrix", "column_mask", "encode", "in_span",
        "is_independent_and_sums_to", "mask_columns", "rank",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

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


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS) | set(__all__))
