"""Length bounds and exhaustive verification for binary functional batch codes.

A functional batch code serves any batch of t nonzero GF(2) query vectors
from pairwise-disjoint sets of coded symbols; here every recovery set is
additionally capped at r symbols.  The package computes the exact
bounded-multiplicity labelling counts behind the pigeonhole length bounds,
solves each closed-form bound for its minimal length with exact
certification, reproduces the bound comparison tables, and exhaustively
verifies the disjoint-recovery property for concrete generator matrices.
"""

# the largest dimension k of a code; both engines check it, so it lives here,
# which every launch loads, rather than in either engine
MAX_DIMENSION = 24


def check_int(name: str, value: object, lo: int, hi: int | None = None) -> None:
    """Raise ValueError naming the argument unless value is an int in lo..hi (no top if hi is None).

    Every engine checks its integer arguments here, so a float, a string or
    None is rejected before it can reach a range() or a shift.
    """
    if not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if hi is not None:
        if not lo <= value <= hi:
            raise ValueError(f"{name} must be in {lo}..{hi}, got {value}")
    elif value < lo:
        bound = {1: "positive", 0: "nonnegative"}.get(lo, f"at least {lo}")
        raise ValueError(f"{name} must be {bound}")

# the bound names; the CLI parser reads them without loading the bound solvers
BOUND_IDS = ("exact", "product", "amgm", "chain", "sqrt", "baseline")

# submodule -> the public names it defines.  Names and submodules are
# imported on first access (PEP 562), so a launch loads only the engines it uses
_EXPORTS = {
    "bounds": (
        "AMGM", "BASELINE", "BOUND_IDS", "CHAIN", "EXACT", "FIXED_CAPS", "PRODUCT", "SQRT",
        "BoundOutcome", "chain_bound_table", "construction_length",
        "min_n", "min_n_exact", "necessary_condition", "r2_comparison_table",
    ),
    "codecheck": (
        "RecoveryCatalog", "Verdict", "build_catalog", "double_simplex",
        "find_disjoint_assignment", "simplex", "verify",
    ),
    "counting": ("labelling_counter",),
    "gf2": ("GeneratorMatrix",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        # __import__, not importlib, so that importing the package loads no
        # other module; the import binds the submodule in globals()
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__getattr__(_MODULE_OF[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS) | set(__all__))
