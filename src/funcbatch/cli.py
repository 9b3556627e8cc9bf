"""Command-line front end: counting, bound solvers, table emission, matrix I/O, verification."""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from funcbatch import BOUND_IDS

if TYPE_CHECKING:
    from funcbatch.bounds import BoundOutcome
    from funcbatch.gf2 import GeneratorMatrix

EX_OK = 0
EX_FALSIFIED = 1
EX_UNDECIDED = 2
EX_USAGE = 64
EX_DATA = 65
EX_SOFTWARE = 70
EX_IO = 74


class UsageError(Exception):
    pass


class MatrixFormatError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None) -> None:
        super().__init__(message if line is None else f"line {line}: {message}")


def parse_matrix(text: str) -> GeneratorMatrix:
    """Parse the text matrix format: a 'k n' header, then k rows of n 0/1 digits.

    Lines starting with '#' and blank lines are skipped.  Row i supplies bit
    i of each column.
    """
    from funcbatch.gf2 import GeneratorMatrix

    header: Optional[tuple[int, int]] = None
    cols: list[int] = []
    row = 0
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if header is None:
            if len(parts) != 2:
                raise MatrixFormatError("header must be 'k n'", line_no)
            try:
                k, n = int(parts[0]), int(parts[1])
            except ValueError:
                raise MatrixFormatError("header must hold two integers", line_no) from None
            if k < 1 or n < 1:
                raise MatrixFormatError("k and n must be positive", line_no)
            header = (k, n)
            continue
        if row == header[0]:
            raise MatrixFormatError("unexpected extra row", line_no)
        if len(parts) != header[1]:
            raise MatrixFormatError(f"expected {header[1]} entries, got {len(parts)}", line_no)
        if row == 0:
            cols = [0] * header[1]  # sized at the first row, never by a header alone
        for j, p in enumerate(parts):
            if p not in ("0", "1"):
                raise MatrixFormatError(f"entries must be 0 or 1, got {p!r}", line_no)
            cols[j] |= (p == "1") << row
        row += 1
    if header is None:
        raise MatrixFormatError("missing 'k n' header")
    if row != header[0]:
        raise MatrixFormatError(f"expected {header[0]} rows, got {row}")
    try:
        return GeneratorMatrix(header[0], cols)
    except ValueError as exc:
        raise MatrixFormatError(str(exc)) from None


def format_matrix(matrix: GeneratorMatrix) -> str:
    """The text matrix format of parse_matrix: row i holds bit i of each column."""
    lines = [f"{matrix.k} {matrix.n}"]
    lines += [" ".join(str(c >> i & 1) for c in matrix.cols) for i in range(matrix.k)]
    return "\n".join(lines) + "\n"


def _cell_text(outcome: BoundOutcome) -> str:
    if outcome.vacuous:
        return "-"
    if outcome.clamped:
        return f"{outcome.min_n}*"
    return str(outcome.min_n)


def _table_csv(which: int) -> str:
    """Table 2 or 3 as CSV: a header row, one line per engine row, then '#' notes."""
    from funcbatch import bounds

    if which == 2:
        lines = ["k,t,sqrt,exact,construction"]
        lines += [",".join(map(str, row)) for row in bounds.r2_comparison_table()]
        return "\n".join(lines) + "\n"
    configs = bounds.CHAIN_TABLE_CONFIGS
    lines = ["k,baseline_t2" + "".join(f",chain_t{t}_r{r}" for t, r in configs)]
    notes = []
    for row in bounds.chain_bound_table():
        lines.append(",".join([str(row.k), str(row.baseline_min), *map(_cell_text, row.cells)]))
        for (t, r), outcome in zip(configs, row.cells):
            if outcome.clamped or outcome.vacuous:
                kind = "vacuous" if outcome.vacuous else "clamped"
                notes.append(f"# k={row.k} t={t} r={r}: raw {outcome.raw_min_n}, "
                             f"floor {outcome.applicability_floor}, {kind}")
    notes.append("# check: k=8 t=2 r=5 cell is exactly certified at 9 (not 10)")
    return "\n".join(lines + notes) + "\n"


def _cmd_count(args: argparse.Namespace) -> int:
    from decimal import Decimal

    from funcbatch.counting import labelling_counter

    # CPython caps int-to-decimal conversion at 4,300 digits by default;
    # Decimal has no such cap and prints the same digits
    print(Decimal(labelling_counter(args.t, args.r)(args.n)))
    return EX_OK


def _cmd_minn(args: argparse.Namespace) -> int:
    from funcbatch import bounds

    k, t, r = args.k, args.t, 2 if args.r is None else args.r
    if args.bound == bounds.EXACT:
        print(bounds.min_n_exact(k, t, r))
        return EX_OK
    # solve first, so that a rejected command prints its error and no warning
    outcome = bounds.min_n(args.bound, k, t, r)
    cap = bounds.FIXED_CAPS.get(args.bound)
    if args.r is not None and cap is not None and args.r != cap:
        print(f"warning: {args.bound} bound assumes cap {cap}; ignoring --r {args.r}",
              file=sys.stderr)
    print(_cell_text(outcome))
    if outcome.clamped or outcome.vacuous:
        print(f"floor={outcome.applicability_floor} raw={outcome.raw_min_n}")
    return EX_OK


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_table(args: argparse.Namespace) -> int:
    _write_text(args.out, _table_csv(args.which))
    return EX_OK


def _construct(name: str, k: int) -> GeneratorMatrix:
    from funcbatch import codecheck

    builders = {"simplex": codecheck.simplex, "double": codecheck.double_simplex}
    if name not in builders:
        raise UsageError(f"unknown constructor {name!r}; use simplex:K or double:K")
    return builders[name](k)


def _load_matrix(args: argparse.Namespace) -> GeneratorMatrix:
    if args.matrix is not None:
        # utf-8-sig also reads a file that an editor began with a byte-order mark
        with open(args.matrix, "r", encoding="utf-8-sig") as handle:
            return parse_matrix(handle.read())
    name, _, num = args.construct.partition(":")
    try:
        k = int(num)
    except ValueError:
        raise UsageError("--construct expects simplex:K or double:K") from None
    return _construct(name, k)


def _format_query(word: int, k: int, pretty: bool) -> str:
    """The query as an int, or with pretty as k bits, coordinate 1 (bit 0) first."""
    if not pretty:
        return str(word)
    return "".join(str(word >> i & 1) for i in range(k))


def _cmd_verify(args: argparse.Namespace) -> int:
    from funcbatch import codecheck

    matrix = _load_matrix(args)
    verdict = codecheck.verify(
        matrix, args.t, args.r,
        deterministic=args.deterministic,
        jobs=args.jobs,
        budget_seconds=args.budget_seconds,
        budget_batches=args.budget_batches,
    )
    print(verdict.status)
    if verdict.counterexample is not None:
        queries = (_format_query(w, matrix.k, args.pretty) for w in verdict.counterexample)
        print(" ".join(queries))
    print(
        f"checked {verdict.assignments_checked} batches in {verdict.wall_time:.3f}s"
        f" (searched {verdict.batches_searched})",
        file=sys.stderr,
    )
    if verdict.status == codecheck.HOLDS:
        return EX_OK
    if verdict.status == codecheck.FAILS:
        return EX_FALSIFIED
    return EX_UNDECIDED


def _cmd_construct(args: argparse.Namespace) -> int:
    _write_text(args.out, format_matrix(_construct(args.which, args.k)))
    return EX_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="funcbatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="exact bounded-multiplicity labelling count")
    p_count.add_argument("--n", type=int, required=True)
    p_count.add_argument("--t", type=int, required=True)
    p_count.add_argument("--r", type=int, required=True)
    p_count.set_defaults(func=_cmd_count)

    p_minn = sub.add_parser("minn", help="minimal length under a chosen lower bound")
    p_minn.add_argument("--k", type=int, required=True)
    p_minn.add_argument("--t", type=int, required=True)
    p_minn.add_argument("--r", type=int, default=None,
                        help="recovery-set cap, default 2; sqrt and baseline fix their own")
    p_minn.add_argument("--bound", choices=BOUND_IDS, required=True)
    p_minn.set_defaults(func=_cmd_minn)

    p_table = sub.add_parser("table", help="emit a bound comparison table as CSV")
    p_table.add_argument("--which", type=int, choices=(2, 3), required=True)
    p_table.add_argument("--out", default=None)
    p_table.set_defaults(func=_cmd_table)

    p_verify = sub.add_parser("verify", help="exhaustively check the disjoint-recovery property")
    source = p_verify.add_mutually_exclusive_group(required=True)
    source.add_argument("--matrix", default=None, help="matrix file path")
    source.add_argument("--construct", default=None, help="simplex:K or double:K")
    p_verify.add_argument("--t", type=int, required=True)
    p_verify.add_argument("--r", type=int, required=True)
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--budget-seconds", type=float, default=None)
    p_verify.add_argument("--budget-batches", type=int, default=None)
    p_verify.add_argument("--deterministic", action="store_true",
                          help="pure lex sweep; reports the least counterexample")
    p_verify.add_argument("--pretty", action="store_true",
                          help="print counterexample queries as bit strings")
    p_verify.set_defaults(func=_cmd_verify)

    p_construct = sub.add_parser("construct", help="write a generator matrix file")
    p_construct.add_argument("--which", choices=("simplex", "double"), required=True)
    p_construct.add_argument("--k", type=int, required=True)
    p_construct.add_argument("--out", default=None)
    p_construct.set_defaults(func=_cmd_construct)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (MatrixFormatError, UnicodeDecodeError) as exc:
        # a matrix file that is not UTF-8 text is bad data too
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATA
    except (UsageError, ValueError) as exc:
        # an engine rejects an out-of-range argument with ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_IO
    except (RuntimeError, MemoryError) as exc:
        # a verify worker that failed or died, or memory run out: no verdict
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EX_SOFTWARE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
