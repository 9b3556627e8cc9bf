"""Command-line front end: counting, bound solvers, table emission, matrix I/O, verification."""

import sys

from funcbatch import BOUND_IDS

# the package's import rule: no module imports typing or __future__, so that a
# launch loads only what it runs.  Annotations are evaluated, so a name they
# need that is not loaded at run time (from typing, or an engine that a
# command may not load) is quoted and imported only by a type checker
TYPE_CHECKING = False
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
    def __init__(self, message: str, line: int | None = None) -> None:
        super().__init__(message if line is None else f"line {line}: {message}")


def parse_matrix(text: str) -> "GeneratorMatrix":
    """Parse the text matrix format: a 'k n' header, then k rows of n 0/1 digits.

    Lines starting with '#' and blank lines are skipped.  Row i supplies bit
    i of each column.
    """
    from funcbatch.gf2 import GeneratorMatrix

    # (line number, words) of each line that is neither blank nor a comment:
    # split() and strip() drop the same whitespace
    content = ((line_no, words)
               for line_no, words in enumerate(map(str.split, text.splitlines()), start=1)
               if words and not words[0].startswith("#"))
    line_no, parts = next(content, (None, None))
    if parts is None:
        raise MatrixFormatError("missing 'k n' header")
    if len(parts) != 2:
        raise MatrixFormatError("header must be 'k n'", line_no)
    try:
        k, n = int(parts[0]), int(parts[1])
    except ValueError:
        raise MatrixFormatError("header must hold two integers", line_no) from None
    if k < 1 or n < 1:
        raise MatrixFormatError("k and n must be positive", line_no)
    cols, row = [], 0
    for line_no, parts in content:
        if row == k:
            raise MatrixFormatError("unexpected extra row", line_no)
        if len(parts) != n:
            raise MatrixFormatError(f"expected {n} entries, got {len(parts)}", line_no)
        cols = cols or [0] * n  # sized at the first row, never by a header alone
        for j, p in enumerate(parts):
            if p not in ("0", "1"):
                raise MatrixFormatError(f"entries must be 0 or 1, got {p!r}", line_no)
            cols[j] |= (p == "1") << row
        row += 1
    if row != k:
        raise MatrixFormatError(f"expected {k} rows, got {row}")
    try:
        return GeneratorMatrix(k, cols)
    except ValueError as exc:
        raise MatrixFormatError(str(exc)) from None


def format_matrix(matrix: "GeneratorMatrix") -> str:
    """The text matrix format of parse_matrix: row i holds bit i of each column."""
    lines = [f"{matrix.k} {matrix.n}"]
    lines += [" ".join(str(c >> i & 1) for c in matrix.cols) for i in range(matrix.k)]
    return "\n".join(lines) + "\n"


def _cell_text(outcome: "BoundOutcome") -> str:
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


def _cmd_count(args: "_Args") -> int:
    from decimal import Decimal

    from funcbatch.counting import labelling_counter

    # CPython caps int-to-decimal conversion at 4,300 digits by default;
    # Decimal has no such cap and prints the same digits
    print(Decimal(labelling_counter(args.t, args.r)(args.n)))
    return EX_OK


def _cmd_minn(args: "_Args") -> int:
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


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_table(args: "_Args") -> int:
    _write_text(args.out, _table_csv(args.which))
    return EX_OK


def _construct(name: str, k: int) -> "GeneratorMatrix":
    from funcbatch import codecheck

    builders = {"simplex": codecheck.simplex, "double": codecheck.double_simplex}
    if name not in builders:
        raise UsageError(f"unknown constructor {name!r}; use simplex:K or double:K")
    return builders[name](k)


def _load_matrix(args: "_Args") -> "GeneratorMatrix":
    if args.matrix is not None:
        # an editor may begin the file with a byte-order mark; dropping it here
        # spares loading the utf-8-sig codec
        with open(args.matrix, "r", encoding="utf-8") as handle:
            return parse_matrix(handle.read().removeprefix("\ufeff"))
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


def _cmd_verify(args: "_Args") -> int:
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


def _cmd_construct(args: "_Args") -> int:
    _write_text(args.out, format_matrix(_construct(args.which, args.k)))
    return EX_OK


class _Args(dict):
    """One command's flags, read as attributes named as argparse names them:
    --budget-seconds is budget_seconds, and func is the command's handler."""

    __getattr__ = dict.__getitem__


# command -> (handler, help, flags, the flags of which exactly one must be given).
# Each flag maps to (type, default, help...): the type is int, float or str, a
# tuple of choices, or bool for a switch; a default of ... marks it required
_COMMANDS = {
    "count": (_cmd_count, "exact bounded-multiplicity labelling count",
              {"--n": (int, ...), "--t": (int, ...), "--r": (int, ...)}, ()),
    "minn": (_cmd_minn, "minimal length under a chosen lower bound",
             {"--k": (int, ...), "--t": (int, ...),
              "--r": (int, None, "recovery-set cap, default 2; sqrt and baseline fix their own"),
              "--bound": (BOUND_IDS, ...)}, ()),
    "table": (_cmd_table, "emit a bound comparison table as CSV",
              {"--which": ((2, 3), ...), "--out": (str, None)}, ()),
    "verify": (_cmd_verify, "exhaustively check the disjoint-recovery property",
               {"--matrix": (str, None, "matrix file path"),
                "--construct": (str, None, "simplex:K or double:K"),
                "--t": (int, ...), "--r": (int, ...), "--jobs": (int, 1),
                "--budget-seconds": (float, None), "--budget-batches": (int, None),
                "--deterministic": (bool, False,
                                    "pure lex sweep; reports the least counterexample"),
                "--pretty": (bool, False, "print counterexample queries as bit strings")},
               ("--matrix", "--construct")),
    "construct": (_cmd_construct, "write a generator matrix file",
                  {"--which": (("simplex", "double"), ...), "--k": (int, ...),
                   "--out": (str, None)}, ()),
}
_HELP = {"-h": (None, None), "--help": (None, None)}  # a type of None prints the usage


def _cmd_help(args: "_Args") -> int:
    """Print every command and flag with its help; -h and --help run this."""
    lines = [f"usage: funcbatch [-h] {{{','.join(_COMMANDS)}}} [--FLAG VALUE ...]", "", __doc__]
    for name, (_, about, flags, pair) in _COMMANDS.items():
        lines += ["", f"{name}: {about}"]
        if pair:
            lines.append(f"  exactly one of {' and '.join(pair)}")
        for flag, (kind, default, *note) in flags.items():
            value = ("{%s}" % ",".join(map(str, kind)) if type(kind) is tuple
                     else "" if kind is bool else kind.__name__.upper())
            required = "(required)" if default is ... else ""
            lines.append(" ".join(filter(None, ["  " + flag, value, required, *note])))
    sys.stdout.write("\n".join(lines) + "\n")
    return EX_OK


def _match(word: str, flags: dict) -> "tuple[str, str | None] | None":
    """How argparse reads word: (flag, the text after '=' or None), ("", None) for an
    unknown option, or None for a value, such as '-', a negative number or a spaced word.

    Raises UsageError for a prefix of more than one flag.
    """
    if word[:1] != "-" or word in ("-", "--"):
        return None
    name, eq, text = word.partition("=")
    if name in flags:
        return name, text if eq else None
    if word[1] == "-":
        hits = [flag for flag in flags if flag.startswith(name)]
    else:  # of the one-dash flags, -h alone: -hX is -h given the text X
        hits, eq, text = [word[:2]] * (word[:2] in flags), True, word[2:]
    if len(hits) > 1:
        raise UsageError(f"ambiguous option: {word} could match {', '.join(hits)}")
    if hits:
        return hits[0], text if eq else None
    rest = word[1:].removesuffix("\n")  # as the regular expression -\d+$ reads it
    number = rest.replace(".", "", 1).isdecimal() and not rest.endswith(".")
    return None if number or " " in word else ("", None)


def _value(name: str, kind: object, text: str) -> object:
    convert = type(kind[0]) if type(kind) is tuple else kind
    try:
        value = convert(text)
    except ValueError:
        raise UsageError(f"argument {name}: invalid {convert.__name__} value: {text!r}") from None
    if type(kind) is tuple and value not in kind:
        raise UsageError(f"argument {name}: invalid choice: {value!r} "
                         f"(choose from {', '.join(map(repr, kind))})")
    return value


def _parse(argv: "list[str]") -> _Args:
    """The namespace of argv's command, or of help once -h or --help is read.

    Reads argv as argparse did, and raises UsageError with the message of
    the first error argparse reports: an unknown command, an ambiguous
    prefix anywhere before a '--', then each flag from the left, then a
    missing flag and last any word it could not place.
    """
    handler, pair, values, extras = None, (), {}, []
    # until a command is read, the one thing required is the command itself
    table, flags = {"command": (None, ...)}, _HELP
    hits = [_match(word, flags) for word in argv]
    i, cut = 0, len(argv)
    while i < cut:
        word, hit = argv[i], hits[i]
        i += 1
        if hit is None and handler is None and (word != "--" or i < len(argv)):
            handler, _, table, pair = _COMMANDS[_value("command", tuple(_COMMANDS), word)]
            flags = {**_HELP, **table}
            # every word from a '--' on is a value, and so unrecognized
            cut = argv.index("--", i) if "--" in argv[i:] else len(argv)
            hits[i:cut] = [_match(word, flags) for word in argv[i:cut]]
        elif not hit or not hit[0]:
            extras.append(word)
        else:
            flag, text = hit
            kind = flags[flag][0]
            if kind is None and text:
                text = text.lstrip("h") or None  # -hh is -h twice
            if kind in (None, bool) and text is not None:
                name = flag if kind else "-h/--help"
                raise UsageError(f"argument {name}: ignored explicit argument {text!r}")
            if kind is None:
                return _Args(func=_cmd_help)
            if kind is not bool and text is None:
                if i == cut or hits[i] is not None:
                    raise UsageError(f"argument {flag}: expected one argument")
                text, i = argv[i], i + 1
            values[flag] = True if kind is bool else _value(flag, kind, text)
            if flag in pair and (other := pair[pair.index(flag) - 1]) in values:
                raise UsageError(f"argument {flag}: not allowed with argument {other}")
    if missing := [flag for flag, spec in table.items() if spec[1] is ... and flag not in values]:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if pair and not values.keys() & set(pair):
        raise UsageError(f"one of the arguments {' '.join(pair)} is required")
    if extras + argv[cut:]:
        raise UsageError(f"unrecognized arguments: {' '.join(extras + argv[cut:])}")
    return _Args({flag[2:].replace("-", "_"): values.get(flag, spec[1])
                  for flag, spec in table.items()}, func=handler)


def main(argv: "list[str] | None" = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
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
