"""The CLI's exit-code contract, driven in process over small inputs from its own grammar.

main returns one of the codes below and never raises.  verify's code is its
verdict, with the verdict and any counterexample on stdout; a code of 64 or
more leaves stdout empty and stderr exactly one 'error: ' line.  -h and
--help are left out: argparse exits through SystemExit by design.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from funcbatch import BOUND_IDS
from funcbatch.cli import EX_FALSIFIED, EX_OK, EX_UNDECIDED, format_matrix
from funcbatch.gf2 import GeneratorMatrix
from test_cli import run_cli

EXIT_CODES = {0, 1, 2, 64, 65, 70, 74}

# values no int or float flag accepts, or that an engine rejects
JUNK = st.sampled_from(["", "x", "1.5", "1e3", "nan", "inf", "-inf", "-1", "0"])


def mostly(valid, other=JUNK):
    """valid seven times in eight, so most runs get past the parser."""
    return st.sampled_from([valid] * 7 + [other]).flatmap(lambda values: values)


def ints(lo, hi):
    return mostly(st.integers(lo, hi).map(str))


def choices(valid, invalid):
    return mostly(st.sampled_from(valid), st.just(invalid))


@st.composite
def flags(draw, required, optional=()):
    """argv for one subcommand from (flag, values) pairs, in any order.

    A required flag is left out one time in ten, an optional one half the
    time, and a word the parser does not know is added one time in eight.
    values may give None for a flag that takes no value.
    """
    chosen = [pair for pair in required if draw(st.integers(0, 9)) < 9]
    chosen += [pair for pair in optional if draw(st.booleans())]
    groups = []
    for flag, values in chosen:
        value = draw(values)
        groups.append([flag] if value is None else [flag, value])
    groups += draw(mostly(st.just([]), st.sampled_from([[["--bogus"]], [["--bogus=1"]],
                                                        [["stray"]]])))
    return [word for group in draw(st.permutations(groups)) for word in group]


@st.composite
def well_formed(draw):
    k = draw(st.integers(1, 3))
    cols = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=7))
    return format_matrix(GeneratorMatrix(k, tuple(cols))).encode()


# a well-formed matrix file (k <= 3, n <= 7), one behind a Latin-1 comment, or any bytes
MATRIX_FILES = (well_formed() | well_formed().map(lambda text: b"# caf\xe9\n" + text)
                | st.binary(max_size=64))


def commands():
    """argv for main; paths are relative to a scratch working directory holding m.txt."""
    # a file, a file in a missing directory, and a directory
    out = st.sampled_from(["out.txt", "missing/out.txt", "."])
    sources = {
        "--construct": st.tuples(choices(["simplex", "double"], "cube"), ints(1, 3)).map(":".join),
        "--matrix": choices(["m.txt"], "ghost.txt"),
    }
    # one source, as verify requires, a file more often, or both or neither, which it rejects
    verify_sources = mostly(st.sampled_from([["--construct"], ["--matrix"], ["--matrix"]]),
                            st.sampled_from([["--construct", "--matrix"], []]))
    argvs = {
        "count": flags([("--n", ints(0, 8)), ("--t", ints(0, 4)), ("--r", ints(1, 3))]),
        "minn": flags([("--k", ints(1, 4)), ("--t", ints(1, 4)),
                       ("--bound", choices(BOUND_IDS, "best"))],
                      [("--r", ints(1, 4))]),
        "table": flags([("--which", choices(["2", "3"], "1"))], [("--out", out)]),
        "verify": verify_sources.flatmap(lambda names: flags(
            [(name, sources[name]) for name in names]
            + [("--t", ints(1, 4)), ("--r", ints(1, 3))],
            [("--jobs", ints(1, 2)), ("--budget-seconds", mostly(st.floats(0, 2).map(repr))),
             ("--budget-batches", ints(0, 60)),
             ("--deterministic", st.none()), ("--pretty", st.none())])),
        "construct": flags([("--which", choices(["simplex", "double"], "cube")),
                            ("--k", ints(1, 3))], [("--out", out)]),
    }
    return st.one_of(
        *(argv.map(lambda a, name=name: [name, *a]) for name, argv in argvs.items()),
        argvs["verify"].map(lambda a: ["verify", *a]),  # the most flags and outcomes, so twice
        st.sampled_from([[], ["tabulate"], ["--bogus"]]),
    )


@pytest.fixture
def sandbox(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(matrix_file=MATRIX_FILES, argv=commands())
@example(matrix_file=b"\x80", argv=["verify", "--matrix", "m.txt", "--t", "2", "--r", "2"])
@example(matrix_file=b"", argv=["minn", "--k", "25", "--t", "2", "--r", "2", "--bound", "baseline"])
def test_every_exit_code_keeps_the_contract(sandbox, matrix_file, argv):
    (sandbox / "m.txt").write_bytes(matrix_file)
    code, out, err = run_cli(*argv)
    assert code in EXIT_CODES
    if code >= 64:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        return
    if argv[0] != "verify":
        assert code == EX_OK
        return
    status, _, counterexample = out.partition("\n")
    assert status == {EX_OK: "holds", EX_FALSIFIED: "fails", EX_UNDECIDED: "undecided"}[code]
    if code == EX_FALSIFIED:
        assert counterexample.count("\n") == 1 and counterexample.strip()
    else:
        assert counterexample == ""
