import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from pathlib import Path

import pytest

import funcbatch
from funcbatch import cli, codecheck
from funcbatch.cli import (
    EX_DATA,
    EX_FALSIFIED,
    EX_IO,
    EX_OK,
    EX_SOFTWARE,
    EX_UNDECIDED,
    EX_USAGE,
    MatrixFormatError,
    format_matrix,
    parse_matrix,
)
from funcbatch.codecheck import double_simplex, simplex
from funcbatch.counting import LabellingTable, labelling_counter
from funcbatch.gf2 import GeneratorMatrix
from oracles import labelling_count_direct
from test_fanout import fixed_workers

SRC = str(Path(funcbatch.__file__).resolve().parents[1])


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_capped(*argv, mib=256, cpu_seconds=None):
    """Run the CLI in a fresh interpreter whose address space is capped at mib MiB,
    and its CPU time at cpu_seconds when given."""
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (mib << 20, mib << 20))
        if cpu_seconds is not None:
            resource.setrlimit(resource.RLIMIT_CPU, (cpu_seconds, cpu_seconds))

    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "funcbatch.cli", *argv],
                          env={**os.environ, "PYTHONPATH": path}, preexec_fn=cap,
                          capture_output=True, text=True, timeout=120)


def test_count_rec_value():
    code, out, _ = run_cli("count", "--n", "10", "--t", "8", "--r", "2")
    assert code == EX_OK and out == "41731200\n"


def test_count_empty_batch_is_one():
    code, out, _ = run_cli("count", "--n", "3", "--t", "0", "--r", "2")
    assert code == EX_OK and out == "1\n"


def test_count_too_few_positions_is_zero():
    code, out, _ = run_cli("count", "--n", "2", "--t", "4", "--r", "2")
    assert code == EX_OK and out == "0\n"


COUNT_METHODS = {
    "direct": labelling_count_direct,
    "rec": lambda n, t, r: LabellingTable(r).count(n, t),
    "egf": lambda n, t, r: labelling_counter(t, r)(n),
}


@pytest.mark.parametrize("method", sorted(COUNT_METHODS))
def test_count_methods_agree(method):
    # count runs labelling_counter; the direct sum and the recursion are its references
    code, out, _ = run_cli("count", "--n", "9", "--t", "3", "--r", "3")
    assert code == EX_OK and out == "116340\n"
    assert COUNT_METHODS[method](9, 3, 3) == 116340


def test_count_has_no_method_option():
    code, out, err = run_cli("count", "--n", "3", "--t", "2", "--r", "2", "--method", "egf")
    assert (code, out, err) == (EX_USAGE, "", "error: unrecognized arguments: --method egf\n")


def test_count_prints_every_digit_of_a_huge_count(monkeypatch):
    # beyond CPython's default 4,300-digit cap on int-to-decimal conversion,
    # which count leaves in force for the rest of the interpreter
    def refuse(limit):
        raise AssertionError("count changed the interpreter-wide digit limit")

    # 3.10.0-3.10.6 have no such setter; raising=False adds one there
    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse, raising=False)
    code, out, err = run_cli("count", "--n", "4468", "--t", "4096", "--r", "2")
    assert (code, err, len(out)) == (EX_OK, "", 14800)
    digits = out.rstrip("\n")
    assert out == digits + "\n" and digits.isdigit()
    # Decimal parses a string of any length, and compares with an int exactly
    assert Decimal(digits) == labelling_counter(4096, 2)(4468)


def test_count_cap_far_above_the_batch_costs_nothing_extra():
    # the numerator weights r!/(i+1)! must be built only as far as n - t reads
    # them; all r of them at r = 10000 take about a minute of CPU
    proc = run_capped("count", "--n", "5", "--t", "2", "--r", "10000", cpu_seconds=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (EX_OK, "180\n", "")


def test_count_rejects_bad_cap():
    code, _, err = run_cli("count", "--n", "3", "--t", "1", "--r", "0")
    assert code == EX_USAGE and "error:" in err


def test_minn_sqrt_value():
    code, out, _ = run_cli("minn", "--k", "7", "--t", "128", "--bound", "sqrt")
    assert code == EX_OK and out == "111\n"


def test_minn_exact_value():
    code, out, _ = run_cli("minn", "--k", "3", "--t", "8", "--r", "2", "--bound", "exact")
    assert code == EX_OK and out == "10\n"


def test_minn_chain_value():
    code, out, _ = run_cli("minn", "--k", "15", "--t", "2", "--r", "2", "--bound", "chain")
    assert code == EX_OK and out == "183\n"


def test_minn_clamped_cell_shows_markers():
    code, out, _ = run_cli("minn", "--k", "7", "--t", "2", "--r", "5", "--bound", "chain")
    assert code == EX_OK
    assert out.splitlines() == ["9*", "floor=9 raw=8"]


def test_minn_vacuous_cell_shows_dash():
    code, out, _ = run_cli("minn", "--k", "5", "--t", "2", "--r", "5", "--bound", "chain")
    assert code == EX_OK
    assert out.splitlines() == ["-", "floor=9 raw=7"]


def test_minn_sqrt_warns_on_other_cap():
    code, out, err = run_cli("minn", "--k", "5", "--t", "32", "--r", "3", "--bound", "sqrt")
    assert code == EX_OK and out == "31\n"
    assert "warning" in err


@pytest.mark.parametrize("bound", ["exact", "chain", "sqrt", "baseline"])
def test_minn_r_defaults_to_two_and_only_a_given_r_warns(bound):
    implicit = run_cli("minn", "--k", "5", "--t", "4", "--bound", bound)
    explicit = run_cli("minn", "--k", "5", "--t", "4", "--r", "2", "--bound", bound)
    assert implicit[:2] == explicit[:2] and implicit[0] == EX_OK
    assert implicit[2] == ""


@pytest.mark.parametrize("bound, r, out", [
    pytest.param("chain", 200, "-\nfloor=399 raw=174\n", id="chain"),
    pytest.param("amgm", 200, "-\nfloor=202 raw=76\n", id="amgm"),
    pytest.param("product", 1000, "-\nfloor=1002 raw=370\n", id="product-1000"),
    pytest.param("amgm", 1000, "-\nfloor=1002 raw=370\n", id="amgm-1000"),
    pytest.param("chain", 1000, "-\nfloor=1999 raw=868\n", id="chain-1000"),
])
def test_minn_huge_cap_exits_cleanly(bound, r, out):
    # (2^k - 1)(r-1)! is far beyond the float range at r = 200; the vacuity
    # check below the floor stops at the first length passing the exact count
    got = run_capped("minn", "--k", "3", "--t", "2", "--r", str(r), "--bound", bound, cpu_seconds=10)
    assert (got.returncode, got.stdout, got.stderr) == (EX_OK, out, "")


def test_minn_unknown_bound_is_usage_error():
    code, _, err = run_cli("minn", "--k", "3", "--t", "8", "--bound", "bogus")
    assert code == EX_USAGE and "error:" in err


# Byte-for-byte CLI output of the table emitters and the bound solvers; a
# refactor of either must leave it unchanged.
TABLE_GOLDENS = {
    "2": (
        "k,t,sqrt,exact,construction\n"
        "2,4,5,5,6\n"
        "3,8,9,10,14\n"
        "4,16,17,19,30\n"
        "5,32,31,38,62\n"
        "6,64,58,74,126\n"
        "7,128,111,146,254\n"
    ),
    "3": (
        "k,baseline_t2,chain_t2_r2,chain_t2_r3,chain_t3_r3,chain_t2_r5\n"
        "5,7,7,6,6,-\n"
        "6,8,9,7,8,-\n"
        "7,9,13,8,9,9*\n"
        "8,11,17,10,10,9\n"
        "9,12,24,12,13,10\n"
        "10,13,33,15,15,11\n"
        "11,14,47,18,18,12\n"
        "12,16,65,22,23,13\n"
        "13,17,92,27,28,14\n"
        "14,18,129,34,34,16\n"
        "15,19,183,42,43,18\n"
        "# k=5 t=2 r=5: raw 7, floor 9, vacuous\n"
        "# k=6 t=2 r=5: raw 7, floor 9, vacuous\n"
        "# k=7 t=2 r=5: raw 8, floor 9, clamped\n"
        "# check: k=8 t=2 r=5 cell is exactly certified at 9 (not 10)\n"
    ),
}


@pytest.mark.parametrize("which", sorted(TABLE_GOLDENS))
def test_table_golden(which):
    assert run_cli("table", "--which", which) == (EX_OK, TABLE_GOLDENS[which], "")


# (bound, k, t, r) -> (exit code, stdout, stderr)
MINN_GOLDENS = {
    ("exact", 7, 2, 5): (0, "9\n", ""),
    ("exact", 5, 2, 5): (0, "7\n", ""),
    ("exact", 10, 2, 3): (0, "20\n", ""),
    ("exact", 3, 8, 2): (0, "10\n", ""),
    ("exact", 5, 32, 3): (0, "38\n", ""),
    ("exact", 1, 4, 1): (0, "4\n", ""),
    ("exact", 4, 3, 0): (64, "", "error: r must be positive\n"),
    ("exact", 25, 2, 2): (64, "", "error: k must be in 1..24, got 25\n"),
    ("product", 7, 2, 5): (0, "7\n", ""),
    ("product", 5, 2, 5): (0, "7*\nfloor=7 raw=6\n", ""),
    ("product", 10, 2, 3): (0, "15\n", ""),
    ("product", 3, 8, 2): (0, "10\n", ""),
    ("product", 5, 32, 3): (0, "35*\nfloor=35 raw=34\n", ""),
    ("product", 1, 4, 1): (0, "-\nfloor=5 raw=4\n", ""),
    # the left side is 0 below n = t, so the raw minimum is never below t
    ("product", 1, 3, 1): (0, "-\nfloor=4 raw=3\n", ""),
    ("product", 4, 3, 0): (64, "", "error: r must be positive\n"),
    ("product", 25, 2, 2): (64, "", "error: k must be in 1..24, got 25\n"),
    ("amgm", 7, 2, 5): (0, "7\n", ""),
    ("amgm", 5, 2, 5): (0, "7*\nfloor=7 raw=6\n", ""),
    ("amgm", 10, 2, 3): (0, "15\n", ""),
    ("amgm", 3, 8, 2): (0, "10*\nfloor=10 raw=9\n", ""),
    ("amgm", 5, 32, 3): (0, "35*\nfloor=35 raw=31\n", ""),
    ("amgm", 1, 4, 1): (0, "-\nfloor=5 raw=3\n", ""),
    ("amgm", 4, 3, 0): (64, "", "error: r must be positive\n"),
    ("amgm", 25, 2, 2): (64, "", "error: k must be in 1..24, got 25\n"),
    ("chain", 7, 2, 5): (0, "9*\nfloor=9 raw=8\n", ""),
    ("chain", 5, 2, 5): (0, "-\nfloor=9 raw=7\n", ""),
    ("chain", 10, 2, 3): (0, "15\n", ""),
    ("chain", 3, 8, 2): (0, "9*\nfloor=9 raw=7\n", ""),
    ("chain", 5, 32, 3): (0, "33*\nfloor=33 raw=21\n", ""),
    ("chain", 1, 4, 1): (0, "-\nfloor=5 raw=3\n", ""),
    ("chain", 4, 3, 0): (64, "", "error: r must be positive\n"),
    ("chain", 25, 2, 2): (64, "", "error: k must be in 1..24, got 25\n"),
    ("sqrt", 7, 2, 5): (0, "17\n", "warning: sqrt bound assumes cap 2; ignoring --r 5\n"),
    ("sqrt", 5, 2, 5): (0, "9\n", "warning: sqrt bound assumes cap 2; ignoring --r 5\n"),
    ("sqrt", 10, 2, 3): (0, "46\n", "warning: sqrt bound assumes cap 2; ignoring --r 3\n"),
    ("sqrt", 3, 8, 2): (0, "9\n", ""),
    ("sqrt", 5, 32, 3): (0, "31\n", "warning: sqrt bound assumes cap 2; ignoring --r 3\n"),
    ("sqrt", 1, 4, 1): (0, "4\n", "warning: sqrt bound assumes cap 2; ignoring --r 1\n"),
    ("sqrt", 4, 3, 0): (0, "7\n", "warning: sqrt bound assumes cap 2; ignoring --r 0\n"),
    ("sqrt", 25, 2, 2): (64, "", "error: k must be in 1..24, got 25\n"),
    ("baseline", 7, 2, 5): (0, "9\n", "warning: baseline bound assumes cap 1; ignoring --r 5\n"),
    ("baseline", 5, 2, 5): (0, "7\n", "warning: baseline bound assumes cap 1; ignoring --r 5\n"),
    ("baseline", 10, 2, 3): (0, "13\n", "warning: baseline bound assumes cap 1; ignoring --r 3\n"),
    ("baseline", 3, 8, 2): (0, "8\n", "warning: baseline bound assumes cap 1; ignoring --r 2\n"),
    ("baseline", 5, 32, 3): (0, "32\n", "warning: baseline bound assumes cap 1; ignoring --r 3\n"),
    ("baseline", 1, 4, 1): (0, "0\n", ""),
    ("baseline", 4, 3, 0): (0, "6\n", "warning: baseline bound assumes cap 1; ignoring --r 0\n"),
    ("baseline", 25, 2, 2): (64, "", "error: k must be in 1..24, got 25\n"),
}


@pytest.mark.parametrize("bound,k,t,r", sorted(MINN_GOLDENS))
def test_minn_golden(bound, k, t, r):
    got = run_cli("minn", "--k", str(k), "--t", str(t), "--r", str(r), "--bound", bound)
    assert got == MINN_GOLDENS[bound, k, t, r]


# The exact bound past k = 10, where the counts run to thousands of digits.
EXACT_MINN_GOLDENS = {(11, 2048): "2248\n", (12, 4096): "4468\n"}


@pytest.mark.parametrize("k,t", sorted(EXACT_MINN_GOLDENS))
def test_minn_exact_golden_past_k10(k, t):
    got = run_cli("minn", "--k", str(k), "--t", str(t), "--r", "2", "--bound", "exact")
    assert got == (EX_OK, EXACT_MINN_GOLDENS[k, t], "")


# stdout of count --n 1132 --t 1024 --r 2: the count at the
# k = 10 exact minimum, 3,084 digits
COUNT_EGF_T1024_N1132 = (
    "1990575209024947981179159454994794531995941749663660171178847498906698066499824274672052"
    "7316897869180634316726880270500472856401784163860925670527559747539197468687880591774884"
    "4209904700141303446513674684275953491928931769929440414772417764369571124886303279003820"
    "5083348376540020364447159063567701729344747790131218123184571402532154620933337702552535"
    "2474321626419420564406068634960743156444401588158260470978224133757214283739386434108523"
    "2473136772167431341185413520469385377429433736717506642479004580877516996939342368019493"
    "6843548312408846239402235897412791012356497903932647255275994566078152018869286324952220"
    "4020484810456746078945150676834905618186203445827194954786726644958723473878841595869159"
    "9603928982851001484441423194953285136166908167520911768970227531358288985126150078166127"
    "1569942961824115525609813107318206687873206957863892985623702281470464664464658149166241"
    "0259382482749210953702639256162654309904205986453238651548748112882637317698759416187048"
    "5055751576945190567990113655470281486729620418695578956014106448840584160190389299349098"
    "1016847189405784075279488110009384245823287606665993760632972118753247044015899690877962"
    "6511945265300724970701114099474916138845137877714354783342131494526409731608322746380197"
    "0002206327698418712048184250537052269428488665840915635245818888370720360127299325967371"
    "6391153144294379292818906150641707481507043894089729429306140095413645907920805222515007"
    "3191363317714237623558414265069207953763527122348044172720773448199781906409836156248124"
    "5164672286500343374981101154324738436698031174196234909181358683148530574445820872039821"
    "8276772690506359233462861651907331181461849592460980692141956603789695444327674911216091"
    "9286796053999828546720576169106831612127771313150350025080096165109796960619994646220741"
    "8405384684642502369299505291019743834929740067760824499437404220171254070852736128745281"
    "8393996891052631159132333812565544919341611756495987602408741247441076009762360736994734"
    "9872012504125591043831597748726696543580634116210888650086187932850271932913375736712373"
    "8802582259186838775501660086431787304658209688552092907274986579003550876072357132845339"
    "7605370814464568782787599349140544447623668244698060375856856877276470333605775438663795"
    "2608727111852353829454252353758117517553056872955138594731318828631463149409771254660976"
    "3448637658752664720648257472809385553390810143947361828201690702194672927227108120560567"
    "2089355507076527147654351519856872464365030911474302127728999072010939336013139014641893"
    "5337552229866281548572860457015556643745579544271537320388480763267826170593229017006928"
    "1788991240253814502780796553702868772558350986444782116510700945787738048651889681820223"
    "6680884149626216558986309434103955894074152241873081388765589148904350627756301885852998"
    "7306546980618596257546863133840711043984207304828921662692626866345856273631143502338309"
    "4334932910080000000000000000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000"
    "0000"
    "\n"
)


def test_count_egf_golden_at_k10_minimum():
    got = run_cli("count", "--n", "1132", "--t", "1024", "--r", "2")
    assert got == (EX_OK, COUNT_EGF_T1024_N1132, "")
    assert len(COUNT_EGF_T1024_N1132) == 3085


def test_count_defaults_to_egf_within_256_mib():
    # the recursion's LabellingTable would hold about t * n big integers, over 400 MiB here
    proc = run_capped("count", "--n", "1132", "--t", "1024", "--r", "2")
    assert (proc.returncode, proc.stdout, proc.stderr) == (EX_OK, COUNT_EGF_T1024_N1132, "")


def test_table2_rows():
    code, out, _ = run_cli("table", "--which", "2")
    lines = out.splitlines()
    assert code == EX_OK
    assert lines[0] == "k,t,sqrt,exact,construction"
    assert "5,32,31,38,62" in lines
    assert "7,128,111,146,254" in lines


def test_table3_rows_and_markers():
    code, out, _ = run_cli("table", "--which", "3")
    lines = out.splitlines()
    assert code == EX_OK
    assert "10,13,33,15,15,11" in lines
    assert "5,7,7,6,6,-" in lines
    assert "7,9,13,8,9,9*" in lines
    assert "8,11,17,10,10,9" in lines
    assert any(line.startswith("#") and "k=8" in line for line in lines)


def test_table_writes_file(tmp_path):
    out_path = tmp_path / "t2.csv"
    code, _, _ = run_cli("table", "--which", "2", "--out", str(out_path))
    assert code == EX_OK
    assert "2,4,5,5,6" in out_path.read_text().splitlines()


def test_table_unwritable_path_is_io_error(tmp_path):
    code, _, err = run_cli("table", "--which", "2", "--out", str(tmp_path / "no" / "t.csv"))
    assert code == EX_IO and "error:" in err


# not invariant, so verify sweeps every multiset of it
VERIFY_FILE_MATRIX = GeneratorMatrix(3, (1, 2, 3, 4, 5, 6, 7, 1))
VERIFY_MODES = {"default": (), "deterministic": ("--deterministic",)}
VERIFY_BUDGETS = {
    "none": (),
    "batches0": ("--budget-batches", "0"),
    "batches20": ("--budget-batches", "20"),
    "seconds0": ("--budget-seconds", "0"),
}
# (construct or file, t, mode, budget) -> (exit code, stdout, N of "checked N batches") at r = 2,
# the same at every --jobs
VERIFY_GOLDENS = {
    ('simplex:3', 4, 'default', 'none'): (0, 'holds\n', 217),
    ('simplex:3', 4, 'default', 'batches0'): (2, 'undecided\n', 0),
    ('simplex:3', 4, 'default', 'batches20'): (2, 'undecided\n', 20),
    ('simplex:3', 4, 'default', 'seconds0'): (2, 'undecided\n', 0),
    ('simplex:3', 4, 'deterministic', 'none'): (0, 'holds\n', 210),
    ('simplex:3', 4, 'deterministic', 'batches0'): (2, 'undecided\n', 0),
    ('simplex:3', 4, 'deterministic', 'batches20'): (2, 'undecided\n', 20),
    ('simplex:3', 4, 'deterministic', 'seconds0'): (2, 'undecided\n', 0),
    ('simplex:3', 5, 'default', 'none'): (1, 'fails\n7 7 7 7 7\n', 1),
    ('simplex:3', 5, 'default', 'batches0'): (2, 'undecided\n', 0),
    ('simplex:3', 5, 'default', 'batches20'): (1, 'fails\n7 7 7 7 7\n', 1),
    ('simplex:3', 5, 'default', 'seconds0'): (2, 'undecided\n', 0),
    ('simplex:3', 5, 'deterministic', 'none'): (1, 'fails\n1 1 1 1 1\n', 1),
    ('simplex:3', 5, 'deterministic', 'batches0'): (2, 'undecided\n', 0),
    ('simplex:3', 5, 'deterministic', 'batches20'): (1, 'fails\n1 1 1 1 1\n', 1),
    ('simplex:3', 5, 'deterministic', 'seconds0'): (2, 'undecided\n', 0),
    ('simplex:4', 5, 'default', 'none'): (0, 'holds\n', 11643),
    ('simplex:4', 5, 'default', 'batches0'): (2, 'undecided\n', 0),
    ('simplex:4', 5, 'default', 'batches20'): (2, 'undecided\n', 20),
    ('simplex:4', 5, 'default', 'seconds0'): (2, 'undecided\n', 0),
    ('simplex:4', 5, 'deterministic', 'none'): (0, 'holds\n', 11628),
    ('simplex:4', 5, 'deterministic', 'batches0'): (2, 'undecided\n', 0),
    ('simplex:4', 5, 'deterministic', 'batches20'): (2, 'undecided\n', 20),
    ('simplex:4', 5, 'deterministic', 'seconds0'): (2, 'undecided\n', 0),
    ('simplex:4', 8, 'default', 'none'): (0, 'holds\n', 319785),
    ('simplex:4', 8, 'default', 'batches0'): (2, 'undecided\n', 0),
    ('simplex:4', 8, 'default', 'batches20'): (2, 'undecided\n', 20),
    ('simplex:4', 8, 'default', 'seconds0'): (2, 'undecided\n', 0),
    ('simplex:4', 8, 'deterministic', 'none'): (0, 'holds\n', 319770),
    ('simplex:4', 8, 'deterministic', 'batches0'): (2, 'undecided\n', 0),
    ('simplex:4', 8, 'deterministic', 'batches20'): (2, 'undecided\n', 20),
    ('simplex:4', 8, 'deterministic', 'seconds0'): (2, 'undecided\n', 0),
    ('double:3', 4, 'default', 'none'): (0, 'holds\n', 217),
    ('double:3', 4, 'default', 'batches0'): (2, 'undecided\n', 0),
    ('double:3', 4, 'default', 'batches20'): (2, 'undecided\n', 20),
    ('double:3', 4, 'default', 'seconds0'): (2, 'undecided\n', 0),
    ('double:3', 4, 'deterministic', 'none'): (0, 'holds\n', 210),
    ('double:3', 4, 'deterministic', 'batches0'): (2, 'undecided\n', 0),
    ('double:3', 4, 'deterministic', 'batches20'): (2, 'undecided\n', 20),
    ('double:3', 4, 'deterministic', 'seconds0'): (2, 'undecided\n', 0),
    ('double:3', 8, 'default', 'none'): (0, 'holds\n', 3010),
    ('double:3', 8, 'default', 'batches0'): (2, 'undecided\n', 0),
    ('double:3', 8, 'default', 'batches20'): (2, 'undecided\n', 20),
    ('double:3', 8, 'default', 'seconds0'): (2, 'undecided\n', 0),
    ('double:3', 8, 'deterministic', 'none'): (0, 'holds\n', 3003),
    ('double:3', 8, 'deterministic', 'batches0'): (2, 'undecided\n', 0),
    ('double:3', 8, 'deterministic', 'batches20'): (2, 'undecided\n', 20),
    ('double:3', 8, 'deterministic', 'seconds0'): (2, 'undecided\n', 0),
    ('file', 3, 'default', 'none'): (0, 'holds\n', 91),
    ('file', 3, 'default', 'batches0'): (2, 'undecided\n', 0),
    ('file', 3, 'default', 'batches20'): (2, 'undecided\n', 20),
    ('file', 3, 'default', 'seconds0'): (2, 'undecided\n', 0),
    ('file', 3, 'deterministic', 'none'): (0, 'holds\n', 84),
    ('file', 3, 'deterministic', 'batches0'): (2, 'undecided\n', 0),
    ('file', 3, 'deterministic', 'batches20'): (2, 'undecided\n', 20),
    ('file', 3, 'deterministic', 'seconds0'): (2, 'undecided\n', 0),
    ('file', 5, 'default', 'none'): (1, 'fails\n7 7 7 7 7\n', 1),
    ('file', 5, 'default', 'batches0'): (2, 'undecided\n', 0),
    ('file', 5, 'default', 'batches20'): (1, 'fails\n7 7 7 7 7\n', 1),
    ('file', 5, 'default', 'seconds0'): (2, 'undecided\n', 0),
    ('file', 5, 'deterministic', 'none'): (1, 'fails\n2 2 2 2 2\n', 211),
    ('file', 5, 'deterministic', 'batches0'): (2, 'undecided\n', 0),
    ('file', 5, 'deterministic', 'batches20'): (2, 'undecided\n', 20),
    ('file', 5, 'deterministic', 'seconds0'): (2, 'undecided\n', 0),
}


@pytest.mark.parametrize("source,t,mode,budget", list(VERIFY_GOLDENS))
def test_verify_golden(tmp_path, source, t, mode, budget):
    if source == "file":
        path = tmp_path / "m.txt"
        path.write_text(format_matrix(VERIFY_FILE_MATRIX))
        matrix = ("--matrix", str(path))
    else:
        matrix = ("--construct", source)
    for jobs in (1, 2, 3):
        with fixed_workers(3):
            code, out, err = run_cli("verify", *matrix, "--t", str(t), "--r", "2", "--jobs", str(jobs),
                                     *VERIFY_MODES[mode], *VERIFY_BUDGETS[budget])
        checked = re.fullmatch(r"checked (\d+) batches in \d+\.\d{3}s \(searched \d+\)\n", err)
        assert checked, err
        assert (code, out, int(checked.group(1))) == VERIFY_GOLDENS[source, t, mode, budget], jobs


@pytest.mark.stretch
def test_verify_double4_t16_holds_stretch():
    # the doubled simplex of length 30 serves every batch of 16 queries at k = 4
    code, out, err = run_cli("verify", "--construct", "double:4", "--t", "16", "--r", "2")
    assert (code, out) == (EX_OK, "holds\n")
    assert err.startswith("checked 145422690 batches ")


def test_verify_construct_simplex2_holds():
    code, out, _ = run_cli("verify", "--construct", "simplex:2", "--t", "2", "--r", "2")
    assert code == EX_OK and out.splitlines()[0] == "holds"


def test_verify_counterexample_line():
    code, out, _ = run_cli("verify", "--construct", "simplex:3", "--t", "5", "--r", "2")
    assert code == EX_FALSIFIED
    assert out.splitlines() == ["fails", "7 7 7 7 7"]


def test_verify_pretty_counterexample():
    code, out, _ = run_cli("verify", "--construct", "simplex:3", "--t", "5", "--r", "2", "--pretty")
    assert code == EX_FALSIFIED
    assert out.splitlines()[1] == "111 111 111 111 111"


def test_verify_pretty_prints_coordinate_one_first():
    # the lex-least counterexample is query 1, the unit vector of coordinate 1 (bit 0)
    code, out, _ = run_cli("verify", "--construct", "simplex:3", "--t", "5", "--r", "2",
                           "--pretty", "--deterministic")
    assert code == EX_FALSIFIED
    assert out.splitlines()[1] == "100 100 100 100 100"


def test_verify_double_construct_holds():
    code, out, _ = run_cli("verify", "--construct", "double:2", "--t", "4", "--r", "2")
    assert code == EX_OK and out.splitlines()[0] == "holds"


def test_verify_budget_exit_code():
    code, out, _ = run_cli("verify", "--construct", "simplex:3", "--t", "4", "--r", "2",
                           "--budget-batches", "5")
    assert code == EX_UNDECIDED and out.splitlines()[0] == "undecided"


def test_verify_budget_env_var(monkeypatch):
    # a verdict depends on the command line alone; --budget-seconds is the one time budget
    monkeypatch.setenv("FBC_BUDGET_SECONDS", "0.000000001")
    code, out, _ = run_cli("verify", "--construct", "simplex:3", "--t", "4", "--r", "2")
    assert code == EX_OK and out.splitlines()[0] == "holds"


def test_verify_nan_time_budget_is_usage_error():
    # time.monotonic() > nan is never true, so NaN would be no budget at all
    code, out, err = run_cli("verify", "--construct", "simplex:3", "--t", "3", "--r", "2",
                             "--budget-seconds=nan")
    assert (code, out) == (EX_USAGE, "")
    assert err == "error: budget_seconds must not be NaN\n"


@pytest.mark.parametrize("flag, value, message", [
    ("--budget-batches", "-5", "budget_batches must be nonnegative"),
    ("--budget-seconds", "-1", "budget_seconds must be nonnegative"),
    ("--jobs", "-3", "jobs must be positive"),
    ("--jobs", "0", "jobs must be positive"),
])
def test_verify_bad_number_is_usage_error(flag, value, message):
    # a mistyped flag must not look like an undecided sweep or a serial run
    code, out, err = run_cli("verify", "--construct", "simplex:3", "--t", "4", "--r", "2",
                             flag, value)
    assert (code, out) == (EX_USAGE, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("flag", ["--budget-batches", "--budget-seconds"])
def test_verify_zero_budget_is_undecided(flag):
    code, out, _ = run_cli("verify", "--construct", "simplex:3", "--t", "4", "--r", "2", flag, "0")
    assert (code, out) == (EX_UNDECIDED, "undecided\n")


def test_verify_infinite_time_budget_is_no_limit():
    got = run_cli("verify", "--construct", "simplex:3", "--t", "3", "--r", "2",
                  "--budget-seconds=inf")
    assert got[:2] == (EX_OK, "holds\n")


def test_verify_out_of_memory_is_software_error(monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(codecheck, "verify", exhausted)
    code, out, err = run_cli("verify", "--construct", "simplex:3", "--t", "3", "--r", "2")
    assert (code, out, err) == (EX_SOFTWARE, "", "error: MemoryError\n")


def test_verify_bad_construct_argument():
    code, _, err = run_cli("verify", "--construct", "cube:3", "--t", "2", "--r", "2")
    assert code == EX_USAGE and "error:" in err
    code, _, _ = run_cli("verify", "--construct", "simplex:9", "--t", "2", "--r", "2")
    assert code == EX_USAGE
    code, _, err = run_cli("verify", "--construct", "simplex:x", "--t", "2", "--r", "2")
    assert (code, err) == (EX_USAGE, "error: --construct expects simplex:K or double:K\n")


def test_verify_matrix_file_round_trip(tmp_path):
    path = tmp_path / "m.txt"
    code, _, _ = run_cli("construct", "--which", "double", "--k", "2", "--out", str(path))
    assert code == EX_OK
    code, out, _ = run_cli("verify", "--matrix", str(path), "--t", "4", "--r", "2")
    assert code == EX_OK and out.splitlines()[0] == "holds"


def test_verify_malformed_matrix_reports_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 3\n1 0 1\n0 2 1\n")
    code, _, err = run_cli("verify", "--matrix", str(path), "--t", "2", "--r", "2")
    assert code == EX_DATA and "line 3" in err


# a matrix file that parses line by line but is not a valid matrix -> its error message
BAD_MATRIX_FILES = {
    "k25": ("25 1\n" + "1\n" * 25, "dimension must be in 1..24, got 25"),
    "n129": ("1 129\n" + " 1" * 129 + "\n", "length must be in 1..128, got 129"),
    "header_words": ("a b\n1 0\n", "line 1: header must hold two integers"),
    "header_zero": ("0 3\n", "line 1: k and n must be positive"),
    "extra_row": ("1 2\n1 0\n0 1\n", "line 3: unexpected extra row"),
}


@pytest.mark.parametrize("name", sorted(BAD_MATRIX_FILES))
def test_verify_bad_matrix_file_is_data_error(tmp_path, name):
    text, message = BAD_MATRIX_FILES[name]
    path = tmp_path / "m.txt"
    path.write_text(text)
    got = run_cli("verify", "--matrix", str(path), "--t", "2", "--r", "2")
    assert got == (EX_DATA, "", f"error: {message}\n")


@pytest.mark.parametrize("data", [b"# caf\xe9\n2 3\n1 0 1\n0 1 1\n", b"\x80\x00\xff"],
                         ids=["latin1", "binary"])
def test_verify_undecodable_matrix_file_is_data_error(tmp_path, data):
    # a matrix file that is not UTF-8 text once left main as a traceback with exit 1
    path = tmp_path / "m.txt"
    path.write_bytes(data)
    code, out, err = run_cli("verify", "--matrix", str(path), "--t", "2", "--r", "2")
    assert (code, out) == (EX_DATA, "")
    assert err.startswith("error: 'utf-8' codec can't decode byte ") and err.count("\n") == 1


def test_verify_matrix_file_with_byte_order_mark_holds(tmp_path):
    # some editors begin a UTF-8 file with U+FEFF, which is not part of the header
    path = tmp_path / "m.txt"
    path.write_bytes(b"\xef\xbb\xbf" + format_matrix(simplex(2)).encode())
    got = run_cli("verify", "--matrix", str(path), "--t", "2", "--r", "2")
    assert got[:2] == (EX_OK, "holds\n")


def test_verify_missing_matrix_file_is_io_error(tmp_path):
    code, _, _ = run_cli("verify", "--matrix", str(tmp_path / "ghost.txt"), "--t", "2", "--r", "2")
    assert code == EX_IO


def test_construct_simplex2_output():
    code, out, _ = run_cli("construct", "--which", "simplex", "--k", "2")
    assert code == EX_OK
    assert out == "2 3\n1 0 1\n0 1 1\n"


def test_construct_double_header():
    code, out, _ = run_cli("construct", "--which", "double", "--k", "3")
    assert code == EX_OK
    assert out.splitlines()[0] == "3 14"


def test_construct_out_of_range_k():
    code, _, _ = run_cli("construct", "--which", "simplex", "--k", "9")
    assert code == EX_USAGE


def test_matrix_format_round_trip():
    for matrix in (simplex(2), simplex(3), double_simplex(2)):
        assert parse_matrix(format_matrix(matrix)) == matrix


def test_matrix_parser_skips_comments_and_blanks():
    text = "# generator\n\n2 3\n# rows\n1 0 1\n0 1 1\n"
    assert parse_matrix(text) == simplex(2)


def test_matrix_parser_errors_carry_line_numbers():
    with pytest.raises(MatrixFormatError) as exc:
        parse_matrix("2 3\n1 0 1\n0 1\n")
    assert "line 3" in str(exc.value)
    with pytest.raises(MatrixFormatError):
        parse_matrix("")
    with pytest.raises(MatrixFormatError):
        parse_matrix("2 3\n1 0 1\n")
    with pytest.raises(MatrixFormatError):
        parse_matrix("2\n1\n")


def test_missing_subcommand_is_usage_error():
    code, _, err = run_cli()
    assert code == EX_USAGE and "error:" in err
