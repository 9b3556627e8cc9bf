"""The import graph: a launch loads only the engine modules its subcommand runs,
and only the package and the standard library.

Each check runs in a fresh interpreter, since this test process has already
imported every module.
"""

import ast
import functools
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import funcbatch
from funcbatch.codecheck import _worker_count

SRC = str(Path(funcbatch.__file__).resolve().parents[1])
BENCH = str(Path(__file__).resolve().parents[1] / "bench")
ENGINES = ("bounds", "codecheck", "counting", "gf2")
POOL_MODULES = ("concurrent.futures", "multiprocessing")


def launch(code):
    """Run code in a fresh interpreter; returns (stdout lines before the last, loaded modules)."""
    script = f"{code}\nimport sys\nprint(' '.join(sorted(sys.modules)))"
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    *out, modules = proc.stdout.splitlines()
    return out, set(modules.split())


def pool_loaded(modules):
    return any(m == p or m.startswith(p + ".") for m in modules for p in POOL_MODULES)


@functools.cache
def bare_modules():
    """What an empty launch loads: site hooks differ between installations."""
    return frozenset(launch("")[1])


def test_package_import_loads_no_engine():
    out, modules = launch("import funcbatch\nprint(' '.join(dir(funcbatch)))")
    assert {m for m in modules if m.startswith("funcbatch.")} == set()
    # dir lists every public name and submodule before any is resolved
    assert set(funcbatch.__all__) | set(ENGINES) <= set(out[0].split())


def test_cli_import_loads_no_process_pool():
    _, modules = launch("import funcbatch.cli")
    assert not pool_loaded(modules)
    assert "funcbatch.codecheck" not in modules


def test_cli_import_loads_only_what_the_parser_needs():
    # records are named tuples, not dataclasses (whose import pulls in inspect),
    # and no engine is compiled before a command runs
    _, modules = launch("import funcbatch.cli")
    heavy = {"dataclasses", "inspect", "fractions", "decimal",
             "funcbatch.counting", "funcbatch.codecheck"}
    assert heavy & (modules - bare_modules()) == set()
    assert {m for m in modules if m.startswith("funcbatch")} == {"funcbatch", "funcbatch.cli"}


def test_verify_launch_leaves_counting_unloaded():
    out, modules = launch(
        "from funcbatch import cli\n"
        "print(cli.main(['verify', '--construct', 'simplex:3', '--t', '4', '--r', '2']))")
    assert out == ["holds", "0"]
    assert "funcbatch.codecheck" in modules
    assert "funcbatch.counting" not in modules
    assert "funcbatch.bounds" not in modules


def test_minn_launch_leaves_codecheck_unloaded():
    out, modules = launch(
        "from funcbatch import cli\n"
        "print(cli.main(['minn', '--k', '5', '--t', '32', '--r', '3', '--bound', 'exact']))")
    assert out == ["38", "0"]
    assert "funcbatch.codecheck" not in modules
    assert not pool_loaded(modules)
    # the exact bound loads the counting engine; no bound needs fractions
    assert "funcbatch.counting" in modules
    assert "fractions" not in modules - bare_modules()


@pytest.mark.parametrize("bound,min_n", [("sqrt", "111"), ("baseline", "128")])
def test_minn_sqrt_and_baseline_leave_counting_unloaded(bound, min_n):
    # their floors are at most 1, so they never test the exact counting condition
    out, modules = launch(
        "from funcbatch import cli\n"
        f"print(cli.main(['minn', '--k', '7', '--t', '128', '--bound', {bound!r}]))")
    assert out == [min_n, "0"]
    assert "funcbatch.bounds" in modules
    assert "funcbatch.counting" not in modules
    assert "funcbatch.codecheck" not in modules


def test_commands_load_only_the_package_and_stdlib(tmp_path):
    commands = [
        ["count", "--n", "9", "--t", "3", "--r", "3"],
        ["minn", "--k", "5", "--t", "32", "--bound", "exact"],
        ["table", "--which", "2", "--out", str(tmp_path / "t2.csv")],
        ["verify", "--construct", "simplex:3", "--t", "4", "--r", "2", "--jobs", "1"],
        ["construct", "--which", "double", "--k", "3", "--out", str(tmp_path / "d3.txt")],
    ]
    out, modules = launch(f"from funcbatch import cli\nprint([cli.main(a) for a in {commands!r}])")
    assert out[-1] == "[0, 0, 0, 0, 0]"
    # site hooks of the installation load modules before any code runs
    extra = {m for m in modules - bare_modules()
             if m.split(".")[0] not in ("funcbatch", *sys.stdlib_module_names)}
    assert extra == set()


def test_bench_tracer_targets_resolve():
    # bench/tracer.py wraps these functions by name; a rename must fail here
    out, _ = launch(f"import sys\nsys.path.insert(0, {BENCH!r})\n"
                    "from tracer import TARGETS, Tracer, install\n"
                    "tracer = Tracer()\ninstall(tracer)\nprint(len(TARGETS), len(tracer.spans))")
    targets, spans = map(int, out[-1].split())
    assert spans == targets > 0


@pytest.mark.skipif(_worker_count(2) < 2, reason="one usable CPU forks no worker")
def test_parallel_verify_forks_without_a_pool(tmp_path):
    # not invariant (1 three times, 2 and 3 absent), so the full sweep is split over 2 workers
    matrix = tmp_path / "m.txt"
    matrix.write_text("3 7\n0 0 1 1 1 1 1\n0 1 0 0 1 0 0\n1 1 0 0 1 1 0\n")
    runs = {}
    for jobs in (1, 2):
        runs[jobs] = launch(
            "import os\n"
            "forks = []\n"
            "real_fork = os.fork\n"
            "def fork():\n"
            "    forks.append(1)\n"
            "    return real_fork()\n"
            "os.fork = fork\n"
            "from funcbatch import cli\n"
            f"print(cli.main(['verify', '--matrix', {str(matrix)!r}, '--t', '3', '--r', '2',"
            f" '--deterministic', '--jobs', '{jobs}']))\n"
            "print(len(forks))")
    assert runs[1][0] == ["fails", "1 2 3", "1", "0"]
    assert runs[2][0] == ["fails", "1 2 3", "1", "1"]
    assert not pool_loaded(runs[1][1])
    assert not pool_loaded(runs[2][1])


def test_every_public_name_is_the_submodules_object():
    submodules = [importlib.import_module(f"funcbatch.{name}") for name in ENGINES]
    for name in funcbatch.__all__:
        owners = [m for m in submodules if name in vars(m)]
        assert owners, name
        assert all(getattr(funcbatch, name) is getattr(m, name) for m in owners), name


def test_every_public_name_is_read_by_the_package_or_shown_in_readme():
    # a name that nothing in src/ reads and README does not show is a test
    # fixture, and belongs under tests/.  This looks at names only, not at
    # what they are bound to, so a local variable of the same name hides a
    # name that no engine calls: while gf2.rank was exported, it passed only
    # through the loop variable rank in codecheck.py
    read = set()
    for path in Path(funcbatch.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    shown = set(re.findall(r"\w+", re.search(r"^```python\n(.*?)^```", readme,
                                             re.MULTILINE | re.DOTALL).group(1)))
    assert [name for name in funcbatch.__all__ if name not in read | shown] == []


def test_no_module_reads_another_modules_private_name():
    # a module's _-prefixed names are its own: the CLI and the engines read
    # each other only through public names, so a private one can change freely
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    reads = []
    for path in sorted(Path(funcbatch.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()  # the names an import from the package binds
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or "funcbatch" for a in node.names
                             if a.name.split(".")[0] == "funcbatch"}
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("funcbatch"):
                imported |= {a.asname or a.name for a in node.names}
                reads += [f"{path.name}: {node.module}.{a.name}" for a in node.names
                          if private(a.name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and private(node.attr):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id in imported:
                    reads.append(f"{path.name}: {ast.unparse(node)}")
    assert reads == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from funcbatch import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(funcbatch.__all__)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        funcbatch.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from funcbatch import no_such_name", {})
