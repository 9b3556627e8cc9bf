"""README's annotated examples give the results they claim."""

import ast
import io
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from funcbatch import cli
from funcbatch.codecheck import FAILS, HOLDS, UNDECIDED

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

# a shell line and its claim: '# -> OUTPUT' or '# fails: "COUNTEREXAMPLE"'
SHELL_EXAMPLE = re.compile(r'^funcbatch (.*?)\s+# (?:-> (.*)|fails: "(.*)")$', re.MULTILINE)


def python_block():
    return re.search(r"^```python\n(.*?)^```", README, re.MULTILINE | re.DOTALL).group(1)


def test_shell_examples():
    examples = SHELL_EXAMPLE.findall(README)
    assert len(examples) >= 5
    for argv, output, counterexample in examples:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(shlex.split(argv))
        if counterexample:
            expected = (cli.EX_FALSIFIED, f"fails\n{counterexample}\n")
        else:
            expected = (cli.EX_OK, f"{output}\n")
        assert (code, out.getvalue()) == expected, argv


def test_library_examples():
    # each statement runs in turn; a trailing comment that is a number or a
    # verdict status is the claimed value of its expression or assignment
    source = python_block()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        if isinstance(node, ast.Expr):
            value = eval(code, namespace)
        else:
            exec(code, namespace)
            value = namespace[node.targets[0].id] if isinstance(node, ast.Assign) else None
        note = lines[node.end_lineno - 1].partition("#")[2].strip()
        if note.isdigit():
            assert value == int(note), code
        elif note in (HOLDS, FAILS, UNDECIDED):
            assert value.status == note, code
        else:
            continue
        checked.append(note)
    assert checked == [HOLDS, "146", "183", "41731200"]
