"""Traced in-process run of the funcbatch CLI, split by layer.

Run as ``python3 bench/tracer.py <funcbatch arguments...>`` with the
package importable (``PYTHONPATH=src``).  It wraps the public functions the
benchmark attributes time to, calls ``funcbatch.cli.main`` once in this
process, and prints one JSON line: the CLI's exit code, stdout and stderr,
the package path, and per function its calls, inclusive and self seconds.
Nothing in the package itself changes.
"""

from __future__ import annotations

import importlib
import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Optional

# (module, attribute) of every wrapped function; the span name drops the
# "funcbatch." prefix
TARGETS = (
    ("funcbatch.cli", "main"),
    ("funcbatch.codecheck", "verify"),
    ("funcbatch.codecheck", "build_catalog"),
    ("funcbatch.codecheck", "find_disjoint_assignment"),
    ("funcbatch.gf2", "rank"),
    ("funcbatch.bounds", "min_n_exact"),
    ("funcbatch.bounds", "necessary_condition"),
    ("funcbatch.counting", "LabellingTable.count"),
)


@dataclass
class Span:
    """Totals for one wrapped function.  self_s excludes time in wrapped callees."""

    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    extra: dict[str, Any] = field(default_factory=dict)


Observer = Callable[[Span, tuple, Any, float], None]


class Tracer:
    """Wraps functions to count calls and split inclusive from self time.

    Spans nest through a stack of child-time accumulators, so a wrapped
    function called from another wrapped function is charged to the callee
    and subtracted from the caller's self time.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: dict[str, Span] = {}
        self._children: list[float] = []

    def wrap(self, name: str, fn: Callable, observe: Optional[Observer] = None) -> Callable:
        span = self.spans.setdefault(name, Span())
        clock = self.clock
        children = self._children

        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = children.pop()
                if children:
                    children[-1] += elapsed
                span.calls += 1
                span.s += elapsed
                span.self_s += elapsed - child
            if observe is not None:
                observe(span, args, result, elapsed)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def report(self) -> dict[str, dict[str, Any]]:
        return {name: asdict(span) for name, span in self.spans.items()}


def _observe_search(span: Span, args: tuple, result: Any, elapsed: float) -> None:
    if result is None:
        span.extra["fail_s"] = span.extra.get("fail_s", 0.0) + elapsed


def _observe_catalog(span: Span, args: tuple, result: Any, elapsed: float) -> None:
    span.extra["sets"] = span.extra.get("sets", 0) + sum(len(v) for v in result.sets.values())
    span.extra["n"] = result.n
    span.extra["r"] = result.r


def _observe_table(span: Span, args: tuple, result: Any, elapsed: float) -> None:
    _, n, t = args
    span.extra["max_n"] = max(span.extra.get("max_n", 0), n)
    span.extra["max_t"] = max(span.extra.get("max_t", 0), t)


OBSERVERS: dict[str, Observer] = {
    "codecheck.find_disjoint_assignment": _observe_search,
    "codecheck.build_catalog": _observe_catalog,
    "counting.LabellingTable.count": _observe_table,
}


def install(tracer: Tracer) -> None:
    """Wrap every target and rebind each name under which funcbatch modules hold it."""
    for module_name, attr in TARGETS:
        owner: Any = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        name = f"{module_name.removeprefix('funcbatch.')}.{attr}"
        wrapped = tracer.wrap(name, original, OBSERVERS.get(name))
        setattr(owner, leaf, wrapped)
        # `from x import f` copies leave other modules holding the original
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("funcbatch"):
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)


def main(argv: list[str]) -> int:
    import funcbatch
    import funcbatch.cli

    tracer = Tracer()
    install(tracer)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = funcbatch.cli.main(argv)
    wall = time.perf_counter() - start
    print(json.dumps({
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "package": funcbatch.__file__,
        "wall_s": wall,
        "spans": tracer.report(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
