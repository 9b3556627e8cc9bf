"""Self-test of the benchmark's own arithmetic, oracle and tracer; runs in about a second.

    python3 bench/selftest.py

Exits 0 and prints the number of checks when all hold.  It needs no
funcbatch source tree.
"""

from __future__ import annotations

import sys
from itertools import combinations, combinations_with_replacement
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from checks import brute_force_serves, decided_batches, multiset_count, multiset_rank, subsets_upto  # noqa: E402
from run import WORKLOADS, matrix_text, permuted_columns  # noqa: E402
from tracer import Tracer  # noqa: E402

checks = 0


def check(condition: bool, message: str) -> None:
    global checks
    checks += 1
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def test_multisets() -> None:
    for q in range(1, 6):
        for t in range(1, 5):
            everything = list(combinations_with_replacement(range(1, q + 1), t))
            check(multiset_count(q, t) == len(everything), f"count q={q} t={t}")
            check(all(multiset_rank(m, q) == i for i, m in enumerate(everything)),
                  f"rank follows lex order for q={q} t={t}")
    # fail-det-k4t8: every batch starting with query 1 precedes the counterexample
    check(multiset_rank((2,) * 8, 15) == 116_280, "rank of the fail-det counterexample")
    check(multiset_rank((1,) + (15,) * 7, 15) == 116_279, "rank of its predecessor")


def test_decided() -> None:
    check(decided_batches(4, 8, None) == 319_770, "C(22, 8) batches for k=4 t=8")
    check(decided_batches(7, 2, None) == 8_128, "C(128, 2) batches for k=7 t=2")
    check(decided_batches(4, 8, (2,) * 8) == 116_281, "rank + 1 for a failing sweep")
    expected = {"sweep-k4t8": 319_770, "fail-det-k4t8": 116_281,
                "catalog-k7r3": 8_128, "minn-exact-k10": 1132 - 1024 + 1}
    for name, decided in expected.items():
        check(WORKLOADS[name].decided == decided, f"decided work of {name}")


def test_subsets() -> None:
    for n in range(1, 8):
        for r in range(1, 5):
            brute = sum(1 for s in range(1, r + 1) for _ in combinations(range(n), s))
            check(subsets_upto(n, r) == brute, f"subsets n={n} r={r}")
    check(subsets_upto(127, 3) == 341_503, "simplex(7) subsets up to size 3")
    check(subsets_upto(15, 2) == 120, "simplex(4) subsets up to size 2")


def test_self_time() -> None:
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def inner() -> None:
        now[0] += 2

    def failing() -> None:
        now[0] += 5
        raise ValueError

    wrapped_inner = tracer.wrap("inner", inner)
    wrapped_failing = tracer.wrap("failing", failing)

    def outer() -> None:
        now[0] += 1
        wrapped_inner()
        now[0] += 3
        wrapped_inner()
        try:
            wrapped_failing()
        except ValueError:
            pass

    tracer.wrap("outer", outer)()
    spans = tracer.report()
    check(spans["outer"]["s"] == 13 and spans["outer"]["self_s"] == 4, "outer self = total - children")
    check(spans["inner"]["calls"] == 2 and spans["inner"]["self_s"] == 4, "inner counted per call")
    check(spans["failing"]["s"] == 5, "a raising callee is still timed")


def test_oracle() -> None:
    simplex2 = (1, 2, 3)
    check(all(brute_force_serves(simplex2, 2, b)
              for b in combinations_with_replacement(range(1, 4), 2)), "simplex(2) serves t=2")
    check(not brute_force_serves(tuple(range(1, 8)), 2, (7,) * 5), "simplex(3) fails 7 7 7 7 7")
    fail_det = WORKLOADS["fail-det-k4t8"].columns
    check(not brute_force_serves(fail_det, 2, (2,) * 8), "fail-det counterexample fails")
    check(brute_force_serves(fail_det, 2, (1,) * 8), "fail-det all-ones batch is served")
    check(brute_force_serves(fail_det, 2, (1,) + (15,) * 7), "fail-det predecessor is served")


def test_inputs() -> None:
    base = tuple(range(1, 16))
    check(permuted_columns(base, 0) == list(base), "seed 0 is the identity")
    check(permuted_columns(base, 7) == permuted_columns(base, 7), "a seed is reproducible")
    check(sorted(permuted_columns(base, 7)) == list(base), "a seed only permutes")
    check(permuted_columns(base, 7) != permuted_columns(base, 8), "seeds differ")
    check(matrix_text(2, (1, 2, 3)) == "2 3\n1 0 1\n0 1 1\n", "matrix file format")


def main() -> int:
    for test in (test_multisets, test_decided, test_subsets, test_self_time, test_oracle, test_inputs):
        test()
    print(f"ok: {checks} checks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
