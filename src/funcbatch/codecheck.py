"""Simplex-family constructions and exhaustive checking of the disjoint-recovery property.

A generator matrix serves a batch of t queries with cap r when the queries
admit pairwise-disjoint recovery sets of size at most r.  Restricting the
search to minimal recovery sets loses nothing: any recovery set of size at
most r contains a minimal one of size at most r.  Batches are enumerated as
sorted multisets, since disjoint-assignment existence is invariant under
reordering the queries.

Symmetry reduction.  Call a matrix invariant when every nonzero k-bit
vector appears among its columns equally often, at least once; zero columns
are ignored.  Simplex and doubled simplex matrices are invariant, in any
column order.  Every A in GL(k,2) then maps the columns onto a permutation of
themselves, so a batch is served exactly when its image under A is, and one
batch per orbit decides the whole orbit.  Let c(v) be the copies of query v
in a sorted batch.  Among sorted multisets of one size, b is lex-smaller
than b' exactly when b's count vector (c(1), .., c(q)) is lex-greater, so
the lex-least member of an orbit has the lex-greatest count vector in it.
The sweep checks only the representatives (see _representatives), and the
lex-least member of each orbit is one:
- span rule: were an entry outside the span V of the entries before it
  larger than the least positive integer m outside V, a map fixing V and
  sending that entry to m would give a lex-smaller member.  So V is always
  {0..2^d - 1}, d the bit length of the last entry, and the next entry is
  at most 2^d;
- R1: some map sends v to 1, so c(v) <= c(1);
- R2: for any independent b1, b2 some map sends b1 to 1, b2 to 2 and so
  b1 ^ b2 to 3; when c(b1) = c(1) the image's count vector starts
  (c(1), c(b2), c(b1 ^ b2)), so (c(b2), c(b1 ^ b2)) <= (c(2), c(3)).
So the first failing representative is the lex-least counterexample, and
every multiset ranked below the next unchecked representative is settled.
"""

from __future__ import annotations

import marshal
import os
import time
from collections import defaultdict
from itertools import chain, combinations, combinations_with_replacement, islice
from math import comb, isnan
from typing import Callable, Iterable, Iterator, NamedTuple, NoReturn, Optional, Sequence

from funcbatch import check_int
from funcbatch.gf2 import GeneratorMatrix

HOLDS = "holds"
FAILS = "fails"
UNDECIDED = "undecided"


def simplex(k: int) -> GeneratorMatrix:
    """Generator whose columns are all nonzero k-bit vectors in increasing integer order."""
    check_int("k", k, 1, 7)
    return GeneratorMatrix(k, tuple(range(1, 1 << k)))


def double_simplex(k: int) -> GeneratorMatrix:
    """Simplex generator concatenated with itself; length 2^(k+1) - 2."""
    check_int("k", k, 1, 6)
    cols = tuple(range(1, 1 << k))
    return GeneratorMatrix(k, cols + cols)


def _level(matrix: GeneratorMatrix, size: int,
           deadline: Optional[float] = None) -> defaultdict[int, list[int]]:
    """The independent sets of exactly size columns, keyed by xor, each list in increasing mask order.

    Over GF(2) a column set is a minimal recovery set for its xor exactly
    when its columns are independent.  The sets are grown by one depth-first
    extension over column indices, largest index first: each prefix carries
    its mask, its running xor and its span as a set of vectors, and takes a
    smaller index only when that column lies outside the span.  The span
    test also rejects zero and repeated columns, and a dependent prefix is
    never extended.  The cost is therefore set by the independent prefixes
    of fewer than size columns, one span lookup for each column below a
    prefix's lowest index, and not by C(n, size): no subset is ranked from
    scratch, and none of the subsets that contain a dependent prefix is
    visited.  Indices are tried in increasing order at every depth, so the
    sets come out in colex order, which is increasing mask order.

    With a deadline (a time.monotonic() value) the clock is read on entry
    and at each prefix that still needs two or more columns, and
    TimeoutError is raised once it has passed; a prefix that needs one
    column reads none, since it only appends.
    """
    out: defaultdict[int, list[int]] = defaultdict(list)
    columns = [(c, 1 << j) for j, c in enumerate(matrix.cols)]

    def extend(left: int, mask: int, total: int, span: set[int], stop: int) -> None:
        if left == 1:
            for c, bit in columns[:stop]:
                if c not in span:
                    out[total ^ c].append(mask | bit)
            return
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("deadline passed while a size was built")
        # a prefix needs left - 1 more columns below its lowest index
        for j in range(left - 1, stop):
            c, bit = columns[j]
            if c not in span:
                extend(left - 1, mask | bit, total ^ c, span | {v ^ c for v in span}, j)

    if deadline is not None and time.monotonic() > deadline:
        raise TimeoutError("deadline passed before a size was built")
    if 1 <= size <= matrix.n:
        extend(size, 0, 0, {0}, matrix.n)
    return out


class RecoveryCatalog:
    """The minimal recovery sets of sizes 1..size for every query, grown one size at a time.

    Its fields are k, n, r, size and sets.  sets maps a query word to its
    column-set masks, sorted by size then by mask.  A new catalog holds no
    sets (size 0); grow() is the one place a size is built, and it appends
    the sets of the next size until size is min(r, n).  Treat sets as
    read-only outside this class.
    """

    def __init__(self, matrix: GeneratorMatrix, r: int) -> None:
        check_int("r", r, 1)
        self._matrix = matrix
        self.k = matrix.k
        self.n = matrix.n
        self.r = r
        self.size = 0
        self.sets: dict[int, tuple[int, ...]] = {}

    def grow(self, deadline: Optional[float] = None) -> bool:
        """Append the sets of the next size to each query's sets; whether a size was built.

        At size min(r, n) it builds nothing and returns False.  Otherwise
        _level builds the next size; with a deadline (a time.monotonic()
        value) it reads the clock on entry and while it builds, and raises
        TimeoutError once the deadline has passed.  size and sets change
        only after _level returns, so a cut-off leaves them as they were.
        """
        # size counts up from 0, so it meets min(r, n) at the first of r and n;
        # this test is cheaper than calling min, on every batch that first fit misses
        if self.size in (self.r, self.n):
            return False
        level = _level(self._matrix, self.size + 1, deadline)
        self.size += 1
        # pop each query's list as it is appended, so it is not held twice
        while level:
            alpha, masks = level.popitem()
            self.sets[alpha] = self.sets.get(alpha, ()) + tuple(masks)
        return True


def build_catalog(matrix: GeneratorMatrix, r: int) -> RecoveryCatalog:
    """The catalog of every minimal recovery set of size <= r, grown until grow() returns False.

    They are the independent sets of at most r columns, keyed by their xor:
    _level builds each size 1..min(r, n) in increasing mask order, and the
    sizes are joined smallest first, so each query's masks are already
    sorted by (size, mask) and need no sort.  verify grows the same catalog
    one size at a time, only as far as its batches need it.
    """
    catalog = RecoveryCatalog(matrix, r)
    while catalog.grow():
        pass
    return catalog


def find_disjoint_assignment(catalog: RecoveryCatalog, batch: Sequence[int], *,
                             deadline: Optional[float] = None) -> Optional[list[int]]:
    """Pairwise-disjoint recovery sets for the batch, one mask per query, or None.

    First grows the catalog until grow() returns False, so a partly built
    one answers as build_catalog's would.  Backtracks over queries ordered
    by ascending candidate count, copies of one query together; candidates
    are tried smallest set first.  Prunes when the remaining queries'
    minimum set sizes exceed the free columns, and a copy that follows a
    copy of the same query tries only the candidates after the one that
    copy took: copies share one candidate list and disjoint nonempty masks
    are distinct, so any assignment can be reordered to take them in
    increasing order and the search stays complete.  With a deadline (a
    time.monotonic() value) the clock is read before and while each size is
    built and every 256 search nodes, and TimeoutError is raised once it
    has passed.
    """
    for w in batch:
        if not isinstance(w, int) or not 1 <= w < 1 << catalog.k:
            raise ValueError(f"query {w!r} is not a nonzero {catalog.k}-bit vector")
    while catalog.grow(deadline):
        pass
    cands = [catalog.sets.get(w, ()) for w in batch]
    if not all(cands):
        return None
    order = sorted(range(len(batch)), key=lambda i: (len(cands[i]), batch[i]))
    min_size = [cands[i][0].bit_count() for i in order]
    suffix_need = [0] * (len(order) + 1)
    for pos in range(len(order) - 1, -1, -1):
        suffix_need[pos] = suffix_need[pos + 1] + min_size[pos]
    chosen: list[int] = [0] * len(batch)
    n = catalog.n
    nodes = 0

    def extend(pos: int, used: int, lo: int) -> bool:
        nonlocal nodes
        if pos == len(order):
            return True
        if suffix_need[pos] > n - used.bit_count():
            return False
        nodes += 1
        if deadline is not None and not nodes & 255 and time.monotonic() > deadline:
            raise TimeoutError("deadline passed during the assignment search")
        i = order[pos]
        c = cands[i]
        repeat = pos + 1 < len(order) and batch[order[pos + 1]] == batch[i]
        for j in range(lo, len(c)):
            mask = c[j]
            if mask & used:
                continue
            chosen[i] = mask
            if extend(pos + 1, used | mask, j + 1 if repeat else 0):
                return True
        return False

    return chosen if extend(0, 0, 0) else None


class Verdict(NamedTuple):
    """Outcome of a verification sweep.

    assignments_checked counts the screened batches plus the length of the
    lex prefix of all multisets that the sweep settled, at every jobs: an
    undecided sweep resumes at the multiset whose rank is that count less
    the screened batches.  batches_searched counts the batches the sweep
    decided, screen included, whether first fit or the complete search
    decided them; it is smaller only when the symmetry reduction settles
    batches without deciding them one by one, and larger only when forked
    workers of the unreduced sweep decided batches past the settled prefix.
    """

    status: str
    counterexample: Optional[tuple[int, ...]]
    assignments_checked: int
    wall_time: float
    batches_searched: int = 0

    @property
    def holds(self) -> bool:
        return self.status == HOLDS


def _heaviest_first(k: int) -> Iterator[int]:
    """The nonzero k-bit vectors by decreasing weight, then decreasing value, none held."""
    powers = [1 << b for b in range(k - 1, -1, -1)]
    for weight in range(k, 0, -1):
        for bits in combinations(powers, weight):
            yield sum(bits)


def _is_invariant(matrix: GeneratorMatrix) -> bool:
    """Every nonzero vector is a column equally often, at least once; zero columns ignored."""
    q = (1 << matrix.k) - 1
    nonzero = sorted(c for c in matrix.cols if c)
    copies = len(nonzero) // q
    return copies > 0 and nonzero == [v for v in range(1, q + 1) for _ in range(copies)]


def _representatives(q: int, t: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(rank, multiset) of every representative over 1..q = 2^k - 1, in lex order.

    With c(v) the copies of v in a sorted multiset, a representative passes:
    - the span rule: it starts with 1, and each entry is at most 2^d, where
      d is the bit length of the entry before it;
    - R1: c(v) <= c(1) for every v;
    - R2: (c(b2), c(b1 ^ b2)) <= (c(2), c(3)) in lex order, for every b1
      with c(b1) = c(1) and every b2 outside {0, b1}.  With b1 = 1 this
      caps c(v) at c(2) for every v >= 3.
    See the module docstring for why every orbit's lex-least member passes.

    A depth-first search appends one run of equal entries at a time, each
    value above the last and each run longest first, which is lex order.
    The span rule bounds each run's value, and the caps c(1) and c(2)
    bound its length, so a run over its cap cuts off its whole subtree.
    R2 with b1 = 1 pairs each odd v > 3 with v - 1, which is placed before
    v, so it caps v's run too; all of R2 is checked on each complete
    multiset.  Entry i ranges over the values from p, the entry before it
    (or 1), up to q; a run of value v starting at entry i passes the
    C(q - p + m, m) - C(q - v + m, m) multisets that agree with it before
    entry i and are smaller there, where m = t - i.
    """
    batch = [0] * t
    count = [0] * max(q + 1, 4)  # count[2] and count[3] are read at q = 1 too
    runs: list[int] = []  # the value of each run, in order

    def r2_holds() -> bool:
        c1, c2, c3 = count[1], count[2], count[3]
        for b1 in runs:
            if count[b1] == c1:
                for b2 in runs:
                    c = count[b2]
                    if b2 != b1 and (c > c2 or c == c2 and count[b1 ^ b2] > c3):
                        return False
        return True

    def extend(i: int, prev: int, rank: int, cap: int) -> Iterator[tuple[int, tuple[int, ...]]]:
        m = t - i
        below = rank + comb(q - (prev or 1) + m, m)
        for v in range(prev + 1, min(q, 1 << prev.bit_length()) + 1):
            at = below - comb(q - v + m, m)
            top = min(m, cap)
            if v > 3 and v & 1:
                # (c(v), c(v - 1)) and (c(v - 1), c(v)) are at most (c(2), c(3))
                p = count[v - 1]
                if p == count[2]:
                    top = min(top, count[3])
                if p > count[3]:
                    top = min(top, count[2] - 1)
            runs.append(v)
            for c in range(top, 0, -1):
                batch[i:i + c] = [v] * c
                count[v] = c
                if c < m:
                    # the runs of 1 and 2, always the first two, set the caps c(1) and c(2)
                    yield from extend(i + c, v, at, c if v <= 2 else cap)
                elif r2_holds():
                    yield at, tuple(batch)
            count[v] = 0
            runs.pop()

    return extend(0, 0, 0, t)


def _multisets(q: int, t: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(rank, multiset) of every multiset of t queries over 1..q, in lex order.

    The same stream as enumerate(combinations_with_replacement(range(1,
    q + 1), t)), built from the pools range(1, p + 1) for p = 1, 2, 4, ..
    below q and then q.  The first p multisets are (1, .., 1, v) for v <= p,
    so they hold no query above p and come first in pool p's stream too:
    stage p yields the ranks p/2 .. p - 1 of its own stream (rank 0 at
    p = 1), and stage q the rest.  So reading the first N pairs builds no
    pool of more than 2N queries, and every pair still comes from C code.
    """
    stops = [1 << j for j in range(q.bit_length()) if 1 << j < q]
    return chain.from_iterable(
        islice(enumerate(combinations_with_replacement(range(1, p + 1), t)), start, stop)
        for p, start, stop in zip(stops + [q], [0] + stops, stops + [None]))


def _worker_count(jobs: int) -> int:
    """Processes to run: never more than requested or than usable CPUs.

    1 where the platform cannot fork.
    """
    if not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(jobs, cpus))


def _serves(catalog: RecoveryCatalog, batch: Sequence[int], deadline: Optional[float]) -> bool:
    """Whether the batch admits disjoint recovery sets of size <= r.

    First fit decides most batches: the queries, last first, each take their
    first set disjoint from the columns already taken, among the sizes built
    so far.  Each query's sets are sorted by size then mask, so a first fit
    that reaches the end picks exactly the sets it would pick with every
    size up to r built, and is a valid disjoint assignment.  On a miss
    grow() builds the next size and first fit runs again; once grow()
    builds nothing, find_disjoint_assignment's complete search decides on
    this catalog.  Raises TimeoutError once the deadline has passed: the
    clock is read once before the batch, before and while each size is
    built, and every 256 search nodes.
    """
    sets = catalog.sets
    if deadline is not None and time.monotonic() > deadline:
        raise TimeoutError("deadline passed before the batch was decided")
    while True:
        used = 0
        for w in reversed(batch):
            for mask in sets.get(w, ()):
                if not mask & used:
                    used |= mask
                    break
            else:
                break
        else:
            return True
        if not catalog.grow(deadline):
            return find_disjoint_assignment(catalog, batch, deadline=deadline) is not None


# (stop, searched, failure) of one scan
ScanResult = tuple[int, int, Optional[tuple[int, ...]]]


def _scan(catalog: RecoveryCatalog, pairs: Iterable[tuple[int, tuple[int, ...]]], limit: int,
          deadline: Optional[float]) -> ScanResult:
    """Decide the (rank, batch) pairs, in increasing rank order, ranked below limit.

    Returns (stop, searched, failure): stop is the first rank left
    unsettled, that is the failing rank + 1, the rank the deadline cut off,
    or limit; searched counts the batches decided.  So the scan was cut off
    exactly when it found no failure and stop < limit.
    """
    searched = 0
    for rank, batch in pairs:
        if rank >= limit:
            break
        try:
            served = _serves(catalog, batch, deadline)
        except TimeoutError:
            return rank, searched, None
        searched += 1
        if not served:
            return rank + 1, searched, batch
    return limit, searched, None


def _scan_forked(scan: Callable[[int], ScanResult], workers: int) -> list[ScanResult]:
    """scan(i) for each worker i: scan(0) in this process, each other scan(i) in forked child i.

    One worker forks nothing.  Every child is forked before scan(0) runs,
    so a child inherits what this process held before the call (the
    catalog built so far) and nothing scan(0) builds; each builds what its
    own scan needs.  Nothing is pickled: each child sends its result back
    through a pipe with marshal and leaves with os._exit.  A child that
    cannot be forked, fails or dies makes this raise RuntimeError; whenever
    this raises, every child still running is killed and reaped first.
    Results come back in worker order.  verify forks only the unreduced
    sweep.
    """
    pipes: list[int] = []  # read end of child i's pipe at index i - 1
    running: list[int] = []  # pids not yet reaped, in child order
    try:
        for i in range(1, workers):
            try:
                read_end, write_end = os.pipe()
                pipes.append(read_end)
                try:
                    pid = os.fork()
                    if pid == 0:
                        _child_scan(scan, i, write_end)
                finally:
                    os.close(write_end)
            except OSError as exc:
                # out of processes or descriptors: no verdict, as for a worker that failed
                raise RuntimeError(f"verify worker {i} could not start: {exc}") from exc
            running.append(pid)
        results = [scan(0)]
        for i, read_end in enumerate(pipes, 1):
            with open(read_end, "rb", closefd=False) as pipe:
                payload = pipe.read()
            _, status = os.waitpid(running[0], 0)
            running.pop(0)
            if status:
                raise RuntimeError(f"verify worker {i} ended with wait status {status}")
            ok, value = marshal.loads(payload)
            if not ok:
                raise RuntimeError(f"verify worker {i} failed: {value}")
            results.append(value)
        return results
    finally:
        for read_end in pipes:
            os.close(read_end)
        if running:
            from signal import SIGKILL

            for pid in running:
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)


def _child_scan(scan: Callable[[int], ScanResult], i: int, write_end: int) -> NoReturn:
    """Body of forked worker i: send (True, scan(i)) or (False, a one-line error), then exit."""
    status = 1
    try:
        try:
            payload = marshal.dumps((True, scan(i)))
        except Exception as exc:
            payload = marshal.dumps((False, f"{type(exc).__name__}: {exc}"))
        with open(write_end, "wb", closefd=False) as pipe:
            pipe.write(payload)
        status = 0
    finally:
        # never return into the parent's stack, whatever was raised
        os._exit(status)


def verify(matrix: GeneratorMatrix, t: int, r: int, *,
           deterministic: bool = False,
           jobs: int = 1,
           budget_seconds: Optional[float] = None,
           budget_batches: Optional[int] = None) -> Verdict:
    """Decide whether every batch of t queries admits disjoint recovery sets of size <= r.

    Sweeps all multisets of nonzero queries in lex order.  By default a
    quick screen tries uniform batches first, heaviest query first, each
    query generated as it is reached, so the budgets bound the screen at
    any k; with deterministic=True the screen is skipped and a failing
    sweep reports the lexicographically least counterexample.  Exhausting
    either budget yields an undecided verdict instead of silent truncation.
    A budget must be a nonnegative number, budget_batches an int (zero
    decides nothing, so the verdict is undecided), and t, r and jobs
    positive ints; anything else raises ValueError.

    When every nonzero vector is a column equally often (zero columns
    ignored), GL(k,2) permutes the columns and the sweep searches only the
    representatives of _representatives: 398 of the 319,770 multisets for
    k = 4, t = 8.  They include each orbit's lex-least member (see the
    module docstring), so the first failing representative is the
    lex-least counterexample, and both modes take this path with the same
    verdicts, counterexamples and counts as the full sweep; only
    batches_searched differs.  This sweep runs in this process at every
    jobs: each forked worker would walk the whole stream, not its share.

    Every batch, screened or swept, is decided by _serves: greedy first fit
    over the recovery sets built so far, then over the next size, and the
    complete search only once every size up to r is built.  The sizes are
    built one at a time, only when a batch needs them, so a sweep whose
    batches are all served by small sets never builds the large ones; the
    verdicts, counterexamples and counts are those of a sweep that builds
    every size first.  budget_seconds is checked before each batch, before
    and while each size is built (see _level) and every 256 nodes of the
    complete search; a batch it cuts off stays unsettled, and a size it
    cuts off is not kept.

    budget_batches bounds the screened batches plus the lex prefix of the
    multisets the sweep may reach, the same prefix at every jobs.  The
    unreduced sweep runs in W processes: jobs, but never more than the
    CPUs this process may use (its affinity mask where the platform has
    one, else os.cpu_count()) nor than the batches in that prefix.  Worker
    i is one call, _scan over positions i, i + W, .. of the lex stream of
    (rank, multiset) pairs; this process is worker 0 and forked child i is
    worker i, which inherits the sizes built before the fork.  Each process
    builds and walks its own stream after the fork, so nothing is listed
    up front, the work is dealt out evenly, and this process holds one
    stream at every jobs.  The stream is _multisets, whose query pools
    grow only as far as its ranks reach, so under either budget no
    process holds a pool of more than about twice the ranks it reached.
    Platforms without os.fork run one process.  Do not call it with
    jobs > 1 from a process that runs threads.  Each process stops at its
    first failure or cut-off and reports the first rank it left unsettled;
    the settled prefix ends at the least of these, a failure first at a
    tie.  A failure there is the lex-least one in the prefix.  A cut-off
    there makes the verdict undecided with deterministic=True, as at
    jobs=1; otherwise the failure of least rank found past it, if any, is
    the counterexample.
    """
    check_int("t", t, 1)
    check_int("jobs", jobs, 1)
    if budget_seconds is not None:
        if not isinstance(budget_seconds, (int, float)):
            raise ValueError(f"budget_seconds must be an int or a float, got {budget_seconds!r}")
        if isnan(budget_seconds):
            raise ValueError("budget_seconds must not be NaN")
        if budget_seconds < 0:
            raise ValueError("budget_seconds must be nonnegative")
    if budget_batches is not None:
        check_int("budget_batches", budget_batches, 0)
    start_time = time.monotonic()
    deadline = start_time + budget_seconds if budget_seconds is not None else None
    catalog = RecoveryCatalog(matrix, r)
    q = (1 << matrix.k) - 1
    checked = searched = 0

    def verdict(status: str, counterexample: Optional[tuple[int, ...]] = None) -> Verdict:
        return Verdict(status, counterexample, checked, time.monotonic() - start_time, searched)

    def within_budget(size: int) -> int:
        return size if budget_batches is None else max(0, min(size, budget_batches - checked))

    if not deterministic:
        uniform = enumerate((w,) * t for w in _heaviest_first(matrix.k))
        checked, searched, failure = _scan(catalog, uniform, within_budget(q), deadline)
        if failure is not None:
            return verdict(FAILS, failure)
        if checked < q:
            return verdict(UNDECIDED)

    total = comb(q + t - 1, t)
    limit = within_budget(total)
    if _is_invariant(matrix):
        results = [_scan(catalog, _representatives(q, t), limit, deadline)]
    else:
        workers = max(1, min(_worker_count(jobs), limit))
        results = _scan_forked(lambda i: _scan(
            catalog, islice(_multisets(q, t), i, None, workers), limit, deadline), workers)
    searched += sum(result[1] for result in results)
    # the settled prefix ends at the least stop; at a tie a failure comes first,
    # since every rank below its stop, its own included, was then decided
    results.sort(key=lambda result: (result[0], result[2] is None))
    stop, _, failure = results[0]
    checked += stop
    if failure is None and stop < limit and not deterministic:
        # the prefix ends at a cut-off; any counterexample found past it is
        # still a counterexample
        failure = next((result[2] for result in results if result[2] is not None), None)
    if failure is not None:
        return verdict(FAILS, failure)
    return verdict(UNDECIDED if stop < total else HOLDS)
