"""funcbatch benchmark: four CLI workloads, timed end to end or split by layer.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 launches the CLI in a fresh process per run, one at a time
(closed loop), for S seconds and reports end-to-end metrics.  --trace 1
alternates a traced in-process run (bench/tracer.py) with untraced serial
and parallel runs and reports per-layer metrics.  Every run's exit code and
stdout are checked against the workload's golden answer.  The last stdout
line is the result object; the line before it records the machine, inputs
and every sample.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import mean, median
from typing import Iterator, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))
from checks import brute_force_serves, decided_batches, subsets_upto  # noqa: E402

MIN_RUNS = 3
RUN_TIMEOUT_S = 150.0
MAX_JOBS = 2


@dataclass(frozen=True)
class Workload:
    """One CLI invocation and its golden answer.

    columns is the base generator (seed 0) for verify workloads, None for
    minn; k, t, r describe the problem for the decided-work count.
    """

    name: str
    argv: tuple[str, ...]
    k: int
    t: int
    r: int
    columns: Optional[tuple[int, ...]]
    parallel: bool
    golden_exit: int
    golden_stdout: str
    counterexample: Optional[tuple[int, ...]] = None

    @property
    def decided(self) -> int:
        """Work the answer settles, counted from the problem, not from the engine."""
        if self.columns is None:
            # min_n_exact settles every length from t up to its answer
            return int(self.golden_stdout) - self.t + 1
        return decided_batches(self.k, self.t, self.counterexample)


WORKLOADS = {w.name: w for w in (
    # stretch run: search dominates, both workers busy for the whole sweep
    Workload("sweep-k4t8", ("verify", "--t", "8", "--r", "2"), 4, 8, 2,
             tuple(range(1, 16)), True, 0, "holds\n"),
    # pure lex sweep ending in an infeasibility proof; the two workers are unbalanced
    Workload("fail-det-k4t8", ("verify", "--deterministic", "--t", "8", "--r", "2"), 4, 8, 2,
             tuple(range(1, 15)) + (1,), True, 1, "fails\n2 2 2 2 2 2 2 2\n",
             counterexample=(2,) * 8),
    # catalog construction dominates; the search is bypassed
    Workload("catalog-k7r3", ("verify", "--t", "2", "--r", "3"), 7, 2, 3,
             tuple(range(1, 128)), False, 0, "holds\n"),
    # LabellingTable fill behind the exact counting bound; codecheck idle
    Workload("minn-exact-k10", ("minn", "--k", "10", "--t", "1024", "--r", "2", "--bound", "exact"),
             10, 1024, 2, None, False, 0, "1132\n"),
)}


def permuted_columns(columns: Sequence[int], seed: int) -> list[int]:
    """Seed 0 keeps the base order; any other seed shuffles it reproducibly."""
    cols = list(columns)
    if seed != 0:
        random.Random(seed).shuffle(cols)
    return cols


def matrix_text(k: int, cols: Sequence[int]) -> str:
    rows = [" ".join(str((c >> i) & 1) for c in cols) for i in range(k)]
    return f"{k} {len(cols)}\n" + "\n".join(rows) + "\n"


@dataclass
class Run:
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    exit: int
    stdout: str
    stderr: str


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def launch(cmd: Sequence[str], env: dict[str, str], workdir: Path) -> Run:
    """Run cmd to completion; CPU and peak RSS cover the process and its reaped children.

    The command runs in its own process group.  A run that hangs, or a
    benchmark that is interrupted, kills the whole group (pool workers too).
    """
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                start_new_session=True)
        watchdog = threading.Timer(RUN_TIMEOUT_S, kill_group, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mib=usage.ru_maxrss / 1024,
        exit=proc.returncode,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


def checked_count(stderr: str) -> int:
    """The engine's own batch count from its 'checked N batches' stderr line."""
    for line in stderr.splitlines():
        if line.startswith("checked "):
            return int(line.split()[1])
    raise ValueError("no 'checked N' line on stderr")


def git_rev(root: Path) -> Optional[str]:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Bench:
    def __init__(self, workload: Workload, seed: int, seconds: float, root: Path, workdir: Path) -> None:
        self.w = workload
        self.seconds = seconds
        self.root = root
        self.workdir = workdir
        self.jobs = min(MAX_JOBS, len(os.sched_getaffinity(0))) if workload.parallel else 1
        self.env = {k: v for k, v in os.environ.items() if k != "FBC_BUDGET_SECONDS"}
        self.env["PYTHONPATH"] = str(root / "src")
        self.attempted = 0
        self.failed = 0
        self.matrix_path: Optional[Path] = None
        if workload.columns is not None:
            self.cols = permuted_columns(workload.columns, seed)
            self.matrix_path = workdir / "matrix.txt"
            self.matrix_path.write_text(matrix_text(workload.k, self.cols))

    def cli_args(self, jobs: int) -> list[str]:
        args = list(self.w.argv)
        if self.matrix_path is not None:
            args[1:1] = ["--matrix", str(self.matrix_path), "--jobs", str(jobs)]
        return args

    def judge(self, exit_code: int, stdout: str) -> None:
        self.attempted += 1
        if exit_code != self.w.golden_exit or stdout != self.w.golden_stdout:
            self.failed += 1

    def cli(self, jobs: int) -> Run:
        run = launch([sys.executable, "-m", "funcbatch.cli", *self.cli_args(jobs)], self.env, self.workdir)
        self.judge(run.exit, run.stdout)
        return run

    def setup_time(self) -> float:
        """Launch-to-exit of a fresh interpreter importing funcbatch.cli."""
        run = launch([sys.executable, "-c", "import funcbatch.cli"], self.env, self.workdir)
        if run.exit != 0:
            raise RuntimeError("importing funcbatch.cli failed:\n" + run.stderr)
        return run.wall_s

    def oracle_ok(self) -> bool:
        """Independent re-check of the golden counterexample, over all subsets of size <= r."""
        if self.w.counterexample is None:
            return True
        return not brute_force_serves(self.cols, self.w.r, self.w.counterexample)

    def rounds(self, minimum: int) -> Iterator[None]:
        """Yield once per round while the next round is predicted to end within the run time."""
        start = time.perf_counter()
        done = 0
        last = 0.0
        while done < minimum or time.perf_counter() - start + last <= self.seconds:
            t0 = time.perf_counter()
            yield
            last = time.perf_counter() - t0
            done += 1

    def end_to_end(self) -> tuple[dict, dict]:
        self.setup_time()  # warm-up: byte-compiles the package once
        setup: list[float] = []
        runs: list[Run] = []
        for _ in self.rounds(MIN_RUNS):
            # set-up samples spread over the run see the same machine load as the runs
            setup.append(self.setup_time())
            runs.append(self.cli(self.jobs))
        # Times are means over the run's launches, not medians: on a shared host a
        # launch's time falls into a few modes (contention states), and the median
        # jumps between modes as their mix drifts, while the mean moves smoothly.
        wall = mean(r.wall_s for r in runs)
        metrics = {
            "wall_s": metric(wall, "s"),
            "cpu_s": metric(mean(r.cpu_s for r in runs), "s"),
            "peak_rss_mib": metric(median(r.peak_rss_mib for r in runs), "MiB"),
            "decided_per_s": metric(self.w.decided / wall, "1/s"),
            "setup_s": metric(median(setup), "s"),
        }
        samples = {
            "setup_s": setup,
            "runs": [{"wall_s": r.wall_s, "cpu_s": r.cpu_s, "peak_rss_mib": r.peak_rss_mib,
                      "exit": r.exit} for r in runs],
        }
        return metrics, samples

    def traced(self) -> dict:
        tracer = Path(__file__).resolve().parent / "tracer.py"
        run = launch([sys.executable, str(tracer), *self.cli_args(1)], self.env, self.workdir)
        try:
            report = json.loads(run.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            raise RuntimeError("traced run printed no report:\n" + run.stderr) from None
        if not Path(report["package"]).resolve().is_relative_to(self.root / "src"):
            raise RuntimeError(f"traced run imported funcbatch from {report['package']}")
        self.judge(report["exit"], report["stdout"])
        report["launch_wall_s"] = run.wall_s
        return report

    def per_layer(self) -> tuple[dict, dict]:
        fanout = self.w.parallel and self.jobs >= 2
        rounds = []
        for _ in self.rounds(1):
            trace = self.traced()
            serial = self.cli(1)
            e2e = self.cli(self.jobs) if fanout else serial
            rounds.append(layer_metrics(self.w, trace, serial, e2e, fanout))
        metrics = {name: metric(median(r[name][0] for r in rounds), rounds[0][name][1])
                   for name in rounds[0]}
        # with one CPU the parallel workloads run serially and say nothing about fan-out
        unresolved = (["codecheck.fanout.parallelism", "codecheck.fanout.speedup"]
                      if self.w.parallel and not fanout else [])
        return metrics, {"rounds": rounds, "unresolved": unresolved}


def layer_metrics(w: Workload, trace: dict, serial: Run, e2e: Run, fanout: bool) -> dict:
    """Per-layer figures of one round as name -> (value, unit); 0 where a layer is idle."""
    spans = trace["spans"]
    search = spans["codecheck.find_disjoint_assignment"]
    catalog = spans["codecheck.build_catalog"]
    rank = spans["gf2.rank"]
    table = spans["counting.LabellingTable.count"]
    necessary = spans["bounds.necessary_condition"]
    catalog_n = catalog["extra"].get("n", 0)
    subsets = subsets_upto(catalog_n, w.r) if catalog["calls"] else 0

    def per_call_us(span: dict) -> float:
        return 1e6 * span["s"] / span["calls"] if span["calls"] else 0.0

    return {
        "codecheck.find_disjoint_assignment.calls": (search["calls"], "count"),
        "codecheck.find_disjoint_assignment.s": (search["s"], "s"),
        "codecheck.find_disjoint_assignment.us_per_call": (per_call_us(search), "us"),
        "codecheck.find_disjoint_assignment.fail_s": (search["extra"].get("fail_s", 0.0), "s"),
        "codecheck.build_catalog.s": (catalog["s"], "s"),
        "codecheck.build_catalog.self_s": (catalog["self_s"], "s"),
        "codecheck.build_catalog.sets": (catalog["extra"].get("sets", 0), "count"),
        "codecheck.build_catalog.subsets": (subsets, "count"),
        "codecheck.build_catalog.yield": (catalog["extra"]["sets"] / subsets if subsets else 0.0, "ratio"),
        "gf2.rank.calls": (rank["calls"], "count"),
        "gf2.rank.s": (rank["s"], "s"),
        "gf2.rank.us_per_call": (per_call_us(rank), "us"),
        "codecheck.verify.s": (spans["codecheck.verify"]["s"], "s"),
        "codecheck.verify.self_s": (spans["codecheck.verify"]["self_s"], "s"),
        "codecheck.sweep.checked_per_decided": (
            checked_count(e2e.stderr) / w.decided if w.columns is not None else 0.0, "ratio"),
        "codecheck.fanout.parallelism": (e2e.cpu_s / e2e.wall_s, "ratio"),
        "codecheck.fanout.speedup": (serial.wall_s / e2e.wall_s if fanout else 0.0, "ratio"),
        "bounds.min_n_exact.s": (spans["bounds.min_n_exact"]["s"], "s"),
        "bounds.necessary_condition.calls": (necessary["calls"], "count"),
        "bounds.necessary_condition.self_s": (necessary["self_s"], "s"),
        "counting.LabellingTable.count.s": (table["s"], "s"),
        "counting.LabellingTable.cells": (
            table["extra"].get("max_t", 0) * (table["extra"].get("max_n", -1) + 1), "count"),
        "cli.self_s": (spans["cli.main"]["self_s"], "s"),
        "trace.overhead": (trace["launch_wall_s"] / serial.wall_s, "ratio"),
    }


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "git_rev": git_rev(root),
        "src_sha256": source_digest(root / "src"),
        "loadavg": os.getloadavg(),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so running children are killed and scratch removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd().resolve()
    if not (root / "src" / "funcbatch" / "cli.py").is_file():
        print(f"error: {root} holds no funcbatch source tree (src/funcbatch)", file=sys.stderr)
        return 2
    env_record = environment(root)
    work_root = root / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds, root, workdir)
        oracle = bench.oracle_ok()
        metrics, samples = bench.per_layer() if args.trace else bench.end_to_end()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "jobs": bench.jobs, **env_record, "oracle_ok": oracle,
        "error_rate": bench.failed / bench.attempted, **samples,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": oracle and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
