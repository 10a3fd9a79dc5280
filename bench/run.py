"""Layered benchmark for bnskit.

    python3 bench/run.py --workload membership --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1            # all four workloads, one after another
    python3 bench/run.py --self-test         # show that every check rejects bad output

Run from a checkout of the repository; the package is imported from its
``src`` directory.  One thread and one closed-loop client: each operation
starts when the previous one has returned, and spawned ``bnskit`` processes
run one at a time.  A run builds the seeded inputs, runs one untimed round
whose outputs are checked against the independent computations in
``oracles.py``, then repeats whole rounds for ``--seconds`` seconds,
requiring every later output to equal the checked one.  With ``--trace 1``
untraced and traced rounds alternate, and the per-layer metrics come from
the traced ones.

Times are CPU time: the benchmark is single-threaded and CPU-bound, and on a
shared machine wall time also counts the time the process waited for a
processor.  ``--seconds`` is wall time.  The processor's own speed changes
too, so every run times a fixed calibration loop between rounds and scales
its end-to-end times and rates to the speed at which that loop takes
``REFERENCE_CALIBRATION_MS``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("membership", "obstruction", "graph-structure", "normal-form")
SETUP_SAMPLES = 9
PROCESS_SAMPLES = 15
MIN_OPS = 100  # so that op_p90_ms has at least ten samples above it
CALIBRATION_EVERY_S = 0.25
REFERENCE_CALIBRATION_MS = 4.0  # the calibration loop's time at reference speed
CHILD_TIMEOUT_S = 60

IMPORT_PROBE = "import time; t = time.process_time(); import bnskit; print(time.process_time() - t)"


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def cpu_of_children() -> float:
    """User plus system CPU seconds of every child process waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def spawn(argv) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )


class Spawns:
    """Fresh-interpreter samples, spread evenly over the measured time.

    Import-time probes (for setup_s) and whole `bnskit --porcelain` processes
    (for cli_process_ms) alternate between rounds, so a burst of load on the
    machine touches a few samples instead of all of them.
    """

    def __init__(self, seconds: float, argv, expected):
        self.seconds = seconds
        self.argv = argv
        self.expected = expected
        self.plan = ["process", "setup"] * SETUP_SAMPLES + ["process"] * (PROCESS_SAMPLES - SETUP_SAMPLES)
        self.setup_s: list[float] = []
        self.process_ms: list[float] = []
        self.problem = None
        spawn(["-c", IMPORT_PROBE])  # writes the bytecode cache in a fresh checkout

    def between_rounds(self, spent_ns: int) -> None:
        taken = len(self.setup_s) + len(self.process_ms)
        while taken < len(self.plan) and spent_ns >= taken * self.seconds * 1e9 / len(self.plan):
            self._sample(self.plan[taken])
            taken += 1

    def finish(self) -> None:
        for kind in self.plan[len(self.setup_s) + len(self.process_ms):]:
            self._sample(kind)

    def _sample(self, kind: str) -> None:
        if kind == "setup":
            done = spawn(["-c", IMPORT_PROBE])
            if done.returncode != 0:
                raise RuntimeError(f"importing bnskit failed: {done.stderr.strip()}")
            self.setup_s.append(float(done.stdout.strip()))
            return
        before = cpu_of_children()
        done = spawn(["-m", "bnskit.cli", "--porcelain", *self.argv])
        self.process_ms.append((cpu_of_children() - before) * 1e3)
        got = (done.returncode, tuple(done.stdout.splitlines()))
        if got != (self.expected.exit_code, self.expected.porcelain):
            self.problem = f"process output differs from the in-process run: {got[0]} {got[1][:3]}"


def calibration_ns() -> int:
    """CPU time of a fixed pure-Python loop: the run's measure of processor speed."""
    start = time.process_time_ns()
    acc, seen = Fraction(0), {}
    for i in range(1000):
        acc += Fraction(i % 7, 1 + i % 5)
        seen[i % 97] = seen.get(i % 97, 0) + len(str(i))
    return time.process_time_ns() - start


def upper_quartile(xs):
    return statistics.quantiles(xs, n=4, method="inclusive")[2] if len(xs) > 1 else xs[0]


class Run:
    """Measured rounds of one workload: every latency, kept per operation."""

    def __init__(self, ops, reference):
        self.ops = ops
        self.reference = reference
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.samples = [[] for _ in ops]
        self.problems = []
        self.calibration = []

    def go(self, seconds: float, between_rounds=None) -> None:
        """Whole rounds until `seconds` of wall time and MIN_OPS operations."""
        spent = 0
        while spent < seconds * 1e9 or self.attempted < MIN_OPS:
            start_round = time.perf_counter_ns()
            self.round()
            spent += time.perf_counter_ns() - start_round
            while len(self.calibration) < max(5, spent / 1e9 / CALIBRATION_EVERY_S):
                self.calibration.append(calibration_ns())
            if between_rounds:
                between_rounds(spent)

    def slowdown(self) -> float:
        """How much slower than reference speed the processor ran: the upper
        quartile of the calibration loop over the run, against its reference
        time.  Like the operation times, it follows the slow state."""
        return upper_quartile(self.calibration) / (REFERENCE_CALIBRATION_MS * 1e6)

    def round(self) -> None:
        clock = time.process_time_ns
        for op, ref, samples in zip(self.ops, self.reference, self.samples):
            self.attempted += 1
            start = clock()
            try:
                out = op.call()
            except Exception:  # any escaping error is a failed operation
                self.failed += 1
                continue
            samples.append(clock() - start)
            if out != ref and len(self.problems) < 5:
                self.problems.append(f"{op.kind}: output changed between rounds")
        self.rounds += 1

    def all_latencies(self):
        return [x for xs in self.samples for x in xs]

    def rate(self, klass=...) -> float:
        """Operations per CPU second of a round in which every operation takes
        its upper-quartile time over the run, for all operations or one class.

        The processor here flips between a fast and a slow state every few
        seconds, and a run spends anything from a third to two thirds of its
        time in the fast one; the median per operation then jumps between the
        two states from run to run, while the upper quartile stays with the
        slow state."""
        times = [
            upper_quartile(xs) for op, xs in zip(self.ops, self.samples)
            if xs and (klass is ... or op.klass == klass)
        ]
        return len(times) / (sum(times) / 1e9)


def verify(workload) -> tuple[list, list[str], list[str]]:
    """The untimed first round: run each operation once and check its output.

    Returns the reference outputs, the check failures and the operations
    that raised; those count as failed, not as wrong.
    """
    reference, problems, failures = [], [], []
    for op in workload.ops:
        try:
            out = op.call()
        except Exception as e:  # the failure is counted, not fatal
            reference.append(None)
            failures.append(f"{op.kind}: {type(e).__name__}: {e}")
            continue
        reference.append(out)
        problem = op.check(out)
        if problem:
            problems.append(f"{op.kind}: {problem}")
    for extra in workload.extra_checks:
        problem = extra()
        if problem:
            problems.append(problem)
    return reference, problems, failures


def metric_table(run: Run, spawns: Spawns) -> dict:
    """End-to-end metrics; times and rates are scaled to reference speed."""
    k = run.slowdown()
    percentiles = statistics.quantiles(run.all_latencies(), n=100, method="inclusive")
    return {
        "setup_s": (statistics.median(spawns.setup_s) / k, "s"),
        "ops_per_s": (run.rate() * k, "ops/s"),
        "op_p50_ms": (percentiles[49] / 1e6 / k, "ms"),
        "op_p90_ms": (percentiles[89] / 1e6 / k, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "cli_process_ms": (upper_quartile(spawns.process_ms) / k, "ms"),
        "class_a_per_s": (run.rate("a") * k, "ops/s"),
        "class_b_per_s": (run.rate("b") * k, "ops/s"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads  # imports bnskit

    directory = WORK / f"{name}-{os.getpid()}"
    directory.mkdir(parents=True, exist_ok=True)
    try:
        rng = random.Random(seed * len(WORKLOADS) + WORKLOADS.index(name))
        workload = workloads.BUILDERS[name](rng, workloads.Files(str(directory)))
        reference, problems, failures = verify(workload)
        notes = [f"failed operation: {f}" for f in sorted(set(failures))]
        if trace:
            import tracing

            # untraced and traced rounds alternate, so that both see the same
            # changes in the machine's speed
            untraced, run = Run(workload.ops, reference), Run(workload.ops, reference)
            tracer = tracing.Tracer()
            end = time.perf_counter() + seconds
            while time.perf_counter() < end or run.attempted < MIN_OPS:
                untraced.round()
                tracer.install()
                try:
                    run.round()
                finally:
                    tracer.uninstall()
            metrics = tracer.per_layer(run.rounds)
            overhead = 100 * (1 - run.rate() / untraced.rate())
            metrics[tracing.OVERHEAD[0]] = (overhead, tracing.OVERHEAD[1])
            (WORK / "traces").mkdir(exist_ok=True)
            trace_path = WORK / "traces" / f"{name}-seed{seed}.jsonl"
            tracer.write(trace_path)
            notes.append(f"ops_per_s untraced {untraced.rate():.4f}, traced {run.rate():.4f}")
            notes.append(f"{len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
            attempted = untraced.attempted + run.attempted
            failed = untraced.failed + run.failed
            problems += untraced.problems + run.problems
        else:
            process_op = workload.process
            expected = process_op.call()
            spawns = Spawns(seconds, process_op.argv, expected)
            run = Run(workload.ops, reference)
            run.go(seconds, spawns.between_rounds)
            spawns.finish()
            problems += [p for p in (process_op.check(expected), spawns.problem) if p] + run.problems
            metrics = metric_table(run, spawns)
            attempted, failed = run.attempted, run.failed
            class_a, class_b = workloads.CLASS_NAMES[name]
            notes.append(f"class_a_per_s is {class_a}, class_b_per_s is {class_b}")
            notes.append(f"{len(run.all_latencies())} latency samples, {run.rounds} rounds")
            notes.append(
                f"processor at {1 / run.slowdown():.4f} x reference speed "
                f"({len(run.calibration)} calibration samples); unscaled ops_per_s {run.rate():.4f}"
            )
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(f"== {name} seed={seed} trace={int(trace)}")
    for metric, (value, unit) in metrics.items():
        print(f"{metric:46} {value:14.4f} {unit}")
    print(f"attempted={attempted} failed={failed} ({len(workload.ops)} operations per round)")
    for note in notes:
        print(note)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def declared_metrics(trace: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check that the checks reject bad output")
    args = parser.parse_args()
    if not (SRC / "bnskit" / "__init__.py").is_file():
        print(f"bnskit sources not found under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    if args.self_test:
        import selftest

        directory = WORK / f"selftest-{os.getpid()}"
        directory.mkdir(parents=True, exist_ok=True)
        try:
            return selftest.main(str(directory))
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    for name, result in results.items():
        if sorted(result["metrics"]) != sorted(declared_metrics(bool(args.trace))):
            print(f"{name}: metrics differ from those BENCHMARK.json declares", file=sys.stderr)
            return 2
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
