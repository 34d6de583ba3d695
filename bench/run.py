"""End-to-end benchmark of the deltamsr CLI, with a separate traced run.

Run from the root of a checkout:

    python3 bench/run.py --workload certify-verify --seed 1 --seconds 40 --trace 0

Every program process is a fresh interpreter running the ``deltamsr``
module from this checkout's ``src``, as ``python3 -m deltamsr`` does; one
client drives one program process at a time (closed loop).  A run repeats
whole rounds of its workload for about ``--seconds`` (at least one round,
and no round that should end later) and checks every output with
``checks``, which imports nothing from the program.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and the end-to-end metrics (``--trace 0``) or the per-layer metrics of the
traced in-process run (``--trace 1``).  Results and spans are also written
under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import corpus

OUT_DIR = Path(".bench_out")
SETUP_LAUNCHES = 12
# A fixed pure-Python loop, timed between operations, samples the host's
# speed.  On a shared virtual machine that speed can drift by a quarter
# within minutes, so timings are reported at the speed at which the loop
# takes NOMINAL_REFERENCE_S.
REFERENCE_ITERATIONS = 1_000_000
NOMINAL_REFERENCE_S = 0.075
PROCESS_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark cannot run here, or the program broke a workload."""


# What `python3 -m deltamsr` does, plus one exit hook that writes the process's
# VmHWM to a pipe.  VmHWM starts afresh at exec; ru_maxrss does not, since a
# child inherits the high-water mark of the process that spawned it, so
# RUSAGE_CHILDREN would report this benchmark's own peak.
LAUNCH = """\
import atexit, os, runpy
def report_peak(fd=int(os.environ.pop("BENCH_PEAK_FD"))):
    with open("/proc/self/status") as status:
        os.write(fd, next(line for line in status if line.startswith("VmHWM:")).encode())
atexit.register(report_peak)
runpy.run_module("deltamsr", run_name="__main__", alter_sys=True)
"""


class Program:
    """Runs `deltamsr` in a fresh interpreter on the checkout's sources."""

    def __init__(self, root: Path):
        src = (root / "src").resolve()
        if not (src / "deltamsr" / "__init__.py").is_file():
            raise BenchError(f"no deltamsr sources under {src}")
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.peak_kb = 0  # largest VmHWM of any process run so far

    def run(self, args, stdin: bytes = b"") -> tuple[subprocess.CompletedProcess, float]:
        read_fd, write_fd = os.pipe()
        with os.fdopen(read_fd, "rb") as pipe:
            try:
                start = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, "-c", LAUNCH, *args],
                    input=stdin,
                    capture_output=True,
                    env=dict(self.env, BENCH_PEAK_FD=str(write_fd)),
                    pass_fds=(write_fd,),
                    timeout=PROCESS_TIMEOUT_S,
                )
                elapsed = time.perf_counter() - start
            finally:
                os.close(write_fd)
            peak = pipe.read().split()
        if peak:
            self.peak_kb = max(self.peak_kb, int(peak[1]))
        return proc, elapsed


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    passed: int = 0
    program_s: float = 0.0  # wall time inside program processes
    latencies: list[float] = field(default_factory=list)
    round_bytes: list[int] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


# --- certify-verify -------------------------------------------------------------


class CertifyVerify:
    """`certify --emit-gram --seed 0` then `verify` on the bundle, per family graph."""

    def __init__(self, prog: Program, seed: int):
        self.prog, self.seed = prog, corpus.CERTIFY_SEED
        self.members = corpus.certify_verify_corpus(seed)
        self.bundles: dict[str, bytes] = {}  # the last round's certify output

    def check_generators(self) -> list[str]:
        """`deltamsr gen` must print the benchmark's own graph6 for each family."""
        problems = []
        for m in self.members:
            proc, _ = self.prog.run(["gen", *m.gen_args])
            if proc.stdout.decode().strip() != corpus.to_graph6(m.family):
                problems.append(f"{m.name}: `deltamsr gen {' '.join(m.gen_args)}` differs")
        if not corpus.robertson_is_cage(corpus.robertson()):
            problems.append("the Robertson labelling is not a (4,5)-cage")
        return problems

    def round(self, tally: Tally, k: int, between=lambda: None) -> None:
        emitted = 0
        for m in self.members:
            g6 = corpus.to_graph6(m.delta_graph)
            cert, t1 = self.prog.run(["certify", "--emit-gram", "--seed", str(self.seed), g6])
            ver, t2 = self.prog.run(["verify"], cert.stdout)
            tally.latencies.append(t1 + t2)
            tally.program_s += t1 + t2
            emitted += len(cert.stdout)
            self.bundles[g6] = cert.stdout
            self.tally_outcome(tally, m, cert, ver)
            between()
        tally.round_bytes.append(emitted)

    def tally_outcome(self, tally: Tally, m, cert, ver) -> None:
        outcome = self.judge(m, cert, ver)
        tally.attempted += 1
        if outcome == "passed":
            tally.passed += 1
        elif outcome == "failed":
            tally.failed += 1
        else:
            tally.problems.append(f"{m.name}: {outcome}")

    def judge(self, m, cert, ver) -> str:
        """passed, failed (the known digit-limit fault), or what is wrong."""
        if cert.returncode != 0:
            return f"certify exited {cert.returncode}: {cert.stderr.decode()[:200]}"
        bundle = json.loads(cert.stdout)
        problems = checks.bundle_problems(m.delta_graph, bundle)
        if problems:
            return "; ".join(problems[:3])
        if ver.returncode == 0:
            report = json.loads(ver.stdout)
            if report["bound"] != bundle["bound"] or not all(report["checks"].values()):
                return f"verify accepted with a wrong report: {report}"
            return "passed"
        if (
            ver.returncode == 2
            and checks.DIGIT_LIMIT_ERROR in ver.stderr.decode()
            and checks.coordinate_digits(bundle) > checks.DEFAULT_INT_DIGITS
        ):
            return "failed"
        return f"verify exited {ver.returncode}: {ver.stderr.decode()[:200]}"

    def traced_round(self, tr, tally: Tally, k: int) -> None:
        import tracing

        for m in self.members:
            g6 = corpus.to_graph6(m.delta_graph)
            text, error = tracing.certify_verify(tr, g6, self.seed)
            tally.attempted += 1
            if text != self.bundles[g6]:
                tally.problems.append(f"{m.name}: traced bundle differs from certify's")
            elif error is None:
                tally.passed += 1
            elif checks.DIGIT_LIMIT_ERROR in error:
                tally.failed += 1
            else:
                tally.problems.append(f"{m.name}: traced verify: {error}")


# --- batch workloads --------------------------------------------------------------


class Batch:
    """One `deltamsr batch` process per round over a file of graph6 lines."""

    def __init__(self, prog: Program, graphs: list[list[int]], seeds):
        self.prog = prog
        self.graphs = {corpus.to_graph6(adj): adj for adj in graphs}
        self.lines = list(self.graphs)
        self.stdin = ("\n".join(self.lines) + "\n").encode()
        self.seeds = seeds  # construction seed of round k
        self.delta = {g6: checks.is_delta(adj) for g6, adj in self.graphs.items()}
        self.reports: list[str] = []  # the last round's output lines

    def check_generators(self) -> list[str]:
        return []

    def round(self, tally: Tally, k: int, between=lambda: None) -> None:
        proc, elapsed = self.prog.run(["batch", "--seed", str(self.seeds(k))], self.stdin)
        between()
        tally.latencies.append(elapsed)
        tally.program_s += elapsed
        tally.round_bytes.append(len(proc.stdout))
        if proc.returncode != 0:
            tally.attempted += len(self.lines)
            tally.problems.append(f"batch exited {proc.returncode}: {proc.stderr.decode()[:200]}")
            return
        self.reports = proc.stdout.decode().splitlines()
        self.tally_lines(tally, self.reports)

    def tally_lines(self, tally: Tally, out_lines: list[str]) -> None:
        tally.attempted += len(self.lines)
        if len(out_lines) != len(self.lines):
            tally.problems.append(f"batch printed {len(out_lines)} lines for {len(self.lines)} graphs")
            return
        for g6, line in zip(self.lines, out_lines):
            problems = checks.batch_line_problems(self.graphs[g6], g6, json.loads(line), self.delta[g6])
            if problems:
                tally.problems.append(f"{g6}: {'; '.join(problems)}")
            else:
                tally.passed += 1

    def traced_round(self, tr, tally: Tally, k: int) -> None:
        import tracing

        lines = [tracing.batch_line(tr, g6, self.seeds(k)) for g6 in self.lines]
        if lines != self.reports:
            tally.attempted += len(self.lines)
            tally.problems.append("traced verdicts differ from batch's")
            return
        self.tally_lines(tally, lines)


def make_workload(name: str, prog: Program, seed: int):
    if name == "certify-verify":
        return CertifyVerify(prog, seed)
    if name == "batch-random":
        return Batch(prog, corpus.random_corpus(seed), lambda k: seed)
    # atlas-batch: a different construction seed every round
    return Batch(prog, corpus.atlas_corpus(), lambda k: seed * 1000 + k)


WORKLOADS = ("certify-verify", "batch-random", "atlas-batch")


# --- metrics ----------------------------------------------------------------------


def reference_seconds() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


class Probes:
    """Samples taken between operations, so they meet the workload's host conditions.

    After every operation the reference loop runs once.  Fresh processes
    handling an empty batch input are launched SETUP_LAUNCHES times, spread
    evenly over the run.
    """

    def __init__(self, prog: Program, seconds: float):
        self.prog = prog
        self.every = seconds / SETUP_LAUNCHES
        self.launch()  # the first launch writes bytecode caches
        self.setup: list[float] = []
        self.reference: list[float] = []
        self.start = time.perf_counter()

    def launch(self) -> float:
        proc, elapsed = self.prog.run(["batch"], b"")
        if proc.returncode != 0 or proc.stdout:
            raise BenchError(f"empty batch exited {proc.returncode}: {proc.stderr.decode()[:200]}")
        return elapsed

    def between(self) -> None:
        self.reference.append(reference_seconds())
        due = time.perf_counter() - self.start >= self.every * len(self.setup)
        if due and len(self.setup) < SETUP_LAUNCHES:
            self.setup.append(self.launch())

    def finish(self) -> tuple[float, float]:
        """Median setup time and host slowness (1 at the nominal speed)."""
        while len(self.setup) < SETUP_LAUNCHES:
            self.setup.append(self.launch())
        slowness = statistics.median(self.reference) / NOMINAL_REFERENCE_S
        return statistics.median(self.setup), slowness


def repeat_rounds(run_round, seconds: float) -> int:
    """Run whole rounds while the next one should end within ``seconds``; at least one."""
    start = time.perf_counter()
    k, last = 0, 0.0
    while k == 0 or time.perf_counter() - start + last <= seconds:
        begun = time.perf_counter()
        run_round(k)
        last = time.perf_counter() - begun
        k += 1
    return k


def end_to_end_metrics(wl, tally: Tally, prog: Program, seconds: float) -> tuple[dict, dict]:
    """The metrics, and the measured wall times before scaling to the nominal speed."""
    probes = Probes(prog, seconds)
    repeat_rounds(lambda k: wl.round(tally, k, probes.between), seconds)
    setup_s, slowness = probes.finish()
    wall = {
        "setup_s": setup_s,
        "graphs_per_s": tally.passed / tally.program_s,
        "latency_p50_s": statistics.median(tally.latencies),
        "host_slowness": slowness,
    }
    metrics = {
        "setup_s": {"value": setup_s / slowness, "unit": "s"},
        "graphs_per_s": {"value": wall["graphs_per_s"] * slowness, "unit": "1/s"},
        "latency_p50_s": {"value": wall["latency_p50_s"] / slowness, "unit": "s"},
        "peak_rss_mb": {"value": prog.peak_kb / 1024, "unit": "MB"},
        "bundle_bytes": {"value": statistics.median_low(tally.round_bytes), "unit": "bytes"},
    }
    return metrics, wall


def per_layer_metrics(wl, tally: Tally, seconds: float, name: str, seed: int) -> tuple[dict, dict]:
    import tracing

    wl.round(tally, 0)  # the untimed run the traced outputs must equal
    tr = tracing.Tracer()
    origin = time.perf_counter()
    k = repeat_rounds(lambda k: wl.traced_round(tr, tally, k), seconds)
    tr.write(OUT_DIR / f"trace-{name}-seed{seed}.json", origin)
    metrics = {
        f"{layer}_s": {"value": total / k, "unit": "s"} for layer, total in tr.self_times().items()
    }
    metrics["orthorep.coord_bits_max"] = {"value": tr.coord_bits_max, "unit": "bits"}
    metrics["orthorep.coord_bits_total"] = {"value": tr.coord_bits_total / k, "unit": "bits"}
    metrics["orthorep.sampler_draws"] = {"value": tr.sampler_draws / k, "unit": "count"}
    metrics["orthorep.widenings"] = {"value": tr.widenings / k, "unit": "count"}
    return metrics, {}


def main() -> int:
    parser = argparse.ArgumentParser(description="deltamsr end-to-end benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    try:
        prog = Program(root)
        sys.path.insert(0, str(root / "src"))
        OUT_DIR.mkdir(exist_ok=True)
        wl = make_workload(args.workload, prog, args.seed)
        tally = Tally(problems=wl.check_generators())
        if args.trace:
            metrics, wall = per_layer_metrics(wl, tally, args.seconds, args.workload, args.seed)
        else:
            metrics, wall = end_to_end_metrics(wl, tally, prog, args.seconds)
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    for problem in tally.problems:
        print(f"INCORRECT {problem}", file=sys.stderr)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(dict(result, wall=wall), indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
