"""End-to-end benchmark of the fsskit command line.

    python3 perfbench/run.py --workload gate-score --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package need not be installed,
since the benchmark puts src/ on the path itself. One run:

1. generates the workload's inputs from --seed, SETUP_REPS times, and
   reports the median of its scaled CPU times (see 2.) as setup_s;
2. repeats the workload's command sequence, as whole rounds, until
   --seconds have passed. With --trace 0 every command is a child process
   (`python3 -m fsskit.cli ...`) and the end-to-end metrics are medians
   over rounds of the children's CPU time (user + system, from wait4),
   scaled by the machine's current speed as perfbench/speed.py measures
   it before every child. With --trace 1 the same commands run inside
   this process, alternating untraced rounds with rounds under
   perfbench/tracing.py, and the per-layer metrics are medians over the
   traced rounds;
3. checks the outputs of every round for byte-identity and those of the
   last round against perfbench/checks.py (not timed);
4. prints each metric with its unit, then one JSON object as the last line:
   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

Run artifacts go to .perfbench_runs/<workload>/ under the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# fsskit computes on one thread. Keep numpy's BLAS pool from adding threads
# to this process (set before dmugen imports numpy) and to every child.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import checks  # noqa: E402
import dmugen  # noqa: E402
import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

SETUP_REPS = 5
RUN_LIMIT_S = 170  # a run must end within 180 s; a child still running then is killed

# Census sizes (fsskit synth flags) and DMU tables; see README.md for why.
GATE_CENSUS = ("--researchers", "4000", "--institutions", "40")
WIDE_CENSUS = ("--researchers", "3000", "--institutions", "80", "--sds", "16",
               "--max-papers", "6")
DEA_TABLES = 3
DEA_DMUS = 300

Command = tuple[str, list[str]]  # ("fsskit" | "dmugen", arguments)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path], list[Command]]   # (seed, inputs dir) -> commands
    commands: Callable[[Path, Path], list[Command]]  # (inputs, outputs) -> one round
    rows: Callable[[Path], int]                   # input rows one round consumes
    check: Callable[[Path, Path, int], None]      # (inputs, outputs, seed), raises CheckFailure


def _data_rows(paths) -> int:
    """Data rows (lines after the header) of the given CSV files."""
    total = 0
    for path in paths:
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh) - 1
    return total


def _census_rows(inputs: Path) -> int:
    """Researcher, publication and byline rows of one census."""
    return _data_rows(inputs / f"{name}.csv" for name in ("researchers", "publications", "bylines"))


def _synth(census: tuple[str, ...]):
    def setup(seed: int, inputs: Path) -> list[Command]:
        return [("fsskit", ["synth", "--seed", str(seed), *census, "--out", str(inputs)])]
    return setup


def _gate_commands(inputs: Path, out: Path) -> list[Command]:
    return [("fsskit", ["score", "--data", str(inputs), "--output-dir", str(out / "score"),
                        "--scope", "university"])]


def _wide_commands(inputs: Path, out: Path) -> list[Command]:
    data = ["--data", str(inputs)]
    return [
        ("fsskit", ["rank", *data, "--output-dir", str(out / "fss_u"), "--level", "university"]),
        ("fsskit", ["rank", *data, "--output-dir", str(out / "fp_u"), "--level", "university",
                    "--indicator", "fp_u"]),
        ("fsskit", ["compare", "--a", str(out / "fss_u" / "rankings.csv"),
                    "--b", str(out / "fp_u" / "rankings.csv"), "--out", str(out / "compare")]),
        ("fsskit", ["rank", *data, "--output-dir", str(out / "staff"), "--level", "staff",
                    "--standardize"]),
    ]


def _dmu_setup(seed: int, inputs: Path) -> list[Command]:
    return [("dmugen", ["--seed", str(seed), "--dmus", str(DEA_DMUS),
                        "--tables", str(DEA_TABLES), "--out", str(inputs)])]


def _dea_commands(inputs: Path, out: Path) -> list[Command]:
    return [("fsskit", ["dea", "--dmus", str(inputs / f"dmus{k}.csv"), "--model", "both",
                        "--output-dir", str(out / f"dmus{k}")])
            for k in range(1, DEA_TABLES + 1)]


WORKLOADS = {w.name: w for w in (
    # Loading is about half of a score run; credit and the researcher and
    # university indicators are the rest. The simplex does no work.
    Workload("gate-score", _synth(GATE_CENSUS), _gate_commands,
             _census_rows, checks.check_gate_score),
    # Many institutions x fields with few papers per head: unit membership
    # (Corpus.staff) and the field means dominate; the only workload that
    # runs rankings. Three of its commands load the census. Corpus-mode DEA
    # is left out: on this census its expansion factors are wrong on some
    # seeds (README.md).
    Workload("wide-rank", _synth(WIDE_CENSUS), _wide_commands,
             lambda inputs: 3 * _census_rows(inputs), checks.check_wide_rank),
    # Envelopment programs only: LP construction and the simplex are almost
    # all of the work; corpus and indicators do none.
    Workload("dea-dmus", _dmu_setup, _dea_commands,
             lambda inputs: 2 * _data_rows(sorted(inputs.glob("dmus*.csv"))),
             checks.check_dea_dmus),
)}


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------

def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"  # the same str hashing, so every round does the same work
    return env


def _argv(command: Command) -> list[str]:
    program, args = command
    if program == "fsskit":
        return [sys.executable, "-m", "fsskit.cli", *args]
    return [sys.executable, str(HERE / "dmugen.py"), *args]


@dataclass(frozen=True)
class ChildRun:
    code: int
    wall_s: float
    cpu_s: float      # user + system seconds of the child
    peak_mb: float    # peak resident set of the child


def run_child(command: Command, log: Path, deadline: float) -> ChildRun:
    """Run one command as a child process, killed if it is still running at
    ``deadline`` (time.monotonic)."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(_argv(command), stdout=out, stderr=subprocess.STDOUT,
                                env=_child_env(), cwd=ROOT)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0)


def run_inprocess(command: Command) -> int:
    """Run one command in this process, its stdout discarded."""
    from fsskit import cli

    program, args = command
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(args) if program == "fsskit" else dmugen.main(args)
        except SystemExit as exc:  # argparse rejects bad flags this way
            return exc.code if isinstance(exc.code, int) else 2


def _digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(directory)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _fresh(directory: Path) -> Path:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    return directory


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    deadline: float  # time.monotonic() by which every child must have ended
    attempted: int = 0
    failed: int = 0
    digests: set[str] = field(default_factory=set)  # one per round's output tree


def measure(workload: Workload, seed: int, seconds: float, work: Path, tally: Tally) -> dict:
    """--trace 0: setup and rounds as child processes. Times are the
    children's CPU seconds scaled to the reference speed (speed.py); raw
    CPU and wall times are printed for reference only."""
    inputs, out, logs = work / "inputs", work / "out", _fresh(work / "logs")
    samples = []  # speed.sample() before every child, setup and rounds alike

    def child(command: Command, log: Path) -> ChildRun:
        samples.append(speed.sample())
        return run_child(command, log, tally.deadline)

    setups = []
    for _ in range(SETUP_REPS):
        _fresh(inputs)
        cpu = 0.0
        for command in workload.setup(seed, inputs):
            run = child(command, logs / "setup.log")
            if run.code != 0:
                raise RuntimeError(f"setup failed with exit {run.code}; see {logs / 'setup.log'}")
            cpu += run.cpu_s
        setups.append(cpu)
    rows = workload.rows(inputs)

    walls, cpus, peaks = [], [], []
    commands = workload.commands(inputs, _fresh(out))
    start = time.perf_counter()
    while True:
        runs = [child(command, logs / f"command{i + 1}.log") for i, command in enumerate(commands)]
        tally.attempted += len(runs)
        tally.failed += sum(run.code != 0 for run in runs)
        walls.append(sum(run.wall_s for run in runs))
        cpus.append(sum(run.cpu_s for run in runs))
        peaks.append(max(run.peak_mb for run in runs))
        tally.digests.add(_digest(out))
        if time.perf_counter() - start >= seconds:
            break
    scale = speed.REFERENCE_S / statistics.fmean(samples)
    cpu_s = statistics.median(cpus) * scale
    print(f"unscaled, over {len(cpus)} rounds: median CPU {statistics.median(cpus):.6g} s, "
          f"median wall {statistics.median(walls):.6g} s; speed sample mean "
          f"{statistics.fmean(samples):.6g} s over {len(samples)}")
    return {
        "cpu_s": (cpu_s, "s"),
        "rows_per_cpu_s": (rows / cpu_s, "rows/s"),
        "peak_rss_mb": (statistics.median(peaks), "MB"),
        "setup_s": (statistics.median(setups) * scale, "s"),
    }


def measure_traced(workload: Workload, seed: int, seconds: float, work: Path,
                   tally: Tally) -> dict:
    """--trace 1: setup and rounds in this process; traced rounds alternate
    with untraced ones so the difference is the tracing overhead."""
    from tracing import Tracer

    inputs, out = work / "inputs", work / "out"
    setup_metrics = []
    for _ in range(SETUP_REPS):
        _fresh(inputs)
        tracer = Tracer()
        with tracer.installed():
            for command in workload.setup(seed, inputs):
                if run_inprocess(command) != 0:
                    raise RuntimeError("setup failed")
        setup_metrics.append(tracer.metrics())

    commands = workload.commands(inputs, _fresh(out))
    plain, traced, per_layer, cpu = [], [], [], []
    spans = []
    start = time.perf_counter()
    while True:
        for use_tracer in (False, True):
            tracer = Tracer()
            ctx = tracer.installed() if use_tracer else contextlib.nullcontext()
            round_start, cpu_start = time.perf_counter(), time.process_time()
            with ctx:
                for command in commands:
                    tally.attempted += 1
                    tally.failed += run_inprocess(command) != 0
            round_wall = time.perf_counter() - round_start
            tally.digests.add(_digest(out))
            if use_tracer:
                traced.append(round_wall)
                cpu.append(time.process_time() - cpu_start)
                per_layer.append(tracer.metrics())
                spans = tracer.span_records(round_start)
            else:
                plain.append(round_wall)
        if time.perf_counter() - start >= seconds:
            break

    plain_s, traced_s = statistics.median(plain), statistics.median(traced)
    derived = {"cli.cpu_s": statistics.median(cpu),
               "trace.overhead_s": traced_s - plain_s,
               "trace.overhead_pct": 100.0 * (traced_s - plain_s) / plain_s}
    metrics = {}
    for name, unit in per_layer_metrics():
        if name in derived:
            metrics[name] = (derived[name], unit)
        else:
            source = setup_metrics if name in SETUP_LAYER else per_layer
            metrics[name] = (statistics.median(m[name] for m in source), unit)
    (work / "trace.json").write_text(json.dumps({
        "workload": workload.name, "seed": seed,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "spans": spans,
    }) + "\n", encoding="utf-8")
    return metrics


# Metrics measured during setup rather than in rounds.
SETUP_LAYER = frozenset({"synth.generate_s", "corpus.export_s"})


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric BENCHMARK.json declares."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fsskit end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fsskit" / "cli.py").is_file():
        print(f"error: no fsskit sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for this process and every child, so that the speed samples
    # and the timed commands run on the same virtual CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workload = WORKLOADS[args.workload]
    work = _fresh(RUNS / workload.name)
    tally = Tally(deadline=time.monotonic() + RUN_LIMIT_S)
    measure_fn = measure_traced if args.trace else measure
    metrics = measure_fn(workload, args.seed, args.seconds, work, tally)

    correct = len(tally.digests) == 1
    if not correct:
        print("error: outputs differ between rounds", file=sys.stderr)
    try:
        workload.check(work / "inputs", work / "out", args.seed)
    except (checks.CheckFailure, OSError, KeyError, ValueError) as exc:
        print(f"error: output check failed: {exc}", file=sys.stderr)
        correct = False

    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
