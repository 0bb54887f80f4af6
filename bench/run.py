"""Benchmark of the defeq command line.

Run from the root of a defeq checkout:

    python3 bench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0

Untraced (--trace 0), every command is a fresh ``python -m defeq.cli``
process, run one after another from this process: a closed loop with one
client.  The run reports wall_s (the summed wall time of one round of the
workload's commands, median over rounds), cmd_p50_s (median wall time of
one command), peak_rss_mb (largest peak resident set of any command, from
wait4) and setup_s (median time for a fresh process to start, import defeq
and parse its arguments, measured with --help after a warm-up that writes
the bytecode).

Times are taken at a reference CPU speed.  A command's time is its CPU
time (user plus system, from wait4: for these single-threaded, CPU-bound
commands, their wall time less any wait for the CPU), multiplied by the
speed spawn.py's metronome measured on the command's CPU while it ran, and
divided by REF_TICKS_PER_S.  On a shared virtual CPU the raw wall time of
the same command moves by 20-35 % from one minute to the next; the scaled
time moves by a few percent.  The result file keeps the raw wall times.

Traced (--trace 1), the same commands run in this process through
defeq.cli.dispatch with the wrappers of tracing.py installed, and the run
reports the per-layer metrics, per round.  Its trace.wall_s is the traced
round's CPU time at the reference speed, measured the same way as wall_s,
so the two give the tracing overhead; each command's layer times are scaled
by the same factor as its own time.

A round is the workload's whole command list.  A run makes at least one
round and starts another only while the next is expected to end within
--seconds, so every run attempts whole rounds.  Every output is checked;
the last line of stdout is one JSON object with correct, attempted, failed
and metrics.  A result file with per-command figures (and, traced, the span
table) goes to bench/_results/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import spawn
import workloads

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 11
RUN_LIMIT_S = 170.0  # a run must end within 180 s; commands past this are killed
# Metronome iterations per second of its run time that count as the reference
# speed: about the speed of the README's machine when nothing contends for it.
REF_TICKS_PER_S = 240_000.0
# Below this much metronome run time a command's own speed reading is too
# coarse, and the run's overall speed stands in for it.
MIN_TICK_NS = 5_000_000


class BenchError(Exception):
    """The program under test cannot be run at all; no result is printed."""


@dataclass
class Outcome:
    code: int
    out: str
    err: str
    seconds: float  # raw wall time
    cpu_s: float = 0.0  # user plus system time
    rss_mb: float = 0.0
    ticks: int = 0  # metronome iterations while the command ran
    tick_ns: int = 0  # metronome run time while the command ran
    scaled: float | None = None  # cpu_s at the reference speed


# ============================================================
# untraced: one process per command
# ============================================================

class ProcessRunner:
    """Runs `python -m defeq.cli ARGS` on the checkout's sources, through spawn.py."""

    def __init__(self, src: Path, work: Path, deadline: float):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p)
        # A random string-hash seed per process changes dict and set layouts,
        # which doubled the run-to-run spread of one census command; defeq's
        # output does not depend on it.
        env["PYTHONHASHSEED"] = "0"
        self.out_path = work / "stdout.txt"
        self.err_path = work / "stderr.txt"
        self.deadline = deadline
        self.launcher = subprocess.Popen([sys.executable, str(HERE / "spawn.py")],
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         text=True, env=env)

    def __call__(self, argv) -> Outcome:
        job = {"argv": [sys.executable, "-m", "defeq.cli", *argv],
               "out": str(self.out_path), "err": str(self.err_path),
               "timeout": self.deadline - time.monotonic()}
        self.launcher.stdin.write(json.dumps(job) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise BenchError("the process launcher stopped")
        done = json.loads(reply)
        return Outcome(done["code"],
                       self.out_path.read_text(errors="replace"),
                       self.err_path.read_text(errors="replace"),
                       done["seconds"], done["cpu_s"], done["rss_kb"] / 1024.0,
                       done["ticks"], done["tick_ns"])

    def __enter__(self) -> "ProcessRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=RUN_LIMIT_S)
        finally:
            if self.launcher.poll() is None:
                self.launcher.kill()
                self.launcher.wait()
            self.launcher.stdout.close()


def measure_setup(runner: ProcessRunner) -> list[Outcome]:
    """Start-ups of a command that does no work, after a warm-up."""
    warm = runner(["--help"])
    if warm.code != 0 or "usage: defeq" not in warm.out:
        tail = (warm.err.strip().splitlines() or [""])[-1]
        raise BenchError(f"defeq does not start (exit {warm.code}): {tail}")
    outcomes = []
    for _ in range(SETUP_RUNS):
        o = runner(["--help"])
        if o.code != 0:
            raise BenchError(f"defeq --help exited {o.code}")
        outcomes.append(o)
    return outcomes


def speed(outcomes: list[Outcome]) -> float:
    """Metronome iterations per second over the given commands."""
    ns = sum(o.tick_ns for o in outcomes)
    return sum(o.ticks for o in outcomes) * 1e9 / ns if ns else REF_TICKS_PER_S


# ============================================================
# traced: in process, through cli.dispatch
# ============================================================

def traced_runner(tracer, dispatch, metronome: spawn.Metronome) -> Callable:
    counter = itertools.count()

    def run(argv) -> Outcome:
        err = io.StringIO()

        def call():
            with contextlib.redirect_stderr(err):
                try:
                    return dispatch(list(argv))
                except Exception:
                    # What the interpreter would print before exiting with 1.
                    traceback.print_exc(file=err)
                    return 1, ""

        ticks, tick_ns = metronome.reading()
        start, cpu = time.perf_counter(), time.process_time()
        code, out = tracer.run_command(next(counter), call)
        seconds, cpu = time.perf_counter() - start, time.process_time() - cpu
        ticks_after, ns_after = metronome.reading()
        return Outcome(code, out, err.getvalue(), seconds, cpu,
                       ticks=ticks_after - ticks, tick_ns=ns_after - tick_ns)
    return run


# ============================================================
# rounds
# ============================================================

def run_rounds(commands, execute: Callable, seconds: float, deadline: float) -> list[list]:
    """Whole rounds of the command list; each entry is (command, outcome, problem)."""
    rounds = []
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        done = []
        for cmd in commands:
            if time.monotonic() >= deadline:
                done.append((cmd, None, "not run: the run's time limit passed"))
                continue
            o = execute(cmd.argv)
            if o.code not in cmd.codes:
                tail = (o.err.strip().splitlines() or [""])[-1]
                problem = f"exit {o.code}: {tail[:160]}"
            else:
                try:
                    problem = cmd.check(o.code, o.out, o.err)
                except (ValueError, KeyError, IndexError) as e:
                    problem = f"unreadable output: {e}"
            done.append((cmd, o, problem))
        rounds.append(done)
        now = time.monotonic()
        if now - start + (now - round_start) > seconds or now >= deadline:
            return rounds


def tally(rounds) -> tuple[bool, int, int, list[dict]]:
    """correct, attempted, failed, and one record per command run.

    A command fails on an undocumented exit code or on an output that fails
    its check; only the second makes the run incorrect.
    """
    correct, attempted, failed, records = True, 0, 0, []
    for r, done in enumerate(rounds):
        for cmd, o, problem in done:
            attempted += 1
            if problem is not None:
                failed += 1
                if o is not None and o.code in cmd.codes:
                    correct = False
            records.append({"round": r, "argv": list(cmd.argv),
                            "code": None if o is None else o.code,
                            "seconds": None if o is None else o.seconds,
                            "cpu_s": None if o is None else o.cpu_s,
                            "scaled_s": None if o is None else o.scaled,
                            "speed": None if o is None or not o.tick_ns else speed([o]),
                            "rss_mb": None if o is None else o.rss_mb,
                            "problem": problem})
    return correct, attempted, failed, records


def scale(rounds, others: list[Outcome]) -> list[list[Outcome]]:
    """Set each outcome's scaled time; returns the outcomes of each round."""
    ran = [[o for _, o, _ in done if o is not None] for done in rounds]
    overall = speed(others + [o for outcomes in ran for o in outcomes])
    for outcomes in ran:
        for o in outcomes:
            own = speed([o]) if o.tick_ns >= MIN_TICK_NS else overall
            o.scaled = o.cpu_s * own / REF_TICKS_PER_S
    return ran


def round_time(ran: list[list[Outcome]]) -> float:
    """Median over rounds of the summed scaled time of a round's commands."""
    return statistics.median(sum(o.scaled for o in outcomes) for outcomes in ran)


def untraced(commands, seconds: float, src: Path, work: Path, deadline: float):
    with ProcessRunner(src, work, deadline) as runner:
        setup = measure_setup(runner)
        rounds = run_rounds(commands, runner, seconds, deadline)
    ran = scale(rounds, setup)
    times = [o.scaled for outcomes in ran for o in outcomes]
    setup_s = statistics.median(o.cpu_s for o in setup) * speed(setup) / REF_TICKS_PER_S
    metrics = {
        "wall_s": (round_time(ran), "s"),
        "cmd_p50_s": (statistics.median(times) if times else 0.0, "s"),
        "peak_rss_mb": (max((o.rss_mb for outcomes in ran for o in outcomes), default=0.0), "MB"),
        "setup_s": (setup_s, "s"),
    }
    return rounds, metrics, {}


def traced(commands, seconds: float, src: Path, work: Path, deadline: float):
    sys.path.insert(0, str(src))
    import tracing
    from defeq import cli

    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    metronome = spawn.Metronome()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        execute = traced_runner(tracer, cli.dispatch, metronome)
        rounds = run_rounds(commands, execute, seconds, deadline)
    finally:
        tracer.uninstall()
        metronome.stop()
        os.sched_setaffinity(0, cpus)
    ran = scale(rounds, [])
    values = tracer.metrics(len(rounds), [o.scaled / o.seconds for outcomes in ran
                                          for o in outcomes])
    values["trace.wall_s"] = round_time(ran)
    metrics = {name: (values[name], unit) for name, unit in tracing.METRICS}
    argvs = [list(cmd.argv) for done in rounds for cmd, o, _ in done if o is not None]
    return rounds, metrics, {"spans": tracer.span_table(argvs)}


# ============================================================
# entry point
# ============================================================

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; whole rounds only, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    root = Path.cwd()
    src = root / "src"
    if not (src / "defeq" / "cli.py").is_file():
        print("bench: no src/defeq here; run from the root of a defeq checkout",
              file=sys.stderr)
        return 2
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        commands = workloads.build(args.workload, args.seed, work)
        run = traced if args.trace else untraced
        rounds, metrics, extra = run(commands, args.seconds, src, work,
                                     started + RUN_LIMIT_S)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    correct, attempted, failed, records = tally(rounds)
    for rec in records:
        if rec["problem"] is not None:
            print(f"FAILED {' '.join(rec['argv'])}: {rec['problem']}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    results = HERE / "_results"
    results.mkdir(exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": sys.version.split()[0],
              "rounds": len(rounds), **result, "commands": records, **extra}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
