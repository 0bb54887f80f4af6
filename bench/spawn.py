"""Process launcher for the untraced benchmark, with a CPU-speed metronome.

Linux charges a child the peak resident set of the memory image it replaced
at exec, so a child started by the benchmark process itself would report
at least the benchmark's own peak.  This launcher stays small and starts
every command instead, so wait4 reports each command's own peak.

The speed of a shared virtual CPU drifts by tens of percent within a
minute, as other guests load the same cores.  So the launcher pins itself
and the commands it starts to one CPU, and forks a metronome onto that CPU
at the lowest priority: a fixed loop that counts its iterations in shared
memory.  It takes about 1.5 % of the CPU, and its iterations per second of
its own run time (from /proc/PID/schedstat) are the speed of that CPU while
a command ran there.

Reads one JSON job per line on stdin: {"argv": [...], "out": path,
"err": path, "timeout": seconds}.  Runs argv with stdout and stderr sent
to the two files, kills it when the timeout passes, and answers one JSON
line: {"code": exit code, "seconds": wall time, "cpu_s": user plus system
time, "rss_kb": peak resident set, "ticks": metronome iterations, "tick_ns":
metronome run time}.  Exits at the end of its input.
"""

import json
import mmap
import os
import signal
import sys
import time

_running = 0


def _on_alarm(signum, frame) -> None:
    if _running:
        os.kill(_running, signal.SIGKILL)


class Metronome:
    """A lowest-priority process on the current CPU that counts loop iterations."""

    def __init__(self) -> None:
        self._count = mmap.mmap(-1, 8)
        self.pid = os.fork()
        if self.pid == 0:
            self._beat()

    def _beat(self) -> None:
        try:
            os.nice(19)
            parent = os.getppid()
            table = {}
            n = 0
            while n % 4096 or os.getppid() == parent:
                for i in range(64):
                    table[i & 15] = (i, n)
                n += 1
                self._count[:8] = n.to_bytes(8, "little")
        finally:
            os._exit(0)

    def reading(self) -> tuple[int, int]:
        """(iterations so far, nanoseconds the metronome has run)."""
        with open(f"/proc/{self.pid}/schedstat") as f:
            ns = int(f.read().split()[0])
        return int.from_bytes(self._count[:8], "little"), ns

    def stop(self) -> None:
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)


def run(job: dict, metronome: Metronome) -> dict:
    global _running
    write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, job["out"], write, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, job["err"], write, 0o644)]
    ticks0, ns0 = metronome.reading()
    start = time.perf_counter()
    pid = os.posix_spawn(job["argv"][0], job["argv"], os.environ, file_actions=actions)
    _running = pid
    signal.setitimer(signal.ITIMER_REAL, max(job["timeout"], 0.001))
    # Wait without reaping, so the alarm can only ever kill this child.
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = time.perf_counter() - start
    ticks1, ns1 = metronome.reading()
    _, status, usage = os.wait4(pid, 0)
    _running = 0
    return {"code": os.waitstatus_to_exitcode(status), "seconds": seconds,
            "cpu_s": usage.ru_utime + usage.ru_stime, "rss_kb": usage.ru_maxrss, "ticks": ticks1 - ticks0, "tick_ns": ns1 - ns0}


def main() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    signal.signal(signal.SIGALRM, _on_alarm)
    metronome = Metronome()
    try:
        for line in sys.stdin:
            print(json.dumps(run(json.loads(line), metronome)), flush=True)
    finally:
        metronome.stop()


if __name__ == "__main__":
    main()
