"""Spawn-and-wait server: runs the benchmark's child processes from a small process.

Linux carries a process's peak RSS across fork and exec, so a child forked
from the benchmark itself (which holds numpy and parsed tables) would report
the benchmark's peak instead of its own.  This process imports nothing heavy;
children forked from it report their own ``ru_maxrss``.

Usage: ``launcher.py [CPU]``; with CPU given, it and every child run pinned
to that CPU.

Protocol: one JSON request per stdin line, {"cmd": [...], "stdout": path,
"stderr": path, "timeout": seconds}; one JSON reply per stdout line,
{"wall_s", "cpu_s", "t0", "t1", "rss_kb", "exit"}, where t0 and t1 are the
``time.monotonic()`` at spawn and at reaping, and cpu_s is the child's user
plus system time.  Children inherit this process's environment
plus PERFBENCH_SPAWN, the ``time.monotonic()`` just before the spawn.  Exits
when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    env = dict(os.environ)
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        done = threading.Event()
        t0 = time.perf_counter()
        mono0 = time.monotonic()
        env["PERFBENCH_SPAWN"] = repr(mono0)
        proc = subprocess.Popen(request["cmd"], stdout=out, stderr=err, env=env)
        timer = threading.Timer(request["timeout"], lambda: done.is_set() or proc.kill())
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            done.set()
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
        mono1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime, "t0": mono0, "t1": mono1,
            "rss_kb": usage.ru_maxrss, "exit": proc.returncode}


def main() -> None:
    if len(sys.argv) > 1:
        os.sched_setaffinity(0, {int(sys.argv[1])})
    try:
        for line in sys.stdin:
            sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
            sys.stdout.flush()
    except BrokenPipeError:  # the benchmark was stopped while a child ran
        pass


if __name__ == "__main__":
    main()
