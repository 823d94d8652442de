"""Compare the CPU time and peak RSS of this tree's qpke ops with another source tree's, op by op.

    python tools/op_cost.py OTHER_SRC

OTHER_SRC is the ``src`` directory of another checkout.  Each argv runs as
a fresh ``python -m qpke.cli`` process, once from this tree's ``src`` and
once from OTHER_SRC per pair, the two trees taking turns to go first.  The
children are spawned by ``perfbench/launcher.py``, one launcher per tree,
so each child's ``os.wait4`` usage is its own; both launchers, and so every
child, are pinned to one CPU where ``os.sched_setaffinity`` allows, with
the benchmark's one-thread BLAS setting (``perfbench/run.py``'s
``THREAD_ENV``).  The argv are the first pass of each benchmark workload,
as ``tools/same_output.py`` reads them from ``perfbench/workloads.py``, and
each runs ``PAIRS`` times per tree.

Each launcher's children get their own fresh, empty ``PYTHONPYCACHEPREFIX``
under the tool's temporary directory, with bytecode writing on (whatever
``PYTHONDONTWRITEBYTECODE`` says), so neither tree reads a stale
``__pycache__`` of its source and both run from a cache they compiled
themselves.  Each argv runs once per tree, untimed, before its pairs, to
fill that cache.  So the figures leave out compiling, which perfbench pays
in every op of a fresh checkout under ``PYTHONDONTWRITEBYTECODE``.

Per distinct argv the tool prints the median user + system CPU seconds,
the median peak RSS (``ru_maxrss``) and the median minor page faults
(``ru_minflt``) of each tree, the relative change of this tree's median CPU
time against the other's, and the pairs each tree won (the lower CPU
time).  A child's minor faults are the rise of its launcher's ``cminflt``
(``/proc/PID/stat``, the faults of the children it has waited for) over
its run; without ``/proc`` they print as ``-``.  Per workload it prints the
sum of the median CPU seconds of its pass, repeats included.  An argv whose exit codes differ between the
trees is marked, and the tool then exits 1.

The CPU seconds are bare: nothing corrects them for the host's speed,
which drifts (perfbench's ``speed.py`` measures it).  Ten pairs have shown
a ±10 % change at 9:1 on code a change did not touch, and one argv's median
from the same tree read 0.75 s and 1.09 s in two runs about 20 minutes
apart.  A CPU verdict from this tool needs more pairs, or perfbench's
records, before it is quoted.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from same_output import ROOT, THREAD_ENV, first_passes

LAUNCHER = ROOT / "perfbench" / "launcher.py"
OP_TIMEOUT_S = 120.0
PAIRS = 10


class Launcher:
    """A ``perfbench/launcher.py`` whose children import qpke from ``src``, with a bytecode cache of their own."""

    def __init__(self, src: str, cpu: int | None, workdir: str):
        self.workdir = workdir
        env = dict(os.environ, PYTHONPATH=src, PYTHONPYCACHEPREFIX=os.path.join(workdir, "pycache"), **THREAD_ENV)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        cmd = [sys.executable, str(LAUNCHER), *([] if cpu is None else [str(cpu)])]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
                                     cwd=workdir, text=True)

    def run(self, argv: list[str]) -> dict:
        """The launcher's reply for one ``-m qpke.cli`` child (cpu_s, rss_kb and exit among others), with its minflt."""
        request = {"cmd": [sys.executable, "-m", "qpke.cli", *argv], "timeout": OP_TIMEOUT_S,
                   "stdout": os.path.join(self.workdir, "stdout"), "stderr": os.path.join(self.workdir, "stderr")}
        before = self.children_minflt()
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        after = self.children_minflt()
        reply["minflt"] = None if before is None else after - before
        return reply

    def children_minflt(self) -> int | None:
        """The minor faults of the launcher's waited-for children so far (``cminflt``), or None without ``/proc``."""
        try:
            stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        except OSError:
            return None
        # the fields after the parenthesized command name start at the third, state
        return int(stat.rsplit(")", 1)[1].split()[11 - 3])

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def pinned_cpu() -> int | None:
    """The CPU the children run on: the last one this process may use, or None without affinity control."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return None
    return cpu


def median_faults(counts: list[int | None]) -> str:
    """The median of one tree's minor fault counts, or ``-`` where they were not read."""
    return "-" if None in counts else f"{statistics.median(counts):.0f}"


def measure(launchers: list[Launcher], argv: list[str]) -> list[list[dict]]:
    """Per tree, the replies of ``PAIRS`` runs of ``argv``; the trees alternate which runs first."""
    for launcher in launchers:
        launcher.run(argv)  # compiles into the tree's cache whatever argv imports
    runs: list[list[dict]] = [[], []]
    for pair in range(PAIRS):
        for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
            runs[side].append(launchers[side].run(argv))
    return runs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("other_src", metavar="OTHER_SRC")
    args = parser.parse_args()
    if not Path(args.other_src, "qpke", "cli.py").is_file():
        parser.error("OTHER_SRC must be a source directory that holds qpke/cli.py")
    groups = first_passes()
    trees = [str(ROOT / "src"), str(Path(args.other_src).resolve())]
    cpu = pinned_cpu()
    print(f"this tree {trees[0]} against {trees[1]}: {PAIRS} pairs, "
          f"{'pinned to CPU ' + str(cpu) if cpu is not None else 'not pinned'}")
    print(f"{'argv':<62} {'cpu_s':>7} {'other':>7} {'change':>8} {'rss_mb':>7} {'other':>7} "
          f"{'minflt':>7} {'other':>7} {'won':>5}")
    medians: dict[tuple, tuple[float, float]] = {}
    differ = 0
    with tempfile.TemporaryDirectory() as scratch:
        launchers = [Launcher(src, cpu, tempfile.mkdtemp(dir=scratch)) for src in trees]
        try:
            for group, ops in groups.items():
                for argv in map(list, dict.fromkeys(map(tuple, ops))):
                    runs = measure(launchers, argv)
                    cpu_s = [[run["cpu_s"] for run in side] for side in runs]
                    rss = [statistics.median(run["rss_kb"] for run in side) / 1024 for side in runs]
                    faults = [median_faults([run["minflt"] for run in side]) for side in runs]
                    ours, theirs = (statistics.median(side) for side in cpu_s)
                    medians[tuple(argv)] = ours, theirs
                    won = sum(a < b for a, b in zip(*cpu_s)), sum(b < a for a, b in zip(*cpu_s))
                    exits = {run["exit"] for side in runs for run in side}
                    differ += len(exits) > 1
                    note = f"  exit codes {sorted(exits)} differ" if len(exits) > 1 else ""
                    print(f"{' '.join(argv)[:62]:<62} {ours:7.3f} {theirs:7.3f} {ours / theirs - 1:+8.1%} "
                          f"{rss[0]:7.2f} {rss[1]:7.2f} {faults[0]:>7} {faults[1]:>7} {won[0]:>2}:{won[1]:<2}{note}",
                          flush=True)
                ours, theirs = (sum(medians[tuple(argv)][side] for argv in ops) for side in (0, 1))
                print(f"{group + ' pass, sum of medians':<62} {ours:7.3f} {theirs:7.3f} {ours / theirs - 1:+8.1%}",
                      flush=True)
        finally:
            for launcher in launchers:
                launcher.close()
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
