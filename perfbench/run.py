"""Benchmark of the ``qpke`` command line: one closed-loop client, one fresh process per op.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload battery|tables|montecarlo --seed N --seconds S --trace 0|1

Each op is one ``python -m qpke.cli ...`` process, run one at a time, so every
``lru_cache`` starts as cold as a user's.  The workload seed generates every
op's argv (see workloads.py); the program sees only that argv.  BLAS and
OpenMP pools are pinned to one thread in the children (THREAD_ENV); on a
2-core machine two OpenBLAS threads made ``check-all`` slower and noisier.
The ops run pinned to one CPU, and speed.py samples that CPU's speed beside
them: an op's measured time is its CPU time at the reference speed, because
a shared host's speed drifts by up to 1.7x.

A run measures a fixed number of whole passes of the workload's op list:
``--seconds`` over the pass time measured at the reference commit
(workloads.NOMINAL_PASS_S), halved under tracing, where every op runs twice.
So every commit runs the same ops for a given seed and ``--seconds``, and
percentiles are taken over the same number of ops.
Every op's output goes through the correctness gate (gate.py).  With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` every op
runs twice, plain and under tracer.py, its stdout bytes must match, and the
per-layer metrics plus the tracing overhead are printed.  The metric names and
units are those of BENCHMARK.json.  The last stdout line is one JSON object;
a full record with provenance goes to perfbench/out/.
"""

from __future__ import annotations

import os

THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
# before numpy is imported here (by gate) as well as in the children
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import gate  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: fresh interpreters timed for setup_s; the median is reported.  They and
#: the probe rounds are spread over the passes of a run, because the speed
#: of a shared host drifts over tens of seconds
SETUP_REPS = 11
PROBE_ROUNDS = 2
#: a single op is killed (and counted as failed) after this long
OP_TIMEOUT_S = 40.0
#: no op starts once the op loop has run this long, so a run ends within 180 s
HARD_STOP_S = 120.0


@dataclass
class Spawned:
    """One finished child process."""
    wall_s: float
    cpu_s: float
    t0: float
    t1: float
    rss_mb: float
    code: int
    stdout: bytes = field(repr=False)
    stderr: str = field(repr=False)
    #: cpu_s at the reference speed, filled in once the run's speed samples are read
    op_s: float | None = None

    def measure(self, host: speed.HostSpeed) -> None:
        self.op_s = self.cpu_s * host.factor(self.t0, self.t1)


@dataclass
class Op(Spawned):
    argv: list[str] = field(default_factory=list)
    error: str | None = None
    traced: "Spawned | None" = None
    spans: dict | None = field(default=None, repr=False)

    def record(self) -> dict:
        rec = {"argv": self.argv, "op_s": self.op_s, "wall_s": self.wall_s, "cpu_s": self.cpu_s,
               "peak_rss_mb": self.rss_mb, "exit": self.code, "stdout_bytes": len(self.stdout), "error": self.error}
        if self.traced is not None:
            rec["traced_op_s"] = self.traced.op_s
            rec["traced_wall_s"] = self.traced.wall_s
        return rec


class Launcher:
    """Runs child processes through launcher.py, so their peak RSS is their own.

    With ``cpu`` given, launcher.py and so every child is pinned to that CPU.
    """

    def __init__(self, cpu: int | None = None):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py"), *([] if cpu is None else [str(cpu)])],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def spawn(self, cmd: list[str], tag: str) -> Spawned:
        """Run cmd to completion."""
        out_path, err_path = (OUT / f"{tag}.{os.getpid()}.{stream}" for stream in ("stdout", "stderr"))
        request = {"cmd": cmd, "stdout": str(out_path), "stderr": str(err_path), "timeout": OP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        stdout, stderr = out_path.read_bytes(), err_path.read_text(errors="replace")
        out_path.unlink()
        err_path.unlink()
        return Spawned(reply["wall_s"], reply["cpu_s"], reply["t0"], reply["t1"], reply["rss_kb"] / 1024.0,
                       reply["exit"], stdout, stderr)


class Sampler:
    """speed.py running beside the ops on their CPU; ``host`` holds its samples after exit."""

    def __init__(self, cpu: int):
        self.log = OUT / f"speed.{os.getpid()}.log"
        self.proc = subprocess.Popen([sys.executable, str(HERE / "speed.py"), str(cpu), str(self.log)],
                                     env=child_env(), cwd=ROOT)
        self.host: speed.HostSpeed | None = None

    def __enter__(self):
        # the first op's measure needs samples of every chunk kind
        deadline = time.monotonic() + 60.0
        while len(self.log.read_text().splitlines() if self.log.is_file() else []) < len(speed.REFERENCE_S):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.proc.kill()
                self.proc.wait()
                raise RuntimeError("the host-speed sampler did not start")
            time.sleep(0.05)
        return self

    def __exit__(self, *exc):
        self.proc.terminate()
        self.proc.wait()
        if exc[0] is None:
            self.host = speed.HostSpeed(self.log)
        self.log.unlink(missing_ok=True)


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_op(launcher: Launcher, argv: list[str], ref: dict, trace: bool) -> Op:
    op = Op(**vars(launcher.spawn([sys.executable, "-m", "qpke.cli", *argv], "op")), argv=argv)
    op.error = gate.check(argv, op.code, op.stdout.decode("utf-8", "replace"), op.stderr, ref)
    if trace:
        spans_path = OUT / f"op.{os.getpid()}.spans.json"
        spans_path.unlink(missing_ok=True)
        traced = launcher.spawn([sys.executable, str(HERE / "tracer.py"), str(spans_path), "--", *argv], "op.traced")
        op.traced = traced
        if traced.stdout != op.stdout or traced.code != op.code:
            op.error = op.error or f"traced run differs: exit {traced.code}, {len(traced.stdout)} stdout bytes"
        elif spans_path.is_file():
            op.spans = json.loads(spans_path.read_text())
            spans_path.unlink()
        else:
            op.error = op.error or "tracer wrote no spans"
    return op


def setup_time(launcher: Launcher) -> Spawned:
    """A fresh interpreter that only imports ``qpke.cli``."""
    done = launcher.spawn([sys.executable, "-c", "import qpke.cli"], "setup")
    if done.code != 0:
        raise RuntimeError(f"import qpke.cli failed: {done.stderr.strip()[-300:]}")
    return done


def spread(total: int, slots: int) -> list[int]:
    """``total`` items dealt evenly over ``slots``, the first slot getting the first item."""
    counts = [0] * slots
    for i in range(total):
        counts[i * slots // total] += 1
    return counts


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten values beyond it.

    Below 20 values that percentile would not reach the median, so the
    maximum (percentile 100) is returned instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def qubits(op: Op) -> int:
    options = dict(zip(op.argv[1::2], op.argv[2::2]))
    return int(options["--trials"]) * int(options["--s"])


def mc_throughput(ops: list[Op]) -> dict[str, float]:
    out = {}
    for attack in ("symmetry-test", "bayes-projective"):
        mine = [op for op in ops if op.argv[0] == "montecarlo" and op.argv[op.argv.index("--attack") + 1] == attack]
        out[f"mc_qubits_per_s.{attack}"] = sum(map(qubits, mine)) / sum(op.op_s for op in mine)
    return out


def end_to_end(passes: list[list[Op]], setup: list[Spawned], probes: list[Op], workload: str) -> tuple[dict, dict]:
    ops = [op for p in passes for op in p]
    times = [op.op_s for op in ops]
    tail_value, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(s.op_s for s in setup),
        "pass_s": statistics.median(sum(op.op_s for op in p) for p in passes),
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail_value,
        "peak_rss_mb": max(op.rss_mb for op in ops),
        **mc_throughput(ops if workload == "montecarlo" else probes),
    }
    notes = {
        "op_s.tail.percentile": tail_pct,
        "op_s.tail.ops": len(ops),
        "raw.pass_wall_s": statistics.median(sum(op.wall_s for op in p) for p in passes),
        "raw.setup_wall_s": statistics.median(s.wall_s for s in setup),
        "host_speed": sum(times) / sum(op.cpu_s for op in ops),
    }
    return metrics, notes


def self_times(spans: list) -> dict[str, list[float]]:
    """name -> [calls, self seconds, total seconds]; self excludes time covered by child spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    agg: dict[str, list[float]] = {}
    for (name, start, end, _), covered in zip(spans, child_time):
        entry = agg.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start - covered
        entry[2] += end - start
    return agg


def per_layer(passes: list[list[Op]], names: list[str]) -> tuple[dict, dict]:
    """Per-pass sums of span and counter figures, plus process medians and tracing overhead.

    Ops without spans (their traced run failed) are left out.
    """
    ops = [op for p in passes for op in p if op.spans is not None]
    spans: dict[str, list[float]] = {}
    counters: dict[str, float] = {}
    missing: set[str] = set()
    for op in ops:
        for name, (calls, self_s, total_s) in self_times(op.spans["spans"]).items():
            entry = spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += self_s
            entry[2] += total_s
        for name, value in op.spans["counters"].items():
            counters[name] = counters.get(name, 0) + value
        counters["cli.write.bytes"] = counters.get("cli.write.bytes", 0) + len(op.traced.stdout)
        missing.update(op.spans["missing_hooks"])
    k = max(len(passes), 1)
    metrics = {}
    for name in names:
        base, _, stat = name.rpartition(".")
        if name.startswith("cli.check."):
            metrics[name] = spans.get(base, [0, 0.0, 0.0])[2] / k
        elif stat in ("calls", "self_s"):
            metrics[name] = spans.get(base, [0, 0.0, 0.0])[0 if stat == "calls" else 1] / k
        else:
            metrics[name] = counters.get(name, 0) / k
    busy = spans.get("montecarlo.estimate", [0, 0.0, 0.0])[2]
    metrics["montecarlo.qubits_per_busy_s"] = counters.get("montecarlo.qubits", 0) / busy if busy else 0.0
    for stage in ("startup_s", "import_s"):
        metrics[f"process.{stage}"] = statistics.median(op.spans[stage] for op in ops) if ops else 0.0
    plain = sum(op.op_s for op in ops)
    traced = sum(op.traced.op_s for op in ops)
    metrics["trace.overhead_s"] = (traced - plain) / k
    metrics["trace.overhead_pct"] = 100.0 * (traced - plain) / plain if plain else 0.0
    checks = {n: v for n, v in metrics.items() if n.startswith("cli.check.")}
    selfs = {n: v for n, v in metrics.items() if n.endswith(".self_s")}
    notes = {
        "traced_op_s": traced / k,
        "untraced_op_s": plain / k,
        "top_check": max(checks, key=checks.get) if any(checks.values()) else None,
        "top_self_time": max(selfs, key=selfs.get) if any(selfs.values()) else None,
        "missing_hooks": sorted(missing),
    }
    return metrics, notes


def git_commit() -> str:
    """The checkout's commit, read from .git without running git; 'unknown' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def provenance(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unavailable"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "python_executable": sys.executable,
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": THREAD_ENV,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "mc_z_gate": gate.MC_Z_GATE,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still stops and reaps its children on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "qpke" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no qpke source tree (src/qpke/cli.py) or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    ref = json.loads((HERE / "reference.json").read_text())
    OUT.mkdir(exist_ok=True)
    trace = bool(args.trace)
    info = provenance(args)

    setup, probes, passes, partial = [], [], [], []
    count = workloads.passes_per_run(args.workload, args.seconds, trace)
    cpus = sorted(os.sched_getaffinity(0))
    op_cpu = cpus[-1]
    os.sched_setaffinity(0, cpus[:-1] or cpus)  # the benchmark itself keeps off the ops' CPU
    info["op_cpu"] = op_cpu
    sampler = Sampler(op_cpu)
    with sampler, Launcher(op_cpu) as launcher:
        if not trace:
            setup_time(launcher)  # byte-compiles the package on a fresh checkout
        start = time.perf_counter()
        side = zip(spread(SETUP_REPS, count), spread(PROBE_ROUNDS, count))
        probe_rounds = workloads.probe_rounds(args.seed)
        for op_list, (setups, rounds) in zip(
                workloads.passes(args.workload, args.seed, ref["check_all_seeds"]), side):
            if not trace:
                setup += [setup_time(launcher) for _ in range(setups)]
                if args.workload != "montecarlo":
                    probes += [run_op(launcher, argv, ref, False)
                               for _ in range(rounds) for argv in next(probe_rounds)]
            done = []
            for argv in op_list:
                if time.perf_counter() - start > HARD_STOP_S:
                    break
                done.append(run_op(launcher, argv, ref, trace))
            if len(done) < len(op_list):
                # metrics come from whole passes only; a cut pass is still gated
                partial = done
                break
            passes.append(done)

    if not passes:
        passes, partial = [partial], []
    ops = [op for p in passes for op in p]
    traced = [op.traced for op in (*ops, *partial) if op.traced is not None]
    for done in (*setup, *ops, *partial, *probes, *traced):
        done.measure(sampler.host)
    checked = ops + partial + probes
    failed = [op for op in checked if op.error]
    kind = "per_layer" if trace else "end_to_end"
    if trace:
        values, notes = per_layer(passes, [m["name"] for m in spec["per_layer"]])
    else:
        values, notes = end_to_end(passes, setup, probes, args.workload)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}

    error_rate = len(failed) / len(checked)
    record = {
        "provenance": info,
        "passes": len(passes),
        "setup_s_samples": [s.op_s for s in setup],
        "setup_wall_s_samples": [s.wall_s for s in setup],
        "probes": [op.record() for op in probes],
        "ops": [op.record() for op in ops],
        "cut_pass_ops": [op.record() for op in partial],
        "error_rate": error_rate,
        "notes": notes,
        "metrics": metrics,
    }
    result_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} commit={info['git_commit']} "
          f"python={info['python']} numpy={info['numpy']} nproc={info['nproc']} threads=1")
    print(f"# {len(ops)} ops in {len(passes)} passes, {len(partial)} in a cut pass, {len(probes)} probes; "
          f"error_rate = {error_rate:.4f} ({len(failed)}/{len(checked)})")
    for op in failed:
        print(f"#   FAILED {' '.join(op.argv)}: {op.error}")
    for key, value in notes.items():
        print(f"# {key} = {value}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"# record: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": not failed, "attempted": len(checked), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
