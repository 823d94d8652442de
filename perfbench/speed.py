"""Host-speed sampler: times a fixed basket of reference work on the ops' CPU.

On a shared host the speed of a virtual CPU drifts by up to 1.7x in phases of
seconds to minutes, independently on each CPU, with no steal time reported.
The ops therefore run pinned to one CPU, and this sampler, pinned to the same
CPU, times small chunks of reference work, PERIOD_S apart, in its thread's CPU
time.
An op's measured time is its own CPU time scaled by the mean speed of those
chunks over the op (``HostSpeed.factor``): seconds at the full speed of this
basket's reference machine.  The raw wall and CPU times are kept in the record.

The basket cycles through three chunks whose slowdowns differ on a shared
core: small-array numpy calls in a Python loop (the Jacobi sweeps), memory
streaming (the large tensors) and float formatting (the CSV output).  Over
tables and battery runs, an op's CPU time varied as this basket's speed to
the power -0.9, close to the -1 the scaling assumes; a basket of a pure
interpreter loop, small arrays, streaming and random draws gave -1.3.

Run as ``python3 speed.py CPU LOG``: samples until killed, one line per chunk,
``monotonic_time kind cpu_seconds``; stops by itself when its parent exits.
"""

from __future__ import annotations

import bisect
import os
import sys
import time
from pathlib import Path

#: sleep between two chunks; a chunk takes 0.2-0.5 ms, so the sampler takes
#: about 5 % of the CPU from the ops
PERIOD_S = 0.008
#: chunk CPU times at full speed, in the order of ``_basket``: the 1st
#: percentile of each kind over a minute of sampling on an otherwise idle CPU of a
#: 2-core Xeon VM (Python 3.11, numpy 2.4, one BLAS thread).  They fix the unit
#: of an op's measured time, and must not change between two measured commits.
REFERENCE_S = (0.00022, 0.00048, 0.000174)
#: samples this far beyond an op's ends still count for it, so short ops see
#: enough chunks of every kind
PAD_S = 0.25


def _basket():
    import numpy as np

    rng = np.random.default_rng(0)
    small = rng.standard_normal((24, 24))
    a, b = rng.standard_normal(150_000), rng.standard_normal(150_000)
    values = rng.standard_normal(150).tolist()

    def small_arrays():
        m = small.copy()
        for p in range(30):
            q, r = (p * 7) % 24, (p * 5 + 1) % 24
            mq, mr = m[q].copy(), m[r].copy()
            m[q] = 0.6 * mq - 0.8 * mr
            m[r] = 0.8 * mq + 0.6 * mr

    def streaming():
        np.multiply(a, b).sum()

    def formatting():
        ",".join(f"{v:.17g}" for v in values)

    return small_arrays, streaming, formatting


def sample(cpu: int, log: Path) -> None:
    os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    chunks = _basket()
    with open(log, "w") as out:
        for k in range(sys.maxsize):
            if os.getppid() != parent:  # the benchmark is gone
                return
            kind = k % len(chunks)
            c0 = time.thread_time()
            chunks[kind]()
            c1 = time.thread_time()
            out.write(f"{time.monotonic():.6f} {kind} {c1 - c0:.7f}\n")
            out.flush()
            time.sleep(PERIOD_S)


class HostSpeed:
    """The samples of one run, read back once the sampler has stopped."""

    def __init__(self, log: Path):
        self.times: list[list[float]] = [[] for _ in REFERENCE_S]
        self.speeds: list[list[float]] = [[] for _ in REFERENCE_S]
        for line in log.read_text().splitlines():
            t, kind, cpu_s = line.split()
            if float(cpu_s) > 0:
                self.times[int(kind)].append(float(t))
                self.speeds[int(kind)].append(REFERENCE_S[int(kind)] / float(cpu_s))

    def factor(self, t0: float, t1: float) -> float:
        """Mean speed of the basket over [t0, t1] relative to the reference machine."""
        per_kind = []
        for times, speeds in zip(self.times, self.speeds):
            lo, hi = bisect.bisect_left(times, t0 - PAD_S), bisect.bisect_right(times, t1 + PAD_S)
            if hi == lo:
                raise RuntimeError(f"no host-speed samples between {t0:.3f} and {t1:.3f}")
            per_kind.append(sum(speeds[lo:hi]) / (hi - lo))
        return sum(per_kind) / len(per_kind)


if __name__ == "__main__":
    sample(int(sys.argv[1]), Path(sys.argv[2]))
