"""Seeded op lists for the three benchmark workloads.

A workload is a sequence of passes; a pass is a list of ops, and an
op is the argv of one ``qpke`` command.  Every pass of a workload holds the
same slots, so the work in a pass (and with it every end-to-end metric) stays
put from seed to seed.  The seed picks what does not change the cost of a
slot: the order of the ops, Monte Carlo seeds, cost-neutral parameters such
as epsilon, codeword caps or the n and T of symmetry campaigns, and small
trial-count jitter.
"""

from __future__ import annotations

import math
import random
from typing import Iterator

WORKLOADS = ("battery", "tables", "montecarlo")

# Monte Carlo probe campaigns, run between the passes of the workloads that
# have no campaigns of their own, so that mc_qubits_per_s is measured on
# every workload.  They are large enough (0.7 and 1 s) that interpreter
# start-up stays a small share.
PROBES = (
    ("symmetry-test", ["--n", "10", "--T", "1", "--s", "8", "--trials", "750000"]),
    ("bayes-projective", ["--n", "12", "--T", "8", "--s", "4", "--trials", "750000"]),
)

# (attack, trials, s, n, T); None draws the value from the seed.  Trial
# counts are log-spaced from 1e3 to 2e6 over six slots of each attack, plus a
# mid-size symmetry slot that makes the pass odd, so with three passes the
# median and tail ranks fall on the middle copy of one slot.
# A bayes campaign's cost depends on n and T (the likelihood set-up and the
# binomial draws), so every bayes slot fixes them, covering n = 10-14 between
# them; the n = 14, T = 16 slot holds the largest likelihood tensor.
# Symmetry campaigns do not depend on n or T at all.
MC_SLOTS = (
    ("symmetry-test", 1_000, 16, None, None),
    ("symmetry-test", 6_000, 3, None, None),
    ("symmetry-test", 40_000, 12, None, None),
    ("symmetry-test", 250_000, 1, None, None),
    ("symmetry-test", 150_000, 16, None, None),
    ("symmetry-test", 1_000_000, 8, None, None),
    ("symmetry-test", 2_000_000, 3, None, None),
    ("bayes-projective", 1_000, 1, 14, 16),
    ("bayes-projective", 6_000, 6, 10, 12),
    ("bayes-projective", 40_000, 2, 11, 6),
    ("bayes-projective", 250_000, 10, 12, 8),
    ("bayes-projective", 600_000, 16, 13, 4),
    ("bayes-projective", 2_000_000, 1, 14, 4),
)

#: largest relative jitter applied to a Monte Carlo slot's trial count
TRIALS_JITTER = 0.05

#: wall time of one pass at the reference commit on a 2-core x86-64 VM
#: (Python 3.11, numpy 2.4, one BLAS thread); it fixes the number of passes
#: in a run, so that later commits run exactly the same ops
NOMINAL_PASS_S = {"battery": 6.0, "tables": 8.5, "montecarlo": 9.5}


def _int_list(values) -> str:
    return ",".join(str(v) for v in values)


def _tables_pass(rng: random.Random) -> list[list[str]]:
    # Every slot's cost is fixed, and the seed varies only the op order and
    # parameters whose cost is flat (epsilon and the codeword cap s).  Four
    # heavy slots (0.4-2 s) stand over nine light ones (0.15-0.3 s), so with
    # three passes the median and tail ranks fall on the middle copy of one
    # slot; the tail's, the lightest heavy slot, is figure 4 because its
    # measured time varies least (a prior at n = 13-14 varied twice as much)
    ops = [
        # mixture-bound symspace at large 2^n (tau <= 64, n >= n_c)
        ["prior", "--tau", "32,64", "--n", "12,14"],
        ["prior", "--tau", "4,8", "--n", "10,12"],
        # the posterior grid: 8.75 MB of CSV
        ["figure", "--id", "1", "--n", "12"],
        ["figure", "--id", "2", "--n", "12"],
        ["figure", "--id", "3", "--n", "12", "--T", "4,8,12"],
        # the (T+1)^2 * 2^n likelihood tensor at its largest; exit 1 is the
        # expected verdict for T >= 11 (the empirical 1 - 1/(6T) cap fails)
        ["figure", "--id", "4", "--n", "14", "--T", "1-16"],
        ["figure", "--id", "4", "--n", "13", "--T", "1-16"],
        ["figure", "--id", "4", "--n", "12", "--T", "1-12"],
        ["figure", "--id", "5", "--n", "12", "--T", "4,8,16", "--s", str(rng.randint(20, 64))],
    ]
    for _ in range(4):
        ops.append(["security", "--epsilon", repr(2.0 ** -rng.randint(2, 12)), "--T", "4-12"])
    rng.shuffle(ops)
    return ops


def _montecarlo_pass(rng: random.Random) -> list[list[str]]:
    ops = []
    for attack, trials, s, n, T in MC_SLOTS:
        jitter = math.exp(rng.uniform(-1.0, 1.0) * math.log1p(TRIALS_JITTER))
        ops.append([
            "montecarlo", "--attack", attack,
            "--n", str(n if n is not None else rng.randint(10, 14)),
            "--T", str(T if T is not None else rng.randint(1, 16)),
            "--s", str(s),
            "--trials", str(round(trials * jitter)),
            "--seed", str(rng.randrange(1 << 31)),
        ])
    rng.shuffle(ops)
    return ops


def passes(workload: str, seed: int, checkall_seeds: list[int]) -> Iterator[list[list[str]]]:
    """Endless passes of ``workload`` generated from ``seed``.

    ``checkall_seeds`` is the universe of ``check-all --seed`` values whose
    two Monte Carlo checks pass their 3-sigma test at the reference commit.
    """
    rng = random.Random(f"{workload}:{seed}")
    while True:
        if workload == "battery":
            yield [["check-all", "--seed", str(rng.choice(checkall_seeds))]]
        elif workload == "tables":
            yield _tables_pass(rng)
        elif workload == "montecarlo":
            yield _montecarlo_pass(rng)
        else:
            raise ValueError(f"unknown workload {workload!r}")


def passes_per_run(workload: str, seconds: float, traced: bool) -> int:
    """Passes that fill ``seconds`` at the reference commit; tracing runs every op twice."""
    return max(1, round(seconds / NOMINAL_PASS_S[workload] / (2 if traced else 1)))


def probe_rounds(seed: int) -> Iterator[list[list[str]]]:
    """Endless rounds of the fixed-size probe campaigns, with seeds drawn from ``seed``."""
    rng = random.Random(f"probe:{seed}")
    while True:
        yield [["montecarlo", "--attack", attack, *args, "--seed", str(rng.randrange(1 << 31))]
               for attack, args in PROBES]
