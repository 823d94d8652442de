"""Seeded stochastic simulation of full protocol runs under each attack.

Trials are vectorized in fixed-size batches; each batch draws its generator
from a counter-based stream (Philox) spawned off the master seed, so results
are reproducible bit-for-bit and independent of batch execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import bayes
from .protocol import ProtocolParams, QubitAngle
from .symmetry import average_success_symmetry

ATTACKS = ("bayes-projective", "symmetry-test")

BATCH_SIZE = 1 << 16


@dataclass(frozen=True)
class TrialConfig:
    """One simulation campaign: protocol parameters, attack kind, trial count, master seed."""

    params: ProtocolParams
    attack: str
    trials: int
    seed: int

    def __post_init__(self):
        if self.attack not in ATTACKS:
            raise ValueError(f"attack must be one of {ATTACKS}, got {self.attack!r}")
        if self.trials < 1:
            raise ValueError(f"trial count must be >= 1, got {self.trials}")
        if self.attack == "bayes-projective":
            # the attack's likelihood tables grow as 2**n; bound n before any work
            bayes._check_n(self.params.n)


@dataclass(frozen=True)
class EstimateWithError:
    """Empirical success frequency with its binomial standard error."""

    mean: float
    std_error: float
    trials: int

    def __post_init__(self):
        if not 0.0 <= self.mean <= 1.0:
            raise ValueError(f"mean must lie in [0, 1], got {self.mean}")
        if self.std_error < 0.0:
            raise ValueError(f"standard error must be >= 0, got {self.std_error}")


def sample_measurement(q: QubitAngle, basis_angle: float, rng: np.random.Generator) -> int:
    """Born-rule draw: 0 with probability cos^2((phi - basis)/2), else 1."""
    p0 = math.cos((q.radians - basis_angle) / 2.0) ** 2
    return 0 if rng.random() < p0 else 1


def _draw_codewords(count: int, s: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    # messages and uniform parity-matched codewords, shapes (count,), (count, s)
    m = rng.integers(0, 2, size=count, dtype=np.int8)
    w = np.empty((count, s), dtype=np.int8)
    if s > 1:
        w[:, :-1] = rng.integers(0, 2, size=(count, s - 1), dtype=np.int8)
        w[:, -1] = m ^ np.bitwise_xor.reduce(w[:, :-1], axis=1)
    else:
        w[:, 0] = m
    return m, w


@lru_cache(maxsize=16)
def _estimate_tables(T: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Estimated basis angle and degeneracy flag per outcome pair, shapes (T+1, T+1)."""
    est_z, est_x, _, directed = bayes._bloch_sums(T, n)
    est_angle = np.arctan2(est_x, est_z)
    degenerate = ~directed
    est_angle.flags.writeable = False
    degenerate.flags.writeable = False
    return est_angle, degenerate


def _bayes_batch(params: ProtocolParams, rng: np.random.Generator, count: int) -> np.ndarray:
    """Simulate ``count`` runs of the projective-measurement attack; returns success flags."""
    T, n, s = params.T, params.n, params.s
    theta = params.theta
    p0z, p0x = bayes._prob0_tables(n)
    est_angle, degenerate = _estimate_tables(T, n)

    k = rng.integers(0, 1 << n, size=(count, s))
    t0z = rng.binomial(T, p0z[k])
    t0x = rng.binomial(T, p0x[k])
    _, w = _draw_codewords(count, s, rng)

    cipher_angle = k * theta + w * math.pi
    est = est_angle[t0z, t0x]
    # cipher qubit measured in the estimated basis; outcome bit is the guess of w
    p_outcome0 = np.cos((cipher_angle - est) / 2.0) ** 2
    u = rng.random(size=(count, s))
    guess = (u >= p_outcome0).astype(np.int8)
    # a vanishing Bloch estimate leaves no preferred basis: guess by fair coin
    guess = np.where(degenerate[t0z, t0x], (u < 0.5).astype(np.int8), guess)

    errors = guess ^ w
    return np.bitwise_xor.reduce(errors, axis=1) == 0


def _symmetry_batch(
    params: ProtocolParams,
    rng: np.random.Generator,
    count: int,
    omega: float | np.ndarray | None = None,
) -> np.ndarray:
    """Simulate ``count`` runs of the pairwise symmetry test; returns success flags.

    ``omega`` pins the basis offset (state angle minus basis angle) of every
    pair instead of drawing the bases uniformly (testing seam).
    """
    n, s = params.n, params.s
    theta = params.theta

    k = rng.integers(0, 1 << n, size=(count, s))
    _, w = _draw_codewords(count, s, rng)
    public_angle = k * theta
    if omega is None:
        phi = rng.uniform(0.0, 2.0 * math.pi, size=(count, s))
    else:
        phi = public_angle - np.broadcast_to(np.asarray(omega, dtype=float), (count, s))

    cipher_angle = public_angle + w * math.pi
    out_public = (rng.random(size=(count, s)) >= np.cos((public_angle - phi) / 2.0) ** 2).astype(np.int8)
    out_cipher = (rng.random(size=(count, s)) >= np.cos((cipher_angle - phi) / 2.0) ** 2).astype(np.int8)

    # equal outcomes read as "parallel" (bit 0), unequal as "antiparallel" (bit 1)
    guess = out_public ^ out_cipher
    errors = guess ^ w
    return np.bitwise_xor.reduce(errors, axis=1) == 0


def run_bayes_trial(cfg: TrialConfig, rng: np.random.Generator) -> bool:
    """One full run of the projective-measurement attack; True on a correct message guess."""
    return bool(_bayes_batch(cfg.params, rng, 1)[0])


def run_symmetry_trial(cfg: TrialConfig, rng: np.random.Generator) -> bool:
    """One full run of the symmetry-test attack; True on a correct message guess."""
    return bool(_symmetry_batch(cfg.params, rng, 1)[0])


def analytic_success(cfg: TrialConfig) -> float:
    """Analytic counterpart of the empirical success frequency for this configuration."""
    if cfg.attack == "bayes-projective":
        per_bit = bayes.mean_success(cfg.params.T, cfg.params.n)
        return bayes.codeword_success(per_bit, cfg.params.s)
    return average_success_symmetry(cfg.params.s)


def estimate(cfg: TrialConfig) -> EstimateWithError:
    """Empirical success frequency over cfg.trials seeded runs, with standard error.

    Batches are seeded by spawning the master seed sequence, so identical
    (seed, config) pairs give bit-identical results.
    """
    batch_fn = _bayes_batch if cfg.attack == "bayes-projective" else _symmetry_batch
    n_batches = (cfg.trials + BATCH_SIZE - 1) // BATCH_SIZE
    children = np.random.SeedSequence(cfg.seed).spawn(n_batches)
    successes = 0
    remaining = cfg.trials
    for child in children:
        count = min(BATCH_SIZE, remaining)
        rng = np.random.Generator(np.random.Philox(child))
        successes += int(np.sum(batch_fn(cfg.params, rng, count)))
        remaining -= count
    mean = successes / cfg.trials
    std_error = math.sqrt(mean * (1.0 - mean) / cfg.trials)
    return EstimateWithError(mean, std_error, cfg.trials)
