"""Seeded stochastic simulation of full protocol runs under each attack.

Trials are vectorized in fixed-size batches; each batch draws its generator
from a counter-based stream (Philox) spawned off the master seed, so results
are reproducible bit-for-bit and independent of batch execution order.

The projective attack's binomial measurement counts come from numpy's own
sequential-search inversion (Kachitvichyanukul & Schmeiser, CACM 31, 1988)
run over terms tabulated once per (T, n, basis); the draws are identical to
``Generator.binomial`` and use the same stream positions.  A cipher qubit
is its integer cipher unit c = k XOR (w << (n-1)), as in
:func:`qpke.protocol.encrypt`, and its Born probability in the estimated
basis U = E / (2|E|) of its outcome cell, 1/2 + cos(c*theta) U_z +
sin(c*theta) U_x, is gathered from cached key and cell tables in row blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import bayes
from .protocol import ProtocolParams
from .symmetry import average_success_symmetry

ATTACKS = ("bayes-projective", "symmetry-test")

BATCH_SIZE = 1 << 16

#: elements per row block of a bayes batch's Born-probability stage
BLOCK_SIZE = 1 << 13


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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


def _draw_codewords(count: int, s: int, rng: np.random.Generator) -> np.ndarray:
    # uniform parity-matched codewords of uniform messages (drawn first), shape (count, s)
    m = rng.integers(0, 2, size=count, dtype=np.int8)
    w = np.empty((count, s), dtype=np.int8)
    if s > 1:
        w[:, :-1] = rng.integers(0, 2, size=(count, s - 1), dtype=np.int8)
        w[:, -1] = m ^ np.bitwise_xor.reduce(w[:, :-1], axis=1)
    else:
        w[:, 0] = m
    return w


@lru_cache(maxsize=16)
def _estimate_tables(T: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """U_z, U_x and the degenerate flag of every outcome cell t0z*(T+1) + t0x, flat.

    U = E / (2|E|) (0 where degenerate) does not depend on how many keys were
    summed, so the tables come from bayes' smallest exact key grid at any n.
    """
    half_z, half_x, _, directed = bayes._bloch_sums(T, n)
    tables = half_z.ravel(), half_x.ravel(), ~directed.ravel()
    for a in tables:
        a.flags.writeable = False
    return tables


@lru_cache(maxsize=16)
def _inversion_table(T: int, n: int, basis: int) -> tuple | None:
    """numpy's binomial-inversion set-up for every key of one basis, or None.

    ``Generator.binomial(T, p0)`` folds p0 to p = min(p0, 1 - p0), draws by
    sequential-search inversion when T*p <= 30, and returns T minus the draw
    where it folded.  The search subtracts the terms P(X = j) from one
    uniform in turn and redraws the uniform once X passes a bound.  The terms
    are computed here exactly as numpy does, the first with libm (``math``;
    numpy's SIMD exp/log differ from it in the last bit) and the rest by
    numpy's recurrence, so a search over them reproduces numpy's draw.
    Returns (terms (T+1, 2^n), fold flags as 0/1 counts, p0 == 0 flags,
    redraw bounds, smallest bound), or None where some key takes numpy's
    BTPE path instead.
    """
    p0 = bayes._prob0_tables(n)[basis]
    fold = p0 > 0.5
    p = np.where(fold, 1.0 - p0, p0)
    if np.any(p * T > 30.0):
        return None
    q = 1.0 - p
    terms = np.empty((T + 1, p.size))
    terms[0] = [math.exp(T * math.log(qk)) for qk in q.tolist()]
    for j in range(1, T + 1):
        terms[j] = ((T - j + 1) * p * terms[j - 1]) / (j * q)
    mean = T * p
    dtype = np.min_scalar_type(T)
    bound = np.minimum(T, mean + 10.0 * np.sqrt(mean * q + 1)).astype(dtype)
    arrays = (terms, fold.astype(dtype), p0 == 0.0, bound)
    for a in arrays:
        a.flags.writeable = False
    return (*arrays, int(bound.min()))


def _binomial_counts(rng: np.random.Generator, T: int, n: int, basis: int, k: np.ndarray) -> np.ndarray:
    """``rng.binomial(T, p0[k])`` for one basis's P("0" | k): same values, same stream use.

    The counts come in the smallest unsigned dtype that holds T.  numpy
    consumes one uniform per element with p0 > 0 (none where p0 == 0), so
    one ``rng.random`` block feeds a vectorized search over the tabulated
    terms, which drops the finished elements once fewer than half go on.
    numpy itself draws for a batch smaller than the key range (where the
    table would cost more than it saves), for a (T, n) that reaches its
    BTPE path, and, after the generator is rewound, for a batch in which
    some search would redraw.
    """
    dtype = np.min_scalar_type(T)
    table = _inversion_table(T, n, basis) if k.size >= 1 << n else None
    if table is not None:
        terms, fold, zero, bound, min_bound = table
        state = rng.bit_generator.state
        keys = k.ravel()
        drawn = ~zero.take(keys)
        u = np.zeros(keys.size)
        u[drawn] = rng.random(np.count_nonzero(drawn))
        del drawn
        x = np.zeros(keys.size, dtype=dtype)
        # the elements still searching: flat positions (None while that is
        # all of them), keys, leftover uniforms and counts so far; a search
        # that stops leaves u <= 0, below every later term
        pos, counts = None, x
        for j in range(T + 1):
            term = terms[j].take(keys)
            step = u > term
            going = np.count_nonzero(step)
            if going == 0:
                break
            if j >= min_bound and np.any(bound.take(keys[step]) <= j):
                break  # a count passes its bound (all do at j = T): numpy redraws
            counts += step.view(np.uint8)
            u -= term
            del term
            if 2 * going < step.size:
                sub = np.flatnonzero(step)
                if pos is None:
                    pos = sub
                else:
                    x[pos] = counts
                    pos = pos.take(sub)
                keys, u, counts = keys.take(sub), u.take(sub), counts.take(sub)
        if going == 0:
            if pos is not None:
                x[pos] = counts
            x = x.reshape(k.shape)
            # unfold without branches: x ^ (x ^ (T - x)) is T - x
            flip = np.subtract(T, x)
            flip ^= x
            flip *= fold.take(k)
            x ^= flip
            return x
        rng.bit_generator.state = state
    return rng.binomial(T, bayes._prob0_tables(n)[basis][k]).astype(dtype)


def _cipher_units(k: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """Cipher units k XOR (w << (n-1)) of key integers k and codeword bits w, as in ``encrypt``."""
    units = np.left_shift(w, n - 1, dtype=k.dtype)
    units ^= k
    return units


def _bayes_batch(params: ProtocolParams, rng: np.random.Generator, count: int) -> np.ndarray:
    """Simulate ``count`` runs of the projective-measurement attack; returns success flags."""
    T, n, s = params.T, params.n, params.s
    cos_unit, sin_unit = bayes._key_bloch(n)
    half_z, half_x, degenerate = _estimate_tables(T, n)

    k = rng.integers(0, 1 << n, size=(count, s))
    t0z = _binomial_counts(rng, T, n, 0, k)
    t0x = _binomial_counts(rng, T, n, 1, k)
    w = _draw_codewords(count, s, rng)
    u = rng.random(size=(count, s))

    # the cipher qubit, unit c, measured in the estimated basis of its
    # outcome cell; the outcome bit is the guess of w
    success = np.empty(count, dtype=bool)
    rows = max(1, BLOCK_SIZE // s)
    for start in range(0, count, rows):
        block = slice(start, start + rows)
        cell = t0z[block].astype(np.intp)
        cell *= T + 1
        cell += t0x[block]
        unit = _cipher_units(k[block], w[block], n)
        p_outcome0 = cos_unit.take(unit)
        p_outcome0 *= half_z.take(cell)
        term = sin_unit.take(unit)
        term *= half_x.take(cell)
        p_outcome0 += term
        p_outcome0 += 0.5
        guess = u[block] >= p_outcome0
        # a vanishing Bloch estimate leaves no preferred basis: p = 1/2, and
        # the fair coin reads u < 1/2
        guess ^= degenerate.take(cell)
        guess ^= w[block].view(bool)
        success[block] = np.bitwise_xor.reduce(guess.view(np.uint8), axis=1) == 0
    return success


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

    k = rng.integers(0, 1 << n, size=(count, s))
    w = _draw_codewords(count, s, rng)
    flip = w.view(bool)
    p_outcome0 = np.multiply(k, params.theta)
    del k
    if omega is None:
        phi = rng.uniform(0.0, 2.0 * math.pi, size=(count, s))
    else:
        phi = p_outcome0 - np.broadcast_to(np.asarray(omega, dtype=float), (count, s))

    # P(outcome 0) of the public qubit in basis phi; the cipher qubit,
    # shifted by w*pi, has the complement where w = 1
    p_outcome0 -= phi
    del phi
    p_outcome0 /= 2.0
    np.cos(p_outcome0, out=p_outcome0)
    np.square(p_outcome0, out=p_outcome0)
    guess = rng.random(size=(count, s)) >= p_outcome0
    u = rng.random(size=(count, s))
    out_cipher = u >= p_outcome0
    np.subtract(1.0, p_outcome0, out=p_outcome0)
    out_cipher ^= flip & (out_cipher ^ (u >= p_outcome0))

    # equal outcomes read as "parallel" (bit 0), unequal as "antiparallel" (bit 1)
    guess ^= out_cipher
    guess ^= flip
    return np.bitwise_xor.reduce(guess.view(np.uint8), axis=1) == 0


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
