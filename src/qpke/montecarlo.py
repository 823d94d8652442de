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

The symmetry test decides each outcome, u >= p for a Born probability
p = cos(x)**2, from a float32 estimate of p: numpy's float32 cosine is
SIMD, its float64 one scalar libm.  The estimate lies within 2**-20 of p,
so only uniforms within ``P_MARGIN`` of it (~0.05 % per draw) are compared
with p itself, from libm, block by block (a filtered predicate, as in
Shewchuk, Discrete Comput. Geom. 18, 1997).  Every flag and every stream
position is the one a float64 comparison gives.

A campaign owns its batch memory: :func:`estimate` keeps one workspace of
named buffers, sized by its first (largest) batch, and every batch fills
and computes into views of it (``out=`` on the draws, ufuncs and takes),
so no batch after the first faults in fresh pages.  The inversion search
runs in blocks of ``BATCH_SIZE`` elements, so its buffers stay one block
in size at any codeword length, and the symmetry test draws its uniforms
block by block into one block of memory and keeps its angles in the
memory of its keys.  Per batch, only what numpy cannot write in place (the
keys and codeword bits of ``integers`` and the ``Generator.binomial``
fallback), the small row-block temporaries of the Born-probability stage
and the symmetry test's libm cells still allocate.
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

#: elements per block of a symmetry batch (angles, uniform fills and
#: outcome decisions): ~30 numpy calls a block, which at 2**12 cost ~10 %
#: more batch time than at 2**14; 2**16 gained under 5 % and holds four
#: times the 13 B of scratch per block element
DECISION_BLOCK = 1 << 14

#: largest |x| at which a symmetry batch trusts the float32 cos(x)**2;
#: drawn bases keep |x| <= pi
X_MAX = 4.0

#: half-width of the band around a threshold inside which a symmetry-test
#: outcome is decided from numpy's float64 cosine (libm).  For |x| <= X_MAX,
#: cos(float32(x))**2 in float32 is within 2**-20 of the float64 cos(x)**2:
#: rounding x to float32 moves it by <= 2**-22 and cos**2 has slope
#: |sin 2x| <= 1, numpy's float32 cosine and the squaring add a few units
#: of 2**-24, and 10**7 draws of x in (-pi, pi) show at most 2**-22.0.
#: 2**-12 keeps a 256-fold reserve and sends 2 * 2**-12, ~0.05 %, of each
#: decision's uniforms to libm.
P_MARGIN = 2.0 ** -12


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


def _take(work: dict | None, name: str, shape, dtype=np.float64) -> np.ndarray:
    """An uninitialized array of ``shape``: a view of the campaign buffer ``name``, or fresh.

    ``work`` holds one campaign's buffers by name (:func:`estimate`), so no
    batch but the first faults in new pages.  A buffer is allocated on first
    use and grown when a larger shape asks for it; a campaign's first batch
    is its largest, so a short last batch gets views of the same memory.
    Without a workspace (a lone batch) the array is fresh and freed when
    dropped, as it would be in a campaign of one batch.
    """
    if work is None:
        return np.empty(shape, dtype)
    size = math.prod(shape) if isinstance(shape, tuple) else shape
    buf = work.get(name)
    if buf is None or buf.size < size or buf.dtype != dtype:
        buf = work[name] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


def _xor_columns(bits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """XOR every column of the (rows, s) bit array ``bits`` into ``out`` (rows,), in place.

    Column by column is 2-10x faster than ``np.bitwise_xor.reduce`` over
    rows of up to 16 bytes, the codeword lengths the campaigns run.
    """
    for j in range(bits.shape[1]):
        out ^= bits[:, j]
    return out


def _draw_codewords(count: int, s: int, rng: np.random.Generator, out: np.ndarray | None = None) -> np.ndarray:
    # uniform parity-matched codewords of uniform messages (drawn first), shape (count, s)
    m = rng.integers(0, 2, size=count, dtype=np.int8)
    w = np.empty((count, s), dtype=np.int8) if out is None else out
    if s > 1:
        w[:, :-1] = rng.integers(0, 2, size=(count, s - 1), dtype=np.int8)
    w[:, -1] = _xor_columns(w[:, :-1], m)
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


def _search(rng: np.random.Generator, table: tuple, keys: np.ndarray, x: np.ndarray,
            work: dict | None) -> bool:
    """Fill ``x`` with the inversion-search counts of ``keys``; False where numpy would redraw.

    numpy consumes one uniform per element with p0 > 0 (none where
    p0 == 0), so one ``rng.random`` fill feeds a vectorized search over the
    tabulated terms, which drops the finished elements once fewer than half
    go on.  The elements still going are compacted into two alternating
    sets of buffers, since ``take`` copies when its output overlaps its
    input.
    """
    terms, fold, zero, bound, min_bound = table
    block_keys = keys
    drawn = zero.take(keys, out=_take(work, "drawn", keys.size, bool), mode="clip")
    np.logical_not(drawn, out=drawn)
    u = _take(work, "u0", keys.size)
    u.fill(0.0)
    # the uniforms pass through the term buffer, free until the search starts
    u[drawn] = rng.random(out=_take(work, "term", keys.size)[:np.count_nonzero(drawn)])
    del drawn
    x.fill(0)
    # the elements still searching: flat positions (None while that is all
    # of them), keys, leftover uniforms and counts so far; a search that
    # stops leaves u <= 0, below every later term
    pos, counts, compactions = None, x, 0
    for j in range(terms.shape[0]):
        term = terms[j].take(keys, out=_take(work, "term", keys.size), mode="clip")
        step = np.greater(u, term, out=_take(work, "step", keys.size, bool))
        going = np.count_nonzero(step)
        if going == 0:
            break
        if j >= min_bound and np.any(bound.take(keys[step]) <= j):
            return False  # a count passes its bound (all do at j = T): numpy redraws
        counts += step.view(np.uint8)
        u -= term
        del term
        if 2 * going < step.size:
            # the c-th compaction keeps fewer than 1/2**c of the block: buffers
            # of that size, which no later batch outgrows
            compactions += 1
            half, buf = block_keys.size >> compactions, compactions % 2
            sub = np.flatnonzero(step)
            if pos is None:
                pos = sub
            else:
                x[pos] = counts
                pos = pos.take(sub, out=_take(work, f"pos{buf}", half, np.intp)[:going], mode="clip")
            keys = keys.take(sub, out=_take(work, f"keys{buf}", half, keys.dtype)[:going], mode="clip")
            u = u.take(sub, out=_take(work, f"u{buf}", half)[:going], mode="clip")
            counts = counts.take(sub, out=_take(work, f"counts{buf}", half, counts.dtype)[:going], mode="clip")
    if pos is not None:
        x[pos] = counts
    # unfold without branches: x ^ (x ^ (T - x)) is T - x
    flip = np.subtract(terms.shape[0] - 1, x, out=_take(work, "flip", x.size, x.dtype))
    flip ^= x
    flip *= fold.take(block_keys, out=_take(work, "fold", x.size, x.dtype), mode="clip")
    x ^= flip
    return True


def _binomial_counts(rng: np.random.Generator, T: int, n: int, basis: int, k: np.ndarray,
                     work: dict | None = None) -> np.ndarray:
    """``rng.binomial(T, p0[k])`` for one basis's P("0" | k): same values, same stream use.

    The counts come in the smallest unsigned dtype that holds T.  The
    search (:func:`_search`) runs in blocks of ``BATCH_SIZE`` elements, so
    its temporaries stay one block in size.  numpy itself draws for a batch
    smaller than the key range (where the table would cost more than it
    saves), for a (T, n) that reaches its BTPE path, and, after the
    generator is rewound to its state before the first block, for a batch
    in which some search would redraw.
    """
    dtype = np.min_scalar_type(T)
    table = _inversion_table(T, n, basis) if k.size >= 1 << n else None
    if table is not None:
        state = rng.bit_generator.state
        keys = k.ravel()
        x = _take(work, f"t0_{basis}", keys.size, dtype)
        blocks = range(0, keys.size, BATCH_SIZE)
        if all(_search(rng, table, keys[i:i + BATCH_SIZE], x[i:i + BATCH_SIZE], work) for i in blocks):
            return x.reshape(k.shape)
        rng.bit_generator.state = state
    return rng.binomial(T, bayes._prob0_tables(n)[basis][k]).astype(dtype)


def _cipher_units(k: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """Cipher units k XOR (w << (n-1)) of key integers k and codeword bits w, as in ``encrypt``."""
    units = np.left_shift(w, n - 1, dtype=k.dtype)
    units ^= k
    return units


def _bayes_batch(params: ProtocolParams, rng: np.random.Generator, count: int,
                 work: dict | None = None) -> np.ndarray:
    """Simulate ``count`` runs of the projective-measurement attack; returns success flags."""
    T, n, s = params.T, params.n, params.s
    cos_unit, sin_unit = bayes._key_bloch(n)
    half_z, half_x, degenerate = _estimate_tables(T, n)

    k = rng.integers(0, 1 << n, size=(count, s))
    t0z = _binomial_counts(rng, T, n, 0, k, work)
    t0x = _binomial_counts(rng, T, n, 1, k, work)
    w = _draw_codewords(count, s, rng, _take(work, "w", (count, s), np.int8))
    u = rng.random(out=_take(work, "born", (count, s)))

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


def _decide(u: np.ndarray, q: np.ndarray, x: np.ndarray, flip: np.ndarray | None,
            out: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """``out = u >= p`` for p = cos(x)**2 by numpy's float64 cosine (1 - p where ``flip``).

    All arrays are flat blocks.  ``q`` is p's float32 estimate, within
    2**-20 of p or NaN (:func:`_symmetry_batch`), and u - q is taken in
    float32 (another 2**-24 at most).  So a uniform whose difference from q
    is at least ``P_MARGIN`` lies on the same side of p as of q, and the
    rest (NaN included) are compared with p itself, computed as in a
    full-batch float64 stage.  ``diff`` is float32 scratch of at least
    ``u``'s size.
    """
    d = np.subtract(u, q, out=diff[:u.size], dtype=np.float32)
    np.greater_equal(d, 0.0, out=out)
    np.abs(d, out=d)
    near = np.flatnonzero(~(d >= P_MARGIN))
    p = np.square(np.cos(x[near]))
    if flip is not None:
        f = flip[near]
        p[f] = 1.0 - p[f]
    out[near] = u[near] >= p
    return out


def _symmetry_batch(
    params: ProtocolParams,
    rng: np.random.Generator,
    count: int,
    omega: float | np.ndarray | None = None,
    work: dict | None = None,
) -> np.ndarray:
    """Simulate ``count`` runs of the pairwise symmetry test; returns success flags.

    ``omega`` pins the basis offset (state angle minus basis angle) of every
    pair instead of drawing the bases uniformly (testing seam).
    """
    n, s = params.n, params.s
    shape = (count, s)

    k = rng.integers(0, 1 << n, size=shape)
    w = _draw_codewords(count, s, rng, _take(work, "w", shape, np.int8))
    # the keys are spent once scaled: their memory holds the angles x
    x, k, flip = k.view(np.float64).ravel(), k.ravel(), w.view(bool).ravel()
    if omega is not None:
        omega = np.broadcast_to(omega, shape).ravel()

    # every stage runs over flat blocks of DECISION_BLOCK elements; filled
    # block by block, each draw gives the doubles of one whole-batch fill
    blocks = [slice(start, start + DECISION_BLOCK) for start in range(0, x.size, DECISION_BLOCK)]
    u = _take(work, "u", min(DECISION_BLOCK, x.size))
    q = _take(work, "q", x.size, np.float32)
    for b in blocks:
        # scaling a block in place copies only that block of keys
        xb = np.multiply(k[b], params.theta, out=x[b])
        if omega is None:
            # uniform(0, 2*pi) returns 0 + 2*pi * next_double: these doubles
            phi = rng.random(out=u[:xb.size])
            phi *= 2.0 * math.pi
        else:
            phi = np.subtract(xb, omega[b], out=u[:xb.size])
        # P(outcome 0) of the public qubit in basis phi is cos(x)**2; its
        # float32 estimate q decides all outcomes but those near a threshold
        xb -= phi
        xb /= 2.0
        with np.errstate(over="ignore", invalid="ignore"):
            qb = np.cos(xb, dtype=np.float32, out=q[b])
        np.square(qb, out=qb)
    if omega is not None:
        # a drawn basis keeps |x| <= pi; a pinned offset may leave X_MAX
        q[~(np.abs(x) <= X_MAX)] = np.nan

    guess = _take(work, "guess", shape, bool)
    guess_flat = guess.ravel()
    diff = _take(work, "diff", u.size, np.float32)
    out_cipher = _take(work, "cipher", u.size, bool)
    for b in blocks:
        ub = rng.random(out=u[:x[b].size])
        _decide(ub, q[b], x[b], None, guess_flat[b], diff)
    for b in blocks:
        ub = rng.random(out=u[:x[b].size])
        # the cipher qubit, shifted by w*pi, has the complement where w = 1
        qb = np.subtract(flip[b], q[b], out=q[b])
        np.abs(qb, out=qb)
        cipher = _decide(ub, qb, x[b], flip[b], out_cipher[:ub.size], diff)
        # equal outcomes read as "parallel" (bit 0), unequal as "antiparallel" (bit 1)
        cipher ^= flip[b]
        guess_flat[b] ^= cipher
    flags = _xor_columns(guess[:, 1:], guess[:, 0].copy())
    return np.logical_not(flags, out=flags)


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
    work = {}  # the campaign's batch buffers (see _take)
    successes = 0
    remaining = cfg.trials
    for child in children:
        count = min(BATCH_SIZE, remaining)
        rng = np.random.Generator(np.random.Philox(child))
        successes += int(np.sum(batch_fn(cfg.params, rng, count, work=work)))
        remaining -= count
    mean = successes / cfg.trials
    std_error = math.sqrt(mean * (1.0 - mean) / cfg.trials)
    return EstimateWithError(mean, std_error, cfg.trials)
