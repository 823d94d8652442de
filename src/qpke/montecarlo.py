"""Seeded stochastic simulation of full protocol runs under each attack.

Trials are vectorized in fixed-size batches; each batch draws its generator
from a counter-based stream (Philox) spawned off the master seed, so results
are reproducible bit-for-bit and independent of batch execution order.

The projective attack's binomial measurement counts are the draws of
``Generator.binomial``, at its stream positions.  Where T <= 60 and a batch
covers the key range, they come from numpy's own sequential-search
inversion (Kachitvichyanukul & Schmeiser, CACM 31, 1988) run over terms
tabulated once per (T, n, basis); numpy itself draws them otherwise.  The
search takes one uniform per key with P("0" | k) != 0, so once the keys are
drawn the length of each basis's count fill is known, and both fills are
read block by block from Philox cursors opened at their stream offsets.
A cipher qubit is its integer cipher unit c = k XOR (w << (n-1)), as in
:func:`qpke.protocol.encrypt`, and its Born probability in the estimated
basis U = E / (2|E|) of its outcome cell, 1/2 + cos(c*theta) U_z +
sin(c*theta) U_x, is gathered from cached key and cell tables.

The symmetry test reads its keys, codeword bits and outcome uniforms
straight from Philox's raw 64-bit outputs (``random_raw``) and gets, bit
for bit, the draws numpy 2.x's ``Generator`` makes of them, at their stream
positions.  A key on a
power-of-two range is the top n bits of one 32-bit draw (of one raw output
above n = 32), since Lemire's method never rejects there (Lemire, ACM
TOMACS 29, 2019), and a codeword bit is the top bit of one byte of a 32-bit
draw; a 32-bit draw is a buffered high half or a raw output's low half.  An
outcome uniform u is (w >> 11) * 2**-53 of its raw output w.  The test
decides each outcome, u >= p for a Born probability p = cos(x)**2, from
float32 estimates of p (numpy's float32 cosine is SIMD, its float64 one
scalar libm) and of u (the high half of w), so only uniforms within
``P_MARGIN`` of p's estimate (~0.05 % per draw) are compared as doubles
with p itself, from libm, block by block (a filtered predicate, as in
Shewchuk, Discrete Comput. Geom. 18, 1997).  Every flag and every stream
position is the one a float64 comparison of numpy's draws gives.

Both attacks run in one shape: after the keys and codeword bits, one pass
over flat blocks of ``BLOCK_SIZE`` elements XORs each qubit's error into
its codeword bit, and one parity reduction over the rows gives the success
flags.  The bayes batch searches its counts in that pass and draws its Born
uniforms block by block; the symmetry test replays each block's keys and
reads its three uniform fills (basis, public outcome, cipher outcome) from
cursors.

Each batch owns its arrays.  The ones that outlive a block are plain
arrays of the function that fills them: the codeword bits (int8) and, in a
bayes batch, the keys, since its count fill lengths need every key before
the pass.  Both are drawn a chunk at a time; bayes keys are drawn as int64
and held in the smallest unsigned dtype that holds 2**n - 1.  Every other
array is a numpy temporary of one ``BLOCK_SIZE`` block or one draw chunk.
So a symmetry-test batch holds 1 B per qubit while it runs, and a bayes
batch 3 B at n <= 16, and each frees them when it returns: 28 and 85 MB
for a 65,536-trial batch at s = 432, 78 and 235 MB at s = 1195.  Beside
them it allocates at most ~0.44 MiB (symmetry test) and ~0.64 MiB (bayes)
at any codeword length (the block temporaries).  A bayes batch holds two
count arrays more, 5 B per qubit, where numpy draws its counts first, in
the same blocks and straight into the narrow count arrays: at T > 60,
where some key's count takes numpy's BTPE path (392 MB for a 65,536-trial
batch at T = 64, s = 1195), in a batch smaller than the key range, and
after a search that would redraw.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from . import bayes
from .protocol import ProtocolParams, _Record
from .symmetry import average_success_symmetry, codeword_success

ATTACKS = ("bayes-projective", "symmetry-test")

BATCH_SIZE = 1 << 16

#: elements per flat block of a batch's per-qubit stages: ~30 numpy calls
#: a symmetry-test block, which at 2**12 cost ~10 % more batch time than at
#: 2**14; 2**16 gained under 5 % and holds four times the ~40 B of
#: temporaries per block element
BLOCK_SIZE = 1 << 14

#: half-width of the band around a threshold inside which a symmetry-test
#: outcome is decided from doubles: u from its raw output and p from numpy's
#: float64 cosine (libm).  Outside it a float32 difference decides:
#: - a drawn basis keeps |x| <= pi, where cos(float32(x))**2 in float32 is
#:   within 2**-20 of the float64 cos(x)**2: rounding x to float32 moves it
#:   by <= 2**-22 and cos**2 has slope |sin 2x| <= 1, numpy's float32 cosine
#:   and the squaring add a few units of 2**-24, and 10**7 draws of x in
#:   (-pi, pi) show at most 2**-22.0;
#: - u's float32 estimate from its word's high half is within
#:   2**-32 + 2**-25 of u (:func:`_uniform_estimates`);
#: - their difference, taken in float32, adds at most 2**-25.
#: So the difference is within 2**-20 + 2**-24 + 2**-32 of u - p, and
#: 2**-12 keeps a more than 240-fold reserve and sends 2 * 2**-12, ~0.05 %,
#: of each decision's uniforms to the doubles.
P_MARGIN = 2.0 ** -12


class TrialConfig(_Record):
    """One simulation campaign: protocol parameters, attack kind, trial count, master seed."""

    __slots__ = ("params", "attack", "trials", "seed")

    def __init__(self, params: ProtocolParams, attack: str, trials: int, seed: int):
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "attack", attack)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "seed", seed)
        if self.attack not in ATTACKS:
            raise ValueError(f"attack must be one of {ATTACKS}, got {self.attack!r}")
        if self.trials < 1:
            raise ValueError(f"trial count must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.attack == "bayes-projective":
            # the attack's likelihood tables grow as 2**n; bound n before any work
            bayes._check_n(self.params.n)


class EstimateWithError(_Record):
    """Empirical success frequency with its binomial standard error."""

    __slots__ = ("mean", "std_error", "trials")

    def __init__(self, mean: float, std_error: float, trials: int):
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std_error", std_error)
        object.__setattr__(self, "trials", trials)
        if not 0.0 <= self.mean <= 1.0:
            raise ValueError(f"mean must lie in [0, 1], got {self.mean}")
        if self.std_error < 0.0:
            raise ValueError(f"standard error must be >= 0, got {self.std_error}")


def _xor_columns(bits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """XOR every column of the (rows, s) bit array ``bits`` into ``out`` (rows,), in place.

    Each batch calls it twice over all its rows: once for the codeword
    parity and once for the parity of the errors.  Over 65,536 rows, column
    by column is ~13x faster than ``np.bitwise_xor.reduce`` at s = 2 and
    ~3x at s = 16; over 4096 rows it is even at s = 432 and ~2.5x slower
    at s = 1195 (15 ms).
    """
    for j in range(bits.shape[1]):
        out ^= bits[:, j]
    return out


def _draw_keys(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """``size`` keys uniform on Z_{2**n}, flat, in the smallest unsigned dtype that holds them.

    ``integers`` draws them as int64, ``BATCH_SIZE`` at a time.  Each key is
    one ``next_uint32`` (one ``next_uint64`` above n = 32), with no rejection
    for a power-of-two range, so the chunks hold the keys of one whole draw
    and leave the stream where it would.

    They are not read from raw outputs (:func:`_keys`), as the symmetry test
    reads its keys: that gives the same keys, but it took a 2M-trial
    campaign at n = 14, s = 1 from 5.9k to 16k-20k minor page faults,
    nearly all in :func:`_bayes_flags`, and 3-19 % more CPU.  Freeing a
    512 KB int64 chunk raises glibc's mmap threshold, and that keeps the
    search's 128 KiB block temporaries on the heap; without the chunks they
    are mapped and faulted in afresh, block after block.
    """
    keys = np.empty(size, np.min_scalar_type((1 << n) - 1))
    for start in range(0, size, BATCH_SIZE):
        chunk = keys[start:start + BATCH_SIZE]
        chunk[...] = rng.integers(0, 1 << n, size=chunk.size)
    return keys


def _cursor(state: dict, skip: int) -> np.random.Philox:
    """A Philox bit generator at ``state`` (a ``bit_generator.state``) moved on by ``skip`` raw outputs.

    Philox makes its raw 64-bit outputs four per counter step (Salmon et
    al., SC'11).  The rest of the buffered step is passed over by moving
    ``buffer_pos``, whole steps by ``advance`` and a last part step by
    drawing it.  ``advance`` clears the buffered 32-bit half, which no raw
    output or double reads, so it is put back.
    """
    bitgen = np.random.Philox(key=0)  # its state is replaced
    avail = len(state["buffer"]) - state["buffer_pos"]
    if skip <= avail:
        bitgen.state = dict(state, buffer_pos=state["buffer_pos"] + skip)
        return bitgen
    bitgen.state = dict(state, buffer_pos=len(state["buffer"]))
    steps, rest = divmod(skip - avail, len(state["buffer"]))
    bitgen.advance(steps)
    bitgen.random_raw(rest)
    bitgen.state = dict(bitgen.state, has_uint32=state["has_uint32"], uinteger=state["uinteger"])
    return bitgen


def _cursors(rng: np.random.Generator, sizes: list[int]) -> list[np.random.Generator]:
    """Generators whose fills of ``sizes`` doubles are ``rng``'s next fills of those sizes, in turn.

    A double is one raw output, so the first ``sizes`` raw outputs of their
    bit generators are those fills' too.  ``rng`` moves past all of them at
    once, so the fills may be read block by block in any interleaving and
    the stream still ends where the whole fills in turn leave it.
    """
    state = rng.bit_generator.state
    starts = [0, *itertools.accumulate(sizes)]
    rng.bit_generator.state = _cursor(state, starts.pop()).state
    return [np.random.Generator(_cursor(state, start)) for start in starts]


def _uint32s(bitgen: np.random.Philox, size: int) -> np.ndarray:
    """``bitgen``'s next ``size`` 32-bit draws (numpy's ``next_uint32``), which leave it where they would.

    A draw takes the buffered high half of a raw output if there is one,
    else the low half of the next raw output and buffers its high half.  So
    the draws are a buffered half, then the uint32 view of raw outputs, low
    half first, and an odd rest leaves its last high half buffered.
    """
    state = bitgen.state
    lead = min(state["has_uint32"], size)
    rest = size - lead
    halves = bitgen.random_raw((rest + 1) // 2).astype("<u8", copy=False).view("<u4")
    if lead or halves.size:
        # numpy keeps the high half of the last raw output it drew, spent or not
        last = int(halves[-1]) if halves.size else state["uinteger"]
        bitgen.state = dict(bitgen.state, has_uint32=int(halves.size > rest), uinteger=last)
    if not lead:
        return halves[:rest]
    words = np.empty(size, np.uint32)
    words[0] = state["uinteger"]
    words[1:] = halves[:rest]
    return words


def _keys(bitgen: np.random.Philox, n: int, size: int) -> np.ndarray:
    """``bitgen``'s next ``size`` keys uniform on Z_{2**n}: ``integers(0, 2**n, size)``, as uint32 or uint64.

    numpy draws a key on a power-of-two range by Lemire's method (Lemire,
    ACM TOMACS 29, 2019), which never rejects there: the key is the top n
    bits of one ``next_uint32`` (of one raw output above n = 32).
    """
    keys = bitgen.random_raw(size) if n > 32 else _uint32s(bitgen, size)
    return np.right_shift(keys, 8 * keys.itemsize - n, out=keys)


def _bits(bitgen: np.random.Philox, size: int) -> np.ndarray:
    """``bitgen``'s next ``size`` bits: ``integers(0, 2, size, dtype=np.int8)``.

    An int8 draw takes one ``next_uint32`` per four bytes, from a fresh one
    at each call, and reads its bytes low byte first; Lemire's method makes
    each bit the top bit of its byte.
    """
    bits = _uint32s(bitgen, -(-size // 4)).astype("<u4", copy=False).view(np.uint8)
    np.right_shift(bits, 7, out=bits)
    return bits[:size].view(np.int8)


def _key_cursor(rng: np.random.Generator, n: int, size: int) -> np.random.Philox:
    """A bit generator whose keys, read block by block (:func:`_keys`), are ``rng.integers(0, 2**n, size)``; ``rng`` moves past them.

    Above n = 32 a key is one raw output, and ``rng`` skips ``size`` of
    them.  At n <= 32 a key is one ``next_uint32``: ``rng`` skips to the
    last raw output the keys read and draws its one or two keys, so it
    leaves the buffered half where the whole draw would.
    """
    state = rng.bit_generator.state
    keys = _cursor(state, 0)
    if n > 32:
        end = _cursor(state, size)
    else:
        lead = min(state["has_uint32"], size)
        rest = size - lead
        skip = max(rest - 1, 0) // 2
        end = _cursor(dict(state, has_uint32=state["has_uint32"] - lead), skip)
        _uint32s(end, rest - 2 * skip)
    rng.bit_generator.state = end.state
    return keys


def _draw_codewords(count: int, s: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform parity-matched codewords of uniform messages, as (count, s) int8 bits.

    The messages come first, then the free bits, each one
    ``integers(0, 2, dtype=np.int8)`` draw (:func:`_bits`), the free bits in
    chunks of about ``BATCH_SIZE``.  A draw starts each call on a fresh
    32-bit word, so chunks of a multiple of four rows give the bits and
    stream position of one whole draw.
    """
    bitgen = rng.bit_generator
    m = _bits(bitgen, count)
    w = np.empty((count, s), np.int8)
    if s > 1:
        rows = 4 * max(1, BATCH_SIZE // (4 * (s - 1)))
        for start in range(0, count, rows):
            chunk = w[start:start + rows, :-1]
            chunk[...] = _bits(bitgen, chunk.size).reshape(chunk.shape)
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
    # a memoryview yields Python floats, as tolist does, without a list of them
    terms[0] = np.fromiter((math.exp(T * math.log(qk)) for qk in memoryview(q)), float, q.size)
    for j in range(1, T + 1):
        terms[j] = ((T - j + 1) * p * terms[j - 1]) / (j * q)
    mean = T * p
    dtype = np.min_scalar_type(T)
    bound = np.minimum(T, mean + 10.0 * np.sqrt(mean * q + 1)).astype(dtype)
    arrays = (terms, fold.astype(dtype), p0 == 0.0, bound)
    for a in arrays:
        a.flags.writeable = False
    return (*arrays, int(bound.min()))


def _search(rng: np.random.Generator, table: tuple, keys: np.ndarray, x: np.ndarray) -> bool:
    """Fill ``x`` with the inversion-search counts of the intp key block ``keys``; False where numpy would redraw.

    numpy consumes one uniform per element with p0 > 0 (none where
    p0 == 0), so one ``rng.random`` fill feeds a vectorized search over the
    tabulated terms, which drops the finished elements once fewer than half
    go on.  Each compaction copies the elements still going: at most 64 KB
    an array, below glibc's 128 KB mmap threshold (copies from blocks of
    ``BATCH_SIZE`` were mapped and faulted in afresh, block after block).
    """
    terms, fold, zero, bound, min_bound = table
    block_keys = keys
    drawn = ~zero.take(keys)
    u = np.zeros(keys.size)
    u[drawn] = rng.random(np.count_nonzero(drawn))
    del drawn
    x.fill(0)
    # the elements still searching: flat positions (None while that is all
    # of them), keys, leftover uniforms and counts so far; a search that
    # stops leaves u <= 0, below every later term
    pos, counts = None, x
    for j in range(terms.shape[0]):
        term = terms[j].take(keys)
        step = u > term
        going = np.count_nonzero(step)
        if going == 0:
            break
        if j >= min_bound and np.any(bound.take(keys[step]) <= j):
            return False  # a count passes its bound (all do at j = T): numpy redraws
        counts += step.view(np.uint8)
        u -= term
        del term
        if 2 * going < step.size:
            sub = np.flatnonzero(step)
            if pos is None:
                pos = sub
            else:
                x[pos] = counts
                pos = pos[sub]
            keys, u, counts = keys[sub], u[sub], counts[sub]
    if pos is not None:
        x[pos] = counts
    # unfold without branches: x ^ (x ^ (T - x)) is T - x
    flip = (terms.shape[0] - 1) - x
    flip ^= x
    flip *= fold.take(block_keys)
    x ^= flip
    return True


def _binomial_counts(rng: np.random.Generator, T: int, n: int, basis: int, k: np.ndarray) -> np.ndarray:
    """``rng.binomial(T, p0[k])`` for one basis's P("0" | k) over the flat keys ``k``, drawn by numpy.

    The counts come in the smallest unsigned dtype that holds T.  They are
    drawn in blocks of ``BLOCK_SIZE`` keys, from each block's gathered p0:
    ``Generator.binomial`` takes its draws element by element from one
    stream, so the blocks give the values and leave the stream where one
    whole-batch call does.
    """
    x = np.empty(k.size, np.min_scalar_type(T))
    p0 = bayes._prob0_tables(n)[basis]
    for i in range(0, k.size, BLOCK_SIZE):
        x[i:i + BLOCK_SIZE] = rng.binomial(T, p0.take(k[i:i + BLOCK_SIZE]))
    return x


def _cipher_units(k: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """Cipher units k XOR (w << (n-1)) of key integers k and codeword bits w, as in ``encrypt``.

    The units come as intp, which ``take`` reads without a converted copy
    of its own; the keys may be int64 or any narrower integer dtype.
    """
    units = np.left_shift(w.view(np.uint8), n - 1, dtype=np.intp)
    units ^= k
    return units


def _search_draws(table: tuple, k: np.ndarray) -> int:
    """The uniforms that the inversion searches of ``table`` over the keys ``k`` take: one per key with p0 != 0."""
    zero_keys = np.flatnonzero(table[2]).tolist()
    # compared a chunk of BATCH_SIZE keys at a time (64 KB of flags)
    chunks = range(0, k.size, BATCH_SIZE)
    return k.size - sum(int(np.count_nonzero(k[i:i + BATCH_SIZE] == key)) for key in zero_keys for i in chunks)


def _bayes_batch(params: ProtocolParams, rng: np.random.Generator, count: int) -> np.ndarray:
    """Simulate ``count`` runs of the projective-measurement attack; returns success flags.

    Where the batch covers the key range and both bases are tabulated
    (:func:`_inversion_table`), the counts are searched in the Born pass.
    Every other batch, and the rerun from the state after the keys of one
    whose search would redraw, has numpy draw both bases' counts
    (:func:`_binomial_counts`): the flags and stream position are the same.
    """
    T, n = params.T, params.n
    k = _draw_keys(rng, n, count * params.s)
    tables = [_inversion_table(T, n, basis) for basis in (0, 1)] if k.size >= 1 << n else [None]
    if None not in tables:
        state = rng.bit_generator.state
        flags = _bayes_flags(params, rng, k, tables)
        if flags is not None:
            return flags
        rng.bit_generator.state = state
    return _bayes_flags(params, rng, k, None)


def _bayes_flags(params: ProtocolParams, rng: np.random.Generator, k: np.ndarray,
                 tables: list | None) -> np.ndarray | None:
    """The success flags of the bayes batch of flat keys ``k``, from ``rng`` just after them; None on a redraw.

    Without ``tables`` both bases' counts are drawn first, into two count
    arrays.  With both bases' tables, each block's counts are searched from
    two cursors at the count fills, whose lengths the keys fix (one uniform
    per key with p0 != 0), so no count array is held.
    """
    T, n, s = params.T, params.n, params.s
    cos_unit, sin_unit = bayes._key_bloch(n)
    half_z, half_x, degenerate = _estimate_tables(T, n)
    if tables is None:
        counts = [_binomial_counts(rng, T, n, basis, k) for basis in (0, 1)]
    else:
        cursors = _cursors(rng, [_search_draws(table, k) for table in tables])
    w = _draw_codewords(k.size // s, s, rng)
    # the codeword bits flip the cipher qubits, then hold each qubit's error
    errors = w.view(bool)
    flip = errors.ravel()
    # the cipher qubit, unit c, measured in the estimated basis of its
    # outcome cell; the outcome bit is the guess of w.  Nothing else draws
    # from rng from here on, so the block fills are the doubles of one
    # whole fill
    for start in range(0, k.size, BLOCK_SIZE):
        b = slice(start, start + BLOCK_SIZE)
        kb, fb = k[b], flip[b]
        if tables is None:
            t0z, t0x = (c[b] for c in counts)
        else:
            kb = kb.astype(np.intp)  # for both searches and the cipher units
            t0z, t0x = np.empty((2, kb.size), np.min_scalar_type(T))
            if not (_search(cursors[0], tables[0], kb, t0z) and _search(cursors[1], tables[1], kb, t0x)):
                return None
        cell = t0z.astype(np.intp)
        cell *= T + 1
        cell += t0x
        unit = _cipher_units(kb, fb, n)
        del t0z, t0x, kb
        p_outcome0 = cos_unit.take(unit)
        p_outcome0 *= half_z.take(cell)
        term = sin_unit.take(unit)
        term *= half_x.take(cell)
        p_outcome0 += term
        p_outcome0 += 0.5
        del term, unit
        # a vanishing Bloch estimate leaves no preferred basis: p = 1/2, and
        # the fair coin reads u < 1/2; the error is guess ^ w
        fb ^= rng.random(fb.size) >= p_outcome0
        fb ^= degenerate.take(cell)
        # freed before the next block's searches, which then reuse their memory
        del cell, p_outcome0
    flags = _xor_columns(errors[:, 1:], errors[:, 0].copy())
    return np.logical_not(flags, out=flags)


def _uniform_estimates(words: np.ndarray) -> np.ndarray:
    """float32 estimates of the uniforms (words >> 11) * 2**-53 that the raw outputs ``words`` give as doubles.

    An estimate is a word's high 32 bits h as float32, times 2**-32.  The
    double lies in [h, h + 1) * 2**-32, and rounding h to float32 moves it
    by at most 2**-25 (half a float32 unit below 1), so the estimate is
    within 2**-32 + 2**-25 of the double.
    """
    high = words.astype("<u8", copy=False).view("<u4")[1::2]
    return np.multiply(high, np.float32(2.0 ** -32), dtype=np.float32)


def _decide(words: np.ndarray, q: np.ndarray, x: np.ndarray, flip: np.ndarray | None) -> np.ndarray:
    """The flags ``u >= p`` for the doubles u of the raw outputs ``words`` and p = cos(x)**2 by numpy's float64 cosine (1 - p where ``flip``).

    All arrays are flat blocks.  ``q`` is p's float32 estimate and u's is
    read from the words' high halves (:func:`_uniform_estimates`); their
    difference, taken in float32, is within ``P_MARGIN`` of u - p.  So a
    word whose difference is at least ``P_MARGIN`` lies on the same side of
    p as of q, and for the rest u and p are formed as doubles, u as
    ``random`` forms it and p as in a full-batch float64 stage.
    """
    d = _uniform_estimates(words)
    d -= q
    flags = d >= 0.0
    np.abs(d, out=d)
    near = np.flatnonzero(~(d >= P_MARGIN))
    p = np.square(np.cos(x[near]))
    if flip is not None:
        f = flip[near]
        p[f] = 1.0 - p[f]
    flags[near] = (words[near] >> 11) * 2.0 ** -53 >= p
    return flags


def _symmetry_batch(params: ProtocolParams, rng: np.random.Generator, count: int) -> np.ndarray:
    """Simulate ``count`` runs of the pairwise symmetry test; returns success flags.

    Each pair's basis angle is drawn as phi = 2*pi*u, so the half offset
    x = (k*theta - phi) / 2 keeps |x| <= pi for every n <= 63.  The keys
    come first, then the codewords, then three whole-batch fills of
    uniforms in turn (basis, public outcome, cipher outcome).  The keys are
    replayed from a cursor at their stream offset (:func:`_key_cursor`)
    and each fill is read from its own (:func:`_cursors`), the outcome
    fills as raw outputs (:func:`_decide`), so one pass over flat blocks of
    ``BLOCK_SIZE`` elements reads each block's keys and runs every stage,
    and the batch holds only its codeword bits, 1 B per qubit.  A test pins
    the three fills by scripting the cursors.

    The basis fill is read as doubles: x needs u as a double, which
    ``random`` forms in the one pass that draws it, and a raw read holds one
    more block array while it forms u, which made a 1.9M-trial campaign at
    n = 14, s = 3 fault ~110 pages a batch (glibc trims the heap it grows).
    """
    n, s = params.n, params.s
    keys = _key_cursor(rng, n, count * s)
    w = _draw_codewords(count, s, rng)
    # the codeword bits flip the cipher qubits, then hold each qubit's error
    errors = w.view(bool)
    flip = errors.ravel()
    basis, public, cipher = _cursors(rng, [flip.size] * 3)
    public, cipher = public.bit_generator, cipher.bit_generator

    for start in range(0, flip.size, BLOCK_SIZE):
        fb = flip[start:start + BLOCK_SIZE]
        # uniform(0, 2*pi) returns 2*pi * u for a double u.  Halving is
        # exact, so k*(theta/2) - pi*u is the double (k*theta - 2*pi*u) / 2
        x = _keys(keys, n, fb.size) * (params.theta / 2.0)
        half_phi = basis.random(fb.size)
        half_phi *= math.pi
        x -= half_phi
        del half_phi
        # P(outcome 0) of the public qubit in basis phi is cos(x)**2; its
        # float32 estimate q decides all outcomes but those near a threshold
        q = np.square(np.cos(x, dtype=np.float32))
        public_bit = _decide(public.random_raw(fb.size), q, x, None)
        # the cipher qubit, shifted by w*pi, has the complement where w = 1
        np.subtract(fb, q, out=q)
        np.abs(q, out=q)
        cipher_bit = _decide(cipher.random_raw(fb.size), q, x, fb)
        # equal outcomes read as "parallel" (bit 0), unequal as
        # "antiparallel" (bit 1): the error is public ^ cipher ^ w
        fb ^= public_bit
        fb ^= cipher_bit
        # freed before the next block allocates its own, which then reuse
        # their memory; held over, they cost ~1 page fault a block
        del x, q, public_bit, cipher_bit
    flags = _xor_columns(errors[:, 1:], errors[:, 0].copy())
    return np.logical_not(flags, out=flags)


def analytic_success(cfg: TrialConfig) -> float:
    """Analytic counterpart of the empirical success frequency for this configuration."""
    if cfg.attack == "bayes-projective":
        per_bit = bayes.mean_success(cfg.params.T, cfg.params.n)
        return codeword_success(per_bit, cfg.params.s)
    return average_success_symmetry(cfg.params.s)


def estimate(cfg: TrialConfig) -> EstimateWithError:
    """Empirical success frequency over cfg.trials seeded runs, with standard error.

    Batches are seeded by spawning the master seed sequence, so identical
    (seed, config) pairs give bit-identical results.  Each batch spawns its
    child as it starts, so a campaign holds one child at any trial count.
    A batch depends on (params, its generator, count) alone and frees its
    arrays when it returns, so a campaign holds one batch's memory.
    """
    batch_fn = _bayes_batch if cfg.attack == "bayes-projective" else _symmetry_batch
    seeds = np.random.SeedSequence(cfg.seed)
    successes = 0
    for start in range(0, cfg.trials, BATCH_SIZE):
        count = min(BATCH_SIZE, cfg.trials - start)
        rng = np.random.Generator(np.random.Philox(seeds.spawn(1)[0]))
        successes += int(np.sum(batch_fn(cfg.params, rng, count)))
    mean = successes / cfg.trials
    std_error = math.sqrt(mean * (1.0 - mean) / cfg.trials)
    return EstimateWithError(mean, std_error, cfg.trials)
