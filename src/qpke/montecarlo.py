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
read block by block from readers opened at their stream offsets.
A cipher qubit is its integer cipher unit c = k XOR (w << (n-1)), as in
:func:`qpke.protocol.encrypt`, and its Born probability in the estimated
basis U = E / (2|E|) of its outcome cell, 1/2 + cos(c*theta) U_z +
sin(c*theta) U_x, is gathered from cached key and cell tables.

Both attacks read their keys and codeword bits straight from Philox's raw
64-bit outputs (``random_raw``), and the symmetry test its outcome uniforms
too, and get, bit for bit, the draws numpy 2.x's ``Generator`` makes of
them, at their stream positions.  A key on a power-of-two range is the top
n bits of one 32-bit draw (of one raw output above n = 32), since Lemire's
method never rejects there (Lemire, ACM TOMACS 29, 2019), and a codeword
bit is the top bit of one byte of a 32-bit draw; a 32-bit draw is a
buffered high half or a raw output's low half.  An outcome uniform u is
(w >> 11) * 2**-53 of its raw output w.  The test decides each outcome,
u >= p for a Born probability p = cos(x)**2, from float32 estimates of p
(numpy's float32 cosine is SIMD, its float64 one scalar libm) and of u (the
high half of w), so only uniforms within ``P_MARGIN`` of p's estimate
(~0.05 % per draw) are compared as doubles with p itself, from libm, block
by block (a filtered predicate, as in Shewchuk, Discrete Comput. Geom. 18,
1997).  Every flag and every stream position is the one a float64
comparison of numpy's draws gives.  The binomial counts and the bayes Born
uniforms stay numpy's own draws.

A batch states its stream layout in one call, :func:`_cursors`, which
opens one reader per fill at the fill's stream offset and moves the batch's
generator past them all; Philox is counter-based, so a reader can start at
any offset (Salmon et al., SC'11).  A fill is 32-bit draws (keys at
n <= 32, codeword bits) or raw outputs (doubles, keys above n = 32), and
the one thing that ties them is numpy's buffered 32-bit half: a 32-bit draw
takes a pending high half first, and a raw output or a double passes it by.
A symmetry-test batch opens its keys, messages and free bits, then its
basis, public and cipher fills; a bayes batch its keys, read whole, then
its two count fills, where it searches them, and its messages and free bits.

Both attacks run in one shape: one pass (:func:`_flags`) over blocks of
whole rows, about ``BLOCK_SIZE`` qubits each, reads a block's codeword bits
from two readers, runs the attack's block stage, which XORs each qubit's
error into its codeword bit, and takes the success flags from the rows'
parities.  The bayes stage searches its counts and draws its Born uniforms
block by block; the symmetry stage replays its block's keys and reads its
three uniform fills (basis, public outcome, cipher outcome) from readers.

Each batch owns its arrays.  The one per-qubit array that outlives a block
is a bayes batch's keys, since its count fill lengths need every key before
the pass, drawn a chunk at a time into the smallest unsigned dtype that
holds 2**n - 1: 2 B per qubit at n <= 16 (157 MB for a 65,536-trial batch
at s = 1195).  A symmetry-test batch holds none.  Beside them a batch
allocates its success flags and at most ~0.5 MiB (symmetry test) or
~0.7 MiB (bayes) of block temporaries while s <= ``BLOCK_SIZE`` / 4.  A
bayes batch holds two count arrays more, 4 B per qubit in all, where numpy
draws its counts first, in the same blocks and straight into the narrow
count arrays: at T > 60, where some key's count takes numpy's BTPE path
(313 MB at T = 64, s = 1195), in a batch smaller than the key range, and
after a search that would redraw.
"""

from __future__ import annotations

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
            # the attack's likelihood tables grow as 2**n and T; bound both before any draw
            bayes._check_n(self.params.n)
            bayes._check_T(self.params.T)


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


def _parities(bits: np.ndarray) -> np.ndarray:
    """Row parities of the (rows, s) uint8 0/1 array ``bits``: its product with ones in uint8, whose wrap at 256 keeps the low bit."""
    sums = np.einsum("ij->i", bits)
    return np.bitwise_and(sums, 1, out=sums)


def _flags(cursors: tuple[_Draws, _Draws], count: int, s: int, stage) -> np.ndarray | None:
    """The success flags of ``count`` codewords read from ``cursors`` once ``stage`` has XORed in each qubit's error; None if it stops.

    ``cursors`` are readers at ``count`` messages and at their s - 1 free
    bits each (:func:`_bit_fill`).  A block is 4 * (``BLOCK_SIZE`` // 4s)
    rows, at least four, so its reads end on whole 32-bit draws
    (:func:`_bits`) and add up to one draw of messages and one of free
    bits; a row's last bit makes its parity its message.
    ``stage(start, bits)`` XORs the errors of each block's flat bits (bool,
    ``start`` the flat position of the first) into them, or returns False
    to stop.  A trial succeeds on even error parity.
    """
    messages, free = cursors
    rows = 4 * max(1, BLOCK_SIZE // (4 * s))
    flags = np.empty(count, bool)
    for r0 in range(0, count, rows):
        m = _bits(messages, min(rows, count - r0))
        w = np.empty((m.size, s), np.uint8)
        w[:, :-1] = _bits(free, m.size * (s - 1)).reshape(m.size, s - 1)
        w[:, -1] = m  # the last bit is the parity of the free bits and the message
        w[:, -1] = _parities(w)
        if stage(r0 * s, w.view(bool).ravel()) is False:
            return None
        np.equal(_parities(w), 0, out=flags[r0:r0 + m.size])
    return flags


def _draw_keys(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """``size`` keys uniform on Z_{2**n}, flat, in the smallest unsigned dtype that holds them.

    They are ``rng.integers(0, 2**n, size)``, read from one reader
    (:func:`_cursors`, :func:`_keys`) ``BATCH_SIZE`` at a time.
    """
    keys = np.empty(size, np.min_scalar_type((1 << n) - 1))
    draws, = _cursors(rng, [_key_fill(n, size)])
    for start in range(0, size, BATCH_SIZE):
        chunk = keys[start:start + BATCH_SIZE]
        chunk[...] = _keys(draws, n, chunk.size)
    return keys


def _move(bitgen: np.random.Philox, state: dict, skip: int) -> dict:
    """The Philox ``state`` (a ``bit_generator.state``) moved on by ``skip`` raw outputs, computed on ``bitgen``.

    Philox makes its raw 64-bit outputs four per counter step (Salmon et
    al., SC'11).  The rest of the buffered step is passed over by moving
    ``buffer_pos``, whole steps by ``advance`` and a last part step by
    drawing it, so the last output passed over is in the buffer, at
    ``buffer_pos`` - 1, wherever ``skip`` > 0.  The buffered 32-bit half,
    which no raw output reads, is the one of ``state``.
    """
    avail = len(state["buffer"]) - state["buffer_pos"]
    if skip <= avail:
        return dict(state, buffer_pos=state["buffer_pos"] + skip)
    bitgen.state = dict(state, buffer_pos=len(state["buffer"]))
    steps, rest = divmod(skip - avail - 1, len(state["buffer"]))
    bitgen.advance(steps)
    bitgen.random_raw(rest + 1)
    return dict(bitgen.state, has_uint32=state["has_uint32"], uinteger=state["uinteger"])


def _cursors(rng: np.random.Generator, fills: list[tuple[int, int]]) -> list[_Draws]:
    """One reader per fill of ``fills``, at its stream offset: the fills are ``rng``'s next, in turn; ``rng`` moves past them all.

    A fill is (size, 32), ``size`` 32-bit draws (``next_uint32``), or
    (size, 64), ``size`` raw outputs (doubles, keys above n = 32).  The
    readers may be read in parts in any interleaving, and ``rng`` is left
    where the whole fills in turn leave it, its buffered 32-bit half and
    that half's value included.  A 32-bit draw takes the buffered half if
    there is one, else the low half of the next raw output and buffers its
    high half; a raw output or a double passes the buffered half by.
    """
    bitgen = rng.bit_generator
    state = bitgen.state
    readers = []
    for size, bits in fills:
        readers.append(_Draws(state))
        lead = min(state["has_uint32"], size) if bits == 32 else 0
        raws = size if bits == 64 else -(-(size - lead) // 2)
        state = dict(_move(bitgen, state, raws), has_uint32=state["has_uint32"] - lead)
        if bits == 32 and raws:
            # numpy keeps the high half of the last raw output drawn, spent or not
            state.update(has_uint32=(size - lead) % 2, uinteger=int(state["buffer"][state["buffer_pos"] - 1]) >> 32)
    bitgen.state = state
    return readers


def _key_fill(n: int, size: int) -> tuple[int, int]:
    """The fill of ``size`` keys on Z_{2**n} (:func:`_keys`): one 32-bit draw a key, one raw output above n = 32."""
    return size, 32 if n <= 32 else 64


def _bit_fill(size: int) -> tuple[int, int]:
    """The fill of ``size`` codeword bits (:func:`_bits`): one 32-bit draw per four."""
    return -(-size // 4), 32


class _Draws:
    """A reader at the Philox ``state``: numpy's 32-bit draws by calling it, doubles by ``random``, raw outputs by ``bitgen.random_raw``.

    A 32-bit draw (``next_uint32``) takes the buffered high half of a raw
    output if there is one, else the low half of the next one and buffers
    its high half, which the reader keeps itself, not in ``bitgen.state``.
    """

    def __init__(self, state: dict):
        self.bitgen = np.random.Philox(key=0)  # its state is replaced
        self.bitgen.state = state
        self.half = np.full(state["has_uint32"], state["uinteger"], np.uint32)
        self.random = np.random.Generator(self.bitgen).random

    def __call__(self, size: int) -> np.ndarray:
        if size == 0:
            return self.half[:0]
        rest = size - self.half.size
        halves = self.bitgen.random_raw((rest + 1) // 2).astype("<u8", copy=False).view("<u4")
        words = np.concatenate([self.half, halves[:rest]]) if self.half.size else halves[:rest]
        self.half = halves[rest:].copy()
        return words


def _keys(draws: _Draws, n: int, size: int) -> np.ndarray:
    """The next ``size`` keys uniform on Z_{2**n} of ``draws``: ``integers(0, 2**n, size)``, as uint32 or uint64.

    numpy draws a key on a power-of-two range by Lemire's method (Lemire,
    ACM TOMACS 29, 2019), which never rejects there: the key is the top n
    bits of one ``next_uint32`` (of one raw output above n = 32).
    """
    keys = draws.bitgen.random_raw(size) if n > 32 else draws(size)
    return np.right_shift(keys, 8 * keys.itemsize - n, out=keys)


def _bits(draws: _Draws, size: int) -> np.ndarray:
    """The next ``size`` bits of ``draws``: ``integers(0, 2, size, dtype=np.int8)``.

    An int8 draw takes one ``next_uint32`` per four bytes, from a fresh one
    at each call, and reads its bytes low byte first; Lemire's method makes
    each bit the top bit of its byte.
    """
    bits = draws(-(-size // 4)).astype("<u4", copy=False).view(np.uint8)
    np.right_shift(bits, 7, out=bits)
    return bits[:size].view(np.int8)


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


def _search(rng: np.random.Generator | _Draws, table: tuple, keys: np.ndarray, x: np.ndarray) -> bool:
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
    arrays.  With both bases' tables, the block stage of :func:`_flags`
    searches its block's counts from two readers at the count fills (doubles),
    whose lengths the keys fix (one uniform per key with p0 != 0), so no
    count array is held; a search that would redraw stops the pass.  The
    codeword fills follow.
    """
    T, n, s = params.T, params.n, params.s
    count = k.size // s
    cos_unit, sin_unit = bayes._key_bloch(n)
    half_z, half_x, degenerate = _estimate_tables(T, n)
    if tables is None:
        counts = [_binomial_counts(rng, T, n, basis, k) for basis in (0, 1)]
    fills = [(_search_draws(table, k), 64) for table in tables or []]
    *searches, messages, free = _cursors(rng, [*fills, _bit_fill(count), _bit_fill(count * (s - 1))])

    # the cipher qubit, unit c, measured in the estimated basis of its
    # outcome cell; the outcome bit is the guess of w.  Nothing else draws
    # from rng from here on, so the block fills are the doubles of one
    # whole fill
    def stage(start: int, bits: np.ndarray) -> bool | None:
        b = slice(start, start + bits.size)
        kb = k[b]
        if tables is None:
            t0z, t0x = (c[b] for c in counts)
        else:
            kb = kb.astype(np.intp)  # for both searches and the cipher units
            t0z, t0x = np.empty((2, kb.size), np.min_scalar_type(T))
            if not (_search(searches[0], tables[0], kb, t0z) and _search(searches[1], tables[1], kb, t0x)):
                return False
        cell = t0z.astype(np.intp)
        cell *= T + 1
        cell += t0x
        unit = _cipher_units(kb, bits, n)
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
        bits ^= rng.random(bits.size) >= p_outcome0
        bits ^= degenerate.take(cell)

    return _flags((messages, free), count, s, stage)


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
    come first, then the messages and free bits, then three whole-batch
    fills of uniforms in turn (basis, public outcome, cipher outcome).
    Each is read block by block from a reader at its stream offset
    (:func:`_cursors`), the outcome fills as raw outputs (:func:`_decide`),
    so the batch holds no per-qubit array.  A test pins the three uniform
    fills by scripting the readers of the 64-bit fills.

    The basis fill is read as doubles: x needs u as a double, which
    ``random`` forms in the one pass that draws it, and a raw read holds one
    more block array while it forms u, which made a 1.9M-trial campaign at
    n = 14, s = 3 fault ~110 pages a batch (glibc trims the heap it grows).
    """
    n, s = params.n, params.s
    keys, messages, free, basis, public, cipher = _cursors(
        rng, [_key_fill(n, count * s), _bit_fill(count), _bit_fill(count * (s - 1)), *[(count * s, 64)] * 3])

    def stage(start: int, bits: np.ndarray) -> None:
        # uniform(0, 2*pi) returns 2*pi * u for a double u.  Halving is
        # exact, so k*(theta/2) - pi*u is the double (k*theta - 2*pi*u) / 2
        x = _keys(keys, n, bits.size) * (params.theta / 2.0)
        half_phi = basis.random(bits.size)
        half_phi *= math.pi
        x -= half_phi
        del half_phi
        # P(outcome 0) of the public qubit in basis phi is cos(x)**2; its
        # float32 estimate q decides all outcomes but those near a threshold
        q = np.square(np.cos(x, dtype=np.float32))
        public_bit = _decide(public.bitgen.random_raw(bits.size), q, x, None)
        # the cipher qubit, shifted by w*pi, has the complement where w = 1
        np.subtract(bits, q, out=q)
        np.abs(q, out=q)
        cipher_bit = _decide(cipher.bitgen.random_raw(bits.size), q, x, bits)
        # equal outcomes read as "parallel" (bit 0), unequal as
        # "antiparallel" (bit 1): the error is public ^ cipher ^ w
        bits ^= public_bit
        bits ^= cipher_bit

    return _flags((messages, free), count, s, stage)


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
