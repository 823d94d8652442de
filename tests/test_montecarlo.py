"""Seeded Monte Carlo simulation: reproducibility and agreement with the analytic values."""

import contextlib
import math
import tracemalloc
from random import Random
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings, strategies as st

from oracles import bayes_batch_direct, symmetry_batch_direct
from qpke import bayes, montecarlo
from qpke.bayes import mean_success
from qpke.montecarlo import (
    EstimateWithError,
    TrialConfig,
    analytic_success,
    estimate,
)
from qpke.protocol import Codeword, PrivateKey, ProtocolParams, encrypt
from qpke.symmetry import average_success_symmetry, codeword_success


def make_cfg(attack, n=10, T=4, s=1, trials=1000, seed=0):
    params = ProtocolParams(n=n, N=max(s, 1), T=T, s=s)
    return TrialConfig(params=params, attack=attack, trials=trials, seed=seed)


def test_trial_config_validation():
    params = ProtocolParams(n=2, N=1, T=1, s=1)
    with pytest.raises(ValueError):
        TrialConfig(params, "unknown-attack", 10, 0)
    with pytest.raises(ValueError):
        TrialConfig(params, "symmetry-test", 0, 0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        TrialConfig(params, "symmetry-test", 10, -1)
    large = ProtocolParams(n=bayes.MAX_N + 1, N=1, T=1, s=1)
    with pytest.raises(ValueError):
        TrialConfig(large, "bayes-projective", 10, 0)
    # the symmetry-test attack builds no 2**n tables and keeps its range
    TrialConfig(large, "symmetry-test", 10, 0)


def test_trial_config_bounds_T_before_any_draw():
    # T past the exact grid cap is rejected as the campaign is set up, not
    # after a batch has drawn its keys; n is checked first
    params = ProtocolParams(n=10, N=1000, T=8192, s=1000)
    with pytest.raises(ValueError, match="^T must be <= 8191, got 8192$"):
        TrialConfig(params, "bayes-projective", 65536, 0)
    with pytest.raises(ValueError, match="resolution exponent"):
        TrialConfig(ProtocolParams(n=bayes.MAX_N + 1, N=1, T=8192, s=1), "bayes-projective", 10, 0)
    TrialConfig(params, "symmetry-test", 65536, 0)


def test_estimate_with_error_validation():
    with pytest.raises(ValueError):
        EstimateWithError(1.5, 0.0, 10)
    with pytest.raises(ValueError):
        EstimateWithError(0.5, -1.0, 10)


def test_symmetry_trial_certain_with_aligned_bases():
    # basis uniforms k / 2**n put every basis on its key's state: x = 0
    # exactly, so both outcomes are certain (quarter_turn_uniforms)
    params = ProtocolParams(n=4, N=3, T=1, s=3)
    count, seed = 2000, 3
    rng = ScriptedGenerator(seed, quarter_turn_uniforms(params, seed, count, 0))
    with scripted_cursors():
        assert montecarlo._symmetry_batch(params, rng, count).all()
    assert rng.consumed()


def test_estimate_reproducible():
    cfg = make_cfg("symmetry-test", T=1, s=2, trials=30_000, seed=321)
    first = estimate(cfg)
    second = estimate(cfg)
    assert first == second
    assert first.trials == 30_000
    assert first.std_error == pytest.approx(
        math.sqrt(first.mean * (1.0 - first.mean) / first.trials), abs=1e-15
    )


def test_estimate_spans_multiple_batches():
    trials = montecarlo.BATCH_SIZE + 17
    cfg = make_cfg("symmetry-test", T=1, s=1, trials=trials, seed=5)
    result = estimate(cfg)
    assert result.trials == trials
    assert abs(result.mean - 0.75) < 4 * result.std_error


def test_estimate_spawns_each_seed_child_as_its_batch_starts():
    # a stubbed 5,000-batch campaign holds one seed child at a time (5,000
    # children spawned up front take ~2.7 MB), and the batches get the
    # children of one whole spawn, in turn
    cfg = make_cfg("symmetry-test", trials=5000 * montecarlo.BATCH_SIZE, seed=3)
    firsts = []

    def batch(params, rng, count):
        if len(firsts) < 3:
            firsts.append(rng.random())
        return np.ones(1, dtype=bool)

    with mock.patch.object(montecarlo, "_symmetry_batch", batch):
        tracemalloc.start()
        try:
            estimate(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1 << 20
    assert firsts == [philox(child).random() for child in np.random.SeedSequence(3).spawn(3)]


def test_symmetry_estimate_matches_analytic():
    for s in (1, 3):
        cfg = make_cfg("symmetry-test", T=1, s=s, trials=300_000, seed=42)
        result = estimate(cfg)
        assert abs(result.mean - average_success_symmetry(s)) < 3 * result.std_error


def test_bayes_estimate_matches_analytic():
    cfg = make_cfg("bayes-projective", n=6, T=2, s=2, trials=50_000, seed=42)
    result = estimate(cfg)
    expected = codeword_success(mean_success(2, 6), 2)
    assert analytic_success(cfg) == pytest.approx(expected, abs=1e-15)
    assert abs(result.mean - expected) < 3 * result.std_error


def test_bayes_estimate_certain_at_minimal_resolution():
    cfg = make_cfg("bayes-projective", n=1, T=1, s=1, trials=5_000, seed=1)
    assert estimate(cfg).mean == 1.0


def test_disjoint_seeds_agree_statistically():
    cfg_a = make_cfg("symmetry-test", T=1, s=1, trials=100_000, seed=101)
    cfg_b = make_cfg("symmetry-test", T=1, s=1, trials=100_000, seed=202)
    res_a, res_b = estimate(cfg_a), estimate(cfg_b)
    combined = math.hypot(res_a.std_error, res_b.std_error)
    assert abs(res_a.mean - res_b.mean) < 6 * combined


def test_more_trials_shrink_standard_error():
    small = estimate(make_cfg("symmetry-test", T=1, s=1, trials=20_000, seed=9))
    large = estimate(make_cfg("symmetry-test", T=1, s=1, trials=80_000, seed=9))
    ratio = large.std_error / small.std_error
    assert 0.4 < ratio < 0.6  # fourfold trials halve the error

def test_success_never_below_chance():
    for attack, kwargs in (
        ("symmetry-test", dict(T=1, s=4)),
        ("bayes-projective", dict(n=8, T=2, s=3)),
    ):
        cfg = make_cfg(attack, trials=50_000, seed=7, **kwargs)
        result = estimate(cfg)
        assert result.mean > 0.5 - 3 * result.std_error


def test_analytic_success_dispatch():
    assert analytic_success(make_cfg("symmetry-test", s=2)) == average_success_symmetry(2)
    cfg = make_cfg("bayes-projective", n=6, T=2, s=1)
    assert analytic_success(cfg) == pytest.approx(mean_success(2, 6), abs=1e-15)


def philox(seed):
    return np.random.Generator(np.random.Philox(seed))


def read_codewords(rng, count, s):
    """The (count, s) codeword bits that a batch's pass reads from ``rng``, block by block, as int8.

    The stage records each block's bits and XORs in no error, so every
    flag must be the row's even parity, as ``np.bitwise_xor.reduce`` finds it.
    """
    blocks = []

    def stage(start, bits):
        assert start == sum(block.size for block in blocks)
        blocks.append(bits.view(np.int8).copy())

    cursors = montecarlo._cursors(rng, [montecarlo._bit_fill(count), montecarlo._bit_fill(count * (s - 1))])
    flags = montecarlo._flags(cursors, count, s, stage)
    w = np.concatenate([np.empty(0, np.int8), *blocks]).reshape(count, s)
    assert np.array_equal(flags, np.bitwise_xor.reduce(w, axis=1) == 0)
    return w


def block_rows(s):
    """Rows in one block of the pass at codeword length s."""
    return 4 * max(1, montecarlo.BLOCK_SIZE // (4 * s))


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_draw_codewords_law(s):
    # the message is drawn first and is each row's parity, the free bits are
    # the next draw, and a uniform message makes all 2**s strings uniform:
    # chi-square on 10^5 rows below its quantile at the two-sided 3-sigma
    # tail (at dof 1 that is z**2 < 9; dof + 3*sqrt(2*dof) is a 2.3-sigma
    # bound there), on a frozen seed
    rows = 100_000
    w = read_codewords(philox(2024), rows, s)
    replay = philox(2024)
    message = replay.integers(0, 2, size=rows, dtype=np.int8)
    assert np.array_equal(np.bitwise_xor.reduce(w, axis=1), message)
    assert np.array_equal(w[:, :-1], replay.integers(0, 2, size=(rows, s - 1), dtype=np.int8))
    counts = np.bincount(w.astype(np.intp) @ (1 << np.arange(s)), minlength=1 << s)
    expected = rows / (1 << s)
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < scipy.stats.chi2.isf(math.erfc(3 / math.sqrt(2)), (1 << s) - 1)


@pytest.mark.parametrize("s", [2, 5, 1195])
def test_chunked_codewords_match_one_draw(s):
    # two blocks of rows and one row more: the bits and the stream position
    # (the buffered 32-bit half included) of one whole draw
    count = 2 * block_rows(s) + 1
    fast, direct = philox(s), philox(s)
    w = read_codewords(fast, count, s)
    message = direct.integers(0, 2, size=count, dtype=np.int8)
    assert np.array_equal(w[:, :-1], direct.integers(0, 2, size=(count, s - 1), dtype=np.int8))
    assert np.array_equal(np.bitwise_xor.reduce(w, axis=1), message)
    assert fast.integers(0, 1 << 32, dtype=np.uint32) == direct.integers(0, 1 << 32, dtype=np.uint32)
    assert fast.random() == direct.random()


# codeword lengths at the edges of the bit reads: one bit, whole and part
# 32-bit draws, the paper's s = 1195 and one past BLOCK_SIZE / 4, where a
# block is four rows of more than BLOCK_SIZE bits
READER_LENGTHS = [1, 2, 3, 5, 16, 1195, montecarlo.BLOCK_SIZE // 4 + 1]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(READER_LENGTHS), st.integers(0, 3), st.integers(0, 2), st.integers(0, 2**32 - 1),
       st.sampled_from(["none", "bayes counts", "symmetry keys"]), st.booleans())
@example(1195, 3, 2, 1, "symmetry keys", True)  # two blocks of 12 rows and three rows more
@example(montecarlo.BLOCK_SIZE // 4 + 1, 1, 1, 2, "bayes counts", True)  # a block of four long rows, and one row
def test_codeword_reader_matches_one_draw(s, rest, blocks, seed, before, buffered):
    # read block by block, the codewords are one whole message draw and one
    # whole free-bit draw, and the generator moves to where they leave it
    # (the buffered 32-bit half included), for count = 0-3 mod 4 over whole
    # and part blocks, after the draws a batch makes before its codewords:
    # a bayes batch's count fills (doubles, which leave a buffered half
    # where it was) or a symmetry test's keys (32-bit draws), with or
    # without a buffered half at entry
    count = 4 * (block_rows(s) // 4) * blocks + rest or 4
    fast, direct = philox(seed), philox(seed)
    for rng in (fast, direct):
        if buffered:
            rng.integers(0, 1 << 32, dtype=np.uint32)
    if before == "bayes counts":
        montecarlo._cursors(fast, [(seed % 7, 64), (3, 64)])
        direct.random(seed % 7 + 3)
    elif before == "symmetry keys":
        montecarlo._cursors(fast, [montecarlo._key_fill(13, seed % 7)])
        direct.integers(0, 1 << 13, seed % 7)
    w = read_codewords(fast, count, s)
    message = direct.integers(0, 2, size=count, dtype=np.int8)
    assert np.array_equal(w[:, :-1], direct.integers(0, 2, size=(count, s - 1), dtype=np.int8))
    assert np.array_equal(np.bitwise_xor.reduce(w, axis=1), message)
    assert comparable(fast.bit_generator.state) == comparable(direct.bit_generator.state)
    assert np.array_equal(fast.integers(0, 2, size=5, dtype=np.int8), direct.integers(0, 2, size=5, dtype=np.int8))
    assert fast.random() == direct.random()


@pytest.mark.parametrize("s", READER_LENGTHS + [256, 257, 4096])
def test_parities_match_xor_reduce(s):
    # uint8 row sums wrap at 256 and keep their parity: all-ones rows of
    # 255, 256 and 257 bits among them, and random rows
    rows = block_rows(s)
    bits = np.random.default_rng(s).integers(0, 2, size=(rows, s), dtype=np.uint8)
    bits[:3] = 1
    bits[0, 255:] = 0
    bits[1, 256:] = 0
    assert np.array_equal(montecarlo._parities(bits), np.bitwise_xor.reduce(bits, axis=1))


@pytest.mark.parametrize("T", [61, 64, 4000])
def test_chunked_binomial_fallback_matches_one_draw(T):
    # past T = 60 some key takes numpy's BTPE path, so both bases draw with
    # numpy's own binomial in BLOCK_SIZE blocks of narrow keys, two and a
    # short third: the counts and the stream position of one whole draw
    n = 13
    keys = np.random.default_rng(T).integers(0, 1 << n, size=2 * montecarlo.BLOCK_SIZE + 5).astype(np.uint16)
    fast, direct = philox(T), philox(T)
    for basis in (0, 1):
        assert montecarlo._inversion_table(T, n, basis) is None
        counts = montecarlo._binomial_counts(fast, T, n, basis, keys)
        assert counts.dtype == np.min_scalar_type(T)
        assert np.array_equal(counts, direct.binomial(T, bayes._prob0_tables(n)[basis][keys]))
    assert fast.integers(0, 1 << 32, dtype=np.uint32) == direct.integers(0, 1 << 32, dtype=np.uint32)
    assert fast.random() == direct.random()


@pytest.mark.parametrize("n", [1, 8, 9, 16, 17, 32, 33, 63])
def test_chunked_narrow_keys_match_one_int64_draw(n):
    # chunks of BATCH_SIZE int64 keys, the last one short, held flat in the
    # smallest unsigned dtype: the keys and the stream position (the
    # buffered 32-bit half included) of one whole draw of a batch's shape
    shape = (montecarlo.BATCH_SIZE // 3 + 5, 7)
    fast, direct = philox(n), philox(n)
    keys = montecarlo._draw_keys(fast, n, shape[0] * shape[1])
    assert keys.dtype == np.min_scalar_type((1 << n) - 1)
    assert np.array_equal(keys, direct.integers(0, 1 << n, size=shape).ravel())
    assert fast.integers(0, 1 << 32, dtype=np.uint32) == direct.integers(0, 1 << 32, dtype=np.uint32)
    assert fast.random() == direct.random()


def comparable(state):
    """A Philox ``bit_generator.state`` as a tuple, without the buffer's spent outputs, which no draw reads.

    ``advance`` zeroes them, so a cursor moved by ``advance`` and a generator
    that drew its way to the same counter differ only there.
    """
    return (state["state"]["counter"].tolist(), state["state"]["key"].tolist(), state["buffer_pos"],
            state["buffer"][state["buffer_pos"]:].tolist(), state["has_uint32"], state["uinteger"])


def read_in_parts(readers, fills, random):
    """The draws of each fill from its reader, read in parts of random lengths, the parts of all fills in a random interleaving.

    A 32-bit fill is read by calling its reader, a 64-bit fill as doubles
    (``random``) or as raw outputs (``bitgen.random_raw``), part by part.
    """
    parts = []
    for size, _ in fills:
        cuts = sorted(random.sample(range(size + 1), min(3, size + 1)))
        parts.append([b - a for a, b in zip([0, *cuts], [*cuts, size])])
    turns = [i for i, lengths in enumerate(parts) for _ in lengths]
    random.shuffle(turns)
    read = [[] for _ in fills]
    for i in turns:
        size, reader = parts[i].pop(0), readers[i]
        if fills[i][1] == 32:
            read[i].append(reader(size))
        elif random.random() < 0.5:
            read[i].append(reader.random(size))
        else:
            read[i].append((reader.bitgen.random_raw(size) >> 11) * 2.0 ** -53)
    return [np.concatenate(r) for r in read]


def replay_fills(fast, direct, fills, random):
    """Assert that the readers ``_cursors`` opens on ``fast`` give ``fills`` as ``direct`` draws them in turn.

    The readers are read in parts in a random interleaving
    (:func:`read_in_parts`); ``direct`` draws each fill whole, 32-bit fills
    by ``Generator.integers`` of uint32, 64-bit ones by ``random``. Then the
    two generators have the same state (the buffered 32-bit half and its
    value included) and the same next draws.
    """
    readers = montecarlo._cursors(fast, fills)
    expected = [direct.integers(0, 1 << 32, size, dtype=np.uint32) if bits == 32 else direct.random(size)
                for size, bits in fills]
    for got, want in zip(read_in_parts(readers, fills, random), expected, strict=True):
        assert np.array_equal(got, want)
    assert comparable(fast.bit_generator.state) == comparable(direct.bit_generator.state)
    assert np.array_equal(fast.integers(0, 2, size=5, dtype=np.int8), direct.integers(0, 2, size=5, dtype=np.int8))
    assert fast.integers(0, 1 << 32, dtype=np.uint32) == direct.integers(0, 1 << 32, dtype=np.uint32)
    assert np.array_equal(fast.random(3), direct.random(3))


def at_buffer_position(seed, buffer_pos, buffered):
    """Two Philox generators in one state: at ``buffer_pos`` in a counter step, with or without a buffered 32-bit half."""
    bitgen = np.random.Philox(seed)
    bitgen.random_raw(1 + seed % 4)  # a counter step in the buffer
    state = dict(bitgen.state, buffer_pos=buffer_pos, has_uint32=int(buffered), uinteger=seed)
    fast, direct = philox(0), philox(0)
    fast.bit_generator.state = direct.bit_generator.state = state
    return fast, direct


# fill lengths at the edges of a buffered half and of a counter step (four
# raw outputs), and up to three flat blocks
FILLS = st.lists(st.tuples(st.one_of(st.integers(0, 9), st.integers(10, 3 * montecarlo.BLOCK_SIZE)),
                           st.sampled_from([32, 64])), max_size=6)


@settings(max_examples=150, deadline=None)
@given(FILLS, st.integers(0, 2**32 - 1), st.integers(0, 4), st.booleans(), st.randoms(use_true_random=False))
@example([(1, 32)], 1, 1, True, Random(0))  # the buffered half is the only draw
@example([(2, 32)], 2, 2, True, Random(0))  # then one low half, whose high half is buffered
@example([(2, 32)], 2, 3, False, Random(0))  # two low halves' worth: the second leaves its high half buffered
@example([(montecarlo.BLOCK_SIZE + 1, 64)], 3, 0, True, Random(0))  # raw outputs leave the half buffered
# a bayes batch: odd keys leave a half buffered, the count fills pass it
# by, and the messages take it
@example([(3, 32), (5, 64), (2, 64), (1, 32), (3, 32)], 7, 2, False, Random(0))
def test_cursors_replay_consecutive_fills(fills, seed, buffer_pos, buffered, random):
    # from a Philox state at any buffer position, with or without a
    # buffered 32-bit half at entry, the readers of any sequence of 32- and
    # 64-bit fills, read in parts in any interleaving, give those fills in
    # turn, and the generator moves to where the fills leave it
    replay_fills(*at_buffer_position(seed, buffer_pos, buffered), fills, random)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 4), st.booleans(),
       st.one_of(st.sampled_from([0, 1, 3, 4, 5]), st.integers(6, 100_000)))
def test_cursor_matches_sequential_fill(seed, buffer_pos, has_uint32, skip):
    # a Philox state at any buffer position, with or without a buffered
    # 32-bit half, moved on by a fill of skip doubles gives the doubles and
    # the 32-bit draws that follow a fill of skip doubles
    fills = [(skip, 64), (9, 64), (1, 32), (1, 64)]
    replay_fills(*at_buffer_position(seed, buffer_pos, has_uint32), fills, Random(seed))


@pytest.mark.parametrize("size", [1, 3, 4, 5, 1000])
def test_cursors_read_consecutive_fills(size):
    # three double fills, of equal and of unequal sizes, after three 32-bit
    # draws, read in any order, are three whole fills in turn, and the
    # generator itself moves past all three (the buffered 32-bit half
    # included)
    for sizes in ([size] * 3, [size, size + 5, 2 * size]):
        fast, direct = philox(size), philox(size)
        fast.integers(0, 1 << 32, size=3, dtype=np.uint32)
        direct.integers(0, 1 << 32, size=3, dtype=np.uint32)
        replay_fills(fast, direct, [(n, 64) for n in sizes], Random(size))


KEY_BLOCK_EDGES = [m * montecarlo.BLOCK_SIZE + d for m in (1, 2, 3) for d in (-1, 0, 1)]


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 63), st.integers(0, 2**32 - 1), st.booleans(),
       st.one_of(st.sampled_from([0, 1, *KEY_BLOCK_EDGES]),
                 st.integers(0, 3 * montecarlo.BLOCK_SIZE // 2).map(lambda half: 2 * half + 1),
                 st.integers(0, 3 * montecarlo.BLOCK_SIZE)))
@example(32, 1, True, 1)  # the buffered half is the only key
@example(32, 2, True, 2)  # then one low half, whose high half is buffered
@example(33, 3, True, montecarlo.BLOCK_SIZE + 1)  # 64-bit keys leave the half buffered
def test_key_cursor_replays_one_key_draw(n, seed, buffered, size):
    # keys drawn block by block from the reader of one key fill are one
    # whole draw of size keys, and the generator moves to where that draw
    # leaves it, with or without a buffered 32-bit half at entry, at any
    # position in a counter step: its state (the buffered half and its
    # value included) and its next codeword bits and doubles
    fast, direct = philox(seed), philox(seed)
    for rng in (fast, direct):
        rng.random(seed % 4)
        if buffered:
            rng.integers(0, 1 << 32, dtype=np.uint32)
    keys, = montecarlo._cursors(fast, [montecarlo._key_fill(n, size)])
    drawn = [montecarlo._keys(keys, n, min(montecarlo.BLOCK_SIZE, size - start))
             for start in range(0, size, montecarlo.BLOCK_SIZE)]
    assert np.array_equal(np.concatenate([np.empty(0, np.int64), *drawn]), direct.integers(0, 1 << n, size))
    assert comparable(fast.bit_generator.state) == comparable(direct.bit_generator.state)
    assert np.array_equal(fast.integers(0, 2, size=5, dtype=np.int8), direct.integers(0, 2, size=5, dtype=np.int8))
    assert np.array_equal(fast.random(3), direct.random(3))


READER_SIZES = [0, 1, montecarlo.BLOCK_SIZE - 1, montecarlo.BLOCK_SIZE, montecarlo.BLOCK_SIZE + 1]


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 63), st.integers(0, 2**32 - 1), st.booleans(),
       st.one_of(st.sampled_from(READER_SIZES),
                 st.integers(0, montecarlo.BLOCK_SIZE).map(lambda half: 2 * half + 1),
                 st.integers(0, 2 * montecarlo.BLOCK_SIZE)))
@example(32, 1, True, 1)  # the buffered half is the only key, and the only word of the bits
@example(1, 2, False, 5)  # five bits: two words, the second leaves its high half buffered
@example(63, 3, True, montecarlo.BLOCK_SIZE + 1)  # raw-output keys leave the half buffered
def test_raw_readers_match_generator_integers(n, seed, buffered, size):
    # the key reader and the bit reader, each opened on its fill, give what
    # Generator.integers gives, with or without a buffered 32-bit half at
    # entry, at any position in a counter step, and the fill moves the
    # generator to where Generator.integers leaves it: its state (the
    # buffered half and its value included) and its next draws
    for read, fill, draw in ((lambda draws: montecarlo._keys(draws, n, size), montecarlo._key_fill(n, size),
                              lambda rng: rng.integers(0, 1 << n, size)),
                             (lambda draws: montecarlo._bits(draws, size), montecarlo._bit_fill(size),
                              lambda rng: rng.integers(0, 2, size, dtype=np.int8))):
        fast, direct = philox(seed), philox(seed)
        for rng in (fast, direct):
            rng.random(seed % 4)
            if buffered:
                rng.integers(0, 1 << 32, dtype=np.uint32)
        draws, = montecarlo._cursors(fast, [fill])
        assert np.array_equal(read(draws), draw(direct))
        assert comparable(fast.bit_generator.state) == comparable(direct.bit_generator.state)
        assert np.array_equal(fast.integers(0, 2, size=5, dtype=np.int8), direct.integers(0, 2, size=5, dtype=np.int8))
        assert np.array_equal(fast.integers(0, 1 << n, size=3), direct.integers(0, 1 << n, size=3))
        assert np.array_equal(fast.random(3), direct.random(3))


class NoIntegers(np.random.Generator):
    """A Philox generator whose ``integers`` raises."""

    def integers(self, *args, **kwargs):
        raise AssertionError("a batch called Generator.integers")


@pytest.mark.parametrize("attack", montecarlo.ATTACKS)
@pytest.mark.parametrize("n, T, s, count", [
    (8, 4, 5, 8_001),  # an odd count of one-byte keys, counts searched
    (14, 4, 5, 3_277),  # an odd count of two-byte keys over two flat blocks
    (10, 64, 3, 401),  # numpy draws the counts
    (12, 4, 1, 100),  # a batch below the key range
])
def test_batches_read_keys_and_bits_from_raw_outputs(attack, n, T, s, count):
    # both attacks take their keys and codeword bits from the one raw-output
    # reader, never from Generator.integers: the flags and the final state
    # (the buffered 32-bit half included) of a plain generator
    params = ProtocolParams(n=n, N=s, T=T, s=s)
    batch = montecarlo._bayes_batch if attack == "bayes-projective" else montecarlo._symmetry_batch
    raw, plain = NoIntegers(np.random.Philox(count)), philox(count)
    assert np.array_equal(batch(params, raw, count), batch(params, plain, count))
    assert comparable(raw.bit_generator.state) == comparable(plain.bit_generator.state)


# T values past 60 reach numpy's BTPE sampler for some keys
binomial_T = st.one_of(st.integers(1, 16), st.sampled_from([61, 64, 70, 200]))


@st.composite
def batch_shapes(draw):
    """(n, T, s, count) with count*s either below the key range or at/above it."""
    n = draw(st.integers(1, 14))
    s = draw(st.integers(1, 16))
    full = -(-(1 << n) // s)  # smallest count with count*s >= 2**n
    if full > 1 and draw(st.booleans()):
        count = draw(st.integers(1, full - 1))
    else:
        count = draw(st.integers(full, full + 64))
    return n, draw(binomial_T), s, count


@settings(max_examples=60, deadline=None)
@given(batch_shapes(), st.integers(0, 2**32 - 1))
@example((6, 2, 4, 400), 1)  # 3 % of the T = 2 outcome pairs take the fair coin
# at n = 1 only the z basis is tabulated, so numpy draws both bases' counts
@example((1, 200, 3, 40), 2)
@example((1, 61, 3, 2 * montecarlo.BLOCK_SIZE // 3 + 5), 12)  # over three blocks
# the oracle draws its Born uniforms in one whole-batch fill: count * s one
# below, at and one past a flat block, and past three with a short last
# block, with blocks that end mid-row where s does not divide BLOCK_SIZE
@example((10, 4, 3, (montecarlo.BLOCK_SIZE - 1) // 3), 3)
@example((12, 8, 16, montecarlo.BLOCK_SIZE // 16), 4)
@example((7, 3, 5, (montecarlo.BLOCK_SIZE + 1) // 5), 5)
@example((13, 4, 10, 3 * montecarlo.BLOCK_SIZE // 10 + 1), 6)
# the codeword length the paper asks for at T = 64 and epsilon = 2**-10,
# over two blocks, at a T whose counts are tabulated
@example((12, 16, 1195, 14), 7)
# count * s one below and at the key range, where the counts are first
# searched (at n <= 14 that is at most one block)
@example((14, 4, 3, ((1 << 14) - 1) // 3), 8)
@example((14, 4, 16, (1 << 14) // 16), 9)
# the last T whose counts are searched and the first that reaches BTPE,
# over three blocks, the last one short
@example((12, 60, 4, 2 * montecarlo.BLOCK_SIZE // 4 + 3), 10)
@example((12, 61, 4, 2 * montecarlo.BLOCK_SIZE // 4 + 3), 11)
def test_bayes_batch_matches_direct_oracle(shape, seed):
    n, T, s, count = shape
    params = ProtocolParams(n=n, N=s, T=T, s=s)
    fast, direct = philox(seed), philox(seed)
    flags = montecarlo._bayes_batch(params, fast, count)
    expected = bayes_batch_direct(params, direct, count)
    assert flags.dtype == bool
    assert np.array_equal(flags, expected)
    assert fast.random() == direct.random()  # same stream position


class ScriptedFill:
    """Scripted uniforms, drawn in turn as doubles (``random``) or as raw outputs (``random_raw``).

    numpy's double of a raw output w is (w >> 11) * 2**-53, so every
    scripted uniform must be a multiple m * 2**-53 in [0, 1), and its raw
    output is m << 11.  A fill stands in for a reader of a 64-bit fill that
    ``montecarlo._cursors`` opens, and for that reader's bit generator.
    """

    def __init__(self, uniforms):
        uniforms = np.concatenate([np.ravel(a) for a in uniforms])
        m = uniforms * 2.0 ** 53
        assert np.all((uniforms >= 0.0) & (uniforms < 1.0) & (m == np.floor(m))), "a uniform off the 2**-53 grid"
        self.words = m.astype(np.uint64) << np.uint64(11)

    @property
    def bitgen(self):
        return self

    def random_raw(self, size):
        assert size <= self.words.size, "the script ran out of uniforms"
        words, self.words = self.words[:size], self.words[size:]
        return words

    def random(self, size=None, dtype=np.float64, out=None):
        if out is None:
            out = np.empty(() if size is None else size, dtype)
        out.flat = (self.random_raw(out.size) >> 11) * 2.0 ** -53
        return out

    def consumed(self):
        return self.words.size == 0


class ScriptedGenerator(np.random.Generator):
    """Philox generator whose uniform draws (``random`` and ``uniform``) take the next scripted uniforms (a :class:`ScriptedFill`).

    Under :func:`scripted_cursors` each 64-bit fill that a batch opens is
    read from the next ``size`` of them (:meth:`fill`).
    """

    def __init__(self, seed, uniforms):
        super().__init__(np.random.Philox(seed))
        self.script = ScriptedFill(uniforms)
        self.opened = []

    def random(self, size=None, dtype=np.float64, out=None):
        return self.script.random(size, dtype, out)

    def fill(self, size):
        self.opened.append(ScriptedFill([self.random(size)]))
        return self.opened[-1]

    def consumed(self):
        """Whether every scripted uniform was drawn, those handed to fills included."""
        return self.script.consumed() and all(cursor.consumed() for cursor in self.opened)

    def uniform(self, low=0.0, high=1.0, size=None):
        # numpy's uniform is low + (high - low) * next_double
        return low + (high - low) * self.random(size)


def scripted_cursors():
    """Let a symmetry batch read its 64-bit fills from a ScriptedGenerator's script, in turn, and its 32-bit fills from its Philox stream.

    At n <= 32 the 64-bit fills are the three uniform fills; the keys and
    codeword bits are 32-bit draws, which the script does not touch.
    """
    opener = montecarlo._cursors

    def cursors(rng, fills):
        drawn = iter(opener(rng, [fill for fill in fills if fill[1] == 32]))
        return [next(drawn) if bits == 32 else rng.fill(size) for size, bits in fills]

    return mock.patch.object(montecarlo, "_cursors", cursors)


def quarter_turn_uniforms(params, seed, count, turns):
    """Basis, public-outcome and cipher-outcome uniforms of a symmetry batch, basis ``turns``/4 of a turn off.

    The basis uniform (k / 2**n + turns / 4) mod 1 puts the basis angle
    phi = 2*pi*u a whole number of quarter turns from the key state k*theta,
    so P(outcome 0) is 1, 1/2 or 0 up to rounding (exactly 1 at turns = 0).
    """
    k = philox(seed).integers(0, 1 << params.n, size=(count, params.s))
    basis = (k / (1 << params.n) + turns / 4) % 1.0
    return basis, np.random.default_rng(seed).random((2, count, params.s))


@settings(max_examples=60, deadline=None)
@given(batch_shapes(), st.integers(0, 2**32 - 1), st.one_of(st.none(), st.integers(0, 3)))
# count * s one below, at and one past a flat block, and past three with a
# short last block; and two blocks of the paper's s = 1195 (T = 64)
@example((10, 1, 3, (montecarlo.BLOCK_SIZE - 1) // 3), 3, None)
@example((12, 1, 16, montecarlo.BLOCK_SIZE // 16), 4, 2)
@example((7, 1, 5, (montecarlo.BLOCK_SIZE + 1) // 5), 5, None)
@example((14, 1, 1, 3 * montecarlo.BLOCK_SIZE + 5), 6, 1)
@example((13, 1, 1195, 14), 7, None)
def test_symmetry_batch_matches_direct_oracle(shape, seed, turns):
    # drawn bases, or bases a whole number of quarter turns from the key
    # states (both generators replay the same scripted uniforms)
    n, _, s, count = shape
    params = ProtocolParams(n=n, N=s, T=1, s=s)
    if turns is None:
        fast, direct = philox(seed), philox(seed)
    else:
        uniforms = quarter_turn_uniforms(params, seed, count, turns)
        fast, direct = ScriptedGenerator(seed, uniforms), ScriptedGenerator(seed, uniforms)
    with contextlib.nullcontext() if turns is None else scripted_cursors():
        flags = montecarlo._symmetry_batch(params, fast, count)
    expected = symmetry_batch_direct(params, direct, count)
    assert np.array_equal(flags, expected)
    if turns is None:
        assert fast.random() == direct.random()
    else:
        assert fast.consumed() and direct.consumed()


def test_float32_born_estimates_within_two_to_minus_20():
    # the premise of P_MARGIN: over |x| <= pi (endpoints included), the
    # float32 estimates of p = cos(x)**2 and of 1 - p lie within 2**-20 of
    # their float64 values (this sample shows 2**-22.0)
    x = np.concatenate([np.linspace(-math.pi, math.pi, (1 << 21) + 1),
                        np.random.default_rng(7).uniform(-math.pi, math.pi, 1 << 21)])
    p = np.square(np.cos(x))
    q = np.square(np.cos(x, dtype=np.float32))
    assert np.max(np.abs(q - p)) <= 2.0 ** -20
    assert np.max(np.abs(np.abs(np.subtract(1, q, dtype=np.float32)) - (1.0 - p))) <= 2.0 ** -20


def test_float32_uniform_estimates_within_two_to_minus_24():
    # the other premise of P_MARGIN: the float32 estimate that a raw output's
    # high half gives lies within 2**-32 + 2**-25 of the double random()
    # makes of it, (w >> 11) * 2**-53, at both ends of the word range too
    words = np.concatenate([np.array([0, 1, 2**11, 2**32 - 1, 2**32, 2**63, 2**64 - 2**40, 2**64 - 1], np.uint64),
                            np.random.default_rng(8).integers(0, 2**64, 1 << 20, dtype=np.uint64, endpoint=False)])
    estimate = montecarlo._uniform_estimates(words)
    assert estimate.dtype == np.float32
    assert np.array_equal(np.random.Generator(np.random.Philox(8)).random(4),
                          (np.random.Philox(8).random_raw(4) >> 11) * 2.0 ** -53)
    u = (words >> 11) * 2.0 ** -53
    assert np.max(np.abs(estimate - u)) <= 2.0 ** -32 + 2.0 ** -25
    assert estimate[0] == 0.0 and estimate[7] == 1.0  # 2**64 - 1 rounds up to the top of the range


@pytest.mark.parametrize("threshold", ["public", "cipher", "complement"])
def test_symmetry_decisions_exact_between_float32_and_libm(threshold):
    # the scripted uniforms, doubles that raw outputs give, lie strictly
    # between each libm threshold (p, or 1 - p for the cipher qubit where
    # w = 1) and its float32 estimate, so every outcome there is decided as
    # u >= p only by the libm fallback
    params = ProtocolParams(n=10, N=1, T=1, s=1)
    count, seed = 20_000, 11
    stream = philox(seed)
    k = stream.integers(0, 1 << params.n, size=(count, 1))
    w = stream.integers(0, 2, size=(count, 1), dtype=np.int8)  # at s = 1 the codeword is the message
    # x exactly as the batch computes it from its basis uniforms
    basis = np.random.default_rng(seed + 2).random((count, 1))
    x = k * params.theta - basis * (2.0 * math.pi)
    x /= 2.0
    p = np.square(np.cos(x))
    p32 = np.square(np.cos(x, dtype=np.float32))
    libm = {"public": p, "cipher": np.where(w == 1, 1.0 - p, p)}
    estimate = {"public": p32, "cipher": np.abs(np.subtract(w, p32, dtype=np.float32))}
    draw = "public" if threshold == "public" else "cipher"
    # the multiple of 2**-53 (a double that a raw output gives) nearest the
    # midpoint, where it lies strictly between the two thresholds
    u = np.round((libm[draw] + estimate[draw]) * 2.0 ** 52) * 2.0 ** -53
    cells = (u > np.minimum(libm[draw], estimate[draw])) & (u < np.maximum(libm[draw], estimate[draw]))
    if threshold != "public":
        cells &= w == (threshold == "complement")
    cells = cells[:, 0]
    assert np.count_nonzero(cells) > count // 4
    other = np.random.default_rng(seed + 1).random((count, 1))
    uniforms = {"public": other, "cipher": other}
    uniforms[draw] = u

    def flags(thresholds):
        # success: the outcomes differ exactly where w = 1
        public, cipher = (uniforms[name] >= thresholds[name] for name in ("public", "cipher"))
        return ((public ^ cipher) == (w == 1))[:, 0]

    expected = flags(libm)
    # the float32 estimate alone decides every such cell the other way
    assert np.all(flags(estimate)[cells] != expected[cells])
    fast = ScriptedGenerator(seed, (basis, uniforms["public"], uniforms["cipher"]))
    with scripted_cursors():
        assert np.array_equal(montecarlo._symmetry_batch(params, fast, count), expected)
    assert fast.consumed()


def structural_keys(n):
    """Keys whose P("0") is exactly 0 or 1 in one of the two bases."""
    p0z, p0x = bayes._prob0_tables(n)
    return np.flatnonzero((p0z == 0.0) | (p0z == 1.0) | (p0x == 0.0) | (p0x == 1.0))


# key counts at the edges of the inversion search's BLOCK_SIZE blocks, one
# and a batch of them
SEARCH_BLOCK_EDGES = [size + d for size in (montecarlo.BLOCK_SIZE, montecarlo.BATCH_SIZE) for d in (-1, 0, 1)]
SEARCH_BLOCK_EDGES += [2 * montecarlo.BLOCK_SIZE + 1, 2 * montecarlo.BATCH_SIZE + 1]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 14),
    st.one_of(st.integers(1, 60), st.sampled_from([61, 64, 70, 200, 300])),
    st.integers(0, 1),
    st.integers(0, 2**32 - 1),
    st.one_of(st.integers(0, 300), st.sampled_from(SEARCH_BLOCK_EDGES)),
)
def test_search_matches_generator(n, T, basis, seed, size):
    # size is either the keys drawn past the 2**n key range or the total
    # key count at a block edge; where the basis is tabulated the search
    # runs block by block, elsewhere numpy draws (_binomial_counts)
    structural = np.tile(structural_keys(n), 2)
    drawn_size = (1 << n) + size if size <= 300 else size - structural.size
    drawn = np.random.default_rng(seed).integers(0, 1 << n, size=drawn_size)
    k = np.concatenate([structural, drawn])
    p0 = bayes._prob0_tables(n)[basis]
    fast, direct = philox(seed), philox(seed)
    table = montecarlo._inversion_table(T, n, basis)
    if table is None:
        counts = montecarlo._binomial_counts(fast, T, n, basis, k)
    else:
        counts = np.empty(k.size, np.min_scalar_type(T))
        for i in range(0, k.size, montecarlo.BLOCK_SIZE):  # as a batch searches: block by block, one stream
            b = slice(i, i + montecarlo.BLOCK_SIZE)
            assert montecarlo._search(fast, table, k[b], counts[b])
    assert counts.dtype == np.min_scalar_type(T)
    assert np.array_equal(counts, direct.binomial(T, p0[k]))
    assert fast.random() == direct.random()


@pytest.mark.parametrize("patch", ["bound", "terms"])
def test_search_reports_a_numpy_redraw(patch):
    # a search that would pass numpy's redraw bound (patched to 0) or run
    # past T (all terms 0) returns False, so that its batch reruns with
    # numpy's draws; the unpatched table searches the same keys through
    T, n = 6, 8
    terms, fold, zero, bound, min_bound = table = montecarlo._inversion_table(T, n, 0)
    if patch == "bound":
        bound, min_bound = np.zeros_like(bound), 0
    else:
        terms = np.zeros_like(terms)
    k = np.random.default_rng(3).integers(0, 1 << n, size=4 << n)
    k[:2] = structural_keys(n)[:2]
    x = np.empty(k.size, np.min_scalar_type(T))
    assert montecarlo._search(philox(9), table, k, x)
    assert not montecarlo._search(philox(9), (terms, fold, zero, bound, min_bound), k, x)


def test_binomial_counts_never_read_the_inversion_table():
    # numpy draws a batch's counts at a tabulated (T, n) over more than the
    # key range, the rerun of a batch whose search would redraw, without
    # looking for a table: the values and stream position of one whole draw
    T, n = 6, 10
    k = np.random.default_rng(5).integers(0, 1 << n, size=montecarlo.BLOCK_SIZE + 7).astype(np.uint16)
    assert None not in [montecarlo._inversion_table(T, n, basis) for basis in (0, 1)]
    fast, direct = philox(5), philox(5)

    def no_table(*key):
        raise AssertionError(f"_inversion_table{key} read")

    with mock.patch.object(montecarlo, "_inversion_table", no_table):
        for basis in (0, 1):
            counts = montecarlo._binomial_counts(fast, T, n, basis, k)
            assert np.array_equal(counts, direct.binomial(T, bayes._prob0_tables(n)[basis][k]))
    assert fast.random() == direct.random()


@pytest.mark.parametrize("basis", [0, 1])
def test_bayes_batch_reruns_sequentially_when_a_later_block_redraws(basis):
    # one key, absent from the first search block and present in the
    # second, has its redraw bound in one basis patched to 0: the first
    # block's searches pass, the second block's search in that basis would
    # redraw, and the whole batch is drawn again from the stream position
    # after its keys, with both bases' counts from _binomial_counts
    T, n, s, seed = 6, 14, 2, 21
    count = montecarlo.BLOCK_SIZE + 100  # three search blocks
    params = ProtocolParams(n=n, N=s, T=T, s=s)
    tables = [montecarlo._inversion_table(T, n, b) for b in (0, 1)]
    terms, fold, zero, bound, _ = tables[basis]
    keys = philox(seed).integers(0, 1 << n, size=count * s)  # the batch's keys
    first, second = keys[:montecarlo.BLOCK_SIZE], keys[montecarlo.BLOCK_SIZE:2 * montecarlo.BLOCK_SIZE]
    later = np.setdiff1d(second, first)
    key = int(later[np.argmin(terms[0][later])])  # the key least likely to stop at a count of 0
    bound = bound.copy()
    bound[key] = 0
    tables[basis] = (terms, fold, zero, bound, 0)
    search, binomial_counts, searches, sequential = montecarlo._search, montecarlo._binomial_counts, [], []

    def searched(*args):
        searches.append(search(*args))
        return searches[-1]

    def drawn(rng, T, n, b, k):
        sequential.append(b)
        return binomial_counts(rng, T, n, b, k)

    fast, direct = philox(seed), philox(seed)
    with mock.patch.multiple(montecarlo, _inversion_table=lambda T, n, b: tables[b],
                             _search=searched, _binomial_counts=drawn):
        flags = montecarlo._bayes_batch(params, fast, count)
    # block one in both bases, then block two up to the basis that redraws
    assert searches[:3 + basis] == [True] * (2 + basis) + [False]
    assert sequential == [0, 1]
    assert np.array_equal(flags, bayes_batch_direct(params, direct, count))
    assert fast.random() == direct.random()


@pytest.mark.parametrize("attack", montecarlo.ATTACKS)
def test_block_parities_do_not_grow_with_s(attack):
    # each block of rows takes its two parities (the codewords' last bits
    # and the success flags) in two calls at any codeword length: over
    # three blocks and a short fourth at s = 5, and at the paper's s = 1195
    for s in (5, 1195):
        params = ProtocolParams(n=10, N=s, T=6, s=s)
        batch = montecarlo._bayes_batch if attack == "bayes-projective" else montecarlo._symmetry_batch
        parities, calls = montecarlo._parities, []

        def counted(bits):
            calls.append(bits.shape)
            return parities(bits)

        count = 3 * block_rows(s) + 1
        with mock.patch.object(montecarlo, "_parities", counted):
            batch(params, philox(0), count)
        assert len(calls) == 2 * 4, s


# the montecarlo workload's largest codewords in a full batch, and the
# codeword length the paper asks for at T = 16 and epsilon = 2**-10 in a
# shorter one
FULL_BATCHES = [(16, montecarlo.BATCH_SIZE), (432, 4096)]


def lone_peak(batch, params, count, seed):
    """The tracemalloc peak of one batch."""
    tracemalloc.start()
    try:
        batch(params, philox(seed), count)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def held_bound(bytes_per_qubit, count, s):
    """A batch's per-qubit arrays exactly, and what it may allocate beside them.

    Beside them: the success flags, and the larger of one chunk of keys
    and the block temporaries of the Born stage (five float64 or intp
    arrays) at any codeword length; a block's codeword bits are among them.
    The bayes batch reads its keys in chunks of ``BATCH_SIZE`` 32-bit
    draws, as raw outputs (16 B per block element); the symmetry batch
    replays them one block at a time, so its keys are one block among its
    temporaries.  Measured beyond the per-qubit arrays: 0.52 MiB (symmetry
    test at s = 16, 0.44 at s = 432) and 0.71 MiB (bayes at s = 16, with
    its counts searched block by block at T = 4 or held whole at T = 64;
    0.62 at s = 432).
    """
    return bytes_per_qubit * count * s + count + 48 * montecarlo.BLOCK_SIZE


@pytest.mark.parametrize("attack", montecarlo.ATTACKS)
def test_batch_memory_ceiling(attack):
    # warm batch (tables cached): the peak stays within five float64 arrays
    # of the batch shape; the direct oracles need about 7.5
    params = ProtocolParams(n=12, N=8, T=8, s=8)
    batch = montecarlo._bayes_batch if attack == "bayes-projective" else montecarlo._symmetry_batch
    count = 1 << 13
    batch(params, philox(0), count)
    tracemalloc.start()
    try:
        batch(params, philox(1), count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * count * params.s * 8


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 63), st.integers(1, 8), st.integers(0, 2**32 - 1), st.booleans())
def test_cipher_units_match_encrypt(n, s, seed, narrow):
    # int64 keys, or keys of up to 32 bits held narrow as the batches hold them
    rng = philox(seed)
    k = rng.integers(0, 1 << n, size=(5, s))
    if narrow and n <= 32:
        k = k.astype(np.min_scalar_type((1 << n) - 1))
    w = read_codewords(rng, 5, s)
    units = montecarlo._cipher_units(k, w, n)
    for row in range(5):
        key = PrivateKey(tuple(k[row].tolist()), n)
        assert tuple(units[row].tolist()) == encrypt(Codeword(tuple(w[row].tolist())), key).units


def test_bayes_batch_memory_at_full_batch():
    # warm batch: both bases' counts are searched block by block from
    # cursors, the codeword bits are read, and the Born-probability stage
    # and its uniforms run, in the same blocks of rows, and the keys are
    # held narrow, so the uint16 keys, 2 B per qubit, set the peak (2.71 B
    # per qubit when measured at s = 16, 2.37 at s = 432)
    for s, count in FULL_BATCHES:
        params = ProtocolParams(n=13, N=s, T=4, s=s)
        montecarlo._bayes_batch(params, philox(0), count)
        peak = lone_peak(montecarlo._bayes_batch, params, count, 1)
        assert peak <= held_bound(2, count, s), s


def test_bayes_batch_memory_past_the_inversion_search():
    # at T = 64 numpy's own binomial draws both bases' counts, in blocks
    # into two narrow count arrays, so a full batch holds the uint16 keys
    # and the uint8 counts, 4 B per qubit (4.71 B measured; a whole-batch
    # draw adds a float64 gather and an int64 result, 16 B per qubit)
    count, s = montecarlo.BATCH_SIZE, 16
    params = ProtocolParams(n=13, N=s, T=64, s=s)
    montecarlo._bayes_batch(params, philox(0), count)
    assert lone_peak(montecarlo._bayes_batch, params, count, 1) <= held_bound(4, count, s)


def test_symmetry_batch_memory_at_full_batch():
    # warm batch: no per-qubit array outlives a block.  The keys are
    # replayed and the codeword bits read a block at a time, and they, the
    # angles, the float32 Born estimates, the uniforms, the outcomes and
    # the decisions' scratch stay one block in size (0.52 B per qubit when
    # measured at s = 16, 0.26 at s = 432)
    for s, count in FULL_BATCHES:
        params = ProtocolParams(n=13, N=s, T=1, s=s)
        montecarlo._symmetry_batch(params, philox(0), count)
        peak = lone_peak(montecarlo._symmetry_batch, params, count, 1)
        assert peak <= held_bound(0, count, s), s
