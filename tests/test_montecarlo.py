"""Seeded Monte Carlo simulation: reproducibility and agreement with the analytic values."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import bayes_batch_direct, symmetry_batch_direct
from qpke import bayes, montecarlo
from qpke.bayes import codeword_success, mean_success
from qpke.montecarlo import (
    EstimateWithError,
    TrialConfig,
    analytic_success,
    estimate,
)
from qpke.protocol import Codeword, PrivateKey, ProtocolParams, encrypt
from qpke.symmetry import average_success_symmetry


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


def test_estimate_with_error_validation():
    with pytest.raises(ValueError):
        EstimateWithError(1.5, 0.0, 10)
    with pytest.raises(ValueError):
        EstimateWithError(0.5, -1.0, 10)


def test_symmetry_trial_certain_with_aligned_bases():
    params = ProtocolParams(n=4, N=3, T=1, s=3)
    flags = montecarlo._symmetry_batch(params, np.random.default_rng(3), 2000, omega=0.0)
    assert flags.all()


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
@example((1, 200, 3, 40), 2)  # the z basis is tabulated, the x basis goes to BTPE
def test_bayes_batch_matches_direct_oracle(shape, seed):
    n, T, s, count = shape
    params = ProtocolParams(n=n, N=s, T=T, s=s)
    fast, direct = philox(seed), philox(seed)
    flags = montecarlo._bayes_batch(params, fast, count)
    expected = bayes_batch_direct(params, direct, count)
    assert flags.dtype == bool
    assert np.array_equal(flags, expected)
    assert fast.random() == direct.random()  # same stream position


@settings(max_examples=60, deadline=None)
@given(
    batch_shapes(),
    st.integers(0, 2**32 - 1),
    st.one_of(st.none(), st.sampled_from([0.0, 0.7, math.pi / 2, math.pi]), st.just("array")),
)
def test_symmetry_batch_matches_direct_oracle(shape, seed, omega):
    n, _, s, count = shape
    params = ProtocolParams(n=n, N=s, T=1, s=s)
    if omega == "array":
        omega = np.random.default_rng(seed).uniform(-math.pi, math.pi, size=(count, s))
    fast, direct = philox(seed), philox(seed)
    flags = montecarlo._symmetry_batch(params, fast, count, omega=omega)
    expected = symmetry_batch_direct(params, direct, count, omega=omega)
    assert np.array_equal(flags, expected)
    assert fast.random() == direct.random()


def structural_keys(n):
    """Keys whose P("0") is exactly 0 or 1 in one of the two bases."""
    p0z, p0x = bayes._prob0_tables(n)
    return np.flatnonzero((p0z == 0.0) | (p0z == 1.0) | (p0x == 0.0) | (p0x == 1.0))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 14),
    st.one_of(st.integers(1, 60), st.sampled_from([61, 64, 70, 200, 300])),
    st.integers(0, 1),
    st.integers(0, 2**32 - 1),
    st.integers(0, 300),
)
def test_binomial_counts_match_generator(n, T, basis, seed, extra):
    drawn = np.random.default_rng(seed).integers(0, 1 << n, size=(1 << n) + extra)
    k = np.concatenate([np.tile(structural_keys(n), 2), drawn])
    p0 = bayes._prob0_tables(n)[basis]
    fast, direct = philox(seed), philox(seed)
    counts = montecarlo._binomial_counts(fast, T, n, basis, k)
    assert counts.dtype == np.min_scalar_type(T)
    assert np.array_equal(counts, direct.binomial(T, p0[k]))
    assert fast.random() == direct.random()


class CountingGenerator(np.random.Generator):
    """Generator that counts its ``binomial`` calls."""

    binomial_calls = 0

    def binomial(self, *args, **kwargs):
        self.binomial_calls += 1
        return super().binomial(*args, **kwargs)


@pytest.mark.parametrize("patch", ["bound", "terms"])
def test_binomial_counts_rewinds_before_numpy_redraw(patch):
    # a search that would pass numpy's redraw bound (patched to 0) or run
    # past T (all terms 0) must hand the batch to numpy from the same
    # stream position
    T, n = 6, 8
    terms, fold, zero, bound, min_bound = montecarlo._inversion_table(T, n, 0)
    if patch == "bound":
        bound, min_bound = np.zeros_like(bound), 0
    else:
        terms = np.zeros_like(terms)
    table = (terms, fold, zero, bound, min_bound)
    k = np.random.default_rng(3).integers(0, 1 << n, size=4 << n)
    k[:2] = structural_keys(n)[:2]
    fast, direct = CountingGenerator(np.random.Philox(9)), philox(9)
    with mock.patch.object(montecarlo, "_inversion_table", lambda *key: table):
        counts = montecarlo._binomial_counts(fast, T, n, 0, k)
    assert fast.binomial_calls == 1
    assert np.array_equal(counts, direct.binomial(T, bayes._prob0_tables(n)[0][k]))
    assert fast.random() == direct.random()


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
@given(st.integers(1, 63), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_cipher_units_match_encrypt(n, s, seed):
    rng = np.random.default_rng(seed)
    k = rng.integers(0, 1 << n, size=(5, s))
    _, w = montecarlo._draw_codewords(5, s, rng)
    units = montecarlo._cipher_units(k, w, n)
    for row in range(5):
        key = PrivateKey(tuple(k[row].tolist()), n)
        assert tuple(units[row].tolist()) == encrypt(Codeword(tuple(w[row].tolist())), key).units


def test_bayes_batch_memory_at_full_batch():
    # warm full batch at the montecarlo workload's largest codewords: the
    # Born-probability stage runs in row blocks, so the binomial draws set
    # the peak (3.82 arrays of float64 per qubit when measured)
    params = ProtocolParams(n=13, N=16, T=4, s=16)
    count = montecarlo.BATCH_SIZE
    montecarlo._bayes_batch(params, philox(0), count)
    tracemalloc.start()
    try:
        montecarlo._bayes_batch(params, philox(1), count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * count * params.s * 8
