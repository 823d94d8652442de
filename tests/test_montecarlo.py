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
    st.one_of(st.none(), st.sampled_from([0.0, 0.7, math.pi / 2, math.pi, 1e5, -1e5]), st.just("array")),
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


def test_symmetry_batch_far_offsets_match_direct_oracle():
    # offsets far outside the float32 estimate's trusted range (its error
    # reaches ~5e-4 at |x| ~ 1e4, past P_MARGIN) and NaN ones take libm
    params = ProtocolParams(n=10, N=4, T=1, s=4)
    omega = np.random.default_rng(5).uniform(-1e5, 1e5, size=(20_000, 4))
    omega[::97] = np.nan
    fast, direct = philox(5), philox(5)
    flags = montecarlo._symmetry_batch(params, fast, len(omega), omega=omega)
    assert np.array_equal(flags, symmetry_batch_direct(params, direct, len(omega), omega=omega))
    assert fast.random() == direct.random()


class ScriptedGenerator(np.random.Generator):
    """Philox generator whose ``random(out=...)`` fills copy the next scripted uniforms."""

    def __init__(self, seed, uniforms):
        super().__init__(np.random.Philox(seed))
        self.uniforms = np.concatenate([np.ravel(a) for a in uniforms])

    def random(self, *args, out=None, **kwargs):
        if out is None:
            return super().random(*args, **kwargs)
        out.flat = self.uniforms[:out.size]
        self.uniforms = self.uniforms[out.size:]
        return out


@pytest.mark.parametrize("threshold", ["public", "cipher", "complement"])
def test_symmetry_decisions_exact_between_float32_and_libm(threshold):
    # the scripted uniforms lie strictly between each libm threshold (p, or
    # 1 - p for the cipher qubit where w = 1) and its float32 estimate, so
    # every outcome there is decided as u >= p only by the libm fallback
    params = ProtocolParams(n=10, N=1, T=1, s=1)
    count, seed = 20_000, 11
    omega = np.random.default_rng(seed).uniform(-2 * math.pi, 2 * math.pi, size=(count, 1))
    stream = philox(seed)
    k = stream.integers(0, 1 << params.n, size=(count, 1))
    w = montecarlo._draw_codewords(count, 1, stream)
    public = k * params.theta
    x = public - (public - omega)
    x /= 2.0
    p = np.square(np.cos(x))
    p32 = np.square(np.cos(x, dtype=np.float32))
    libm = {"public": p, "cipher": np.where(w == 1, 1.0 - p, p)}
    estimate = {"public": p32, "cipher": np.abs(np.subtract(w, p32, dtype=np.float32))}
    draw = "public" if threshold == "public" else "cipher"
    u = (libm[draw] + estimate[draw]) / 2.0
    cells = (u != libm[draw]) & (u != estimate[draw])
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
    fast = ScriptedGenerator(seed, (uniforms["public"], uniforms["cipher"]))
    assert np.array_equal(montecarlo._symmetry_batch(params, fast, count, omega=omega), expected)
    assert fast.uniforms.size == 0


def structural_keys(n):
    """Keys whose P("0") is exactly 0 or 1 in one of the two bases."""
    p0z, p0x = bayes._prob0_tables(n)
    return np.flatnonzero((p0z == 0.0) | (p0z == 1.0) | (p0x == 0.0) | (p0x == 1.0))


# key counts at the edges of the inversion search's BATCH_SIZE blocks
SEARCH_BLOCK_EDGES = [montecarlo.BATCH_SIZE + d for d in (-1, 0, 1)] + [2 * montecarlo.BATCH_SIZE + 1]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 14),
    st.one_of(st.integers(1, 60), st.sampled_from([61, 64, 70, 200, 300])),
    st.integers(0, 1),
    st.integers(0, 2**32 - 1),
    st.one_of(st.integers(0, 300), st.sampled_from(SEARCH_BLOCK_EDGES)),
)
def test_binomial_counts_match_generator(n, T, basis, seed, size):
    # size is either the keys drawn past the 2**n key range or the total
    # key count at a block edge
    structural = np.tile(structural_keys(n), 2)
    drawn_size = (1 << n) + size if size <= 300 else size - structural.size
    drawn = np.random.default_rng(seed).integers(0, 1 << n, size=drawn_size)
    k = np.concatenate([structural, drawn])
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


def test_binomial_counts_rewinds_when_a_later_block_redraws():
    # only the second search block holds the key whose redraw bound is
    # patched to 0: the first block's search passes on its own, and the
    # whole batch still goes to numpy from the stream position before the
    # first block's draws
    T, n = 6, 8
    terms, fold, zero, bound, _ = montecarlo._inversion_table(T, n, 0)
    key = int(np.argmin(terms[0]))  # the key least likely to stop at a count of 0
    bound = bound.copy()
    bound[key] = 0
    table = (terms, fold, zero, bound, 0)
    keys = np.random.default_rng(4).integers(0, 1 << n, size=montecarlo.BATCH_SIZE + 200)
    first = keys[:montecarlo.BATCH_SIZE]
    first[first == key] = key - 1
    keys[-100:] = key
    p0 = bayes._prob0_tables(n)[0]
    alone, fast, direct = CountingGenerator(np.random.Philox(9)), CountingGenerator(np.random.Philox(9)), philox(9)
    with mock.patch.object(montecarlo, "_inversion_table", lambda *_: table):
        assert np.array_equal(montecarlo._binomial_counts(alone, T, n, 0, first), philox(9).binomial(T, p0[first]))
        counts = montecarlo._binomial_counts(fast, T, n, 0, keys)
    assert alone.binomial_calls == 0
    assert fast.binomial_calls == 1
    assert np.array_equal(counts, direct.binomial(T, p0[keys]))
    assert fast.random() == direct.random()


@pytest.mark.parametrize("attack", montecarlo.ATTACKS)
def test_campaign_workspace_matches_lone_batches(attack):
    # one workspace across batches that shrink (the last one short, the
    # first searched in two blocks) gives each lone batch's flags and
    # stream use
    params = ProtocolParams(n=10, N=5, T=6, s=5)
    batch = montecarlo._bayes_batch if attack == "bayes-projective" else montecarlo._symmetry_batch
    work = {}
    for seed, count in enumerate((14_000, 5_000, 1_234, 7)):
        fast, lone = philox(seed), philox(seed)
        assert np.array_equal(batch(params, fast, count, work=work), batch(params, lone, count))
        assert fast.random() == lone.random()


def test_campaign_workspace_is_reused_at_full_batch():
    # a warm full batch at the montecarlo workload's largest codewords,
    # given its campaign's workspace, allocates only what numpy cannot
    # write in place, and no buffer is replaced
    params = ProtocolParams(n=13, N=16, T=4, s=16)
    count, qubits = montecarlo.BATCH_SIZE, montecarlo.BATCH_SIZE * params.s
    work = {}
    montecarlo._bayes_batch(params, philox(0), count, work=work)
    buffers = dict(work)
    tracemalloc.start()
    try:
        montecarlo._bayes_batch(params, philox(1), count, work=work)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(work[name] is buf for name, buf in buffers.items()) and work.keys() == buffers.keys()
    # int64 keys, int8 codeword bits and messages, the success flags, and
    # the search's compaction indices (under half a block, then a quarter, ...)
    bound = 8 * qubits + qubits + count + 8 * montecarlo.BATCH_SIZE
    assert peak <= bound
    assert bound < 1.5 * qubits * 8  # the lone batch allows 4 float64 arrays per qubit


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
    w = montecarlo._draw_codewords(5, s, rng)
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


def test_symmetry_batch_memory_at_full_batch():
    # warm full batch at the montecarlo workload's largest codewords: the
    # float32 Born estimates, the codeword bits and the public outcomes are
    # the workspace, 6 B per qubit; the angles reuse the keys' memory, and
    # the uniforms and the decisions' scratch stay one block in size
    params = ProtocolParams(n=13, N=16, T=1, s=16)
    count, qubits = montecarlo.BATCH_SIZE, montecarlo.BATCH_SIZE * params.s
    montecarlo._symmetry_batch(params, philox(0), count)
    tracemalloc.start()
    try:
        montecarlo._symmetry_batch(params, philox(1), count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the workspace and the int64 keys that hold the angles (14.3 B per
    # qubit when measured)
    assert peak <= 2 * qubits * 8
    work = {}
    montecarlo._symmetry_batch(params, philox(2), count, work=work)
    workspace = sum(buf.nbytes for buf in work.values())
    assert workspace <= 6 * qubits + 13 * montecarlo.DECISION_BLOCK
