"""Bayesian projective-measurement attack: likelihoods, posteriors, success probabilities."""

import decimal
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    bloch_sums_full_grid,
    estimate_tables_tensor,
    information_gain_loop,
    likelihood_tensor,
    success_table_tensor,
)
from qpke import bayes, montecarlo
from qpke.bayes import (
    ImpossibleOutcomeError,
    MeasurementOutcome,
    PosteriorDistribution,
    evidence,
    information_gain,
    mean_success,
    posterior,
    success_by_key,
)
from qpke.protocol import elementary_angle
from qpke.symmetry import (
    bound_U,
    codeword_bound,
    codeword_success,
    holevo_bound_tight,
    optimal_collective,
    required_codeword_length,
)
from qpke.symspace import eigendecompose, mixture_density, prior_density, von_neumann_entropy


def uniform_posterior(T, n):
    size = 1 << n
    return PosteriorDistribution(np.full(size, 1.0 / size), MeasurementOutcome(0, 0), T, n)


def delta_posterior(k, T, n):
    p = np.zeros(1 << n)
    p[k] = 1.0
    return PosteriorDistribution(p, MeasurementOutcome(0, 0), T, n)


def test_outcome_prob_single_examples():
    # one copy per basis: row 1 of each likelihood table is P("0" | k), row 0 P("1" | k)
    pz, px = bayes._likelihood_grid(1, 3)
    assert pz[1, 0] == pytest.approx(1.0, abs=1e-15)
    assert px[1, 0] == pytest.approx(0.5, abs=1e-15)
    assert bayes._likelihood_grid(1, 2)[0, 1, 2] == pytest.approx(0.0, abs=1e-15)


def test_outcome_probs_sum_to_one_exactly():
    for n in (1, 2, 4):
        for table in bayes._likelihood_grid(1, n):
            p1, p0 = table
            assert np.all(p0 + p1 == 1.0)
            assert np.all((0.0 <= p0) & (p0 <= 1.0))


def test_likelihood_certain_z_factor():
    # k = 0 at n = 1 gives "0" in the z basis with certainty, so only the
    # x-basis binomial factor remains
    pz, px = bayes._likelihood_grid(1, 1)
    assert pz[1, 0] * px[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert pz[1, 0] * px[1, 0] == pytest.approx(0.5, abs=1e-15)


def test_likelihood_zero_on_impossible_count():
    # the k with angle pi never yields "0" in the z basis
    pz, px = bayes._likelihood_grid(2, 2)
    assert pz[2, 2] * px[1, 2] == 0.0


def test_likelihood_normalization_exhaustive():
    # L[a, b, k] = P_z[a, k] P_x[b, k], so its sum over the outcome grid factors per basis
    T, n = 4, 3
    pz, px = bayes._likelihood_grid(T, n)
    for k in range(1 << n):
        assert pz[:, k].sum() * px[:, k].sum() == pytest.approx(1.0, abs=1e-10)


def test_likelihood_log_space_path_matches_direct():
    # T at and above the log-space switch against the math.comb product
    n = 3
    p0z, p0x = bayes._prob0_tables(n)
    for T in (bayes.LOG_SPACE_T, bayes.LOG_SPACE_T + 1, 40):
        pz, px = bayes._likelihood_grid(T, n)
        for k in (0, 1, 5):
            for a, b in ((17, 23), (0, T), (T // 2, 3)):
                direct = (
                    math.comb(T, a) * p0z[k] ** a * (1 - p0z[k]) ** (T - a)
                    * math.comb(T, b) * p0x[k] ** b * (1 - p0x[k]) ** (T - b)
                )
                assert pz[a, k] * px[b, k] == pytest.approx(direct, rel=1e-10, abs=1e-300)


def test_evidence_frozen_value():
    # independent hand sum: z factor is 1 for k=0 and 0 for k=1; x factor 1/2
    assert evidence(MeasurementOutcome(1, 0), 1, 1) == pytest.approx(0.25, abs=1e-15)


def test_evidence_grid_sums_to_one():
    T, n = 8, 10
    total = sum(
        evidence(MeasurementOutcome(a, b), T, n) for a in range(T + 1) for b in range(T + 1)
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_evidence_reflection_symmetry():
    # k -> -k mirrors the state family about z, flipping only the x counts
    T, n = 5, 6
    for a in range(T + 1):
        for b in range(T + 1):
            left = evidence(MeasurementOutcome(a, b), T, n)
            right = evidence(MeasurementOutcome(a, T - b), T, n)
            assert left == pytest.approx(right, abs=1e-12)


def test_posterior_resolves_states_at_minimal_resolution():
    for t0x in (0, 1):
        post = posterior(MeasurementOutcome(1, t0x), 1, 1)
        assert post.probabilities == pytest.approx([1.0, 0.0], abs=1e-15)


def test_posterior_normalized_everywhere():
    T, n = 8, 10
    for a in range(T + 1):
        for b in range(T + 1):
            post = posterior(MeasurementOutcome(a, b), T, n)
            assert float(np.sum(post.probabilities)) == pytest.approx(1.0, abs=1e-12)


def test_posterior_impossible_outcome_raises():
    # at n = 1 the z outcomes are deterministic, so mixed counts cannot occur
    with pytest.raises(ImpossibleOutcomeError):
        posterior(MeasurementOutcome(1, 0), 2, 1)


def test_posterior_peaks_at_consistent_state():
    post = posterior(MeasurementOutcome(8, 4), 8, 10)
    assert int(np.argmax(post.probabilities)) == 0


def test_posteriors_average_back_to_uniform_prior():
    T, n = 3, 6
    size = 1 << n
    total = np.zeros(size)
    for a in range(T + 1):
        for b in range(T + 1):
            out = MeasurementOutcome(a, b)
            total += evidence(out, T, n) * posterior(out, T, n).probabilities
    assert np.allclose(total, 1.0 / size, atol=1e-10)


def test_information_gain_examples():
    assert information_gain(1, 1) == pytest.approx(1.0, abs=1e-12)
    assert information_gain(0, 5) == 0.0


def test_scalar_results_are_builtin_floats():
    out = MeasurementOutcome(1, 2)
    assert type(evidence(out, 2, 4)) is float
    assert type(information_gain(2, 4)) is float
    assert type(mean_success(2, 4)) is float


def test_information_gain_within_bounds():
    n = 10
    for T in (1, 2, 4, 8):
        gain = information_gain(T, n)
        assert 0.0 <= gain <= n
        assert gain < holevo_bound_tight(2 * T)


def test_posterior_density_uniform_reduces_to_prior():
    # the density of tau copies re-weighted by a posterior is their mixture over its probabilities
    tau, T, n = 3, 2, 4
    rho = mixture_density(uniform_posterior(T, n).probabilities, tau, n)
    assert np.allclose(rho.matrix, prior_density(tau, n).matrix, atol=1e-14)


def test_posterior_density_delta_is_pure():
    rho = mixture_density(delta_posterior(3, 2, 3).probabilities, 2, 3)
    assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-10)


def test_posterior_density_from_measurement_is_valid():
    post = posterior(MeasurementOutcome(1, 1), 2, 3)
    rho = mixture_density(post.probabilities, 2, post.n)
    assert np.trace(rho.matrix) == pytest.approx(1.0, abs=1e-12)
    assert min(eigendecompose(rho).eigenvalues) >= -1e-10


def test_bloch_estimate_examples():
    # a posterior's mean Bloch vector sums the key Bloch table: a single key
    # gives its own unit vector, and the uniform key set and an opposite pair
    # average to nothing
    n = 4
    theta = elementary_angle(n)
    cos_k, sin_k = bayes._key_bloch(n)
    for k in (0, 3, 9):
        assert cos_k[k] == pytest.approx(math.cos(k * theta), abs=1e-12)
        assert sin_k[k] == pytest.approx(math.sin(k * theta), abs=1e-12)
        assert math.hypot(cos_k[k], sin_k[k]) == pytest.approx(1.0, abs=1e-12)
    cos_5, sin_5 = bayes._key_bloch(5)
    assert math.hypot(np.mean(cos_5), np.mean(sin_5)) < 1e-12
    opposite = 1 << (n - 1)
    assert abs(cos_k[0] + cos_k[opposite]) < 1e-12 and abs(sin_k[0] + sin_k[opposite]) < 1e-12


def test_bloch_estimate_from_measurement_is_subunit():
    # a genuine posterior mixes several states, so the averaged vector E / sum_k L shrinks
    T, n = 2, 4
    out = MeasurementOutcome(2, 1)
    m = bayes._outcome_n(T, n)
    _, _, norms, directed = bayes._bloch_sums(T, m)
    total = evidence(out, T, m) * (1 << m)
    assert directed[out.t0z, out.t0x]
    assert 0.0 < norms[out.t0z, out.t0x] / total < 1.0


def test_success_given_key_exact_at_minimal_resolution():
    assert success_by_key(1, 1) == pytest.approx([1.0, 1.0], abs=1e-12)


def test_success_given_key_reflection_symmetry():
    T, n = 3, 6
    table = success_by_key(T, n)
    size = 1 << n
    for k in range(size):
        assert table[k] == pytest.approx(table[(size - k) % size], abs=1e-10)


def test_success_oscillation_shrinks_with_more_copies():
    spans = [float(np.ptp(success_by_key(T, 10))) for T in (2, 4, 8)]
    assert spans[0] > spans[1] > spans[2]


def test_mean_success_examples():
    assert mean_success(1, 1) == pytest.approx(1.0, abs=1e-12)
    assert mean_success(2, 10) <= 11.0 / 12.0
    for T in (2, 4, 8):
        assert mean_success(T, 10) <= bound_U(T) + 1e-9


def test_mean_success_below_collective_optimum():
    for T in (1, 2, 5):
        assert mean_success(T, 10) <= optimal_collective(T)


def test_bound_U_values():
    assert bound_U(2) == pytest.approx(11.0 / 12.0, abs=1e-15)
    assert bound_U(10) == pytest.approx(59.0 / 60.0, abs=1e-15)
    bounds = [bound_U(T) for T in range(2, 20)]
    assert all(a < b for a, b in zip(bounds, bounds[1:]))
    with pytest.raises(ValueError):
        bound_U(1)


def test_optimal_collective_values():
    assert optimal_collective(1) == pytest.approx(0.5 + math.sqrt(2) / 4, abs=1e-15)
    # frozen from a direct evaluation: 1/2 + (1 + sqrt(6)) / 8
    assert optimal_collective(2) == pytest.approx(0.9311862178478973, abs=1e-12)
    assert optimal_collective(2) > bound_U(2)


def test_optimal_collective_matches_exact_sum():
    # the square roots of the exact integer products, summed to 50 digits;
    # the products themselves pass the float range from T = 259
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        for T in (1, 2, 3, 10, 100, 258, 259, 300, 399):
            m = 2 * T
            total = sum(decimal.Decimal(math.comb(m, i) * math.comb(m, i + 1)).sqrt() for i in range(m))
            exact = float(decimal.Decimal("0.5") + total / decimal.Decimal(2) ** (m + 1))
            assert optimal_collective(T) == pytest.approx(exact, abs=1e-12)


def test_optimal_collective_large_T_scaling():
    for T in (50, 100, 200):
        assert abs(optimal_collective(T) - (1.0 - 1.0 / (8.0 * T))) < 0.1 / T**2


def test_success_given_key_is_bit_independent_by_construction():
    # the estimate basis cannot depend on the encrypted bit: the operation
    # takes no bit argument at all
    assert list(inspect.signature(success_by_key).parameters) == ["T", "n"]


@pytest.mark.parametrize("s", [1, 2, 5])
def test_codeword_success_trivial(s):
    assert codeword_success(1.0, s) == pytest.approx(1.0, abs=1e-15)
    assert codeword_success(0.5, s) == pytest.approx(0.5, abs=1e-15)


def test_codeword_success_frozen_example():
    # brute force over the 4 error patterns of s=2: (3/4)^2 + (1/4)^2 = 0.625
    assert codeword_success(0.75, 2) == pytest.approx(0.625, abs=1e-15)


@pytest.mark.parametrize("p_bit, error", [
    (math.nan, FloatingPointError), (1.5, ValueError), (-0.1, ValueError), (math.inf, ValueError),
])
def test_codeword_success_rejects_out_of_range(p_bit, error):
    # a NaN is a failed computation; a finite or infinite value out of range is a bad argument
    with pytest.raises(error, match=r"bit success probability must lie in \[0, 1\]"):
        codeword_success(p_bit, 3)


def brute_force_parity_success(p, s):
    total = 0.0
    for pattern in range(1 << s):
        wrong = bin(pattern).count("1")
        if wrong % 2 == 0:
            total += (1.0 - p) ** wrong * p ** (s - wrong)
    return total


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=12))
def test_codeword_success_matches_brute_force_and_closed_form(p, s):
    value = codeword_success(p, s)
    assert value == pytest.approx(brute_force_parity_success(p, s), abs=1e-12)
    assert value == pytest.approx(0.5 + (2.0 * p - 1.0) ** s / 2.0, abs=1e-12)


@pytest.mark.parametrize("s", [1100, 10**5])
def test_codeword_success_long_codewords(s):
    for p in (0.5, 0.75, mean_success(8, 10), 0.999, 1.0):
        value = codeword_success(p, s)
        assert math.isfinite(value)
        assert 0.5 <= value <= 1.0


def test_codeword_bound_values():
    assert codeword_bound(2, 1) == pytest.approx(11.0 / 12.0, abs=1e-15)
    assert codeword_bound(2, 4000) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        codeword_bound(1, 3)


def test_codeword_bound_dominates_success():
    for T in (2, 4, 8):
        per_bit = mean_success(T, 10)
        for s in (1, 5, 20, 50):
            assert codeword_success(per_bit, s) <= codeword_bound(T, s) + 1e-9


def test_required_codeword_length_examples():
    assert required_codeword_length(0.5, 2) == (0, 0)
    assert required_codeword_length(2.0 ** -5, 2) == (16, 24)
    for exponent in (3, 5, 8):
        for T in (2, 4, 8):
            s_exact, s_simple = required_codeword_length(2.0 ** -exponent, T)
            assert s_simple >= s_exact
    with pytest.raises(ValueError):
        required_codeword_length(0.6, 2)
    with pytest.raises(ValueError):
        required_codeword_length(0.0, 2)
    with pytest.raises(ValueError):
        required_codeword_length(0.1, 1)


def test_module_resolution_cap():
    with pytest.raises(ValueError):
        information_gain(2, 15)


@pytest.mark.parametrize("n", [0, 15])
@pytest.mark.parametrize("build", [
    lambda n: evidence(MeasurementOutcome(0, 0), 2, n),
    lambda n: posterior(MeasurementOutcome(0, 0), 2, n),
    lambda n: information_gain(2, n),
    lambda n: success_by_key(2, n),
    lambda n: montecarlo._inversion_table(2, n, 0),
], ids=["evidence", "posterior", "information_gain", "success_by_key",
        "inversion_table"])
def test_key_tables_reject_resolution_out_of_range(build, n):
    # every 2**n table is built from _prob0_tables, which bounds n
    with pytest.raises(ValueError, match=rf"resolution exponent must lie in \[1, 14\], got {n}$"):
        build(n)


def test_mean_success_accepts_any_resolution_past_the_exact_grid():
    # only the 2**m keys of m = _exact_n(T) are summed, so no 2**n table is built
    for T in range(41):
        m = bayes._exact_n(T)
        expected = mean_success(T, m)
        for n in range(m, 21):
            assert mean_success(T, n) == expected
    with pytest.raises(ValueError, match=r"resolution exponent must lie in \[1, 14\], got 0$"):
        mean_success(2, 0)


@pytest.mark.parametrize("n", range(1, 15))
def test_prob0_tables_exact_only_at_structural_states(n):
    # identical and orthogonal states give exactly 1 and 0; every other key
    # lies strictly inside (0, 1), so no genuine value is rounded to certainty
    p0z, p0x = bayes._prob0_tables(n)
    exact = {(0, 0): 1.0, (0, 1 << (n - 1)): 0.0}
    if n >= 2:
        exact.update({(1, 1 << (n - 2)): 1.0, (1, 3 << (n - 2)): 0.0})
    for basis, table in enumerate((p0z, p0x)):
        inside = np.ones(1 << n, dtype=bool)
        for (b, k), value in exact.items():
            if b == basis:
                assert table[k] == value
                inside[k] = False
        assert np.all((table[inside] > 0.0) & (table[inside] < 1.0))


@pytest.mark.parametrize("reduce", [information_gain, mean_success, success_by_key])
def test_negative_T_rejected(reduce):
    with pytest.raises(ValueError, match="T must be >= 0"):
        reduce(-1, 4)


@pytest.mark.parametrize("n", [1, 20])
@pytest.mark.parametrize("reduce", [information_gain, mean_success, success_by_key, montecarlo._estimate_tables])
def test_T_past_the_exact_grid_cap_rejected(reduce, n):
    # every outcome table is built by _likelihood_grid, which admits the T
    # whose exact grid of (2T+1).bit_length() keys fits MAX_N, at every n
    cap = (1 << (bayes.MAX_N - 1)) - 1
    assert bayes._exact_n(cap) == bayes.MAX_N < bayes._exact_n(cap + 1)
    with pytest.raises(ValueError, match=rf"^T must be <= {cap}, got {cap + 1}$"):
        reduce(cap + 1, n)
    assert bayes._likelihood_grid(cap, 1).shape == (2, cap + 1, 2)


@pytest.mark.parametrize("T", [259, 1030])
def test_many_copies_stay_probabilities(T):
    # at small n and large T the outcome pairs' likelihoods fall to subnormal
    # floats, where 1/|E| overflowed into NaN, and the near-certain mean
    # rounded past 1
    for n in (1, 2, 6):
        with np.errstate(over="raise", invalid="raise"):
            success = success_by_key(T, n)
        assert np.all((success >= 0.0) & (success <= 1.0))
        assert 0.5 <= mean_success(T, n) <= 1.0
    assert mean_success(T, 1) == 1.0


def test_posterior_distribution_validation():
    with pytest.raises(ValueError):
        PosteriorDistribution(np.array([0.7, 0.7]), MeasurementOutcome(0, 0), 1, 1)
    with pytest.raises(ValueError):
        PosteriorDistribution(np.array([0.5, 0.5, 0.0]), MeasurementOutcome(0, 0), 1, 1)
    with pytest.raises(ValueError):
        PosteriorDistribution(np.array([np.nan, np.nan]), MeasurementOutcome(0, 0), 1, 1)


# small grids for the direct sums, plus T past LOG_SPACE_T for the log-space PMFs
grid_sizes = st.one_of(
    st.tuples(st.integers(min_value=0, max_value=12), st.integers(min_value=1, max_value=8)),
    st.tuples(st.sampled_from([31, 40]), st.integers(min_value=1, max_value=6)),
)


@settings(max_examples=40, deadline=None)
@given(grid_sizes)
def test_posterior_and_evidence_match_tensor_oracle_exactly(size):
    T, n = size
    tensor = likelihood_tensor(T, n)
    for a in range(T + 1):
        for b in range(T + 1):
            out = MeasurementOutcome(a, b)
            row = tensor[a, b]
            assert evidence(out, T, n) == float(np.mean(row))
            if np.sum(row) > 0.0:
                assert np.array_equal(posterior(out, T, n).probabilities, row / np.sum(row))
            else:
                with pytest.raises(ImpossibleOutcomeError):
                    posterior(out, T, n)


@settings(max_examples=40, deadline=None)
@given(grid_sizes)
def test_grid_reductions_match_tensor_oracle(size):
    T, n = size
    expected = success_table_tensor(T, n)
    assert np.max(np.abs(success_by_key(T, n) - expected)) <= 1e-12
    assert abs(mean_success(T, n) - float(np.mean(expected))) <= 1e-12
    assert abs(information_gain(T, n) - information_gain_loop(T, n)) <= 1e-12
    _, _, degenerate = montecarlo._estimate_tables(T, n)
    assert np.array_equal(degenerate, estimate_tables_tensor(T, n)[1].ravel())


@pytest.mark.parametrize("T, n", [(16, 14), (32, 12)])
@pytest.mark.parametrize(
    "reduce",
    [success_by_key, mean_success, information_gain, montecarlo._estimate_tables],
    ids=["success_by_key", "mean_success", "information_gain", "estimate_tables"],
)
def test_grid_reductions_memory_ceiling(reduce, T, n):
    # eight (T+1) x 2**n float arrays; a joint (T+1)**2 x 2**n tensor alone
    # would exceed this 2.1x (T = 16) and 4.1x (T = 32).  The mean and the
    # estimate tables sum only the 2**m keys of the smallest exact grid.
    m = bayes._outcome_n(T, n) if reduce in (mean_success, montecarlo._estimate_tables) else n
    table_bytes = (T + 1) * (1 << m) * 8
    bayes._prob0_tables.cache_clear()
    bayes._likelihood_grid.cache_clear()
    montecarlo._estimate_tables.cache_clear()
    tracemalloc.start()
    try:
        reduce(T, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the two per-basis tables are built inside the call, so they must show
    assert peak >= 2 * table_bytes
    assert peak <= 8 * table_bytes


# T past LOG_SPACE_T runs the log-space PMFs
@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=14))
def test_bloch_sums_on_exact_grid_match_full_grid_oracle(T, n):
    est_z, est_x, norms, directed = bloch_sums_full_grid(T, n)
    full_mean = min(1.0, 0.5 + float(np.sum(norms[directed])) / (1 << (n + 1)))
    assert abs(mean_success(T, n) - full_mean) <= 1e-15
    half_z, half_x, degenerate = montecarlo._estimate_tables(T, n)
    assert np.array_equal(degenerate, ~directed.ravel())
    # U = E / (2|E|): the direction of the full-grid E, and exactly 0 where degenerate
    for half, est in ((half_z, est_z), (half_x, est_x)):
        assert np.all(half[degenerate] == 0.0)
        full = est[directed] / norms[directed]
        assert np.all(np.abs(2.0 * half[~degenerate] - full) <= 1e-13)
    m = bayes._exact_n(T)
    if n >= m:
        assert mean_success(T, n) == mean_success(T, m)


def test_mean_success_gap_to_certainty():
    # T (1 - mean_success) is exact at every n with 2**n > 2T+1, and stays
    # above the collective optimum's 1/8 (the 1 - 1/(6T) cap fails from T = 11)
    expected = {2: 0.183, 4: 0.178, 8: 0.169, 11: 0.165, 16: 0.161, 32: 0.152, 64: 0.145, 128: 0.140, 256: 0.135}
    for T, gap in expected.items():
        mean = mean_success(T, 14)
        assert round(T * (1.0 - mean), 3) == gap
        assert mean_success(T, 10) == mean
