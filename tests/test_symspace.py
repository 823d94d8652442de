"""Symmetric-subspace density operators: construction, spectra, entropy bounds."""

import csv
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from qpke import cli
from qpke.symmetry import holevo_bound_loose, holevo_bound_tight
from qpke.symspace import (
    CRITICAL_TOL,
    MAX_N,
    MAX_TAU,
    Spectrum,
    SymmetricDensityOperator,
    critical_n,
    eigendecompose,
    mixture_density,
    prior_density,
    prior_spectrum,
    shannon_entropy,
    symmetric_state_components,
    von_neumann_entropy,
)

from oracles import (
    coefficient_f,
    critical_n_search,
    jacobi_eigh,
    mixture_density_loop,
    prior_density_direct,
    prior_spectrum_exact,
    shannon_entropy_numpy,
    spectrum_rank_numpy,
)


def delta_mixture(k, tau, n):
    weights = np.zeros(1 << n)
    weights[k] = 1.0
    return mixture_density(weights, tau, n)


@pytest.mark.parametrize(
    "tau,l,angle,expected",
    [(2, 0, 0.0, 1.0), (2, 1, math.pi / 2, 0.5), (3, 3, math.pi, 1.0)],
)
def test_coefficient_f_examples(tau, l, angle, expected):
    assert coefficient_f(tau, l, angle) == pytest.approx(expected, abs=1e-15)


def test_coefficient_f_rejects_bad_weight():
    with pytest.raises(ValueError):
        coefficient_f(2, 3, 0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_prior_single_copy_is_maximally_mixed(n):
    rho = prior_density(1, n)
    assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-15)


def test_prior_matches_quadrature_oracle():
    # beyond the critical resolution the key sum equals the continuous average
    # over the state circle; check every entry against direct quadrature
    tau, n = 3, 6
    rho = prior_density(tau, n)
    for l in range(tau + 1):
        for lp in range(tau + 1):
            integral, _ = quad(
                lambda phi: coefficient_f(tau, l, phi) * coefficient_f(tau, lp, phi),
                0.0,
                2.0 * math.pi,
                limit=200,
            )
            expected = (
                math.sqrt(math.comb(tau, l) * math.comb(tau, lp))
                * integral
                / (2.0 * math.pi)
            )
            assert rho.matrix[l, lp] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("tau", [2, 3, 5, 8, 16])
@pytest.mark.parametrize("n", [1, 3, 8])
def test_prior_odd_parity_entries_vanish(tau, n):
    matrix = prior_density(tau, n).matrix
    l = np.arange(tau + 1)
    odd = (l[:, None] + l[None, :]) % 2 == 1
    assert np.max(np.abs(matrix[odd])) < 1e-12


@pytest.mark.parametrize("tau,n", [(1, 1), (2, 5), (7, 3), (16, 8), (33, 4), (64, 8)])
def test_prior_is_valid_density_operator(tau, n):
    rho = prior_density(tau, n)
    matrix = rho.matrix
    assert np.max(np.abs(matrix - matrix.T)) <= 1e-14
    assert np.trace(matrix) == pytest.approx(1.0, abs=1e-12)
    spectrum = eigendecompose(rho)
    assert min(spectrum.eigenvalues) >= -1e-10
    # entropy capped by the support dimension, itself capped by tau + 1
    entropy = von_neumann_entropy(rho)
    assert entropy <= math.log2(spectrum.rank) + 1e-9
    assert entropy <= math.log2(tau + 1) + 1e-9


def test_prior_range_validation():
    with pytest.raises(ValueError):
        prior_density(0, 3)
    with pytest.raises(ValueError):
        prior_density(65, 3)
    with pytest.raises(ValueError):
        prior_density(4, 0)
    with pytest.raises(ValueError):
        prior_density(4, 21)


def test_prior_stabilizes_above_critical_resolution():
    for tau in (2, 4, 8):
        n_c = critical_n(tau)
        base = prior_density(tau, n_c).matrix
        for extra in (1, 2):
            assert np.max(np.abs(prior_density(tau, n_c + extra).matrix - base)) < 1e-12


def test_jacobi_matches_numpy_eigh():
    rng = np.random.default_rng(314)
    for dim in (1, 2, 3, 5, 17, 40):
        base = rng.normal(size=(dim, dim))
        matrix = (base + base.T) / 2.0
        values, vectors = jacobi_eigh(matrix)
        reference = np.sort(np.linalg.eigvalsh(matrix))[::-1]
        assert np.allclose(values, reference, atol=1e-10)
        # residuals and orthonormality of the eigenvector matrix
        assert np.max(np.abs(matrix @ vectors - vectors * values)) < 1e-10
        assert np.allclose(vectors.T @ vectors, np.eye(dim), atol=1e-12)


def test_jacobi_rejects_bad_input():
    with pytest.raises(ValueError):
        jacobi_eigh(np.ones((2, 3)))
    with pytest.raises(ValueError):
        jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigendecompose_trivial_spectra():
    spectrum = eigendecompose(prior_density(1, 4))
    assert np.allclose(spectrum.eigenvalues, [0.5, 0.5], atol=1e-14)
    assert spectrum.rank == 2

    pure = eigendecompose(delta_mixture(3, 3, 3))
    assert pure.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(pure.eigenvalues[1:])) < 1e-12
    assert pure.rank == 1


def test_eigendecompose_residuals_on_prior():
    rho = prior_density(5, 4)
    values, vectors = jacobi_eigh(rho.matrix)
    assert np.max(np.abs(rho.matrix @ vectors - vectors * values)) < 1e-10


@pytest.mark.parametrize("tau,n,expected", [
    (2, 2, [0.5, 0.25, 0.25]),
    (2, 10, [0.5, 0.25, 0.25]),
    (4, 10, [0.375, 0.25, 0.25, 0.0625, 0.0625]),
])
def test_binomial_spectrum_reached(tau, n, expected):
    spectrum = eigendecompose(prior_density(tau, n))
    assert np.allclose(spectrum.eigenvalues, expected, atol=1e-10)
    assert np.allclose(spectrum.eigenvalues, prior_spectrum(tau, MAX_N).eigenvalues, atol=1e-10)


def test_entropy_examples():
    assert von_neumann_entropy(prior_density(1, 3)) == pytest.approx(1.0, abs=1e-12)
    assert von_neumann_entropy(delta_mixture(0, 2, 3)) == pytest.approx(0.0, abs=1e-10)
    # direct Shannon formula on the tau=2 binomial spectrum
    direct = -(0.25 * math.log2(0.25) * 2 + 0.5 * math.log2(0.5))
    assert direct == 1.5
    assert von_neumann_entropy(prior_density(2, 4)) == pytest.approx(1.5, abs=1e-10)


def test_shannon_entropy_handles_zeros():
    assert shannon_entropy([0.5, 0.5, 0.0]) == pytest.approx(1.0, abs=1e-15)
    # LAPACK's tiny negative eigenvalues count as zeros
    assert shannon_entropy([0.5, 0.5, -1e-17]) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("tau,expected", [(1, 1.0), (3, 2.0), (7, 3.0)])
def test_holevo_bound_loose(tau, expected):
    assert holevo_bound_loose(tau) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("tau,expected", [
    (1, 1.047095585180641),
    (4, 2.047095585180641),
    (16, 3.047095585180641),
])
def test_holevo_bound_tight_frozen(tau, expected):
    assert holevo_bound_tight(tau) == pytest.approx(expected, abs=1e-12)


def test_tight_bound_below_loose_for_two_or_more_copies():
    for tau in range(2, 65):
        assert holevo_bound_tight(tau) <= holevo_bound_loose(tau) + 0.1
        assert holevo_bound_tight(tau) < holevo_bound_loose(tau)
    # single copy: the dimension bound is the smaller one (record both)
    assert holevo_bound_loose(1) < holevo_bound_tight(1)


def test_critical_n_single_copy():
    assert critical_n(1) == 1


def test_critical_n_range_validation():
    for tau in (0, MAX_TAU + 1):
        with pytest.raises(ValueError):
            critical_n(tau)


def test_critical_n_rank_saturation():
    for tau in (2, 3, 4, 8):
        n_c = critical_n(tau)
        assert n_c is not None
        assert eigendecompose(prior_density(tau, n_c)).rank == tau + 1
        if n_c > 1:
            assert eigendecompose(prior_density(tau, n_c - 1)).rank < tau + 1


@pytest.mark.parametrize("tau", [2, 3, 4, 6, 8, 12, 16])
def test_spectrum_at_critical_is_binomial(tau):
    n_c = critical_n(tau)
    spectrum = eigendecompose(prior_density(tau, n_c))
    assert np.allclose(spectrum.eigenvalues, prior_spectrum(tau, MAX_N).eigenvalues, atol=1e-10)


def test_entropy_within_tight_bound_at_critical():
    for tau in (2, 4, 8, 16, 32):
        n_c = critical_n(tau)
        entropy = von_neumann_entropy(prior_density(tau, n_c))
        assert entropy <= holevo_bound_tight(tau) + 1e-9


def test_density_operator_validation():
    with pytest.raises(ValueError):
        SymmetricDensityOperator(1, np.array([[0.5, 0.1], [0.2, 0.5]]))  # asymmetric
    with pytest.raises(ValueError):
        SymmetricDensityOperator(1, np.array([[0.6, 0.0], [0.0, 0.6]]))  # trace != 1
    with pytest.raises(ValueError):
        SymmetricDensityOperator(2, np.eye(2) / 2)  # wrong shape
    # every bound fails on NaN, so no NaN operator is built
    with pytest.raises(ValueError):
        SymmetricDensityOperator(1, np.array([[0.5, np.nan], [np.nan, 0.5]]))
    with pytest.raises(ValueError):
        mixture_density(np.full(16, np.nan), 3, 4)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum(np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        Spectrum(np.array([1.2, -0.2]))
    with pytest.raises(ValueError):
        Spectrum(np.array([np.nan, np.nan]))
    # the rank counts the eigenvalues above RANK_RTOL times the largest
    assert Spectrum(np.array([1.0 - 2e-11, 1e-11, 1e-11, 0.0])).rank == 1
    assert Spectrum(np.array([0.5, 0.5 - 1e-10, 1e-10])).rank == 3


def test_spectrum_rejects_values_out_of_order():
    # the rank reads the first eigenvalue as the largest; the numpy rule took
    # ascending values and counted this rank-1 spectrum as rank 2
    ascending = [1e-11, 1.0 - 1e-11]
    assert spectrum_rank_numpy(ascending) == 2
    with pytest.raises(ValueError, match="non-increasing"):
        Spectrum(ascending)
    with pytest.raises(ValueError, match="non-increasing"):
        Spectrum(np.array([0.25, 0.25, 0.5]))
    assert Spectrum(ascending[::-1]).rank == 1
    # equal neighbours are in order, and the values are kept as a tuple of floats
    assert Spectrum(np.array([0.5, 0.5, 0.0])).eigenvalues == (0.5, 0.5, 0.0)


@st.composite
def probability_vectors(draw):
    """Descending probability vectors with exact zeros or LAPACK-style tiny negatives in their place, and NaN."""
    raw = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=1, max_size=MAX_TAU + 1))
    total = math.fsum(raw)
    vals = sorted((v / total for v in raw), reverse=True) if total > 0.0 else [1.0 / len(raw)] * len(raw)
    # 34 or more zeros at -3e-12 move the sum past 1e-10, and -2e-10 is out of
    # range; no count lands within 1e-12 of a bound, where the two sums could part
    tiny = draw(st.sampled_from([0.0, 1e-17, 3e-12, 2e-10]))
    vals = [v if v > 0.0 else -tiny for v in vals]
    if draw(st.booleans()):
        vals[draw(st.integers(0, len(vals) - 1))] = math.nan
    return vals


@settings(max_examples=300, deadline=None)
@given(probability_vectors())
def test_math_laws_match_numpy_oracles(vals):
    assert abs(shannon_entropy(vals) - shannon_entropy_numpy(vals)) <= 4e-15
    rank = spectrum_rank_numpy(vals)
    if rank is None:
        with pytest.raises(ValueError):
            Spectrum(vals)
    else:
        assert Spectrum(vals).rank == rank


def test_prior_entropy_cells_match_numpy_oracle(capsys):
    # the fsum entropy and one numpy sum part by a few ulps, far below the 12
    # significant digits of a CSV cell, so every prior cell keeps its bytes
    assert cli.main(["prior", "--tau", "1-64", "--n", "1-20"]) == 0
    cells = [row["entropy_bits"] for row in csv.DictReader(io.StringIO(capsys.readouterr().out))]
    exact = (prior_spectrum_exact(tau, n) for tau in range(1, MAX_TAU + 1) for n in range(1, MAX_N + 1))
    assert cells == [format(shannon_entropy_numpy([float(v) for v in values]), ".12g") for values in exact]


def test_mixture_weights_validation():
    with pytest.raises(ValueError):
        mixture_density(np.ones(3), 2, 2)  # wrong length for n=2


@st.composite
def random_mixtures(draw):
    tau = draw(st.integers(1, 16))
    n = draw(st.integers(1, 8))
    raw = draw(
        st.lists(
            st.floats(0.0, 1.0, allow_subnormal=False),
            min_size=1 << n,
            max_size=1 << n,
        ).filter(lambda w: sum(w) > 0.0)
    )
    weights = np.array(raw) / np.sum(raw)
    return tau, n, weights


@settings(max_examples=60, deadline=None)
@given(random_mixtures())
def test_mixture_matches_loop_oracle(mixture):
    tau, n, weights = mixture
    matrix = mixture_density(weights, tau, n).matrix
    assert np.array_equal(matrix, matrix.T)
    # entries are dot products of 2**n terms whose absolute values sum to at
    # most 1; the matrix product accumulates them in a different order than
    # the pairwise loop, so allow the standard 2**n * eps dot-product bound
    tol = max(1e-15, (1 << n) * np.finfo(float).eps)
    assert np.max(np.abs(matrix - mixture_density_loop(weights, tau, n))) <= tol


@settings(max_examples=40, deadline=None)
@given(random_mixtures())
def test_eigendecompose_matches_jacobi_oracle(mixture):
    tau, n, weights = mixture
    rho = mixture_density(weights, tau, n)
    values, _ = jacobi_eigh(rho.matrix)
    assert np.max(np.abs(eigendecompose(rho).eigenvalues - values)) <= 1e-10


def test_critical_n_is_bit_length():
    # equally spaced nodes integrate the degree-tau trigonometric entries
    # exactly once 2**n > tau, so the prior stops changing at n = bit_length
    for tau in range(1, 64):
        assert critical_n(tau) == tau.bit_length()
    # at tau = 64 the aliased term at n = 6 is 2*C(64,32)/4**64 ~ 1.1e-20 (the
    # measured gap, 8.3e-17, is round-off), below the tolerance, so critical_n
    # reports 6 where the exact value is 7
    assert critical_n(64) == 6


def test_critical_n_builds_no_operator():
    symmetric_state_components.cache_clear()
    for tau in range(1, MAX_TAU + 1):
        critical_n(tau)
    assert symmetric_state_components.cache_info().misses == 0


def test_power_of_two_aliases_by_its_top_frequency_weight():
    # one grid below the exact one, a power-of-two tau aliases only its top
    # frequency, which moves the largest entry by 2*C(tau, tau/2)/4**tau
    def weight(tau):
        return 2 * math.comb(tau, tau // 2) / 4.0 ** tau

    for tau in (2, 4, 8, 16, 32):
        n = tau.bit_length() - 1
        gap = np.max(np.abs(prior_density(tau, n).matrix - prior_density(tau, n + 1).matrix))
        assert abs(gap - weight(tau)) <= 1e-15, tau
    assert weight(64) < CRITICAL_TOL < weight(32)


def test_prior_matches_full_grid():
    # the exact-grid prior against the uniform mixture over all 2**n keys:
    # every tau up to n = 11, and up to n = 14 where 2**bit_length is tightest
    worst = 0.0
    for tau in range(1, MAX_TAU + 1):
        n_max = 14 if tau in (1, 2, 3, 31, 32, 33, 63, 64) else 11
        for n in range(tau.bit_length(), n_max + 1):
            full = mixture_density(np.full(1 << n, 2.0 ** -n), tau, n).matrix
            worst = max(worst, float(np.max(np.abs(prior_density(tau, n).matrix - full))))
        symmetric_state_components.cache_clear()
    assert worst <= 1e-14


def test_critical_n_matches_open_search():
    for tau in range(1, MAX_TAU + 1):
        assert critical_n(tau) == critical_n_search(tau)


def test_prior_strides_match_direct_grid_oracle():
    # k*pi/2**m and (k*2**(N-m))*pi/2**N round to the same double, so the
    # row strides of the 2**N table give every prior bit for bit
    cases = [(tau, n) for tau in range(1, MAX_TAU + 1) for n in range(1, 15)]
    for tau, n in cases + [(1, 20), (33, 20), (64, 20)]:
        assert np.array_equal(prior_density(tau, n).matrix, prior_density_direct(tau, n).matrix), (tau, n)


def test_entropy_bounds_check_builds_one_component_table_per_tau():
    # tau = 2..64: one 2**bit_length table each, built by the prior
    symmetric_state_components.cache_clear()
    assert cli._check_entropy_bounds()[0]
    assert symmetric_state_components.cache_info().misses <= 63


def test_symspace_checks_hold_one_component_table():
    # check-all's three operator checks leave at most the last component
    # table they built (tau = 64 on 2**7 keys, 66.6 KB); a cache of every
    # tau's table held 63 of them (960 KiB) into the checks after
    symmetric_state_components.cache_clear()
    tracemalloc.start()
    try:
        for check in (cli._check_parity_zeros, cli._check_binomial_spectrum, cli._check_entropy_bounds):
            assert check()[0]
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    # array buffers only: a few KB of small Python objects made on the way
    # (a first call's caches) stay too
    held = snapshot.filter_traces([tracemalloc.Filter(True, "*/qpke/symspace.py")]).traces
    assert sum(trace.size for trace in held if trace.size >= 1024) <= 70_000


def test_prior_memory_ceiling_at_largest_resolution():
    # the prior of 64 copies is taken over 2**7 keys at any n; the full
    # 2**20-key grid needs a 545 MB component array
    symmetric_state_components.cache_clear()
    tracemalloc.start()
    try:
        spectrum = eigendecompose(prior_density(64, 20))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert np.allclose(spectrum.eigenvalues, prior_spectrum(64, MAX_N).eigenvalues, atol=1e-10)


def test_prior_spectrum_matches_lapack_over_the_whole_domain():
    # the closed form against LAPACK on the Gram operator, at every (tau, n);
    # each eigenvalue is its exact rational class sum rounded once, and past
    # the exact grid it is the sorted binomial weights, bit for bit
    for tau in range(1, MAX_TAU + 1):
        binomial = sorted((math.comb(tau, j) / 2**tau for j in range(tau + 1)), reverse=True)
        for n in range(1, MAX_N + 1):
            law, lapack = prior_spectrum(tau, n), eigendecompose(prior_density(tau, n))
            assert np.max(np.abs(np.subtract(law.eigenvalues, lapack.eigenvalues))) <= 1e-15, (tau, n)
            assert law.rank == lapack.rank, (tau, n)
            assert list(law.eigenvalues) == [float(v) for v in prior_spectrum_exact(tau, n)], (tau, n)
            if 1 << n > tau:
                assert list(law.eigenvalues) == binomial, (tau, n)
        symmetric_state_components.cache_clear()


def test_prior_spectrum_coarse_grains_with_resolution():
    # a coarser key grid merges residue classes, so the entropy cannot fall
    # as n grows, and it stops changing once 2**n > tau; the table is exact,
    # so one class per residue is nonzero and no eigenvalue is negative
    for tau in range(1, MAX_TAU + 1):
        entropies = []
        for n in range(1, MAX_N + 1):
            values = prior_spectrum(tau, n).eigenvalues
            assert np.count_nonzero(values) == min(1 << n, tau + 1), (tau, n)
            assert min(values) >= 0.0, (tau, n)
            entropies.append(shannon_entropy(values))
        assert all(b >= a - 1e-12 for a, b in zip(entropies, entropies[1:])), tau
        assert len(set(entropies[tau.bit_length() - 1:])) == 1, tau


def test_prior_command_builds_no_operator(capsys):
    symmetric_state_components.cache_clear()
    assert cli.main(["prior", "--tau", "1-64", "--n", "1-20"]) == 0
    capsys.readouterr()
    assert symmetric_state_components.cache_info().misses == 0
