"""Acceptance battery: one test per criterion, each printing a pass/fail line.

Run as ``pytest tests/test_acceptance.py -v -s`` to see every line.  Monte
Carlo criteria use a frozen master seed; at 3 standard errors a re-seeding is
expected to pass ~99% of sweep points (flake budget documented in README).
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from qpke import bayes, montecarlo, symmetry, symspace
from qpke.protocol import Codeword, PrivateKey, ProtocolParams, decrypt, encrypt

MC_SEED = 42


@contextmanager
def runtime_limit(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"runtime {elapsed:.2f} s exceeds the {seconds} s budget"


def report(criterion, detail):
    print(f"criterion {criterion:02d} PASS: {detail}")


def test_criterion_01_binomial_spectrum_above_critical():
    with runtime_limit(1.0):
        worst = 0.0
        for tau in (2, 4, 8, 16):
            n_c = symspace.critical_n(tau)
            assert n_c is not None
            for n in (n_c, n_c + 1):
                values = symspace.eigendecompose(symspace.prior_density(tau, n)).eigenvalues
                binomial = symspace.prior_spectrum(tau, symspace.MAX_N).eigenvalues
                worst = max(worst, float(np.max(np.abs(np.subtract(values, binomial)))))
        assert worst < 1e-10
    report(1, f"spectra match binomial weights, max deviation {worst:.2e}")


def test_criterion_02_odd_parity_entries_vanish():
    with runtime_limit(5.0):
        worst = 0.0
        for tau in range(1, 33):
            weights = np.arange(tau + 1)
            odd = (weights[:, None] + weights[None, :]) % 2 == 1
            for n in range(1, 15):
                matrix = symspace.prior_density(tau, n).matrix
                if odd.any():
                    worst = max(worst, float(np.max(np.abs(matrix[odd]))))
        assert worst < 1e-12
    report(2, f"all odd-weight-sum entries below 1e-12, max {worst:.2e}")


def test_criterion_03_entropy_bounds():
    for tau in range(2, 65):
        n_c = symspace.critical_n(tau)
        assert n_c is not None
        for n in (1, max(1, n_c // 2), n_c, n_c + 1):
            entropy = symspace.von_neumann_entropy(symspace.prior_density(tau, n))
            assert entropy <= symmetry.holevo_bound_loose(tau) + 1e-9
            if n >= n_c:
                assert entropy <= symmetry.holevo_bound_tight(tau) + 1e-9
    report(3, "entropies below the Gaussian and dimension bounds for tau in [2, 64]")


def test_criterion_04_information_gain_below_holevo():
    with runtime_limit(120.0):
        smallest_gap = math.inf
        for T in range(1, 9):
            gap = symmetry.holevo_bound_tight(2 * T) - bayes.information_gain(T, 10)
            smallest_gap = min(smallest_gap, gap)
        assert smallest_gap > 0.0
    report(4, f"information gain below the Holevo bound, smallest gap {smallest_gap:.4f} bits")


def test_criterion_05_mean_success_bound_and_oscillation():
    worst_excess = -math.inf
    spans = []
    for T in range(2, 11):
        excess = bayes.mean_success(T, 10) - (1.0 - 1.0 / (6.0 * T))
        worst_excess = max(worst_excess, excess)
        spans.append(float(np.ptp(bayes.success_by_key(T, 10))))
    assert worst_excess <= 1e-9
    assert all(a > b for a, b in zip(spans, spans[1:]))
    report(5, f"mean success within 1 - 1/(6T) (max excess {worst_excess:.2e}); oscillation strictly shrinks")


def test_criterion_06_collective_optimum():
    for T in range(1, 11):
        assert bayes.mean_success(T, 10) <= symmetry.optimal_collective(T)
    assert symmetry.optimal_collective(1) == pytest.approx(0.5 + math.sqrt(2.0) / 4.0, abs=1e-12)
    report(6, "individual attack never beats the collective optimum; T=1 value exact")


def test_criterion_07_codeword_bound():
    worst = -math.inf
    for T in (2, 4, 8):
        per_bit = bayes.mean_success(T, 10)
        for s in range(1, 51):
            excess = symmetry.codeword_success(per_bit, s) - symmetry.codeword_bound(T, s)
            worst = max(worst, excess)
    assert worst <= 1e-9
    report(7, f"codeword success below its bound for T in {{2,4,8}}, s <= 50 (max excess {worst:.2e})")


def test_criterion_08_parity_iteration_identity():
    worst = 0.0
    for q1 in (0.5, 0.6, 0.75, 0.9, 1.0):
        for s in range(1, 13):
            brute = sum(
                (1.0 - q1) ** bin(pattern).count("1") * q1 ** (s - bin(pattern).count("1"))
                for pattern in range(1 << s)
                if bin(pattern).count("1") % 2 == 0
            )
            worst = max(worst, abs(symmetry.parity_iteration(q1, s) - brute))
    assert worst <= 1e-12
    report(8, f"iteration equals the even-error enumeration, max deviation {worst:.2e}")


def test_criterion_09_symmetry_monte_carlo():
    with runtime_limit(30.0):
        details = []
        for s in (1, 2, 3, 8):
            params = ProtocolParams(n=10, N=s, T=1, s=s)
            cfg = montecarlo.TrialConfig(params, "symmetry-test", 1_000_000, MC_SEED)
            result = montecarlo.estimate(cfg)
            expected = 0.5 + 2.0 ** -(s + 1)
            z = (result.mean - expected) / result.std_error
            assert abs(z) < 3.0, f"s={s}: z={z:.2f}"
            details.append(f"s={s}: z={z:+.2f}")
    report(9, "; ".join(details))


def test_criterion_10_forward_search_equivalence():
    for s in range(1, 65):
        assert symmetry.forward_search_success(1, s) == symmetry.average_success_symmetry(s)
    report(10, "single-copy forward search equals the symmetry test exactly for s <= 64")


def test_criterion_11_factor_of_three():
    for exponent in range(3, 11):
        epsilon = 2.0 ** -exponent
        for T in range(2, 9):
            _, s_simple = symmetry.required_codeword_length(epsilon, T)
            forward = symmetry.forward_search_length(epsilon, T)
            assert abs(s_simple - 3 * forward) <= 1
    report(11, "simple length bound is three forward-search lengths (up to ceiling)")


def test_criterion_12_roundtrip_exhaustive():
    with runtime_limit(1.0):
        count = 0
        for n in (1, 2, 3):
            for s in (1, 2, 3):
                params = ProtocolParams(n=n, N=s, T=1, s=s)
                for key_values in itertools.product(range(1 << n), repeat=s):
                    key = PrivateKey(key_values, n)
                    for bits in itertools.product((0, 1), repeat=s):
                        codeword = Codeword(bits)
                        recovered, message = decrypt(encrypt(codeword, key), key, params)
                        assert recovered == bits and message == codeword.parity
                        count += 1
    report(12, f"{count} exhaustive round-trips recover (w, m) exactly")


def test_criterion_13_posterior_and_evidence_normalization():
    T, n = 8, 10
    total_evidence = 0.0
    for t0z in range(T + 1):
        for t0x in range(T + 1):
            outcome = bayes.MeasurementOutcome(t0z, t0x)
            post = bayes.posterior(outcome, T, n)
            assert float(np.sum(post.probabilities)) == pytest.approx(1.0, abs=1e-12)
            total_evidence += bayes.evidence(outcome, T, n)
    assert total_evidence == pytest.approx(1.0, abs=1e-10)
    report(13, f"all {(T + 1) ** 2} posteriors normalized; evidence sums to {total_evidence:.12f}")


def test_criterion_14_bayes_monte_carlo():
    with runtime_limit(120.0):
        per_bit = bayes.mean_success(4, 10)
        details = []
        for s in (1, 8):
            params = ProtocolParams(n=10, N=s, T=4, s=s)
            cfg = montecarlo.TrialConfig(params, "bayes-projective", 100_000, MC_SEED)
            result = montecarlo.estimate(cfg)
            expected = symmetry.codeword_success(per_bit, s)
            z = (result.mean - expected) / result.std_error
            assert abs(z) < 3.0, f"s={s}: z={z:.2f}"
            details.append(f"s={s}: z={z:+.2f}")
    report(14, "; ".join(details))
