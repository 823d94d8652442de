"""Symmetry-test attack and forward-search closed forms."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from oracles import (
    average_success_symmetry_direct,
    codeword_bound_direct,
    codeword_success_direct,
    forward_search_success_direct,
)
from qpke.bayes import mean_success
from qpke.cli import main
from qpke.symmetry import (
    average_success_symmetry,
    codeword_bound,
    codeword_success,
    forward_search_length,
    forward_search_success,
    pair_fidelity,
    pair_success,
    parity_iteration,
    required_codeword_length,
)

TWO_PI = 2.0 * math.pi


@pytest.mark.parametrize("omega,expected", [(0.0, 1.0), (math.pi, 0.0), (math.pi / 2, 0.5)])
def test_pair_fidelity_examples(omega, expected):
    assert pair_fidelity(omega) == pytest.approx(expected, abs=1e-15)


def test_pair_success_endpoints():
    assert pair_success(0.0) == pytest.approx(1.0, abs=1e-15)
    assert pair_success(math.pi) == pytest.approx(1.0, abs=1e-15)  # both wrong
    assert pair_success(math.pi / 2) == pytest.approx(0.5, abs=1e-15)


def test_pair_success_uniform_average_is_three_quarters():
    integral, _ = quad(pair_success, 0.0, TWO_PI, limit=200)
    assert integral / TWO_PI == pytest.approx(0.75, abs=1e-12)
    assert average_success_symmetry(1) == 0.75


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=0.0, max_value=TWO_PI))
def test_pair_success_symmetries(omega):
    value = pair_success(omega)
    assert value >= 0.5 - 1e-15
    assert value == pytest.approx(pair_success(TWO_PI - omega), abs=1e-12)
    assert value == pytest.approx(pair_success(omega + math.pi), abs=1e-12)


@pytest.mark.parametrize("s,expected", [(1, 0.75), (3, 0.5625)])
def test_average_success_symmetry_values(s, expected):
    assert average_success_symmetry(s) == expected


def test_forward_search_success_values():
    assert forward_search_success(1, 1) == 0.75
    assert forward_search_success(2, 2) == pytest.approx(0.78125, abs=1e-15)
    assert forward_search_success(10**6, 3) > 1.0 - 1e-5


def test_symmetry_equals_single_copy_forward_search():
    for s in range(1, 65):
        assert forward_search_success(1, s) == average_success_symmetry(s)


def test_parity_law_matches_each_direct_form_bit_for_bit():
    lengths = range(1, 1101)
    for T in range(1, 257):
        assert [forward_search_success(T, s) for s in lengths] == [
            forward_search_success_direct(T, s) for s in lengths
        ]
        if T > 1:
            assert [codeword_bound(T, s) for s in lengths] == [codeword_bound_direct(T, s) for s in lengths]
    assert [average_success_symmetry(s) for s in lengths] == [average_success_symmetry_direct(s) for s in lengths]
    # mean_success costs O(T**2 2**n) per call, so the printed per-bit values are taken to T = 64
    per_bit = [mean_success(T, 10) for T in range(1, 65)] + np.random.default_rng(16).random(400).tolist()
    for p in per_bit:
        assert [codeword_success(p, s) for s in lengths] == [codeword_success_direct(p, s) for s in lengths]


@pytest.mark.parametrize(
    "fn,args,message",
    [
        (codeword_success, (0.75, 0), "codeword length must be >= 1, got 0"),
        (codeword_success, (1.5, 0), r"bit success probability must lie in \[0, 1\], got 1.5"),
        (codeword_bound, (2, 0), "codeword length must be >= 1, got 0"),
        (codeword_bound, (1, 0), "bound requires T > 1, got 1"),
        (forward_search_success, (1, 0), "codeword length must be >= 1, got 0"),
        (forward_search_success, (0, 0), "T must be >= 1, got 0"),
        (average_success_symmetry, (0,), "codeword length must be >= 1, got 0"),
    ],
    ids=["success-s", "success-p", "bound-s", "bound-T", "forward-s", "forward-T", "symmetry-s"],
)
def test_parity_law_messages(fn, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        fn(*args)


def test_success_monotonicity():
    # decreasing toward 1/2 in s, increasing in T
    for T in (1, 2, 5):
        values = [forward_search_success(T, s) for s in range(1, 30)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > 0.5 for v in values)
    for s in (1, 4):
        values = [forward_search_success(T, s) for T in range(1, 20)]
        assert all(a < b for a, b in zip(values, values[1:]))
    values = [average_success_symmetry(s) for s in range(1, 30)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_forward_search_length_examples():
    assert forward_search_length(2.0 ** -5, 2) == 8
    assert forward_search_length(0.5, 3) == 0
    with pytest.raises(ValueError):
        forward_search_length(0.7, 2)
    with pytest.raises(ValueError):
        forward_search_length(-0.1, 2)


@pytest.mark.parametrize("T", [10**4, 10**8, 10**12])
def test_required_codeword_length_exact_at_large_T(T):
    # eps = 2**-10 erases 9 bits: s_exact = ceil(9 / |log2((3T-1)/(3T))|),
    # here from a 60-digit logarithm of the exact ratio
    with localcontext() as ctx:
        ctx.prec = 60
        bits = -(Decimal(3 * T - 1) / Decimal(3 * T)).ln() / Decimal(2).ln()
        expected = math.ceil(Decimal(9) / bits)
    assert required_codeword_length(2.0 ** -10, T)[0] == expected


def test_security_table_at_T_where_the_float_ratio_is_one(capsys):
    # (3T-1)/(3T) rounds to 1.0 at T = 10**16
    assert main(["security", "--epsilon", "0.0009765625", "--T", "10000000000000000"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert int(row[2]) > 0


def test_parity_iteration_examples():
    for s in (1, 3, 7):
        assert parity_iteration(1.0, s) == 1.0
    assert parity_iteration(0.9, 3) == pytest.approx(0.756, abs=1e-12)


def brute_force_even_error(q1, s):
    total = 0.0
    for pattern in range(1 << s):
        wrong = bin(pattern).count("1")
        if wrong % 2 == 0:
            total += (1.0 - q1) ** wrong * q1 ** (s - wrong)
    return total


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=12))
def test_parity_iteration_matches_enumeration_and_closed_form(q1, s):
    value = parity_iteration(q1, s)
    assert value == pytest.approx(brute_force_even_error(q1, s), abs=1e-12)
    assert value == pytest.approx(0.5 + (2.0 * q1 - 1.0) ** s / 2.0, abs=1e-12)
