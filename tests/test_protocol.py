"""Protocol-level tests: angles, keys, codewords, encryption round trips."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import decrypt_qubits, encrypt_qubits

from qpke.protocol import (
    CipherState,
    Codeword,
    PrivateKey,
    ProtocolParams,
    QubitAngle,
    decrypt,
    elementary_angle,
    encode_message,
    encrypt,
    encrypt_bit,
    generate_private_key,
    public_qubit_state,
)

TWO_PI = 2.0 * math.pi


@pytest.mark.parametrize("n,expected", [(1, math.pi), (2, math.pi / 2), (10, math.pi / 512)])
def test_elementary_angle(n, expected):
    assert elementary_angle(n) == expected


def test_elementary_angle_rejects_zero():
    with pytest.raises(ValueError):
        elementary_angle(0)


def test_params_validation():
    ProtocolParams(n=1, N=1, T=1, s=1)
    with pytest.raises(ValueError):
        ProtocolParams(n=0, N=1, T=1, s=1)
    with pytest.raises(ValueError):
        ProtocolParams(n=1, N=1, T=1, s=2)  # N < s
    with pytest.raises(ValueError):
        ProtocolParams(n=1, N=1, T=0, s=1)
    # key integers are int64 draws: n = 63 is the largest resolution
    ProtocolParams(n=63, N=1, T=1, s=1)
    with pytest.raises(ValueError, match=r"\[1, 63\]"):
        ProtocolParams(n=64, N=1, T=1, s=1)


def test_params_derived():
    params = ProtocolParams(n=3, N=8, T=4, s=2)
    assert params.theta == math.pi / 4
    assert params.total_copies == 9
    assert 0.0 < params.theta <= math.pi


def test_public_qubit_state_examples():
    assert public_qubit_state(0, 5).radians == 0.0
    q = public_qubit_state(2, 2)
    assert q.radians == pytest.approx(math.pi)
    assert q.amplitudes() == pytest.approx((0.0, 1.0), abs=1e-15)  # |1_z>
    q = public_qubit_state(1, 2)
    assert q.bloch() == pytest.approx((0.0, 1.0), abs=1e-15)  # along x
    with pytest.raises(ValueError):
        public_qubit_state(4, 2)
    with pytest.raises(ValueError):
        public_qubit_state(-1, 2)


def test_encrypt_bit_examples():
    q = QubitAngle.from_radians(1.1)
    assert encrypt_bit(q, 0) is q
    assert encrypt_bit(QubitAngle.from_radians(0.0), 1).radians == pytest.approx(math.pi)
    assert encrypt_bit(QubitAngle.from_radians(math.pi / 2), 1).radians == pytest.approx(3 * math.pi / 2)
    with pytest.raises(ValueError):
        encrypt_bit(q, 2)


def test_encrypt_bit_exact_form_preserved():
    for n in (1, 2, 3):
        for k in range(1 << n):
            q = public_qubit_state(k, n)
            enc = encrypt_bit(q, 1)
            assert enc.is_exact
            # the shift is exactly half a turn in angle units
            assert (enc.units - k) % (1 << n) == 1 << (n - 1)


@given(st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True), st.integers(0, 1))
def test_encrypt_bit_involution(phi, w):
    q = QubitAngle.from_radians(phi)
    twice = encrypt_bit(encrypt_bit(q, w), w)
    assert math.isclose(twice.radians, q.radians, abs_tol=1e-12) or math.isclose(
        abs(twice.radians - q.radians), TWO_PI, abs_tol=1e-12
    )


def test_qubit_angle_forms():
    with pytest.raises(ValueError):
        QubitAngle(units=1, n=2, value=0.5)
    with pytest.raises(ValueError):
        QubitAngle()
    with pytest.raises(ValueError):
        QubitAngle.exact(4, 2)
    assert QubitAngle.from_radians(2.5 * TWO_PI).radians == pytest.approx(math.pi)


def test_generate_private_key_reproducible():
    params = ProtocolParams(n=1, N=3, T=1, s=1)
    key_a = generate_private_key(params, np.random.default_rng(123))
    key_b = generate_private_key(params, np.random.default_rng(123))
    assert key_a == key_b
    assert len(key_a) == 3
    assert all(v in (0, 1) for v in key_a.values)


def test_generate_private_key_single_value_range():
    params = ProtocolParams(n=10, N=1, T=1, s=1)
    key = generate_private_key(params, np.random.default_rng(5))
    assert 0 <= key.values[0] <= 1023


@pytest.mark.parametrize("n", [2, 3])
def test_key_sampler_uniformity(n):
    # chi-square on 10^5 draws: statistic within 3 sigma of its dof mean,
    # and every bin within 3 binomial sigmas of the uniform expectation
    draws = 100_000
    params = ProtocolParams(n=n, N=draws, T=1, s=1)
    key = generate_private_key(params, np.random.default_rng(2024))
    counts = np.bincount(key.values, minlength=1 << n)
    bins = 1 << n
    expected = draws / bins
    sigma_bin = math.sqrt(draws * (1 / bins) * (1 - 1 / bins))
    assert np.all(np.abs(counts - expected) < 3 * sigma_bin)
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    dof = bins - 1
    assert chi2 < dof + 3 * math.sqrt(2 * dof)


def test_encode_message_trivial():
    cw = encode_message(0, 1, np.random.default_rng(0))
    assert cw.bits == (0,)


def test_encode_message_parity_always_matches():
    rng = np.random.default_rng(11)
    for _ in range(200):
        s = int(rng.integers(1, 5))
        m = int(rng.integers(0, 2))
        assert encode_message(m, s, rng).parity == m


def test_encode_message_uniform_over_parity_class():
    rng = np.random.default_rng(77)
    draws = 100_000
    counts = {(0, 1): 0, (1, 0): 0}
    for _ in range(draws):
        counts[encode_message(1, 2, rng).bits] += 1
    sigma = math.sqrt(draws * 0.25)
    assert abs(counts[(0, 1)] - draws / 2) < 3 * sigma


def test_codeword_sampler_uniformity():
    rng = np.random.default_rng(99)
    draws = 100_000
    s = 4
    counts = {}
    for _ in range(draws):
        bits = encode_message(0, s, rng).bits
        counts[bits] = counts.get(bits, 0) + 1
    bins = 2 ** (s - 1)
    assert len(counts) == bins
    expected = draws / bins
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    dof = bins - 1
    assert chi2 < dof + 3 * math.sqrt(2 * dof)


def test_decrypt_single_qubit_example():
    params = ProtocolParams(n=2, N=1, T=1, s=1)
    key = PrivateKey((3,), 2)
    cipher = encrypt(Codeword((1,)), key)
    bits, message = decrypt(cipher, key, params)
    assert bits == (1,)
    assert message == 1


def test_roundtrip_exhaustive():
    # every key and codeword at n <= 4, s <= 4 decrypts to exactly (w, m)
    for n in (1, 2, 3, 4):
        for s in (1, 2, 3, 4):
            params = ProtocolParams(n=n, N=s, T=1, s=s)
            for key_values in itertools.product(range(1 << n), repeat=s):
                key = PrivateKey(key_values, n)
                for bits in itertools.product((0, 1), repeat=s):
                    codeword = Codeword(bits)
                    recovered, message = decrypt(encrypt(codeword, key), key, params)
                    assert recovered == bits
                    assert message == codeword.parity


def test_decrypt_length_mismatch():
    params = ProtocolParams(n=2, N=2, T=1, s=2)
    key = PrivateKey((1, 2), 2)
    cipher = encrypt(Codeword((0,)), PrivateKey((1,), 2))
    with pytest.raises(ValueError):
        decrypt(cipher, key, params)


def test_decrypt_rejects_off_manifold_cipher():
    params = ProtocolParams(n=2, N=1, T=1, s=1)
    key = PrivateKey((0,), 2)
    tampered = CipherState((QubitAngle.from_radians(0.3),))
    with pytest.raises(ValueError):
        decrypt(tampered, key, params)


def test_decrypt_accepts_continuous_on_manifold():
    params = ProtocolParams(n=2, N=1, T=1, s=1)
    key = PrivateKey((1,), 2)
    cipher = CipherState((QubitAngle.from_radians(math.pi / 2 + math.pi),))
    assert decrypt(cipher, key, params) == ((1,), 1)


def test_encrypt_rejects_codeword_longer_than_key():
    with pytest.raises(ValueError):
        encrypt(Codeword((0, 1)), PrivateKey((1,), 2))


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


@st.composite
def keys(draw, n):
    values = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=9))
    return PrivateKey(tuple(values), n)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 63), st.integers(1, 8), st.data())
def test_integer_core_matches_qubit_oracle(n, s, data):
    # encryption under any key, decryption under the same or another key,
    # resolution and length: the same qubits, bits and ValueErrors as the
    # QubitAngle path
    key = data.draw(keys(n))
    codeword = Codeword(tuple(data.draw(st.lists(st.integers(0, 1), min_size=s, max_size=s))))
    enc = _outcome(encrypt, codeword, key)
    expected = _outcome(encrypt_qubits, codeword, key)
    assert enc[0] == expected[0]
    if enc[0] == "error":
        assert enc == expected
        return
    cipher, oracle_cipher = enc[1], expected[1]
    assert cipher.units is not None and len(cipher) == len(oracle_cipher) == s
    assert cipher.qubits == oracle_cipher.qubits
    assert cipher == oracle_cipher
    n_other = data.draw(st.sampled_from(sorted({n, max(1, n - 1), min(63, n + 1)})))
    other = data.draw(st.one_of(st.just(key), keys(n_other)))
    params = ProtocolParams(
        n=data.draw(st.sampled_from([other.n, n_other, n])),
        N=9,
        T=1,
        s=data.draw(st.sampled_from([s, max(1, s - 1), s + 1])),
    )
    got = _outcome(decrypt, cipher, other, params)
    assert got == _outcome(decrypt_qubits, oracle_cipher, other, params)
    assert got == _outcome(decrypt, oracle_cipher, other, params)
    if other is key and params.s == s and params.n == n:
        assert got == ("ok", (codeword.bits, codeword.parity))


def test_cipher_state_views():
    cipher = encrypt(Codeword((1, 0, 1)), PrivateKey((3, 7, 12), 4))
    assert cipher.units == (3 ^ 8, 7, 12 ^ 8) and cipher.n == 4
    assert cipher.qubits == tuple(QubitAngle.exact(c, 4) for c in cipher.units)
    qubit_form = CipherState(cipher.qubits)
    assert qubit_form.units is None and len(qubit_form) == 3
    assert qubit_form == cipher and hash(qubit_form) == hash(cipher)


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.bool_, np.int64])
@pytest.mark.parametrize("n", [1, 8, 9, 12, 63])
def test_encrypt_numpy_bits_match_qubit_oracle(dtype, n):
    # a numpy bit must encrypt like the Python int it equals, even where
    # 2**(n-1) does not fit in its dtype
    bits = np.array([1, 0, 1, 1], dtype=dtype)
    key = PrivateKey(tuple(k % (1 << n) for k in (0, 1, 2, 3)), n)
    codeword = Codeword(tuple(bits))
    cipher = encrypt(codeword, key)
    assert cipher.qubits == encrypt_qubits(codeword, key).qubits
    assert decrypt(cipher, key, ProtocolParams(n=n, N=4, T=1, s=4)) == ((1, 0, 1, 1), 1)


def test_cipher_state_is_immutable():
    exact = encrypt(Codeword((1, 0)), PrivateKey((3, 7), 4))
    for cipher in (exact, CipherState(exact.qubits)):
        for name in ("units", "n", "_qubits", "qubits"):
            with pytest.raises(AttributeError):
                setattr(cipher, name, None)
            with pytest.raises(AttributeError):
                delattr(cipher, name)
    assert exact.units == (3 ^ 8, 7) and exact == CipherState(exact.qubits)
