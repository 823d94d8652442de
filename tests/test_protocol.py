"""Protocol-level tests: angles, keys, codewords, encryption round trips."""

import copy
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import decrypt_qubits, encrypt_qubits

from qpke.bayes import MeasurementOutcome, PosteriorDistribution
from qpke.montecarlo import EstimateWithError, TrialConfig
from qpke.protocol import (
    CipherState,
    Codeword,
    PrivateKey,
    ProtocolParams,
    decrypt,
    elementary_angle,
    encrypt,
)
from qpke.symspace import Spectrum, SymmetricDensityOperator


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
    assert 0.0 < params.theta <= math.pi


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
    key = PrivateKey((1,), 2)
    off_grid = "neither parallel nor antiparallel"
    for units, n, message in (
        ((2,), 2, off_grid),  # one step off the key
        ((1 + 4,), 2, off_grid),  # k + 2**n, out of range
        ((1 - 4,), 2, off_grid),  # negative, equal to k modulo 2**n
        ((1,), 3, "cipher qubit resolution 3 does not match key resolution 2"),
        ((1.0,), 2, off_grid),  # a float unit: no integer XOR
    ):
        with pytest.raises(ValueError, match=message):
            decrypt(CipherState(units, n), key, params)


def test_private_key_rejects_non_integers():
    with pytest.raises(TypeError):
        PrivateKey((1.0,), 2)
    with pytest.raises(ValueError, match=r"key entry 4 outside \[0, 4\)"):
        PrivateKey((1, 4), 2)


@pytest.mark.parametrize("n", [2, 9])
def test_private_key_numpy_values_encrypt_like_python_ints(n):
    # int8 values cannot hold 2**(n-1) at n = 9; the key stores Python ints
    key = PrivateKey(tuple(np.array([1, 2], dtype=np.int8)), n)
    assert all(type(v) is int for v in key.values) and key == PrivateKey((1, 2), n)
    cipher = encrypt(Codeword((1, 1)), key)
    assert cipher == encrypt(Codeword((1, 1)), PrivateKey((1, 2), n))
    assert all(type(c) is int for c in cipher.units)


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
    # qubit-by-qubit oracle
    key = data.draw(keys(n))
    codeword = Codeword(tuple(data.draw(st.lists(st.integers(0, 1), min_size=s, max_size=s))))
    enc = _outcome(encrypt, codeword, key)
    expected = _outcome(encrypt_qubits, codeword, key)
    assert enc[0] == expected[0]
    if enc[0] == "error":
        assert enc == expected
        return
    cipher, oracle_qubits = enc[1], expected[1]
    assert len(cipher) == len(oracle_qubits) == s
    assert tuple((c, cipher.n) for c in cipher.units) == oracle_qubits
    n_other = data.draw(st.sampled_from(sorted({n, max(1, n - 1), min(63, n + 1)})))
    other = data.draw(st.one_of(st.just(key), keys(n_other)))
    params = ProtocolParams(
        n=data.draw(st.sampled_from([other.n, n_other, n])),
        N=9,
        T=1,
        s=data.draw(st.sampled_from([s, max(1, s - 1), s + 1])),
    )
    got = _outcome(decrypt, cipher, other, params)
    assert got == _outcome(decrypt_qubits, oracle_qubits, other, params)
    if other is key and params.s == s and params.n == n:
        assert got == ("ok", (codeword.bits, codeword.parity))


def test_cipher_state_views():
    cipher = encrypt(Codeword((1, 0, 1)), PrivateKey((3, 7, 12), 4))
    assert cipher.units == (3 ^ 8, 7, 12 ^ 8) and cipher.n == 4
    assert len(cipher) == 3


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.bool_, np.int64, np.float64])
@pytest.mark.parametrize("n", [1, 8, 9, 12, 63])
def test_encrypt_numpy_bits_match_qubit_oracle(dtype, n):
    # a numpy bit must encrypt like the Python int it equals, even where
    # 2**(n-1) does not fit in its dtype
    bits = np.array([1, 0, 1, 1], dtype=dtype)
    key = PrivateKey(tuple(k % (1 << n) for k in (0, 1, 2, 3)), n)
    codeword = Codeword(tuple(bits))
    assert codeword.parity == 1
    cipher = encrypt(codeword, key)
    assert tuple((c, n) for c in cipher.units) == encrypt_qubits(codeword, key)
    assert decrypt(cipher, key, ProtocolParams(n=n, N=4, T=1, s=4)) == ((1, 0, 1, 1), 1)


# (record, its repr, its fields in order, an unequal record of the same class)
RECORDS = [
    (ProtocolParams(4, 3, 2, 3), "ProtocolParams(n=4, N=3, T=2, s=3)", ("n", "N", "T", "s"),
     ProtocolParams(4, 3, 2, 2)),
    (PrivateKey((3, 7, 12), 4), "PrivateKey(values=(3, 7, 12), n=4)", ("values", "n"), PrivateKey((3, 7, 12), 5)),
    (Codeword((1, 0, 1)), "Codeword(bits=(1, 0, 1))", ("bits",), Codeword((1, 0))),
    (CipherState((11, 7, 4), 4), "CipherState(units=(11, 7, 4), n=4)", ("units", "n"), CipherState((11, 7), 4)),
    (MeasurementOutcome(1, 2), "MeasurementOutcome(t0z=1, t0x=2)", ("t0z", "t0x"), MeasurementOutcome(2, 1)),
    (PosteriorDistribution(np.array([0.25, 0.75]), MeasurementOutcome(0, 1), 1, 1),
     "PosteriorDistribution(probabilities=array([0.25, 0.75]), outcome=MeasurementOutcome(t0z=0, t0x=1), T=1, n=1)",
     ("probabilities", "outcome", "T", "n"), None),
    (SymmetricDensityOperator(1, np.eye(2) / 2.0),
     "SymmetricDensityOperator(tau=1, matrix=array([[0.5, 0. ],\n       [0. , 0.5]]))", ("tau", "matrix"), None),
    (Spectrum((0.75, 0.25)), "Spectrum(eigenvalues=(0.75, 0.25), rank=2)", ("eigenvalues", "rank"),
     Spectrum((1.0, 0.0))),
    (TrialConfig(ProtocolParams(4, 2, 1, 2), "symmetry-test", 1000, 7),
     "TrialConfig(params=ProtocolParams(n=4, N=2, T=1, s=2), attack='symmetry-test', trials=1000, seed=7)",
     ("params", "attack", "trials", "seed"), TrialConfig(ProtocolParams(4, 2, 1, 2), "symmetry-test", 1000, 8)),
    (EstimateWithError(0.75, 0.125, 12), "EstimateWithError(mean=0.75, std_error=0.125, trials=12)",
     ("mean", "std_error", "trials"), EstimateWithError(0.75, 0.125, 13)),
]


@pytest.mark.parametrize("record, text, fields, other", RECORDS, ids=[type(r[0]).__name__ for r in RECORDS])
def test_record_behaves_as_a_frozen_value(record, text, fields, other):
    values = tuple(getattr(record, name) for name in fields)
    arrays = any(isinstance(v, np.ndarray) for v in values)
    assert repr(record) == text and str(record) == text
    # equal by the tuple of fields, and only to its own class
    assert record == record and copy.copy(record) == record
    assert record != text and record.__eq__(text) is NotImplemented
    if other is not None:
        assert record != other and not record == other
    if arrays:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(values) == hash(copy.copy(record))
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text
    for restored in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(restored) is type(record) and repr(restored) == text
        restored_values = tuple(getattr(restored, name) for name in fields)
        if arrays:
            # arrays compare elementwise, so fields compare one by one
            assert all(np.array_equal(a, b) for a, b in zip(restored_values, values))
        else:
            assert restored == record and restored_values == values
