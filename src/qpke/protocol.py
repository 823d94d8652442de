"""The exact protocol model: keys, parity codewords, integer-unit encryption, and decryption.

States live on the x-z great circle of the Bloch sphere at key-grid angles
k * pi / 2**(n-1), one integer k in Z_{2**n} each.  Encrypting a codeword bit
turns a state by 0 or pi, which flips the top bit of k, so a cipher is its
integer units and decryption is a deterministic integer check.
"""

from __future__ import annotations

import math
import operator

#: the Monte Carlo draws key integers as int64, so Z_{2**n} must fit below 2**63
MAX_N = 63


def elementary_angle(n: int) -> float:
    """Elementary rotation step pi / 2**(n-1) between adjacent key states."""
    if n < 1:
        raise ValueError(f"angle-resolution exponent must be >= 1, got {n}")
    return math.pi / 2.0 ** (n - 1)


class _Record:
    """Immutable record whose ``__slots__`` are its fields: a frozen dataclass without generated code."""

    __slots__ = ()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        return self.__getstate__() == other.__getstate__() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self.__getstate__())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)


class ProtocolParams(_Record):
    """Public parameter tuple.

    Parameters
    ----------
    n : int
        Angle-resolution exponent; key integers live in Z_{2**n}, 1 <= n <= 63.
    N : int
        Number of qubits in the public key.
    T : int
        Measurements per basis available to an eavesdropper (2T copies total).
    s : int
        Codeword length (security parameter); at most N.
    """

    __slots__ = ("n", "N", "T", "s")

    def __init__(self, n: int, N: int, T: int, s: int):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "s", s)
        if not 1 <= self.n <= MAX_N:
            raise ValueError(f"n must lie in [1, {MAX_N}], got {self.n}")
        if self.s < 1:
            raise ValueError(f"codeword length must be >= 1, got {self.s}")
        if self.N < self.s:
            raise ValueError(f"need N >= s >= 1, got N={self.N}, s={self.s}")
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")

    @property
    def theta(self) -> float:
        """Elementary rotation angle for this resolution."""
        return elementary_angle(self.n)


class PrivateKey(_Record):
    """Secret integer string; each entry selects one public-key qubit state."""

    __slots__ = ("values", "n")

    def __init__(self, values: tuple[int, ...], n: int):
        object.__setattr__(self, "n", n)
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        # Python ints: a float fails here, and a numpy integer cannot overflow in encrypt
        object.__setattr__(self, "values", tuple(map(operator.index, values)))
        top = 1 << self.n
        for v in self.values:
            if not 0 <= v < top:
                raise ValueError(f"key entry {v} outside [0, {top})")

    def __len__(self) -> int:
        return len(self.values)


class Codeword(_Record):
    """Bit string whose parity carries the one-bit message."""

    __slots__ = ("bits",)

    def __init__(self, bits: tuple[int, ...]):
        object.__setattr__(self, "bits", bits)
        if len(self.bits) < 1:
            raise ValueError("codeword must have at least one bit")
        if self.bits.count(0) + self.bits.count(1) != len(self.bits):
            raise ValueError(f"codeword bits must be 0/1, got {self.bits}")

    @property
    def parity(self) -> int:
        return self.bits.count(1) & 1

    def __len__(self) -> int:
        return len(self.bits)


class CipherState(_Record):
    """Encrypted qubits as integer cipher units c = (k + w * 2**(n-1)) mod 2**n at resolution ``n``.

    Each cipher qubit is its public-key state turned by 0 or pi, itself the
    key-grid state at angle c * pi / 2**(n-1).  A tampered cipher has units
    off the two values its key allows.
    """

    __slots__ = ("units", "n")

    def __init__(self, units: tuple[int, ...], n: int):
        object.__setattr__(self, "units", units)
        object.__setattr__(self, "n", n)

    def __len__(self) -> int:
        return len(self.units)


def encrypt(codeword: Codeword, key: PrivateKey) -> CipherState:
    """Encrypt a codeword onto the first len(codeword) public-key qubits.

    Adding w * 2**(n-1) modulo 2**n flips the top bit of the key integer, so
    each cipher unit is k XOR (2**(n-1) if w else 0).  The bit is only
    tested, never shifted, so numpy bits cannot overflow their width.
    """
    bits = codeword.bits
    if len(bits) > len(key.values):
        raise ValueError(f"codeword length {len(bits)} exceeds key length {len(key.values)}")
    half_turn = 1 << (key.n - 1)
    return CipherState(tuple([k ^ half_turn if w else k for k, w in zip(key.values, bits)]), key.n)


def decrypt(cipher: CipherState, key: PrivateKey, params: ProtocolParams) -> tuple[tuple[int, ...], int]:
    """Recover the codeword bits and the message parity from a cipherstate.

    Each cipher qubit is measured in the basis defined by the corresponding
    key integer; for states produced by :func:`encrypt` the outcome is
    deterministic and exact.  On cipher units this is an integer check:
    c XOR k must be 0 (bit 0) or 2**(n-1) (bit 1).

    Returns
    -------
    (bits, message) : tuple of recovered codeword bits and their parity.
    """
    n = key.n
    if params.n != n:
        raise ValueError(f"params resolution {params.n} does not match key resolution {n}")
    size = len(cipher)
    if size != params.s:
        raise ValueError(f"cipher has {size} qubits, expected s={params.s}")
    if size > len(key.values):
        raise ValueError(f"cipher length {size} exceeds key length {len(key.values)}")
    if cipher.n != n:
        raise ValueError(f"cipher qubit resolution {cipher.n} does not match key resolution {n}")
    # the position of c XOR k in (0, 2**(n-1)) is the bit; any other value raises
    try:
        bits = tuple(map((0, 1 << (n - 1)).index, map(operator.xor, cipher.units, key.values)))
    except (ValueError, TypeError):
        raise ValueError("cipher qubit is neither parallel nor antiparallel to the key state") from None
    return bits, bits.count(1) & 1
