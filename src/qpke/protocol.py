"""Protocol primitives: key generation, public-key qubit states, and parity-codeword encryption.

States live on the x-z great circle of the Bloch sphere and are identified by
their angle from the z axis.  Angles are kept in exact integer form (multiples
of the elementary rotation step) whenever possible, so that the 0-or-pi
encryption shifts are exact and decryption is a deterministic integer check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

#: key integers are drawn as int64, so Z_{2**n} must fit below 2**63
MAX_N = 63


def elementary_angle(n: int) -> float:
    """Elementary rotation step pi / 2**(n-1) between adjacent key states."""
    if n < 1:
        raise ValueError(f"angle-resolution exponent must be >= 1, got {n}")
    return math.pi / 2.0 ** (n - 1)


@dataclass(frozen=True)
class ProtocolParams:
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

    n: int
    N: int
    T: int
    s: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_N:
            raise ValueError(f"n must lie in [1, {MAX_N}], got {self.n}")
        if self.s < 1 or self.N < self.s:
            raise ValueError(f"need N >= s >= 1, got N={self.N}, s={self.s}")
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")

    @property
    def theta(self) -> float:
        """Elementary rotation angle for this resolution."""
        return elementary_angle(self.n)

    @property
    def total_copies(self) -> int:
        """Total public-key copies in circulation, 2T + 1 (one is consumed by the receiver)."""
        return 2 * self.T + 1


@dataclass(frozen=True)
class QubitAngle:
    """A qubit state cos(phi/2)|0> + sin(phi/2)|1>, tracked by its angle phi.

    Carries either an exact form (``units`` multiples of the elementary angle
    for resolution ``n``) or a continuous angle ``value`` in radians.  The
    exact form is closed under the 0/pi encryption shifts, which keeps
    round-trips free of 2*pi-reduction drift.
    """

    units: int | None = None
    n: int | None = None
    value: float | None = None

    def __post_init__(self):
        if self.units is not None:
            if self.n is None or self.value is not None:
                raise ValueError("exact form needs (units, n) and no radian value")
            if self.n < 1:
                raise ValueError(f"n must be >= 1, got {self.n}")
            if not 0 <= self.units < (1 << self.n):
                raise ValueError(f"units must lie in [0, 2**{self.n}), got {self.units}")
        else:
            if self.value is None or self.n is not None:
                raise ValueError("continuous form needs a radian value only")
            object.__setattr__(self, "value", float(self.value) % TWO_PI)

    @classmethod
    def exact(cls, units: int, n: int) -> "QubitAngle":
        return cls(units=units, n=n)

    @classmethod
    def from_radians(cls, phi: float) -> "QubitAngle":
        return cls(value=phi)

    @property
    def is_exact(self) -> bool:
        return self.units is not None

    @property
    def radians(self) -> float:
        if self.is_exact:
            return self.units * elementary_angle(self.n)
        return self.value

    def bloch(self) -> tuple[float, float]:
        """Bloch-vector components (z, x) = (cos phi, sin phi)."""
        phi = self.radians
        return math.cos(phi), math.sin(phi)

    def amplitudes(self) -> tuple[float, float]:
        """State amplitudes (cos(phi/2), sin(phi/2)) in the z basis."""
        phi = self.radians
        return math.cos(phi / 2.0), math.sin(phi / 2.0)


def public_qubit_state(k: int, n: int) -> QubitAngle:
    """Public-key qubit state for key integer k at resolution n (angle k * theta_n)."""
    if not 0 <= k < (1 << n):
        raise ValueError(f"key integer must lie in [0, 2**{n}), got {k}")
    return QubitAngle.exact(k, n)


def encrypt_bit(q: QubitAngle, w: int) -> QubitAngle:
    """Encrypt one codeword bit on a qubit: advance the angle by w * pi.

    w = 0 leaves the state untouched; w = 1 maps it to the orthogonal state.
    Exact-form angles stay exact (the shift is 2**(n-1) angle units).
    """
    if w not in (0, 1):
        raise ValueError(f"codeword bit must be 0 or 1, got {w}")
    if w == 0:
        return q
    if q.is_exact:
        half_turn = 1 << (q.n - 1)
        return QubitAngle.exact((q.units + half_turn) % (1 << q.n), q.n)
    return QubitAngle.from_radians(q.value + math.pi)


@dataclass(frozen=True)
class PrivateKey:
    """Secret integer string; each entry selects one public-key qubit state."""

    values: tuple[int, ...]
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        top = 1 << self.n
        for v in self.values:
            if not 0 <= v < top:
                raise ValueError(f"key entry {v} outside [0, {top})")

    def __len__(self) -> int:
        return len(self.values)


def generate_private_key(params: ProtocolParams, rng: np.random.Generator) -> PrivateKey:
    """Draw N independent uniform integers from Z_{2**n}."""
    values = rng.integers(0, 1 << params.n, size=params.N)
    return PrivateKey(tuple(int(v) for v in values), params.n)


@dataclass(frozen=True)
class Codeword:
    """Bit string whose parity carries the one-bit message."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) < 1:
            raise ValueError("codeword must have at least one bit")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"codeword bits must be 0/1, got {self.bits}")

    @property
    def parity(self) -> int:
        p = 0
        for b in self.bits:
            p ^= b
        return p

    def __len__(self) -> int:
        return len(self.bits)


def encode_message(m: int, s: int, rng: np.random.Generator) -> Codeword:
    """Draw a codeword uniformly from the 2**(s-1) length-s strings of parity m."""
    if m not in (0, 1):
        raise ValueError(f"message bit must be 0 or 1, got {m}")
    if s < 1:
        raise ValueError(f"codeword length must be >= 1, got {s}")
    free = [int(b) for b in rng.integers(0, 2, size=s - 1)]
    last = m
    for b in free:
        last ^= b
    return Codeword(tuple(free + [last]))


@dataclass(frozen=True)
class CipherState:
    """Sequence of encrypted qubits, each 0 or pi away from its public-key state."""

    qubits: tuple[QubitAngle, ...]

    def __len__(self) -> int:
        return len(self.qubits)


def encrypt(codeword: Codeword, key: PrivateKey) -> CipherState:
    """Encrypt a codeword onto the first len(codeword) public-key qubits."""
    if len(codeword) > len(key):
        raise ValueError(f"codeword length {len(codeword)} exceeds key length {len(key)}")
    qubits = tuple(
        encrypt_bit(public_qubit_state(k, key.n), w)
        for k, w in zip(key.values, codeword.bits)
    )
    return CipherState(qubits)


def _recover_bit(q: QubitAngle, k: int, n: int) -> int:
    # Measurement in the key-defined basis {k*theta, k*theta + pi}: deterministic
    # because a genuine cipher qubit is one of the two orthogonal basis states.
    if q.is_exact:
        if q.n != n:
            raise ValueError(f"cipher qubit resolution {q.n} does not match key resolution {n}")
        diff = (q.units - k) % (1 << n)
        if diff == 0:
            return 0
        if diff == 1 << (n - 1):
            return 1
        raise ValueError("cipher qubit is neither parallel nor antiparallel to the key state")
    diff = (q.value - k * elementary_angle(n)) % TWO_PI
    if min(diff, TWO_PI - diff) < 1e-9:
        return 0
    if abs(diff - math.pi) < 1e-9:
        return 1
    raise ValueError("cipher qubit is neither parallel nor antiparallel to the key state")


def decrypt(cipher: CipherState, key: PrivateKey, params: ProtocolParams) -> tuple[tuple[int, ...], int]:
    """Recover the codeword bits and the message parity from a cipherstate.

    Each cipher qubit is measured in the basis defined by the corresponding
    key integer; for states produced by :func:`encrypt` the outcome is
    deterministic and exact.

    Returns
    -------
    (bits, message) : tuple of recovered codeword bits and their parity.
    """
    if params.n != key.n:
        raise ValueError(f"params resolution {params.n} does not match key resolution {key.n}")
    if len(cipher) != params.s:
        raise ValueError(f"cipher has {len(cipher)} qubits, expected s={params.s}")
    if len(cipher) > len(key):
        raise ValueError(f"cipher length {len(cipher)} exceeds key length {len(key)}")
    bits = tuple(_recover_bit(q, k, key.n) for q, k in zip(cipher.qubits, key.values))
    message = 0
    for b in bits:
        message ^= b
    return bits, message
