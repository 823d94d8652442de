"""Protocol primitives: key generation, public-key qubit states, and parity-codeword encryption.

States live on the x-z great circle of the Bloch sphere and are identified by
their angle from the z axis.  Angles are kept in exact integer form (multiples
of the elementary rotation step) whenever possible, so that the 0-or-pi
encryption shifts are exact and decryption is a deterministic integer check.
"""

from __future__ import annotations

import math
import operator
from dataclasses import FrozenInstanceError, dataclass

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
        if self.bits.count(0) + self.bits.count(1) != len(self.bits):
            raise ValueError(f"codeword bits must be 0/1, got {self.bits}")

    @property
    def parity(self) -> int:
        return sum(self.bits) & 1

    def __len__(self) -> int:
        return len(self.bits)


def encode_message(m: int, s: int, rng: np.random.Generator) -> Codeword:
    """Draw a codeword uniformly from the 2**(s-1) length-s strings of parity m."""
    if m not in (0, 1):
        raise ValueError(f"message bit must be 0 or 1, got {m}")
    if s < 1:
        raise ValueError(f"codeword length must be >= 1, got {s}")
    free = rng.integers(0, 2, size=s - 1).tolist()
    return Codeword((*free, m ^ (sum(free) & 1)))


class CipherState:
    """Sequence of encrypted qubits, each 0 or pi away from its public-key state.

    :func:`encrypt` gives the exact form: integer cipher units
    c = (k + w * 2**(n-1)) mod 2**n and the resolution n, from which the
    :class:`QubitAngle` view is built only when ``qubits`` is read.
    ``CipherState((q, ...))`` keeps the qubits as given (``units`` is None),
    so tampered or continuous angles are checked qubit by qubit.  Instances
    are immutable.
    """

    __slots__ = ("units", "n", "_qubits")

    def __init__(self, qubits: tuple[QubitAngle, ...]):
        self._fill(None, None, tuple(qubits))

    @classmethod
    def _exact(cls, units: tuple[int, ...], n: int) -> "CipherState":
        # cipher units known to lie in [0, 2**n)
        cipher = cls.__new__(cls)
        cipher._fill(units, n, None)
        return cipher

    def _fill(self, units, n, qubits) -> None:
        set_field = object.__setattr__
        set_field(self, "units", units)
        set_field(self, "n", n)
        set_field(self, "_qubits", qubits)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def qubits(self) -> tuple[QubitAngle, ...]:
        if self._qubits is None:
            object.__setattr__(self, "_qubits", tuple(QubitAngle.exact(c, self.n) for c in self.units))
        return self._qubits

    def __len__(self) -> int:
        return len(self._qubits if self.units is None else self.units)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CipherState):
            return NotImplemented
        return self.qubits == other.qubits

    def __hash__(self) -> int:
        return hash(self.qubits)

    def __repr__(self) -> str:
        if self.units is None:
            return f"CipherState(qubits={self._qubits!r})"
        return f"CipherState(units={self.units!r}, n={self.n})"


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
    return CipherState._exact(tuple([k ^ half_turn if w else k for k, w in zip(key.values, bits)]), key.n)


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
    if cipher.units is None:
        bits = tuple(_recover_bit(q, k, n) for q, k in zip(cipher.qubits, key.values))
    else:
        if cipher.n != n:
            raise ValueError(f"cipher qubit resolution {cipher.n} does not match key resolution {n}")
        # the position of c XOR k in (0, 2**(n-1)) is the bit; any other value raises
        try:
            bits = tuple(map((0, 1 << (n - 1)).index, map(operator.xor, cipher.units, key.values)))
        except ValueError:
            raise ValueError("cipher qubit is neither parallel nor antiparallel to the key state") from None
    return bits, sum(bits) & 1
