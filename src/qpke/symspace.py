"""Density operators of repeated public-key copies in the symmetric Hamming-weight basis.

tau identically prepared copies of a public-key qubit never leave the
(tau+1)-dimensional permutation-symmetric subspace, so the mixture over all
key values is a small real symmetric matrix indexed by Hamming weight.  This
module builds those operators, diagonalizes them, and takes their entropies;
the prior's spectrum is also a closed form (``prior_spectrum``), and the
Holevo bounds those entropies are checked against are closed forms in
``qpke.symmetry``.

numpy is imported only by the functions that build or diagonalize an
operator (annotations name it as ``np``; they are never evaluated).
``critical_n``, ``prior_spectrum``, ``shannon_entropy`` and ``Spectrum`` run
on ``math`` alone, so importing this module, and the ``prior`` table, load
no numpy.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .protocol import _Record, elementary_angle

MAX_TAU = 64
MAX_N = 20

#: numerical-rank threshold, relative to the largest eigenvalue
RANK_RTOL = 1e-10

#: largest entrywise distance from the exact prior that defines ``critical_n``
CRITICAL_TOL = 1e-12


# one table: only a loop over n at one tau reads a table again, and every
# prior of that tau reads the same 2**bit_length table
@lru_cache(maxsize=1)
def symmetric_state_components(tau: int, n: int) -> np.ndarray:
    """Components of all 2**n repeated-copy states in the Hamming-weight basis.

    Returns an array A of shape (2**n, tau+1) with
    A[k, l] = sqrt(binom(tau, l)) * cos(k*theta/2)**(tau-l) * sin(k*theta/2)**l,
    i.e. row k is the state vector of tau copies of key value k.
    """
    import numpy as np

    theta = elementary_angle(n)
    half = np.arange(1 << n) * (theta / 2.0)
    weights = np.arange(tau + 1)
    c = np.cos(half)[:, None]
    s = np.sin(half)[:, None]
    # 0.0 ** 0 evaluates to 1.0, which is the correct endpoint value
    comps = c ** (tau - weights)[None, :] * s ** weights[None, :]
    comps *= np.sqrt([math.comb(tau, int(l)) for l in weights])
    comps.flags.writeable = False
    return comps


class SymmetricDensityOperator(_Record):
    """(tau+1) x (tau+1) real symmetric density matrix in the Hamming-weight basis."""

    __slots__ = ("tau", "matrix")

    def __init__(self, tau: int, matrix: np.ndarray):
        object.__setattr__(self, "tau", tau)
        import numpy as np

        m = np.asarray(matrix, dtype=float)
        if m.shape != (self.tau + 1, self.tau + 1):
            raise ValueError(f"expected shape {(self.tau + 1, self.tau + 1)}, got {m.shape}")
        if not np.max(np.abs(m - m.T)) <= 1e-14:
            raise ValueError("matrix is not symmetric to 1e-14")
        if not abs(np.trace(m) - 1.0) <= 1e-12:
            raise ValueError(f"trace must be 1 to 1e-12, got {np.trace(m)}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def mixture_density(weights: np.ndarray, tau: int, n: int) -> SymmetricDensityOperator:
    """Density operator A^T diag(weights) A of tau copies, ``weights`` a probability vector over Z_{2**n}."""
    import numpy as np

    _check_ranges(tau, n)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (1 << n,):
        raise ValueError(f"weights must have shape ({1 << n},), got {weights.shape}")
    return _gram(tau, symmetric_state_components(tau, n), weights)


def prior_density(tau: int, n: int) -> SymmetricDensityOperator:
    """A-priori density operator of tau copies, uniform over all 2**n key values.

    Its entries are trigonometric polynomials of degree tau in the key angle, which
    2**m > tau equally spaced keys average exactly; so the mixture is over every
    2**(bit_length - m)-th row of the 2**bit_length table, m = min(n, bit_length).
    """
    import numpy as np

    _check_ranges(tau, n)
    m = min(n, tau.bit_length())
    comps = symmetric_state_components(tau, tau.bit_length())[:: 1 << (tau.bit_length() - m)]
    return _gram(tau, comps, np.full(1 << m, 1.0 / (1 << m)))


def _gram(tau: int, comps: np.ndarray, weights: np.ndarray) -> SymmetricDensityOperator:
    """A^T diag(weights) A by one matrix product, symmetrized exactly."""
    mat = (comps * weights[:, None]).T @ comps
    return SymmetricDensityOperator(tau, (mat + mat.T) / 2.0)


def _check_ranges(tau: int, n: int) -> None:
    if not 1 <= tau <= MAX_TAU:
        raise ValueError(f"copy count must lie in [1, {MAX_TAU}], got {tau}")
    if not 1 <= n <= MAX_N:
        raise ValueError(f"resolution exponent must lie in [1, {MAX_N}], got {n}")


class Spectrum(_Record):
    """Eigenvalues of a density operator, a non-increasing tuple of floats, and their rank.

    The rank counts the eigenvalues above RANK_RTOL times the first, the largest.
    """

    __slots__ = ("eigenvalues", "rank")

    def __init__(self, eigenvalues: tuple[float, ...]):
        vals = tuple(map(float, eigenvalues))
        # checked before the sum, so a NaN fails here and the sum cannot overflow
        if not all(-1e-10 <= v <= 1.0 + 1e-10 for v in vals):
            raise ValueError("eigenvalues must lie in [-1e-10, 1 + 1e-10]")
        if not abs(math.fsum(vals) - 1.0) <= 1e-10:
            raise ValueError(f"eigenvalues must sum to 1 to 1e-10, got {math.fsum(vals)}")
        if any(a < b for a, b in zip(vals, vals[1:])):
            raise ValueError("eigenvalues must be non-increasing")
        object.__setattr__(self, "eigenvalues", vals)
        threshold = RANK_RTOL * max(vals[0], 0.0)
        object.__setattr__(self, "rank", sum(v > threshold for v in vals))


def eigendecompose(rho: SymmetricDensityOperator) -> Spectrum:
    """Full spectrum of a density operator via LAPACK's symmetric eigensolver."""
    import numpy as np

    return Spectrum(np.linalg.eigvalsh(rho.matrix)[::-1].tolist())


def prior_spectrum(tau: int, n: int) -> Spectrum:
    """Spectrum of ``prior_density(tau, n)`` in closed form, each eigenvalue correctly rounded.

    Key k turns the copies by exp(-i k theta J_y), and the average over 2**n keys keeps a
    coherence only between J_y eigenvalues 2**n apart: one rank-1 block per class r of
    j mod 2**n, of eigenvalue sum over j = r mod 2**n of binom(tau, j) / 2**tau.
    """
    _check_ranges(tau, n)
    sums = [0] * (tau + 1)
    for j in range(tau + 1):
        sums[j % (1 << n)] += math.comb(tau, j)
    return Spectrum(sorted((s / 2.0 ** tau for s in sums), reverse=True))


def shannon_entropy(probs) -> float:
    """Shannon entropy in bits of a sequence of probabilities, with 0 * log 0 = 0; entries not above 0 are skipped."""
    return -math.fsum(p * math.log2(p) for p in probs if p > 0.0)


def von_neumann_entropy(rho: SymmetricDensityOperator) -> float:
    """Von Neumann entropy in bits: Shannon entropy of the eigenvalue spectrum."""
    return shannon_entropy(eigendecompose(rho).eigenvalues)


def critical_n(tau: int) -> int:
    """Smallest n whose prior lies within CRITICAL_TOL of the exact one, in closed form."""
    _check_ranges(tau, 1)
    # 2**n > tau keys average the degree-tau entries exactly (see ``prior_density``).  One grid
    # below, a power-of-two tau aliases only its top frequency +-tau, which moves no entry by more
    # than 2 C(tau, tau/2) / 4**tau; any other tau <= MAX_TAU moves one by more than CRITICAL_TOL.
    # Past MAX_TAU this fails (tau = 65 moves none by 1e-16 at n = 6): the law holds to MAX_TAU.
    n = tau.bit_length()
    if tau & (tau - 1) == 0 and 2 * math.comb(tau, tau // 2) / 4.0 ** tau < CRITICAL_TOL:
        return n - 1
    return n
