"""State estimation from independent projective measurements, and what it buys an eavesdropper.

The attacker splits 2T public-key copies evenly between the z and x bases,
counts the "0" outcomes per basis, and updates a uniform prior over the 2**n
key values by Bayes' rule.  The posterior yields an estimated Bloch vector,
the measurement basis for the cipher qubit, and from there the per-key and
ensemble-average bit-recovery probabilities.  This module holds only the
likelihood tables and what is summed from them; the closed forms that bound
or extend these values (the collective optimum, the 1 - 1/(6T) cap and the
codeword laws) live in ``qpke.symmetry``.

The bases are measured independently, so the outcome likelihood factors as
P_z[t0z, k] * P_x[t0x, k]: every exact sum over Z_{2**n} and the outcome grid
is a matrix product of the two (T+1, 2**n) tables, in O(T * 2**n) memory.
The posterior-mean Bloch vectors E of the outcome pairs, and with them the
estimated bases U = E / (2|E|) and the ensemble-average success, are
key-angle sums of trigonometric polynomials of degree <= 2T+1; they are
summed exactly on the 2**m keys of m = min(n, (2T+1).bit_length()), in
O(T * 2**m) memory at any n.  U is the one estimated-basis table: per-key
success and the Monte Carlo attack both read it.  Per-key success and the
information gain still sum over all 2**n keys.  These tables are the one
model of an outcome: a posterior is a normalized row product P_z[t0z] P_x[t0x].
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .protocol import _Record, elementary_angle

MAX_N = 14

#: below this estimated-Bloch-vector norm the attacker has no preferred basis
DEGENERATE_NORM = 1e-12

#: switch binomial likelihoods to log-space evaluation beyond this T
LOG_SPACE_T = 30


class ImpossibleOutcomeError(ValueError):
    """Raised when conditioning on an outcome that has zero probability."""


class MeasurementOutcome(_Record):
    """Counts of "0" outcomes from T measurements in each of the z and x bases."""

    __slots__ = ("t0z", "t0x")

    def __init__(self, t0z: int, t0x: int):
        object.__setattr__(self, "t0z", t0z)
        object.__setattr__(self, "t0x", t0x)
        if self.t0z < 0 or self.t0x < 0:
            raise ValueError(f"outcome counts must be >= 0, got {self}")


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_N:
        raise ValueError(f"resolution exponent must lie in [1, {MAX_N}], got {n}")


@lru_cache(maxsize=32)
def _prob0_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    # P("0" | k) in the z and x bases for every key value k; every 2**n table
    # is built from these, so n is bounded here.  Structural zeros
    # (orthogonal states) must be exact: the smallest genuine probability at
    # n <= 14 is sin^2(pi/2^15) ~ 9e-9, so snapping below 1e-30 cannot touch
    # a real value.  The structural ones are cos(0)**2, exactly 1 already.
    _check_n(n)
    half = np.arange(1 << n) * (elementary_angle(n) / 2.0)
    p0z = np.cos(half) ** 2
    p0x = np.cos(np.pi / 4.0 - half) ** 2
    for p in (p0z, p0x):
        p[p < 1e-30] = 0.0
        p.flags.writeable = False
    return p0z, p0x


@lru_cache(maxsize=32)
def _key_bloch(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Bloch components (cos k*theta, sin k*theta) of every key state k, shapes (2^n,)."""
    angles = np.arange(1 << n) * elementary_angle(n)
    tables = np.cos(angles), np.sin(angles)
    for a in tables:
        a.flags.writeable = False
    return tables


def _binomial_pmf_rows(T: int, p0: np.ndarray, out: np.ndarray) -> np.ndarray:
    """PMF matrix of shape (T+1, len(p0)), written to ``out``: row c is P(count = c) for each success probability."""
    counts = np.arange(T + 1)[:, None]
    if T <= LOG_SPACE_T:
        comb = np.array([math.comb(T, c) for c in range(T + 1)], dtype=float)[:, None]
        np.power(p0[None, :], counts, out=out)
        out *= comb
        out *= (1.0 - p0)[None, :] ** (T - counts)
        return out
    # log-space with log-gamma binomials; p0 in {0, 1} handled by masks
    log_comb = np.array(
        [math.lgamma(T + 1) - math.lgamma(c + 1) - math.lgamma(T - c + 1) for c in range(T + 1)]
    )[:, None]
    interior = (p0 > 0.0) & (p0 < 1.0)
    out.fill(0.0)
    if np.any(interior):
        p = p0[interior]
        logs = log_comb + counts * np.log(p)[None, :] + (T - counts) * np.log1p(-p)[None, :]
        out[:, interior] = np.exp(logs)
    out[0, p0 == 0.0] = 1.0
    out[T, p0 == 1.0] = 1.0
    return out


def _check_T(T: int) -> None:
    # every outcome table is built by _likelihood_grid, so one T range holds
    # at every n: the largest T whose exact grid of (2T+1).bit_length() keys
    # fits MAX_N
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T}")
    largest = (1 << (MAX_N - 1)) - 1
    if T > largest:
        raise ValueError(f"T must be <= {largest}, got {T}")


# room for the two grids that one T reads, its n grid and its outcome grid
# (``_bloch_sums``), so a sweep over T holds no grid of a T it has passed
@lru_cache(maxsize=2)
def _likelihood_grid(T: int, n: int) -> np.ndarray:
    """Per-basis likelihoods [P_z, P_x][count, k], shape (2, T+1, 2**n); L[a, b, k] = P_z[a, k] P_x[b, k]."""
    _check_T(T)
    p0z, p0x = _prob0_tables(n)
    grid = np.empty((2, T + 1, p0z.size))
    _binomial_pmf_rows(T, p0z, grid[0])
    _binomial_pmf_rows(T, p0x, grid[1])
    grid.flags.writeable = False
    return grid


def _exact_n(T: int) -> int:
    """Smallest resolution whose 2**n > 2T+1 keys average the T-copy outcome grid exactly.

    L[a, b, k] and L[a, b, k] (cos k*theta, sin k*theta) are trigonometric
    polynomials of degree <= 2T+1 in the key angle, and the mean over more
    than 2T+1 equally spaced nodes of such a polynomial is its mean over the
    circle.  So sum_k / 2**n of either is the same at every n >= _exact_n(T),
    and ``mean_success`` there equals its continuum value.
    """
    return (2 * T + 1).bit_length()


def _outcome_n(T: int, n: int) -> int:
    """Smallest resolution m <= n whose 2**m keys sum the outcome grid's Bloch estimates exactly."""
    return min(n, _exact_n(T))


def _bloch_sums(T: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """U_z, U_x, |E| and the directed flags of every outcome pair, each of shape (T+1, T+1).

    E = sum_k L (cos k*theta, sin k*theta) over the 2**m keys of
    m = _outcome_n(T, n), and U = E / (2|E|) on directed pairs, 0 elsewhere:
    the half-length direction of the estimated basis.  Only U, E / sum_k L
    and |E| / 2**m are the same at every n >= m, so callers read those.  A
    pair is directed when its posterior-mean Bloch vector E / sum_k L is not
    degenerate and |E| is a normal float.  Below that 1/|E| overflows, and
    such a pair is so unlikely (sum_k L < 1e-295) that taking it as
    degenerate changes no result.
    """
    m = _outcome_n(T, n)
    pz, px = _likelihood_grid(T, m)
    cos_k, sin_k = _key_bloch(m)
    totals = pz @ px.T
    est_z = (pz * cos_k) @ px.T
    est_x = (pz * sin_k) @ px.T
    norms = np.hypot(est_z, est_x)
    directed = norms >= np.finfo(float).tiny
    directed[directed] = norms[directed] / totals[directed] >= DEGENERATE_NORM
    scale = np.divide(0.5, norms, out=np.zeros_like(norms), where=directed)
    return est_z * scale, est_x * scale, norms, directed


def _outcome_rows(outcome: MeasurementOutcome, T: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows P_z[t0z] and P_x[t0x] of the outcome pair's counts, each of shape (2**n,)."""
    if outcome.t0z > T or outcome.t0x > T:
        raise ValueError(f"outcome counts exceed T={T}: {outcome}")
    pz, px = _likelihood_grid(T, n)
    return pz[outcome.t0z], px[outcome.t0x]


def evidence(outcome: MeasurementOutcome, T: int, n: int) -> float:
    """Marginal probability of the outcome pair under the uniform key prior."""
    pz, px = _outcome_rows(outcome, T, n)
    return float(np.mean(pz * px))


class PosteriorDistribution(_Record):
    """Probabilities over key values after conditioning on a measurement outcome."""

    __slots__ = ("probabilities", "outcome", "T", "n")

    def __init__(self, probabilities: np.ndarray, outcome: MeasurementOutcome, T: int, n: int):
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "n", n)
        p = np.asarray(probabilities, dtype=float)
        if p.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} probabilities, got shape {p.shape}")
        if not (0.0 <= np.min(p) and np.max(p) <= 1.0 + 1e-12):
            raise ValueError("posterior entries must lie in [0, 1]")
        if not abs(np.sum(p) - 1.0) <= 1e-12:
            raise ValueError(f"posterior must sum to 1 to 1e-12, got {np.sum(p)}")
        p.flags.writeable = False
        object.__setattr__(self, "probabilities", p)


def posterior(outcome: MeasurementOutcome, T: int, n: int) -> PosteriorDistribution:
    """Bayes update of the uniform key prior on an outcome pair.

    Raises
    ------
    ImpossibleOutcomeError
        If the outcome has zero probability under every key value.
    """
    pz, px = _outcome_rows(outcome, T, n)
    row = pz * px
    total = np.sum(row)
    if total <= 0.0:
        raise ImpossibleOutcomeError(f"outcome {outcome} has zero evidence at T={T}, n={n}")
    return PosteriorDistribution(row / total, outcome, T, n)


def information_gain(T: int, n: int) -> float:
    """Average Shannon-entropy drop of the key-value distribution, in bits.

    n minus the expected posterior entropy over the full outcome grid; lies in
    [0, n], and is 0 for T = 0.
    """
    # the posterior entropy of (a, b) is log2(Q) - sum_k L log2(L) / Q with
    # Q = sum_k L, and log2(L) splits into one log table per basis
    pz, px = _likelihood_grid(T, n)
    plogp = _xlog2x(pz) @ px.T + pz @ _xlog2x(px).T
    return float(n + (np.sum(plogp) - np.sum(_xlog2x(pz @ px.T))) / (1 << n))


def _xlog2x(p: np.ndarray) -> np.ndarray:
    """Elementwise p * log2(p), with 0 * log2(0) = 0."""
    return p * np.log2(np.where(p > 0.0, p, 1.0))


def success_by_key(T: int, n: int) -> np.ndarray:
    """Per-key bit-recovery probabilities for every key value, averaged over the outcome grid.

    sum_{a,b} L[a, b, k] (1/2 + U[a, b] . (cos k*theta, sin k*theta)), with
    U from ``_bloch_sums``, factors per Bloch component into
    sum_a P_z[a, k] (U P_x)[a, k].  U is the same on every key grid, while
    the sums over outcomes run at the keys' own angles.

    Capped at 1: above LOG_SPACE_T the PMF rows sum to 1 only to ~T * 1e-16.
    """
    pz, px = _likelihood_grid(T, n)
    half_z, half_x, _, _ = _bloch_sums(T, n)
    # one Bloch component at a time, so one (T+1, 2**n) product is held
    toward = [np.einsum("ak,ak->k", pz, half @ px) for half in (half_z, half_x)]
    cos_k, sin_k = _key_bloch(n)
    success = 0.5 * pz.sum(axis=0) * px.sum(axis=0) + cos_k * toward[0] + sin_k * toward[1]
    return np.minimum(success, 1.0, out=success)


def mean_success(T: int, n: int) -> float:
    """Bit-recovery probability averaged over the uniform key ensemble, 1/2 + 2**-(m+1) sum_directed |E|.

    The sum runs over the 2**m keys of m = _outcome_n(T, n), so the value is
    the same at every n with 2**n > 2T+1, and only m is bounded by MAX_N.

    Capped at 1: at large T and small n the sum reaches 1 and rounds past it.
    """
    _, _, norms, directed = _bloch_sums(T, n)
    return min(1.0, float(0.5 + np.sum(norms[directed]) / (1 << (_outcome_n(T, n) + 1))))
