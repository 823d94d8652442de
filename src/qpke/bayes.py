"""State estimation from independent projective measurements, and what it buys an eavesdropper.

The attacker splits 2T public-key copies evenly between the z and x bases,
counts the "0" outcomes per basis, and updates a uniform prior over the 2**n
key values by Bayes' rule.  The posterior yields an estimated Bloch vector,
the measurement basis for the cipher qubit, and from there per-bit and
per-codeword success probabilities together with their closed-form bounds.

The bases are measured independently, so the outcome likelihood factors as
P_z[t0z, k] * P_x[t0x, k]: every exact sum over Z_{2**n} and the outcome grid
is a matrix product of the two (T+1, 2**n) tables, in O(T * 2**n) memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .protocol import elementary_angle
from .symspace import SymmetricDensityOperator, mixture_density

MAX_N = 14

#: below this estimated-Bloch-vector norm the attacker has no preferred basis
DEGENERATE_NORM = 1e-12

#: switch binomial likelihoods to log-space evaluation beyond this T
LOG_SPACE_T = 30


class ImpossibleOutcomeError(ValueError):
    """Raised when conditioning on an outcome that has zero probability."""


@dataclass(frozen=True)
class MeasurementOutcome:
    """Counts of "0" outcomes from T measurements in each of the z and x bases."""

    t0z: int
    t0x: int

    def __post_init__(self):
        if self.t0z < 0 or self.t0x < 0:
            raise ValueError(f"outcome counts must be >= 0, got {self}")


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_N:
        raise ValueError(f"resolution exponent must lie in [1, {MAX_N}], got {n}")


@lru_cache(maxsize=32)
def _prob0_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    # P("0" | k) in the z and x bases for every key value k.  Structural
    # zeros/ones (orthogonal or identical states) must be exact: the smallest
    # genuine probability at n <= 14 is sin^2(pi/2^15) ~ 9e-9, so snapping
    # below 1e-30 cannot touch a real value.
    half = np.arange(1 << n) * (elementary_angle(n) / 2.0)
    p0z = np.cos(half) ** 2
    p0x = np.cos(np.pi / 4.0 - half) ** 2
    for p in (p0z, p0x):
        p[p < 1e-30] = 0.0
        p[p > 1.0 - 1e-15] = 1.0
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


def outcome_prob_single(basis: str, outcome: int, k: int, n: int) -> float:
    """Probability of one outcome when measuring the key-k state in the z or x basis.

    P("0") = cos^2(beta*pi/4 - k*theta/2) with beta = 0 for z and 1 for x;
    P("1") is its exact complement.
    """
    if basis not in ("z", "x"):
        raise ValueError(f"basis must be 'z' or 'x', got {basis!r}")
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    _check_n(n)
    if not 0 <= k < (1 << n):
        raise ValueError(f"key integer must lie in [0, 2**{n}), got {k}")
    p0z, p0x = _prob0_tables(n)
    p0 = float(p0z[k] if basis == "z" else p0x[k])
    return p0 if outcome == 0 else 1.0 - p0


def _binomial_pmf_rows(T: int, p0: np.ndarray) -> np.ndarray:
    """PMF matrix of shape (T+1, len(p0)): row c is P(count = c) for each success probability."""
    counts = np.arange(T + 1)[:, None]
    if T <= LOG_SPACE_T:
        comb = np.array([math.comb(T, c) for c in range(T + 1)], dtype=float)[:, None]
        return comb * p0[None, :] ** counts * (1.0 - p0)[None, :] ** (T - counts)
    # log-space with log-gamma binomials; p0 in {0, 1} handled by masks
    log_comb = np.array(
        [math.lgamma(T + 1) - math.lgamma(c + 1) - math.lgamma(T - c + 1) for c in range(T + 1)]
    )[:, None]
    interior = (p0 > 0.0) & (p0 < 1.0)
    pmf = np.zeros((T + 1, p0.size))
    if np.any(interior):
        p = p0[interior]
        logs = log_comb + counts * np.log(p)[None, :] + (T - counts) * np.log1p(-p)[None, :]
        pmf[:, interior] = np.exp(logs)
    pmf[0, p0 == 0.0] = 1.0
    pmf[T, p0 == 1.0] = 1.0
    return pmf


@lru_cache(maxsize=16)
def _likelihood_grid(T: int, n: int) -> np.ndarray:
    """Per-basis likelihoods [P_z, P_x][count, k], shape (2, T+1, 2**n); L[a, b, k] = P_z[a, k] P_x[b, k]."""
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T}")
    p0z, p0x = _prob0_tables(n)
    grid = np.stack([_binomial_pmf_rows(T, p0z), _binomial_pmf_rows(T, p0x)])
    grid.flags.writeable = False
    return grid


def _bloch_sums(T: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """E_z, E_x, |E| and the directed flags of every outcome pair, each of shape (T+1, T+1).

    E = sum_k L (cos k*theta, sin k*theta); a pair is directed when it is possible
    and its posterior-mean Bloch vector E / sum_k L is not degenerate.
    """
    pz, px = _likelihood_grid(T, n)
    cos_k, sin_k = _key_bloch(n)
    totals = pz @ px.T
    est_z = (pz * cos_k) @ px.T
    est_x = (pz * sin_k) @ px.T
    norms = np.hypot(est_z, est_x)
    directed = totals > 0.0
    directed[directed] = norms[directed] / totals[directed] >= DEGENERATE_NORM
    return est_z, est_x, norms, directed


def likelihood(outcome: MeasurementOutcome, k: int, T: int, n: int) -> float:
    """Probability of the outcome pair (t0z, t0x) given the key-k state.

    Product of two binomial likelihoods, one per measurement basis.
    """
    _check_n(n)
    if outcome.t0z > T or outcome.t0x > T:
        raise ValueError(f"outcome counts exceed T={T}: {outcome}")
    if not 0 <= k < (1 << n):
        raise ValueError(f"key integer must lie in [0, 2**{n}), got {k}")
    pz, px = _likelihood_grid(T, n)
    return float(pz[outcome.t0z, k] * px[outcome.t0x, k])


def evidence(outcome: MeasurementOutcome, T: int, n: int) -> float:
    """Marginal probability of the outcome pair under the uniform key prior."""
    _check_n(n)
    if outcome.t0z > T or outcome.t0x > T:
        raise ValueError(f"outcome counts exceed T={T}: {outcome}")
    pz, px = _likelihood_grid(T, n)
    return float(np.mean(pz[outcome.t0z] * px[outcome.t0x]))


@dataclass(frozen=True)
class PosteriorDistribution:
    """Probabilities over key values after conditioning on a measurement outcome."""

    probabilities: np.ndarray
    outcome: MeasurementOutcome
    T: int
    n: int

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} probabilities, got shape {p.shape}")
        if np.min(p) < 0.0 or np.max(p) > 1.0 + 1e-12:
            raise ValueError("posterior entries must lie in [0, 1]")
        if abs(np.sum(p) - 1.0) > 1e-12:
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
    _check_n(n)
    if outcome.t0z > T or outcome.t0x > T:
        raise ValueError(f"outcome counts exceed T={T}: {outcome}")
    pz, px = _likelihood_grid(T, n)
    row = pz[outcome.t0z] * px[outcome.t0x]
    total = np.sum(row)
    if total <= 0.0:
        raise ImpossibleOutcomeError(f"outcome {outcome} has zero evidence at T={T}, n={n}")
    return PosteriorDistribution(row / total, outcome, T, n)


def information_gain(T: int, n: int) -> float:
    """Average Shannon-entropy drop of the key-value distribution, in bits.

    n minus the expected posterior entropy over the full outcome grid; lies in
    [0, n], and is 0 for T = 0.
    """
    _check_n(n)
    # the posterior entropy of (a, b) is log2(Q) - sum_k L log2(L) / Q with
    # Q = sum_k L, and log2(L) splits into one log table per basis
    pz, px = _likelihood_grid(T, n)
    plogp = _xlog2x(pz) @ px.T + pz @ _xlog2x(px).T
    return float(n + (np.sum(plogp) - np.sum(_xlog2x(pz @ px.T))) / (1 << n))


def _xlog2x(p: np.ndarray) -> np.ndarray:
    """Elementwise p * log2(p), with 0 * log2(0) = 0."""
    return p * np.log2(np.where(p > 0.0, p, 1.0))


def posterior_density(tau: int, post: PosteriorDistribution) -> SymmetricDensityOperator:
    """Density operator of tau copies re-weighted by a measurement posterior."""
    return mixture_density(post.probabilities, tau, post.n)


@dataclass(frozen=True)
class BlochEstimate:
    """Posterior-mean Bloch vector (z, x) on the x-z great circle; generally shorter than 1."""

    z: float
    x: float

    def __post_init__(self):
        if self.norm > 1.0 + 1e-12:
            raise ValueError(f"Bloch estimate norm exceeds 1: {self.norm}")

    @property
    def norm(self) -> float:
        return math.hypot(self.z, self.x)


def bloch_estimate(post: PosteriorDistribution) -> BlochEstimate:
    """Posterior-averaged Bloch vector sum_k p(k) (cos k*theta, sin k*theta)."""
    angles = np.arange(1 << post.n) * elementary_angle(post.n)
    z = float(np.sum(post.probabilities * np.cos(angles)))
    x = float(np.sum(post.probabilities * np.sin(angles)))
    return BlochEstimate(z, x)


def success_given_outcome(k: int, post: PosteriorDistribution) -> float:
    """Probability of guessing the encrypted bit by measuring along the estimated Bloch vector.

    Equals 1/2 + (est . actual) / (2 |est|); a vanishing estimate means a pure
    guess, by convention 1/2.
    """
    if not 0 <= k < (1 << post.n):
        raise ValueError(f"key integer must lie in [0, 2**{post.n}), got {k}")
    est = bloch_estimate(post)
    if est.norm < DEGENERATE_NORM:
        return 0.5
    angle = k * elementary_angle(post.n)
    return 0.5 + (est.z * math.cos(angle) + est.x * math.sin(angle)) / (2.0 * est.norm)


def success_given_key(k: int, T: int, n: int) -> float:
    """Per-key bit-recovery probability: outcome-weighted success of the estimate basis."""
    _check_n(n)
    if not 0 <= k < (1 << n):
        raise ValueError(f"key integer must lie in [0, 2**{n}), got {k}")
    return float(success_by_key(T, n)[k])


def success_by_key(T: int, n: int) -> np.ndarray:
    """Per-key bit-recovery probabilities for every key value, averaged over the outcome grid.

    sum_{a,b} L[a, b, k] (1/2 + U[a, b] . (cos k*theta, sin k*theta)), with
    U = E / (2|E|) on directed pairs and 0 elsewhere, factors per Bloch
    component into sum_a P_z[a, k] (U P_x)[a, k].
    """
    _check_n(n)
    pz, px = _likelihood_grid(T, n)
    est_z, est_x, norms, directed = _bloch_sums(T, n)
    scale = np.divide(0.5, norms, out=np.zeros_like(norms), where=directed)
    toward = np.einsum("ak,cak->ck", pz, np.stack([est_z * scale, est_x * scale]) @ px)
    cos_k, sin_k = _key_bloch(n)
    return 0.5 * pz.sum(axis=0) * px.sum(axis=0) + cos_k * toward[0] + sin_k * toward[1]


def mean_success(T: int, n: int) -> float:
    """Bit-recovery probability averaged over the uniform key ensemble, 1/2 + 2**-(n+1) sum_directed |E|."""
    _check_n(n)
    _, _, norms, directed = _bloch_sums(T, n)
    return float(0.5 + np.sum(norms[directed]) / (1 << (n + 1)))


def bound_U(T: int) -> float:
    """Empirical cap 1 - 1/(6T) on the ensemble-average bit-recovery probability (T > 1)."""
    if T <= 1:
        raise ValueError(f"bound requires T > 1, got {T}")
    return 1.0 - 1.0 / (6.0 * T)


def optimal_collective(T: int) -> float:
    """Best possible state-estimation success with collective measurements on 2T copies.

    1/2 + 2**-(2T+1) * sum_i sqrt(binom(2T, i) binom(2T, i+1)); approaches
    1 - 1/(8T) for large T.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    m = 2 * T
    # in log space: binom(2T, i) * binom(2T, i+1) passes the float range from T = 259
    log_comb = [math.lgamma(m + 1) - math.lgamma(i + 1) - math.lgamma(m - i + 1) for i in range(m + 1)]
    log_scale = (m + 1) * math.log(2.0)
    return 0.5 + sum(math.exp((a + b) / 2.0 - log_scale) for a, b in zip(log_comb, log_comb[1:]))


def codeword_success(p_bit: float, s: int) -> float:
    """Probability of guessing the parity of s independent bits, each recovered with probability p_bit.

    The guess survives any even number of bit errors, and the sum over even
    error counts a of binom(s, a) (1-p)**a p**(s-a) is 1/2 + (2p - 1)**s / 2.
    """
    if not 0.0 <= p_bit <= 1.0:
        raise ValueError(f"bit success probability must lie in [0, 1], got {p_bit}")
    if s < 1:
        raise ValueError(f"codeword length must be >= 1, got {s}")
    return 0.5 + (2.0 * p_bit - 1.0) ** s / 2.0


def codeword_bound(T: int, s: int) -> float:
    """Closed-form cap 1/2 + (1/2)(1 - 1/(3T))**s on the parity-guess probability (T > 1)."""
    if T <= 1:
        raise ValueError(f"bound requires T > 1, got {T}")
    if s < 1:
        raise ValueError(f"codeword length must be >= 1, got {s}")
    return 0.5 + 0.5 * (1.0 - 1.0 / (3.0 * T)) ** s


def required_codeword_length(epsilon: float, T: int) -> tuple[int, int]:
    """Codeword lengths that pin the parity-guess advantage below epsilon.

    Returns (exact, simple): the exact requirement
    ceil(|1 + log2(eps)| / |log2((3T-1)/(3T))|) and the weaker but simpler
    ceil(3T |1 + log2(eps)|), which always dominates it.
    """
    if not 0.0 < epsilon <= 0.5:
        raise ValueError(f"security parameter must lie in (0, 1/2], got {epsilon}")
    if T <= 1:
        raise ValueError(f"requires T > 1, got {T}")
    numerator = abs(1.0 + math.log2(epsilon))
    denominator = abs(math.log2((3.0 * T - 1.0) / (3.0 * T)))
    s_exact = math.ceil(numerator / denominator)
    s_simple = math.ceil(3.0 * T * numerator)
    return s_exact, s_simple
