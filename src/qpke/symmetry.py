"""Every scalar closed form of the scheme's security analysis, on ``math`` alone.

The symmetry test pairs each cipher qubit with one public-key copy, measures
both in a random shared basis, and reads the parity of the guessed bits; the
verdict on a pair survives when both single-qubit outcomes are right or both
are wrong, so the parity guess succeeds exactly when the number of wrong
outcomes is even.  The forward-search expressions cover the collective
variant that consumes all 2T copies.  Beside them stand the laws of the
projective attack's analysis: the collective optimum, the 1 - 1/(6T) and
(1 - 1/(3T))**s caps, the codeword lengths that pin the advantage below
epsilon, and the log2(tau + 1) and Gaussian Holevo bounds.  Only success
probabilities, lengths and bounds live here; ``qpke.bayes`` and
``qpke.symspace`` compute the tables and spectra these laws bound, and
``qpke.montecarlo`` samples the attacks themselves.
"""

from __future__ import annotations

import math


def pair_fidelity(omega: float) -> float:
    """Probability cos^2(omega/2) of a correct single-qubit outcome at basis offset omega."""
    return math.cos(omega / 2.0) ** 2


def pair_success(omega: float) -> float:
    """Probability F^2 + (1-F)^2 that a pair verdict is right (both outcomes right or both wrong)."""
    f = pair_fidelity(omega)
    return f * f + (1.0 - f) * (1.0 - f)


def average_success_symmetry(s: int) -> float:
    """Parity-guess probability 1/2 + 2**-(s+1) of the symmetry test, averaged over bases and keys."""
    return parity_success(0.5, s)


def forward_search_success(T: int, s: int) -> float:
    """Parity-recovery probability 1/2 + (1/2)(1 - 1/(2T))**s of the collective forward search."""
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    return parity_success(1.0 - 1.0 / (2.0 * T), s)


def _advantage_bits(epsilon: float) -> float:
    """|1 + log2(eps)|, the bits of advantage that a codeword must erase, for eps in (0, 1/2]."""
    if not 0.0 < epsilon <= 0.5:
        raise ValueError(f"security parameter must lie in (0, 1/2], got {epsilon}")
    return abs(1.0 + math.log2(epsilon))


def forward_search_length(epsilon: float, T: int) -> int:
    """Codeword length ceil(T |1 + log2(eps)|) that pins the forward-search advantage below epsilon."""
    bits = _advantage_bits(epsilon)
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    return math.ceil(T * bits)


def parity_iteration(q1: float, s: int) -> float:
    """Chain the per-position success q1 through s positions of a parity guess.

    Iterates Q(s) = Q(1) Q(s-1) + (1 - Q(1))(1 - Q(s-1)); equals
    1/2 + (2 q1 - 1)**s / 2 in closed form.
    """
    if not 0.0 <= q1 <= 1.0:
        raise ValueError(f"per-position success must lie in [0, 1], got {q1}")
    if s < 1:
        raise ValueError(f"codeword length must be >= 1, got {s}")
    q = q1
    for _ in range(s - 1):
        q = q1 * q + (1.0 - q1) * (1.0 - q)
    return q


def parity_success(bias: float, s: int) -> float:
    """Parity-guess probability 1/2 + bias**s / 2 over s positions of per-position bias 2 q1 - 1.

    The closed form of ``parity_iteration``; every codeword success the
    package prints is this law at its own bias.
    """
    if s < 1:
        raise ValueError(f"codeword length must be >= 1, got {s}")
    return 0.5 + 0.5 * bias ** s


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
        # a NaN is a failed computation upstream, not a bad argument
        error = FloatingPointError if math.isnan(p_bit) else ValueError
        raise error(f"bit success probability must lie in [0, 1], got {p_bit}")
    return parity_success(2.0 * p_bit - 1.0, s)


def codeword_bound(T: int, s: int) -> float:
    """Closed-form cap 1/2 + (1/2)(1 - 1/(3T))**s on the parity-guess probability (T > 1)."""
    if T <= 1:
        raise ValueError(f"bound requires T > 1, got {T}")
    return parity_success(1.0 - 1.0 / (3.0 * T), s)


def required_codeword_length(epsilon: float, T: int) -> tuple[int, int]:
    """Codeword lengths that pin the parity-guess advantage below epsilon.

    Returns (exact, simple): the exact requirement
    ceil(|1 + log2(eps)| / |log2((3T-1)/(3T))|) and the weaker but simpler
    ceil(3T |1 + log2(eps)|), which always dominates it.
    """
    numerator = _advantage_bits(epsilon)
    if T <= 1:
        raise ValueError(f"requires T > 1, got {T}")
    # |log2(1 - 1/(3T))| from log1p: the float ratio (3T-1)/(3T) loses the
    # digits of 1/(3T) as T grows, and is 1 itself by T = 10**16
    denominator = -math.log1p(-1.0 / (3.0 * T)) / math.log(2.0)
    s_exact = math.ceil(numerator / denominator)
    s_simple = math.ceil(3.0 * T * numerator)
    return s_exact, s_simple


def holevo_bound_loose(tau: int) -> float:
    """Dimension bound on extractable information from tau copies: log2(tau + 1) bits."""
    if tau < 1:
        raise ValueError(f"copy count must be >= 1, got {tau}")
    return math.log2(tau + 1)


def holevo_bound_tight(tau: int) -> float:
    """Gaussian bound on the binomial-spectrum entropy: (1/2) log2(tau) + (1/2) log2(pi e / 2) bits."""
    if tau < 1:
        raise ValueError(f"copy count must be >= 1, got {tau}")
    return 0.5 * math.log2(tau) + 0.5 * math.log2(math.pi * math.e / 2.0)
