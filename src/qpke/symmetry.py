"""Closed forms of the single-copy symmetry-test attack and the collective forward search.

The symmetry test pairs each cipher qubit with one public-key copy, measures
both in a random shared basis, and reads the parity of the guessed bits; the
verdict on a pair survives when both single-qubit outcomes are right or both
are wrong, so the parity guess succeeds exactly when the number of wrong
outcomes is even.  The forward-search expressions cover the collective
variant that consumes all 2T copies.  Only success probabilities live here,
on ``math`` alone; ``qpke.montecarlo`` samples the attack itself.
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


def forward_search_length(epsilon: float, T: int) -> int:
    """Codeword length ceil(T |1 + log2(eps)|) that pins the forward-search advantage below epsilon."""
    if not 0.0 < epsilon <= 0.5:
        raise ValueError(f"security parameter must lie in (0, 1/2], got {epsilon}")
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    return math.ceil(T * abs(1.0 + math.log2(epsilon)))


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
