"""Numerical laboratory for a quantum-public-key encryption scheme built on single-qubit rotations.

Covers the exact protocol model (keys, parity-codeword encryption,
decryption), the symmetric-subspace density operators of repeated public-key
copies with their entropy bounds, the Bayesian projective-measurement attack,
the single-copy symmetry-test attack with its forward-search closed forms,
and seeded Monte Carlo validation of every analytic success probability.
"""

from .protocol import (
    CipherState,
    Codeword,
    PrivateKey,
    ProtocolParams,
    decrypt,
    elementary_angle,
    encode_message,
    encrypt,
    generate_private_key,
)
from .symspace import (
    Spectrum,
    SymmetricDensityOperator,
    binomial_spectrum,
    critical_n,
    eigendecompose,
    holevo_bound_loose,
    holevo_bound_tight,
    mixture_density,
    prior_density,
    shannon_entropy,
    von_neumann_entropy,
)
from .bayes import (
    ImpossibleOutcomeError,
    MeasurementOutcome,
    PosteriorDistribution,
    bound_U,
    codeword_bound,
    codeword_success,
    evidence,
    information_gain,
    mean_success,
    optimal_collective,
    posterior,
    required_codeword_length,
    success_by_key,
)
from .symmetry import (
    PairTableRow,
    average_success_symmetry,
    enumerate_pair_table,
    forward_search_length,
    forward_search_success,
    pair_fidelity,
    pair_success,
    parity_iteration,
    parity_success,
)
from .montecarlo import (
    EstimateWithError,
    TrialConfig,
    analytic_success,
    estimate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
