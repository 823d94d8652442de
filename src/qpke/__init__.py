"""Numerical laboratory for a quantum-public-key encryption scheme built on single-qubit rotations.

Covers the exact protocol model (key and codeword values, encryption,
decryption), the symmetric-subspace density operators of repeated public-key
copies with their entropies, the likelihood tables of the Bayesian
projective-measurement attack, every scalar closed form of the analysis
(symmetry-test and forward-search laws, codeword laws and lengths, the
collective optimum and the Holevo bounds), and seeded Monte Carlo validation
of every analytic success probability, whose batches alone sample keys and
codewords.

The package's names resolve on first use (PEP 562): ``import qpke`` loads no
submodule, and ``qpke.X`` or ``from qpke import X`` imports only the
submodule that defines X, once.
"""

import importlib

#: submodule -> the public names it defines
_EXPORTS = {
    "protocol": (
        "CipherState", "Codeword", "PrivateKey", "ProtocolParams", "decrypt", "elementary_angle", "encrypt",
    ),
    "symspace": (
        "Spectrum", "SymmetricDensityOperator", "critical_n", "eigendecompose", "mixture_density",
        "prior_density", "prior_spectrum", "shannon_entropy", "von_neumann_entropy",
    ),
    "bayes": (
        "ImpossibleOutcomeError", "MeasurementOutcome", "PosteriorDistribution", "evidence", "information_gain",
        "mean_success", "posterior", "success_by_key",
    ),
    "symmetry": (
        "average_success_symmetry", "bound_U", "codeword_bound", "codeword_success", "forward_search_length",
        "forward_search_success", "holevo_bound_loose", "holevo_bound_tight", "optimal_collective",
        "pair_fidelity", "pair_success", "parity_iteration", "parity_success", "required_codeword_length",
    ),
    "montecarlo": ("EstimateWithError", "TrialConfig", "analytic_success", "estimate"),
}

#: public name -> the submodule that defines it; a submodule's own name maps to itself
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # importing a submodule binds it here; a name read from it is bound here
    # too, so each name passes through this function at most once
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
        globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
