"""Reference implementations kept as test oracles for the fast library kernels.

``mixture_density_loop`` accumulates every density-matrix entry separately
with pairwise summation over the key values, and ``jacobi_eigh`` diagonalizes
by cyclic Jacobi rotations.  Both are slow, independent of BLAS/LAPACK, and
used only to check the library's matrix-product mixture and its LAPACK
eigensolver.  ``critical_n_search`` is the open-ended search for the
resolution at which full-grid priors stop changing, which checks the
library's closed form of the aliasing law.  ``prior_density_direct`` builds
each prior's 2**min(n, tau.bit_length()) key grid on its own, which checks the
library's row strides of one component table per tau.  ``coefficient_f`` is
the amplitude of one Hamming-weight basis state at one angle, the integrand
of the quadrature check of the prior.

``likelihood_tensor`` materializes the full (T+1, T+1, 2**n) joint
likelihood of the Bayes attack; the functions after it reduce that tensor
directly (per-key success, information gain by a loop over outcome pairs,
Monte Carlo estimate tables) to check the library's factored per-basis
matrix products.  Their memory grows as T**2 * 2**n, so use small (T, n).
``bloch_sums_full_grid`` sums the outcome grid's Bloch estimates over all
2**n keys, which checks the library's sums over the smallest exact key grid.

``codeword_success_direct``, ``codeword_bound_direct``,
``forward_search_success_direct`` and ``average_success_symmetry_direct``
write out each parity-codeword curve in its own form; they check that the
library's one law 1/2 + bias**s / 2 gives the same bits at every bias.

``encrypt_qubits`` and ``decrypt_qubits`` are the protocol's encryption
and decryption one qubit at a time, each qubit a plain (units, n) pair
(public state, 0-or-pi shift as modular addition, per-qubit basis
measurement by modular difference); they check the library's XOR on integer
cipher units.

``bayes_batch_direct`` and ``symmetry_batch_direct`` simulate one Monte
Carlo batch of each attack with ``Generator.binomial`` and a separate Born
probability per qubit; they check the library's tabulated binomial search
and in-place probabilities draw for draw.

``write_row_dicts`` is the CLI's row-by-row table writer (one dict per row
through ``csv.DictWriter``, per-cell type dispatch), and the ``*_rows``
builders produce the row dicts the CLI commands used to hand it; together
they check that the column writer prints the same bytes.  ``prior_rows``
takes each spectrum from ``prior_spectrum_exact``, the prior's residue-class
sums of binomial weights as exact rationals, so it needs neither the
library's closed form nor LAPACK.

``shannon_entropy_numpy`` and ``spectrum_rank_numpy`` are the entropy and
the ``Spectrum`` rank rule as the library once took them, one numpy sum and
one numpy comparison each; they check the ``math.fsum`` entropy and the
tuple ``Spectrum`` that let ``symspace`` run the prior without numpy.
"""

import csv
import io
import json
import math
import sys
from fractions import Fraction

import numpy as np

from qpke import bayes, cli, montecarlo, symmetry, symspace
from qpke.bayes import DEGENERATE_NORM, _binomial_pmf_rows, _prob0_tables
from qpke.protocol import elementary_angle
from qpke.symspace import symmetric_state_components


def mixture_density_loop(weights: np.ndarray, tau: int, n: int) -> np.ndarray:
    """Mixture matrix sum_k weights[k] a_k a_k^T, one pairwise-summed entry at a time."""
    weights = np.asarray(weights, dtype=float)
    comps = symmetric_state_components(tau, n)
    dim = tau + 1
    mat = np.empty((dim, dim))
    for l in range(dim):
        wl = weights * comps[:, l]
        for lp in range(l, dim):
            # np.sum uses pairwise accumulation
            mat[l, lp] = mat[lp, l] = np.sum(wl * comps[:, lp])
    return mat


def critical_n_search(tau: int, tol: float = 1e-12, max_n: int = symspace.MAX_N) -> int | None:
    """Smallest n whose full 2**n-key prior is within ``tol`` of the 2**(n+1)-key one, or None."""

    def full_grid_prior(n):
        return symspace.mixture_density(np.full(1 << n, 1.0 / (1 << n)), tau, n).matrix

    previous = full_grid_prior(1)
    for n in range(1, max_n):
        current = full_grid_prior(n + 1)
        if np.max(np.abs(current - previous)) < tol:
            return n
        previous = current
    return None


def prior_density_direct(tau: int, n: int) -> symspace.SymmetricDensityOperator:
    """Uniform mixture over its own grid of 2**m keys, m = min(n, tau.bit_length())."""
    m = min(n, tau.bit_length())
    return symspace.mixture_density(np.full(1 << m, 1.0 / (1 << m)), tau, m)


def coefficient_f(tau: int, l: int, angle: float) -> float:
    """Amplitude weight cos(angle/2)**(tau-l) * sin(angle/2)**l of the weight-l basis state."""
    if not 0 <= l <= tau:
        raise ValueError(f"Hamming weight must lie in [0, {tau}], got {l}")
    half = angle / 2.0
    return math.cos(half) ** (tau - l) * math.sin(half) ** l


def jacobi_eigh(matrix: np.ndarray, tol: float = 1e-12, max_sweeps: int = 60) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a real symmetric matrix by cyclic Jacobi rotations.

    Sweeps annihilate every off-diagonal pair in turn until the off-diagonal
    Frobenius norm drops below ``tol``.

    Returns
    -------
    (values, vectors) : eigenvalues in descending order and the matching
        orthonormal eigenvectors as columns.

    Raises
    ------
    RuntimeError
        If the off-diagonal norm has not converged after ``max_sweeps`` sweeps.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if np.max(np.abs(a - a.T)) > 1e-12:
        raise ValueError("matrix must be symmetric")
    dim = a.shape[0]
    vecs = np.eye(dim)
    if dim == 1:
        return a.diagonal().copy(), vecs

    diag_mask = ~np.eye(dim, dtype=bool)
    for _ in range(max_sweeps):
        # norm of the off-diagonal part, measured directly (a difference of
        # squared sums would hit a sqrt(eps) cancellation floor)
        off = math.sqrt(np.sum(a[diag_mask] ** 2))
        if off < tol:
            break
        for p in range(dim - 1):
            for q in range(p + 1, dim):
                apq = a[p, q]
                if abs(apq) < tol / (dim * dim):
                    continue
                # classic two-sided Givens rotation (Rutishauser angle choice)
                diff = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, diff) / (abs(diff) + math.hypot(1.0, diff))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = a[q, p] = 0.0
                vec_p = vecs[:, p].copy()
                vec_q = vecs[:, q].copy()
                vecs[:, p] = c * vec_p - s * vec_q
                vecs[:, q] = s * vec_p + c * vec_q
    else:
        raise RuntimeError(f"Jacobi diagonalization did not converge in {max_sweeps} sweeps")

    values = a.diagonal().copy()
    order = np.argsort(values)[::-1]
    return values[order], vecs[:, order]


def codeword_success_direct(p_bit: float, s: int) -> float:
    """Parity-guess probability 1/2 + (2p - 1)**s / 2 of s bits, each recovered with probability p_bit."""
    return 0.5 + (2.0 * p_bit - 1.0) ** s / 2.0


def codeword_bound_direct(T: int, s: int) -> float:
    """Closed-form cap 1/2 + (1/2)(1 - 1/(3T))**s on the Bayes parity guess."""
    return 0.5 + 0.5 * (1.0 - 1.0 / (3.0 * T)) ** s


def forward_search_success_direct(T: int, s: int) -> float:
    """Forward-search parity recovery 1/2 + (1/2)(1 - 1/(2T))**s."""
    return 0.5 + 0.5 * (1.0 - 1.0 / (2.0 * T)) ** s


def average_success_symmetry_direct(s: int) -> float:
    """Symmetry-test parity guess 1/2 + 2**-(s+1)."""
    return 0.5 + 2.0 ** -(s + 1)


def encrypt_qubits(codeword, key) -> tuple[tuple[int, int], ...]:
    """Encrypt a codeword as public-key states advanced by w * pi: pairs ((k + w * 2**(n-1)) mod 2**n, n)."""
    if len(codeword) > len(key):
        raise ValueError(f"codeword length {len(codeword)} exceeds key length {len(key)}")
    top = 1 << key.n
    return tuple(((k + int(w) * (top // 2)) % top, key.n) for k, w in zip(key.values, codeword.bits))


def recover_bit(q: tuple[int, int], k: int, n: int) -> int:
    """Measure one cipher qubit, a (units, n) pair, in the key basis {k*theta, k*theta + pi}.

    The outcome is deterministic for a genuine cipher qubit, which is one of
    the two orthogonal basis states; any other state raises.
    """
    units, q_n = q
    if q_n != n:
        raise ValueError(f"cipher qubit resolution {q_n} does not match key resolution {n}")
    diff = (units - k) % (1 << n)
    if diff == 0:
        return 0
    if diff == 1 << (n - 1):
        return 1
    raise ValueError("cipher qubit is neither parallel nor antiparallel to the key state")


def decrypt_qubits(qubits: tuple[tuple[int, int], ...], key, params) -> tuple[tuple[int, ...], int]:
    """Recover the codeword bits and message parity by measuring each (units, n) qubit in its key basis."""
    if params.n != key.n:
        raise ValueError(f"params resolution {params.n} does not match key resolution {key.n}")
    if len(qubits) != params.s:
        raise ValueError(f"cipher has {len(qubits)} qubits, expected s={params.s}")
    if len(qubits) > len(key):
        raise ValueError(f"cipher length {len(qubits)} exceeds key length {len(key)}")
    bits = tuple(recover_bit(q, k, key.n) for q, k in zip(qubits, key.values))
    message = 0
    for b in bits:
        message ^= b
    return bits, message


def likelihood_tensor(T: int, n: int) -> np.ndarray:
    """Joint outcome likelihoods, shape (T+1, T+1, 2**n): [t0z, t0x, k]."""
    p0z, p0x = _prob0_tables(n)
    pz = _binomial_pmf_rows(T, p0z, np.empty((T + 1, p0z.size)))
    px = _binomial_pmf_rows(T, p0x, np.empty((T + 1, p0x.size)))
    return pz[:, None, :] * px[None, :, :]


def success_table_tensor(T: int, n: int) -> np.ndarray:
    """Per-key success probabilities, shape (2**n,), from the full outcome-by-key success matrix."""
    grid = likelihood_tensor(T, n)
    size = 1 << n
    angles = np.arange(size) * elementary_angle(n)
    cos_a = np.cos(angles)
    sin_a = np.sin(angles)
    flat = grid.reshape(-1, size)
    totals = flat.sum(axis=1)
    est_z = flat @ cos_a
    est_x = flat @ sin_a
    norms = np.hypot(est_z, est_x)
    possible = totals > 0.0
    est_z[possible] /= totals[possible]
    est_x[possible] /= totals[possible]
    norms[possible] /= totals[possible]
    directed = possible & (norms >= DEGENERATE_NORM)
    success = np.full((flat.shape[0], size), 0.5)
    success[directed] = 0.5 + (
        np.outer(est_z[directed], cos_a) + np.outer(est_x[directed], sin_a)
    ) / (2.0 * norms[directed][:, None])
    return np.einsum("ok,ok->k", flat, success)


def information_gain_loop(T: int, n: int) -> float:
    """n minus the evidence-weighted posterior entropy, one outcome pair at a time."""
    grid = likelihood_tensor(T, n)
    q = grid.mean(axis=2)
    size = 1 << n
    gain = float(n)
    for iz in range(T + 1):
        for ix in range(T + 1):
            if q[iz, ix] <= 0.0:
                continue
            p = grid[iz, ix, :] / (size * q[iz, ix])
            mask = p > 0.0
            gain += q[iz, ix] * float(np.sum(p[mask] * np.log2(p[mask])))
    return gain


def estimate_tables_tensor(T: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Estimated basis angle and degeneracy flag per outcome pair, shapes (T+1, T+1)."""
    grid = likelihood_tensor(T, n)
    angles = np.arange(1 << n) * elementary_angle(n)
    est_z = grid @ np.cos(angles)
    est_x = grid @ np.sin(angles)
    norm = np.hypot(est_z, est_x)
    totals = grid.sum(axis=2)
    degenerate = norm < DEGENERATE_NORM * np.maximum(totals, 1e-300)
    return np.arctan2(est_x, est_z), degenerate


def bloch_sums_full_grid(T: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """E_z, E_x, |E| and the directed flags of every outcome pair, summed over all 2**n keys."""
    pz, px = bayes._likelihood_grid(T, n)
    cos_k, sin_k = bayes._key_bloch(n)
    totals = pz @ px.T
    est_z = (pz * cos_k) @ px.T
    est_x = (pz * sin_k) @ px.T
    norms = np.hypot(est_z, est_x)
    directed = norms >= np.finfo(float).tiny
    directed[directed] = norms[directed] / totals[directed] >= DEGENERATE_NORM
    return est_z, est_x, norms, directed


def bayes_batch_direct(params, rng: np.random.Generator, count: int) -> np.ndarray:
    """The projective-measurement attack batch with numpy's own binomial draws and temporaries."""
    T, n, s = params.T, params.n, params.s
    theta = params.theta
    p0z, p0x = _prob0_tables(n)
    half_z, half_x, degenerate = (a.reshape(T + 1, T + 1) for a in montecarlo._estimate_tables(T, n))
    est_angle = np.arctan2(half_x, half_z)

    k = rng.integers(0, 1 << n, size=(count, s))
    t0z = rng.binomial(T, p0z[k])
    t0x = rng.binomial(T, p0x[k])
    w = montecarlo._draw_codewords(count, s, rng)

    cipher_angle = k * theta + w * math.pi
    est = est_angle[t0z, t0x]
    # cipher qubit measured in the estimated basis; outcome bit is the guess of w
    p_outcome0 = np.cos((cipher_angle - est) / 2.0) ** 2
    u = rng.random(size=(count, s))
    guess = (u >= p_outcome0).astype(np.int8)
    # a vanishing Bloch estimate leaves no preferred basis: guess by fair coin
    guess = np.where(degenerate[t0z, t0x], (u < 0.5).astype(np.int8), guess)

    errors = guess ^ w
    return np.bitwise_xor.reduce(errors, axis=1) == 0


def symmetry_batch_direct(params, rng: np.random.Generator, count: int) -> np.ndarray:
    """The symmetry-test batch with both Born probabilities computed from their own angles."""
    n, s = params.n, params.s
    theta = params.theta

    k = rng.integers(0, 1 << n, size=(count, s))
    w = montecarlo._draw_codewords(count, s, rng)
    public_angle = k * theta
    phi = rng.uniform(0.0, 2.0 * math.pi, size=(count, s))

    cipher_angle = public_angle + w * math.pi
    out_public = (rng.random(size=(count, s)) >= np.cos((public_angle - phi) / 2.0) ** 2).astype(np.int8)
    out_cipher = (rng.random(size=(count, s)) >= np.cos((cipher_angle - phi) / 2.0) ** 2).astype(np.int8)

    # equal outcomes read as "parallel" (bit 0), unequal as "antiparallel" (bit 1)
    guess = out_public ^ out_cipher
    errors = guess ^ w
    return np.bitwise_xor.reduce(errors, axis=1) == 0

def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    return str(value)


def write_row_dicts(rows: list[dict], fieldnames: list[str], fmt: str, out_path: str | None) -> None:
    """Write one dict per row as CSV or JSON to ``out_path`` (stdout if None)."""
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({key: _fmt(row.get(key, "")) for key in fieldnames})
        text = buffer.getvalue()
    else:
        native = []
        for row in rows:
            native.append(
                {
                    key: (
                        bool(v) if isinstance(v, (bool, np.bool_))
                        else int(v) if isinstance(v, (int, np.integer))
                        else float(v) if isinstance(v, (float, np.floating))
                        else v
                    )
                    for key, v in ((key, row.get(key, "")) for key in fieldnames)
                }
            )
        text = json.dumps(native, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def prior_spectrum_exact(tau: int, n: int) -> list[Fraction]:
    """Prior eigenvalues of tau copies over 2**n keys, descending: binom(tau, j) / 2**tau summed by j mod 2**n."""
    classes = [Fraction(0)] * (tau + 1)
    for j in range(tau + 1):
        classes[j % 2**n] += Fraction(math.comb(tau, j), 2**tau)
    return sorted(classes, reverse=True)


def shannon_entropy_numpy(probs) -> float:
    """Shannon entropy in bits as one numpy sum over the entries above 0."""
    p = np.asarray(probs, dtype=float)
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p)))


def spectrum_rank_numpy(eigenvalues) -> int | None:
    """Rank by the numpy ``Spectrum`` rule, which assumes descending order, or None where that rule rejects."""
    vals = np.asarray(eigenvalues, dtype=float)
    if not abs(np.sum(vals) - 1.0) <= 1e-10:
        return None
    if not (-1e-10 <= np.min(vals) and np.max(vals) <= 1.0 + 1e-10):
        return None
    return int(np.sum(vals > symspace.RANK_RTOL * max(vals[0], 0.0)))


def prior_rows(taus: list[int], ns: list[int]) -> tuple[list[dict], list[str]]:
    """Row dicts of ``qpke prior``."""
    rows = []
    critical = {tau: symspace.critical_n(tau) for tau in taus}
    for tau in taus:
        for n in ns:
            exact = prior_spectrum_exact(tau, n)
            values = np.array([float(v) for v in exact])
            n_c = critical[tau]
            rows.append(
                {
                    "tau": tau,
                    "n": n,
                    "entropy_bits": symspace.shannon_entropy(values),
                    "rank": sum(v > Fraction(symspace.RANK_RTOL) * exact[0] for v in exact),
                    "n_critical": n_c,
                    "at_or_above_critical": n >= n_c,
                    "bound_loose_bits": symmetry.holevo_bound_loose(tau),
                    "bound_tight_bits": symmetry.holevo_bound_tight(tau),
                    "spectrum": ";".join(format(float(v), ".12g") for v in exact),
                }
            )
    fields = [
        "tau", "n", "entropy_bits", "rank", "n_critical", "at_or_above_critical",
        "bound_loose_bits", "bound_tight_bits", "spectrum",
    ]
    return rows, fields


def figure1_rows(n: int) -> tuple[list[dict], list[str]]:
    """Row dicts of ``qpke figure --id 1``: one per (T, t0z, t0x, k)."""
    rows = []
    for T, events in sorted(cli.FIGURE1_EVENTS.items()):
        for t0z in events:
            for t0x in range(T + 1):
                try:
                    post = bayes.posterior(bayes.MeasurementOutcome(t0z, t0x), T, n)
                except bayes.ImpossibleOutcomeError:
                    continue
                for k, p in enumerate(post.probabilities):
                    rows.append({"T": T, "t0z": t0z, "t0x": t0x, "k": k, "posterior": float(p)})
    return rows, ["T", "t0z", "t0x", "k", "posterior"]


def figure3_rows(Ts: list[int], n: int) -> tuple[list[dict], list[str]]:
    """Row dicts of ``qpke figure --id 3``: one per (T, k)."""
    rows = []
    for T in Ts:
        for k, p in enumerate(bayes.success_by_key(T, n)):
            rows.append({"T": T, "k": k, "success": float(p)})
    return rows, ["T", "k", "success"]


def check_all_rows(trials: int, seed: int) -> tuple[list[dict], list[str]]:
    """Row dicts of ``qpke check-all``, from the check functions ``qpke.cli`` binds at call time."""
    checks = [
        ("protocol-roundtrip", "_check_roundtrip"),
        ("parity-zero-structure", "_check_parity_zeros"),
        ("binomial-spectrum", "_check_binomial_spectrum"),
        ("entropy-bounds", "_check_entropy_bounds"),
        ("information-gain-gap", "_check_information_gain"),
        ("mean-success-bound", "_check_mean_success"),
        ("optimal-collective", "_check_optimal_collective"),
        ("codeword-bound", "_check_codeword_bound"),
        ("parity-identity", "_check_parity_identity"),
        ("forward-equivalence", "_check_forward_equivalence"),
        ("factor-three", "_check_factor_three"),
        ("bayes-normalization", "_check_bayes_normalization"),
    ]
    rows = []
    for name, attr in checks:
        passed, detail = getattr(cli, attr)()
        rows.append({"check": name, "passed": passed, "detail": detail})
    for name, attack in (("mc-symmetry", "symmetry-test"), ("mc-bayes", "bayes-projective")):
        passed, detail = cli._check_montecarlo(attack, trials, seed)
        rows.append({"check": name, "passed": passed, "detail": detail})
    return rows, ["check", "passed", "detail"]
