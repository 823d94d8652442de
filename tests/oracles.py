"""Reference implementations kept as test oracles for the fast library kernels.

``mixture_density_loop`` accumulates every density-matrix entry separately
with pairwise summation over the key values, and ``jacobi_eigh`` diagonalizes
by cyclic Jacobi rotations.  Both are slow, independent of BLAS/LAPACK, and
used only to check the library's matrix-product mixture and its LAPACK
eigensolver.

``likelihood_tensor`` materializes the full (T+1, T+1, 2**n) joint
likelihood of the Bayes attack; the functions after it reduce that tensor
directly (per-key success, information gain by a loop over outcome pairs,
Monte Carlo estimate tables) to check the library's factored per-basis
matrix products.  Their memory grows as T**2 * 2**n, so use small (T, n).
"""

import math

import numpy as np

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


def likelihood_tensor(T: int, n: int) -> np.ndarray:
    """Joint outcome likelihoods, shape (T+1, T+1, 2**n): [t0z, t0x, k]."""
    p0z, p0x = _prob0_tables(n)
    pz = _binomial_pmf_rows(T, p0z)
    px = _binomial_pmf_rows(T, p0x)
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
