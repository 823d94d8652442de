"""Reference implementations kept as test oracles for the fast symspace kernels.

``mixture_density_loop`` accumulates every density-matrix entry separately
with pairwise summation over the key values, and ``jacobi_eigh`` diagonalizes
by cyclic Jacobi rotations.  Both are slow, independent of BLAS/LAPACK, and
used only to check the library's matrix-product mixture and its LAPACK
eigensolver.
"""

import math

import numpy as np

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
