"""One-matrix oracle for workfdr.linalg.hermitian_eigenvalues.

It keeps the earlier scalar solver: cyclic Jacobi sweeps over the real
symmetric 2d x 2d embedding of one Hermitian matrix, pivot by pivot, each
rotation a 2x2 gemm on the two rows and then on the two columns.
hermitian_eigenvalues runs the same sweeps over a whole stack in lockstep and
must agree with this oracle bitwise on every matrix. Test use only.
"""

from __future__ import annotations

import numpy as np

from workfdr.errors import NumericFailureError

JACOBI_MAX_SWEEPS = 30


def _real_symmetric_embedding(h: np.ndarray) -> np.ndarray:
    # H = A + iB Hermitian -> [[A, -B], [B, A]] symmetric with doubled spectrum.
    a = h.real
    b = h.imag
    return np.block([[a, -b], [b, a]])


def _jacobi_eigenvalues_symmetric(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix by cyclic Jacobi sweeps."""
    a = np.array(m, dtype=np.float64, copy=True)
    n = a.shape[0]
    scale = max(1.0, float(np.max(np.abs(a))))
    for _ in range(JACOBI_MAX_SWEEPS):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off <= 1e-15 * scale:
            return np.sort(np.diag(a))
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-18 * scale:
                    a[p, q] = a[q, p] = 0.0
                    continue
                phi = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(phi) / (abs(phi) + np.hypot(phi, 1.0)) if phi != 0.0 else 1.0
                c = 1.0 / np.hypot(t, 1.0)
                s = t * c
                # two-sided rotation in the (p, q) plane; zeroes the pivot exactly
                rot = np.array([[c, -s], [s, c]])
                a[[p, q], :] = rot @ a[[p, q], :]
                a[:, [p, q]] = a[:, [p, q]] @ rot.T
                a[p, q] = a[q, p] = 0.0
    raise NumericFailureError(f"Jacobi eigensolver did not converge within {JACOBI_MAX_SWEEPS} sweeps")


def hermitian_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of one Hermitian (d, d) matrix, the earlier way: symmetrize,
    embed, solve, and average the adjacent sorted duplicates."""
    h = (h + h.conj().T) / 2.0
    doubled = _jacobi_eigenvalues_symmetric(_real_symmetric_embedding(h))
    return 0.5 * (doubled[0::2] + doubled[1::2])


def sweeps(h: np.ndarray) -> int:
    """Number of rotation sweeps the oracle runs on h: the smallest sweep cap it meets."""
    global JACOBI_MAX_SWEEPS
    saved = JACOBI_MAX_SWEEPS
    try:
        for cap in range(saved + 1):
            JACOBI_MAX_SWEEPS = cap + 1
            try:
                hermitian_eigenvalues(h)
            except NumericFailureError:
                continue
            return cap
    finally:
        JACOBI_MAX_SWEEPS = saved
    raise NumericFailureError(f"oracle did not converge within {saved} sweeps")
