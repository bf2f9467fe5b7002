"""Exact small dense complex linear algebra for one- and two-qubit operators.

Matrices are plain ``numpy.ndarray`` values of dtype complex128 and shape
(2, 2) or (4, 4). Everything here treats its inputs as immutable and returns
fresh arrays with the write flag cleared; nothing mutates in place, so all
operations are safe under unrestricted concurrent use.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError, NumericFailureError, UnsupportedDimensionError

UNITARY_TOL = 1e-12
DENSITY_HERMITICITY_TOL = 1e-12
DENSITY_TRACE_TOL = 1e-12
DENSITY_EIGENVALUE_FLOOR = -1e-10

# Sweep cap for the cyclic Jacobi eigensolver. Convergence is quadratic and an
# 8x8 symmetric matrix settles in ~5 sweeps; hitting the cap means the input
# was outside the supported regime.
JACOBI_MAX_SWEEPS = 30


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def as_matrix(a) -> np.ndarray:
    """Coerce input to a square complex128 matrix of dimension 2 or 4."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise UnsupportedDimensionError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] not in (2, 4):
        raise UnsupportedDimensionError(f"supported dimensions are 2 and 4, got {m.shape[0]}")
    return m


def identity(dim: int) -> np.ndarray:
    if dim not in (2, 4):
        raise UnsupportedDimensionError(f"supported dimensions are 2 and 4, got {dim}")
    return _freeze(np.eye(dim, dtype=np.complex128))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, restricted to results of dimension at most 4."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[0] * b.shape[0] > 4:
        raise UnsupportedDimensionError(
            f"kron result would be {a.shape[0] * b.shape[0]}x{a.shape[0] * b.shape[0]}; "
            "only dimensions up to 4 are supported"
        )
    return _freeze(np.kron(a, b))


def partial_transpose_A(rho: np.ndarray) -> np.ndarray:
    """Transpose the first-qubit indices of a 4x4 two-qubit operator.

    Preserves trace and Hermiticity exactly (it only permutes entries).
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (4, 4):
        raise UnsupportedDimensionError(f"partial transpose needs a 4x4 matrix, got {rho.shape}")
    return _freeze(rho.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4).copy())


def max_abs(a: np.ndarray) -> float:
    """Largest entrywise modulus."""
    return float(np.max(np.abs(a))) if np.asarray(a).size else 0.0


def check_unitary(u: np.ndarray) -> np.ndarray:
    u = as_matrix(u)
    dev = max_abs(u.conj().T @ u - np.eye(u.shape[0]))
    if not dev <= UNITARY_TOL:
        raise ContractViolationError(f"matrix is not unitary: max |U†U - I| = {dev:.3e} > {UNITARY_TOL:.0e}")
    return u


def check_density(rho: np.ndarray) -> np.ndarray:
    """Require Hermiticity to 1e-12, unit trace to 1e-12, eigenvalues >= -1e-10."""
    rho = as_matrix(rho)
    herm_dev = max_abs(rho - rho.conj().T)
    if not herm_dev <= DENSITY_HERMITICITY_TOL:
        raise ContractViolationError(f"density is not Hermitian: max |rho - rho†| = {herm_dev:.3e}")
    tr_dev = abs(np.trace(rho) - 1.0)
    if not tr_dev <= DENSITY_TRACE_TOL:
        raise ContractViolationError(f"density trace deviates from 1 by {tr_dev:.3e}")
    evals = hermitian_eigenvalues((rho + rho.conj().T) / 2.0)
    if not evals[0] >= DENSITY_EIGENVALUE_FLOOR:
        raise ContractViolationError(f"density has negative eigenvalue {evals[0]:.3e}")
    return rho


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
    """Real eigenvalues of a Hermitian matrix, ascending.

    Uses cyclic Jacobi sweeps on the real-symmetric 2d x 2d embedding of the
    matrix; each eigenvalue appears there twice, and the duplicates are merged
    by averaging adjacent sorted values.

    Raises ContractViolationError if max |h - h†| > 1e-10 and
    NumericFailureError if the sweep cap is exhausted.
    """
    h = as_matrix(h)
    herm_dev = max_abs(h - h.conj().T)
    if not herm_dev <= 1e-10:
        raise ContractViolationError(f"matrix is not Hermitian: max |h - h†| = {herm_dev:.3e}")
    h = (h + h.conj().T) / 2.0
    doubled = _jacobi_eigenvalues_symmetric(_real_symmetric_embedding(h))
    return _freeze(0.5 * (doubled[0::2] + doubled[1::2]))
