"""Exact small dense complex linear algebra for one- and two-qubit operators.

Matrices are ``numpy.ndarray`` values of dtype complex128 and shape (2, 2) or
(4, 4), or a (k, d, d) stack where a function says so. Inputs are treated as
immutable and results are fresh arrays with the write flag cleared, so all
operations are safe under unrestricted concurrent use.
"""

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
# per embedding size n: the strict lower triangle as a mask, and the pivots in cyclic order
_SWEEP = {n: (np.tri(n, k=-1, dtype=bool), [(p, q) for p in range(n - 1) for q in range(p + 1, n)]) for n in (4, 8)}


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def as_matrix(a) -> np.ndarray:
    """Coerce input to a square complex128 matrix of dimension 2 or 4, or a (k, d, d) stack of them."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim not in (2, 3) or m.shape[-2] != m.shape[-1]:
        raise UnsupportedDimensionError(f"expected a square matrix or a (k, d, d) stack, got shape {m.shape}")
    if m.shape[-1] not in (2, 4):
        raise UnsupportedDimensionError(f"supported dimensions are 2 and 4, got {m.shape[-1]}")
    return m


def identity(dim: int) -> np.ndarray:
    if dim not in (2, 4):
        raise UnsupportedDimensionError(f"supported dimensions are 2 and 4, got {dim}")
    return _freeze(np.eye(dim, dtype=np.complex128))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, restricted to results of dimension at most 4; of (k, d, d) stacks (or a
    stack and a matrix), matrix by matrix: the products np.kron forms, batched."""
    a, b = as_matrix(a), as_matrix(b)
    dim = a.shape[-1] * b.shape[-1]
    if dim > 4:
        raise UnsupportedDimensionError(f"kron result would be {dim}x{dim}; only dimensions up to 4 are supported")
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    return _freeze(product.reshape(product.shape[:-4] + (dim, dim)))


def partial_transpose_A(rho: np.ndarray) -> np.ndarray:
    """Transpose the first-qubit indices of a 4x4 two-qubit operator, or of each of a stack.
    Preserves trace and Hermiticity exactly (it only permutes entries)."""
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape[-2:] != (4, 4) or rho.ndim not in (2, 3):
        raise UnsupportedDimensionError(f"partial transpose needs a 4x4 matrix, got {rho.shape}")
    return _freeze(rho.reshape(*rho.shape[:-2], 2, 2, 2, 2).swapaxes(-4, -2).reshape(rho.shape).copy())


def require_each(ok: np.ndarray, message: str, *values: np.ndarray, error=ContractViolationError) -> None:
    """Raise `error` at the first False flag of `ok`, a 0-d flag for one matrix or one per matrix
    of a stack (named in the message); `message` is formatted with that entry of each of `values`."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        where = f"matrix {bad[0]} of the stack: " if ok.ndim else ""
        raise error(where + message.format(*(float(v.flat[bad[0]]) for v in values)))


def check_unitary(u: np.ndarray) -> np.ndarray:
    """Require max |U†U - I| <= UNITARY_TOL of a matrix, or of each matrix of a (k, d, d) stack."""
    u = as_matrix(u)
    dev = np.abs(u.conj().swapaxes(-2, -1) @ u - np.eye(u.shape[-1])).max(axis=(-2, -1))
    require_each(dev <= UNITARY_TOL, f"matrix is not unitary: max |U†U - I| = {{:.3e}} > {UNITARY_TOL:.0e}", dev)
    return u


def check_density(rho: np.ndarray) -> np.ndarray:
    """Require of a matrix, or of each matrix of a (k, d, d) stack: Hermiticity to 1e-12,
    unit trace to 1e-12 and eigenvalues >= -1e-10. One bad matrix fails the whole call."""
    rho = as_matrix(rho)
    dagger = rho.conj().swapaxes(-2, -1)
    herm_dev = np.max(np.abs(rho - dagger), axis=(-2, -1))
    require_each(herm_dev <= DENSITY_HERMITICITY_TOL, "density is not Hermitian: max |rho - rho†| = {:.3e}", herm_dev)
    tr_dev = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)
    require_each(tr_dev <= DENSITY_TRACE_TOL, "density trace deviates from 1 by {:.3e}", tr_dev)
    lowest = hermitian_eigenvalues(rho)[..., 0]  # it solves (rho + rho†) / 2, as Hermitian as rho is
    require_each(lowest >= DENSITY_EIGENVALUE_FLOOR, "density has negative eigenvalue {:.3e}", lowest)
    return rho


def _jacobi_eigenvalues_symmetric(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each real symmetric matrix of a (k, n, n) stack by cyclic Jacobi
    sweeps in lockstep. A matrix leaves the stack, its sorted diagonal recorded, at the first
    sweep that finds it converged; at each pivot, a matrix below the skip threshold is untouched."""
    a = np.array(m, dtype=np.float64)
    lower, pivots = _SWEEP[a.shape[-1]]
    scale = np.maximum(1.0, np.max(np.abs(a), axis=(1, 2), initial=0.0))
    out, live = np.empty(a.shape[:2]), np.arange(len(a))
    for _ in range(JACOBI_MAX_SWEEPS):
        off = np.sqrt(np.sum(np.square(a, out=np.zeros_like(a), where=lower), axis=(1, 2)))  # np.tril(a, -1) ** 2
        done = off <= 1e-15 * scale
        out[live[done]] = np.sort(np.diagonal(a[done], axis1=1, axis2=2), axis=1)
        a, scale, live = a[~done], scale[~done], live[~done]
        if not live.size:
            return out
        tiny = 1e-18 * scale
        for p, q in pivots:
            rotate = np.abs(a[:, p, q]) > tiny
            if rotating := np.count_nonzero(rotate):
                r = a if rotating == len(a) else a[rotate]
                # t = sign(phi) / (|phi| + hypot(phi, 1)), but 1 at phi = +-0: + 0.0 turns -0.0 into 0.0
                phi = (r[:, q, q] - r[:, p, p]) / (2.0 * r[:, p, q]) + 0.0
                t = np.copysign(1.0 / (np.abs(phi) + np.hypot(phi, 1.0)), phi)
                c = 1.0 / np.hypot(t, 1.0)
                s = t * c
                # two-sided rotation in the (p, q) plane, one 2x2 gemm per matrix each side
                rot = np.array([c, -s, s, c]).T.reshape(-1, 2, 2)
                r[:, p : q + 1 : q - p] = rot @ r[:, p : q + 1 : q - p]
                r[:, :, p : q + 1 : q - p] = r[:, :, [p, q]] @ rot.transpose(0, 2, 1)
                if r is not a:
                    a[rotate] = r
            a[:, p, q] = a[:, q, p] = 0.0  # zeroes the pivot exactly
    raise NumericFailureError(f"Jacobi eigensolver did not converge within {JACOBI_MAX_SWEEPS} sweeps")


def hermitian_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending; for a (k, d, d) stack, one row each.

    Cyclic Jacobi sweeps run in lockstep over the real-symmetric 2d x 2d
    embeddings of the whole stack, in one call. A matrix gets the bits it gets
    alone: its rotations are the same 2x2 gemm calls. Each eigenvalue appears
    twice there; adjacent sorted duplicates are averaged.

    Raises ContractViolationError if max |h - h†| > 1e-10 (naming the first such
    matrix of a stack) and NumericFailureError if the sweep cap is exhausted.
    """
    h = as_matrix(h)
    dagger = h.conj().swapaxes(-2, -1)
    herm_dev = np.max(np.abs(h - dagger), axis=(-2, -1))
    require_each(herm_dev <= 1e-10, "matrix is not Hermitian: max |h - h†| = {:.3e}", herm_dev)
    stack = ((h + dagger) / 2.0).reshape(-1, *h.shape[-2:])
    # H = A + iB Hermitian -> [[A, -B], [B, A]] symmetric with doubled spectrum
    doubled = _jacobi_eigenvalues_symmetric(np.block([[stack.real, -stack.imag], [stack.imag, stack.real]]))
    return _freeze((0.5 * (doubled[:, 0::2] + doubled[:, 1::2])).reshape(h.shape[:-1]))
