"""Closed-form constructors for the driven-qubit model.

Provides the diagonal qubit spectra as energy tuples (level splitting fixed
to 1) and their thermal populations, per-step local quench rotations, the xx
entangling rotation, the general two-qubit entangler generated by commuting
xx/yy/zz terms, and separable X-Z-X product unitaries. All constructors are
pure and return write-protected complex128 arrays: a (d, d) matrix for float
angles, and a (k, d, d) stack for arrays of k angles, each matrix with the bits
its angles give alone (numpy's cos, sin and % round as math's do; the tests pin it).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import require_betas, require_finite
from .linalg import _freeze, kron

PAULI_X = _freeze(np.array([[0, 1], [1, 0]], dtype=np.complex128))
PAULI_Y = _freeze(np.array([[0, -1j], [1j, 0]], dtype=np.complex128))
PAULI_Z = _freeze(np.array([[1, 0], [0, -1]], dtype=np.complex128))
# the entangler generators sigma_k (x) sigma_k, built once
XX, YY, ZZ = (kron(pauli, pauli) for pauli in (PAULI_X, PAULI_Y, PAULI_Z))

# Hamiltonian spectra in the computational basis, in units of the splitting: one
# qubit (ground 0, excited 1), and two non-interacting qubits on |00>,|01>,|10>,|11>
SINGLE_QUBIT_ENERGIES = (0.0, 1.0)
TWO_QUBIT_ENERGIES = (0.0, 1.0, 1.0, 2.0)


def _fold_angle(angle: float) -> float:
    # canonical range [-pi, pi), of a float or of each element of an array; entangler generators are 2*pi-periodic
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


@dataclass(frozen=True)
class CartanCoefficients:
    """Angles of the commuting xx/yy/zz entangler generators, folded into [-pi, pi): floats, or arrays for a stack."""

    c1: float
    c2: float
    c3: float = 0.0

    def __post_init__(self):
        require_finite(c1=self.c1, c2=self.c2, c3=self.c3)
        object.__setattr__(self, "c1", _fold_angle(self.c1))
        object.__setattr__(self, "c2", _fold_angle(self.c2))
        object.__setattr__(self, "c3", _fold_angle(self.c3))


@dataclass(frozen=True)
class SeparableXZXParams:
    """X and Z angles (c, l) for qubit A and (m, n) for qubit B of a product unitary: floats, or arrays for a stack."""

    c: float
    l: float
    m: float
    n: float

    def __post_init__(self):
        require_finite(c=self.c, l=self.l, m=self.m, n=self.n)


def _matrix(rows) -> np.ndarray:
    # a complex128 matrix from rows of entries, numbers or arrays of one shape: one matrix per element
    m = np.array(rows, dtype=np.complex128)
    return _freeze(np.ascontiguousarray(m.transpose(*range(2, m.ndim), 0, 1)))


def rotation_x(angle) -> np.ndarray:
    """exp(-i*angle*sigma_x/2) as a 2x2 closed form; of an array of angles, one matrix per angle."""
    require_finite(angle=angle)
    c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
    return _matrix([[c, -1j * s], [-1j * s, c]])


def rotation_z(angle) -> np.ndarray:
    """exp(-i*angle*sigma_z/2) as a 2x2 closed form; of an array of angles, one matrix per angle."""
    require_finite(angle=angle)
    zero = np.zeros(np.shape(angle))
    return _matrix([[np.exp(-0.5j * angle), zero], [zero, np.exp(0.5j * angle)]])


def rxx(delta_phi) -> np.ndarray:
    """exp(-i*(delta_phi/2)*sigma_x (x) sigma_x): cos(d/2)*I - i*sin(d/2)*XX; of an array, one per angle."""
    require_finite(delta_phi=delta_phi)
    c, s = np.cos(delta_phi / 2.0), np.sin(delta_phi / 2.0)
    return _freeze(np.multiply.outer(c, np.eye(4, dtype=np.complex128)) - np.multiply.outer(1j * s, XX))


def cartan_entangler(coeffs: CartanCoefficients) -> np.ndarray:
    """Product of the three commuting factors cos(c_k)*I - i*sin(c_k)*(sigma_k (x) sigma_k); of
    coefficients that are arrays, one matrix per element of their broadcast shape."""
    eye = np.eye(4, dtype=np.complex128)
    result = eye
    for angle, generator in ((coeffs.c1, XX), (coeffs.c2, YY), (coeffs.c3, ZZ)):
        result = result @ (np.multiply.outer(np.cos(angle), eye) - np.multiply.outer(1j * np.sin(angle), generator))
    return _freeze(result)


def separable_xzx(params: SeparableXZXParams) -> np.ndarray:
    """Product unitary R_X(c)R_Z(l) (x) R_X(m)R_Z(n); of angles that are arrays, one matrix per element."""
    local_a = rotation_x(params.c) @ rotation_z(params.l)
    local_b = rotation_x(params.m) @ rotation_z(params.n)
    return kron(local_a, local_b)


def bipartite_quench(delta_theta) -> np.ndarray:
    """Per-step two-qubit quench R_X(delta_theta) (x) R_X(delta_theta); of an array, one per angle."""
    u = rotation_x(delta_theta)
    return kron(u, u)


def gibbs_populations(beta, energies: tuple[float, ...], dtype=np.float64) -> np.ndarray:
    """Thermal populations exp(-beta*E)/Z of a diagonal spectrum, one row per beta if beta
    is a sequence; exact enumeration takes dtype=numpy.longdouble."""
    betas = require_betas(beta if np.ndim(beta) else [beta]).astype(dtype)
    weights = np.exp(-betas.reshape(np.shape(beta) + (1,)) * np.asarray(energies, dtype=dtype))
    return _freeze(weights / weights.sum(axis=-1, keepdims=True))
