"""Closed-form constructors for the driven-qubit model.

Provides the qubit Hamiltonians (level splitting fixed to 1), Gibbs states,
per-step local quench rotations, the xx entangling rotation, the general
two-qubit entangler generated by commuting xx/yy/zz terms, and separable
X-Z-X product unitaries. All constructors are pure and return write-protected
complex128 arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import require_beta, require_finite
from .linalg import _freeze, kron

PAULI_X = _freeze(np.array([[0, 1], [1, 0]], dtype=np.complex128))
PAULI_Y = _freeze(np.array([[0, -1j], [1j, 0]], dtype=np.complex128))
PAULI_Z = _freeze(np.array([[1, 0], [0, -1]], dtype=np.complex128))


def _fold_angle(angle: float) -> float:
    # canonical range [-pi, pi); entangler generators are 2*pi-periodic
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


@dataclass(frozen=True)
class QubitHamiltonian:
    """Diagonal Hamiltonian in the computational basis, energies in units of the splitting."""

    energies: tuple[float, ...]

    @classmethod
    def single(cls) -> "QubitHamiltonian":
        """Single qubit: ground 0, excited 1."""
        return cls(energies=(0.0, 1.0))

    @classmethod
    def two_qubit(cls) -> "QubitHamiltonian":
        """Two non-interacting qubits: additive spectrum {0, 1, 1, 2} on |00>,|01>,|10>,|11>."""
        return cls(energies=(0.0, 1.0, 1.0, 2.0))


@dataclass(frozen=True)
class CartanCoefficients:
    """Angles of the commuting xx/yy/zz entangler generators, folded into [-pi, pi)."""

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
    """X and Z angles (c, l) for qubit A and (m, n) for qubit B of a product unitary."""

    c: float
    l: float
    m: float
    n: float

    def __post_init__(self):
        require_finite(c=self.c, l=self.l, m=self.m, n=self.n)


def rotation_x(angle: float) -> np.ndarray:
    """exp(-i*angle*sigma_x/2) as a 2x2 closed form."""
    require_finite(angle=angle)
    c = math.cos(angle / 2.0)
    s = math.sin(angle / 2.0)
    return _freeze(np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128))


def rotation_z(angle: float) -> np.ndarray:
    """exp(-i*angle*sigma_z/2) as a 2x2 closed form."""
    require_finite(angle=angle)
    return _freeze(
        np.array(
            [[np.exp(-0.5j * angle), 0.0], [0.0, np.exp(0.5j * angle)]],
            dtype=np.complex128,
        )
    )


def rxx(delta_phi: float) -> np.ndarray:
    """exp(-i*(delta_phi/2)*sigma_x (x) sigma_x): cos(d/2)*I - i*sin(d/2)*XX."""
    require_finite(delta_phi=delta_phi)
    c = math.cos(delta_phi / 2.0)
    s = math.sin(delta_phi / 2.0)
    return _freeze(c * np.eye(4, dtype=np.complex128) - 1j * s * np.kron(PAULI_X, PAULI_X))


def cartan_entangler(coeffs: CartanCoefficients) -> np.ndarray:
    """Product of the three commuting factors cos(c_k)*I - i*sin(c_k)*(sigma_k (x) sigma_k)."""
    eye = np.eye(4, dtype=np.complex128)
    result = eye
    for angle, pauli in ((coeffs.c1, PAULI_X), (coeffs.c2, PAULI_Y), (coeffs.c3, PAULI_Z)):
        factor = math.cos(angle) * eye - 1j * math.sin(angle) * np.kron(pauli, pauli)
        result = result @ factor
    return _freeze(result)


def separable_xzx(params: SeparableXZXParams) -> np.ndarray:
    """Product unitary R_X(c)R_Z(l) (x) R_X(m)R_Z(n)."""
    local_a = rotation_x(params.c) @ rotation_z(params.l)
    local_b = rotation_x(params.m) @ rotation_z(params.n)
    return kron(local_a, local_b)


def bipartite_quench(delta_theta: float) -> np.ndarray:
    """Per-step two-qubit quench R_X(delta_theta) (x) R_X(delta_theta)."""
    u = rotation_x(delta_theta)
    return kron(u, u)


def gibbs_populations(beta, hamiltonian: QubitHamiltonian, dtype=np.float64) -> np.ndarray:
    """Thermal populations exp(-beta*E)/Z, one row per beta if beta is a sequence; exact
    enumeration takes dtype=numpy.longdouble."""
    betas = np.array([require_beta(b) for b in (beta if np.ndim(beta) else [beta])], dtype=dtype)
    weights = np.exp(-betas.reshape(np.shape(beta) + (1,)) * np.asarray(hamiltonian.energies, dtype=dtype))
    return _freeze(weights / weights.sum(axis=-1, keepdims=True))


def gibbs_state(beta: float, hamiltonian: QubitHamiltonian) -> np.ndarray:
    """Thermal state exp(-beta*H)/Z as a diagonal density matrix."""
    return _freeze(np.diag(gibbs_populations(beta, hamiltonian)).astype(np.complex128))
