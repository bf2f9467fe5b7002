"""Negativity: numerical partial-transpose route vs closed forms."""

import math

import numpy as np
import pytest

from workfdr import (
    CartanCoefficients,
    ContractViolationError,
    NumericFailureError,
    SeparableXZXParams,
    ValidationError,
    cartan_entangler,
    hermitian_eigenvalues,
    kron,
    negativity,
    negativity_cartan_basis,
    partial_transpose_A,
    rotation_x,
    rotation_z,
    rxx,
    separable_xzx,
)
from workfdr import entanglement
from workfdr.entanglement import cartan_basis_negativities
from workfdr.model import SINGLE_QUBIT_ENERGIES, gibbs_populations

RNG = np.random.default_rng(31415)


def pure_state(column):
    return np.outer(column, column.conj())


def random_local_unitary():
    a, b, c = RNG.uniform(-math.pi, math.pi, 3)
    return rotation_z(a) @ rotation_x(b) @ rotation_z(c)


def test_thermal_product_states_are_separable():
    for beta in (0.0, 0.8, 3.0):
        single = np.diag(gibbs_populations(beta, SINGLE_QUBIT_ENERGIES))
        assert negativity(kron(single, single)) == 0.0  # no negative partial-transpose eigenvalue


def test_bell_state_negativity_is_half():
    psi = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    result = negativity(pure_state(psi))
    assert result.shape == () and result.dtype == np.float64
    assert abs(result - 0.5) <= 1e-11
    with pytest.raises(ValueError, match="read-only"):
        result[()] = 0.0
    negative = [v for v in hermitian_eigenvalues(partial_transpose_A(pure_state(psi))) if v < 0.0]
    assert len(negative) == 1 and abs(negative[0] + 0.5) <= 1e-11


def test_rxx_image_of_ground_state():
    rho = pure_state(rxx(0.2)[:, 0])
    assert abs(negativity(rho) - 0.09933466539753061) <= 1e-11


def test_closed_form_basics():
    for u in range(4):
        assert negativity_cartan_basis(u, 0.0, 0.0) == 0.0
    assert negativity_cartan_basis(0, 0.1, 0.1) == 0.0
    assert abs(negativity_cartan_basis(1, 0.1, 0.1) - 0.19470917115432525) <= 1e-16


def test_closed_form_small_coefficient_expansion():
    # |sin(2s)/2 - s| = (2/3) s^3 + O(s^5), so s^3 bounds the remainder
    c1, c2 = 2e-3, 1e-3
    assert abs(negativity_cartan_basis(0, c1, c2) - (c1 - c2)) <= (c1 - c2) ** 3
    assert abs(negativity_cartan_basis(1, c1, c2) - (c1 + c2)) <= (c1 + c2) ** 3


def test_closed_form_matches_numerics_on_grid():
    for c1 in np.arange(0.0, 0.51, 0.1):
        for c2 in np.arange(0.0, 0.51, 0.1):
            gate = cartan_entangler(CartanCoefficients(float(c1), float(c2), 0.45))
            table = cartan_basis_negativities(float(c1), float(c2), 0.45)
            for u in range(4):
                numeric = negativity(pure_state(gate[:, u]))
                closed = negativity_cartan_basis(u, float(c1), float(c2))
                assert abs(numeric - closed) <= 1e-10
                assert table[u] == (u, numeric, closed)


def test_negativity_invariant_under_local_unitaries():
    gate = cartan_entangler(CartanCoefficients(0.3, -0.15, 0.7))
    rho = pure_state(gate[:, 2])
    base = negativity(rho)
    for _ in range(10):
        local = kron(random_local_unitary(), random_local_unitary())
        rotated = local @ rho @ local.conj().T
        assert abs(negativity(rotated) - base) <= 1e-10


def test_separable_unitaries_create_no_entanglement():
    for _ in range(10):
        params = SeparableXZXParams(*(float(x) for x in RNG.uniform(-3.0, 3.0, 4)))
        gate = separable_xzx(params)
        for u in range(4):
            assert negativity(pure_state(gate[:, u])) <= 1e-12


def test_superposition_negativity_is_amplitude_product():
    for theta in np.linspace(0.0, math.pi, 12):
        alpha, beta = math.cos(theta / 2.0), math.sin(theta / 2.0)
        psi = np.array([alpha, 0.0, 0.0, beta], dtype=complex)
        assert abs(negativity(pure_state(psi)) - abs(alpha * beta)) <= 1e-11


def test_negativity_cross_check_rejects_nan_eigenvalues(monkeypatch):
    # NaN eigenvalues give no negatives, so value 0; only the cross-check can see them
    monkeypatch.setattr(entanglement, "hermitian_eigenvalues", lambda h: np.array([np.nan, 0.0, 0.5, 0.5]))
    with pytest.raises(NumericFailureError, match="self-check"):
        negativity(np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex))


def test_negativity_rejects_invalid_inputs():
    with pytest.raises(ContractViolationError):
        negativity(np.eye(4, dtype=complex))  # trace 4
    with pytest.raises(ContractViolationError):
        negativity(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))
    with pytest.raises(ValidationError, match="4x4"):
        negativity(np.diag([0.5, 0.5]).astype(complex))  # a valid one-qubit density
    with pytest.raises(ValidationError):
        negativity_cartan_basis(4, 0.1, 0.1)
    with pytest.raises(ValidationError):
        negativity_cartan_basis(1, float("nan"), 0.0)
