"""Constructors: rotations, entanglers, separable products, Gibbs populations."""

import math

import numpy as np
import pytest

from workfdr import (
    CartanCoefficients,
    SeparableXZXParams,
    ValidationError,
    cartan_entangler,
    identity,
    kron,
    rotation_x,
    rotation_z,
    rxx,
    separable_xzx,
)
from workfdr.model import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SINGLE_QUBIT_ENERGIES,
    TWO_QUBIT_ENERGIES,
    XX,
    YY,
    ZZ,
    gibbs_populations,
)

RNG = np.random.default_rng(99)


def test_rotation_x_limits():
    np.testing.assert_array_equal(rotation_x(0.0), identity(2))
    np.testing.assert_allclose(rotation_x(math.pi), -1j * PAULI_X, atol=1e-15)


def test_rotation_x_transition_probability():
    for angle in (0.1, 0.5, 1.3):
        amp = rotation_x(angle)[1, 0]
        assert abs(abs(amp) ** 2 - math.sin(angle / 2.0) ** 2) <= 1e-15


def test_rotations_are_unitary_to_1e14():
    for angle in RNG.uniform(-6, 6, 20):
        for gate in (rotation_x(angle), rotation_z(angle)):
            assert np.max(np.abs(gate.conj().T @ gate - np.eye(2))) <= 1e-14


def test_rxx_limits_and_cartan_special_case():
    np.testing.assert_array_equal(rxx(0.0), identity(4))
    for dphi in (0.2, 1.0, -0.7):
        np.testing.assert_allclose(
            rxx(dphi), cartan_entangler(CartanCoefficients(dphi / 2.0, 0.0, 0.0)), atol=1e-14
        )
    assert np.max(np.abs(rxx(1.3).conj().T @ rxx(1.3) - np.eye(4))) <= 1e-14


def test_rxx_column_action_on_ground_state():
    dphi = 0.8
    column = rxx(dphi)[:, 0]
    expected = np.array([math.cos(dphi / 2.0), 0.0, 0.0, -1j * math.sin(dphi / 2.0)])
    np.testing.assert_allclose(column, expected, atol=1e-15)


def test_cartan_identity_and_unitarity():
    np.testing.assert_array_equal(cartan_entangler(CartanCoefficients(0.0, 0.0, 0.0)), identity(4))
    gate = cartan_entangler(CartanCoefficients(0.4, -0.2, 0.9))
    assert np.max(np.abs(gate.conj().T @ gate - np.eye(4))) <= 1e-13


def test_cartan_factor_ordering_is_irrelevant():
    from itertools import permutations

    c = (0.37, -0.21, 0.52)
    eye = np.eye(4, dtype=complex)
    factors = [
        math.cos(angle) * eye - 1j * math.sin(angle) * np.kron(pauli, pauli)
        for angle, pauli in zip(c, (PAULI_X, PAULI_Y, PAULI_Z))
    ]
    reference = cartan_entangler(CartanCoefficients(*c))
    for order in permutations(range(3)):
        product = factors[order[0]] @ factors[order[1]] @ factors[order[2]]
        np.testing.assert_allclose(product, reference, atol=1e-13)


def test_cartan_block_transition_amplitudes():
    gate = cartan_entangler(CartanCoefficients(0.1, 0.1, 0.0))
    # degenerate block mixes with sin(c1+c2), the 00/11 block with sin(c1-c2) = 0
    assert abs(gate[0, 3]) <= 1e-15
    assert abs(abs(gate[2, 1]) - math.sin(0.2)) <= 1e-15
    for c1, c2 in RNG.uniform(-1, 1, (10, 2)):
        gate = cartan_entangler(CartanCoefficients(c1, c2, 0.3))
        assert abs(abs(gate[0, 3]) ** 2 - math.sin(c1 - c2) ** 2) <= 1e-14
        assert abs(abs(gate[1, 2]) ** 2 - math.sin(c1 + c2) ** 2) <= 1e-14


def test_separable_xzx_structure():
    np.testing.assert_array_equal(
        separable_xzx(SeparableXZXParams(0.0, 0.0, 0.0, 0.0)), identity(4)
    )
    np.testing.assert_allclose(
        separable_xzx(SeparableXZXParams(0.2, 0.0, 0.0, 0.0)),
        kron(rotation_x(0.2), identity(2)),
        atol=1e-15,
    )
    p = SeparableXZXParams(0.3, -0.8, 1.1, 0.4)
    np.testing.assert_allclose(
        separable_xzx(p),
        kron(rotation_x(p.c) @ rotation_z(p.l), rotation_x(p.m) @ rotation_z(p.n)),
        atol=1e-14,
    )


def test_gibbs_state_values():
    np.testing.assert_allclose(gibbs_populations(0.0, SINGLE_QUBIT_ENERGIES), [0.5, 0.5], atol=1e-15)
    hot = gibbs_populations(1.0, SINGLE_QUBIT_ENERGIES)
    assert abs(hot[0] - 0.7310585786300049) <= 1e-15
    assert abs(np.sum(hot) - 1.0) <= 1e-14


def test_gibbs_two_qubit_factorizes():
    for beta in (0.0, 0.7, 3.0):
        single = np.diag(gibbs_populations(beta, SINGLE_QUBIT_ENERGIES))
        joint = np.diag(gibbs_populations(beta, TWO_QUBIT_ENERGIES))
        np.testing.assert_allclose(joint, kron(single, single), atol=1e-15)


def test_gibbs_populations_decrease_with_energy():
    populations = gibbs_populations(2.0, TWO_QUBIT_ENERGIES)
    assert all(populations[i] >= populations[i + 1] - 1e-18 for i in range(3))


def test_gibbs_rejects_negative_beta():
    with pytest.raises(ValidationError):
        gibbs_populations(-0.5, SINGLE_QUBIT_ENERGIES)


def test_cartan_coefficients_fold_into_canonical_range():
    c = CartanCoefficients(2 * math.pi + 0.3, -2 * math.pi - 0.1, 7.0)
    assert abs(c.c1 - 0.3) <= 1e-12
    assert abs(c.c2 + 0.1) <= 1e-12
    assert all(abs(x) <= math.pi for x in (c.c1, c.c2, c.c3))
    # folding is a gauge choice: the entangler itself is unchanged
    np.testing.assert_allclose(
        cartan_entangler(c),
        cartan_entangler(CartanCoefficients(0.3, -0.1, 7.0 - 2 * math.pi)),
        atol=1e-13,
    )


def test_non_finite_inputs_rejected():
    with pytest.raises(ValidationError):
        rotation_x(float("nan"))
    with pytest.raises(ValidationError):
        rxx(float("inf"))
    with pytest.raises(ValidationError):
        CartanCoefficients(0.1, float("nan"), 0.0)
    with pytest.raises(ValidationError):
        SeparableXZXParams(0.1, 0.2, float("inf"), 0.0)


def _words(matrix):
    return np.ascontiguousarray(matrix).view(np.uint64)


def test_entangler_generators_are_built_once_with_the_bits_of_each_build():
    # oracles: each entangler with its generators built by np.kron on every call
    def rxx_oracle(delta_phi):
        c, s = math.cos(delta_phi / 2.0), math.sin(delta_phi / 2.0)
        return c * np.eye(4, dtype=np.complex128) - 1j * s * np.kron(PAULI_X, PAULI_X)

    def cartan_oracle(coeffs):
        eye = np.eye(4, dtype=np.complex128)
        result = eye
        for angle, pauli in ((coeffs.c1, PAULI_X), (coeffs.c2, PAULI_Y), (coeffs.c3, PAULI_Z)):
            result = result @ (math.cos(angle) * eye - 1j * math.sin(angle) * np.kron(pauli, pauli))
        return result

    for generator, pauli in ((XX, PAULI_X), (YY, PAULI_Y), (ZZ, PAULI_Z)):
        assert not generator.flags.writeable
        assert np.array_equal(_words(generator), _words(np.kron(pauli, pauli)))
    rng = np.random.default_rng(19)
    special = [0.0, -0.0, math.pi, 1e200]
    for angle in [*rng.uniform(-7.0, 7.0, 20).tolist(), *special]:
        assert np.array_equal(_words(rxx(angle)), _words(rxx_oracle(angle))), angle
    triples = [tuple(t) for t in rng.uniform(-7.0, 7.0, (20, 3)).tolist()]
    triples += [(a, b, c) for a in special for b in special for c in (0.3, *special)]
    for triple in triples:
        coeffs = CartanCoefficients(*triple)
        assert np.array_equal(_words(cartan_entangler(coeffs)), _words(cartan_oracle(coeffs))), triple
