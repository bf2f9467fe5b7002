"""Constructors: rotations, entanglers, separable products, Gibbs populations.

Every builder takes arrays of angles and returns one matrix per angle: each
matrix of a stack, and the one-element call, must equal today's scalar
expression (kept here) word for word, at random angles and at 0, -0.0, 1e-300,
multiples of pi, +-1e200 and the Cartan angle 2*pi + 0.3.
"""

import math

import numpy as np
import pytest

from workfdr import (
    CartanCoefficients,
    SeparableXZXParams,
    UnsupportedDimensionError,
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
    bipartite_quench,
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


# Each builder with today's scalar expression, kept here as the oracle of its stacked form: math's
# cos and sin of one float, Python's % fold, np.kron of one pair of 2x2 matrices.
def _fold(angle):
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


def _scalar_rotation_x(angle):
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def _scalar_rotation_z(angle):
    return np.array([[np.exp(-0.5j * angle), 0.0], [0.0, np.exp(0.5j * angle)]], dtype=np.complex128)


def _scalar_rxx(delta_phi):
    c, s = math.cos(delta_phi / 2.0), math.sin(delta_phi / 2.0)
    return c * np.eye(4, dtype=np.complex128) - 1j * s * XX


def _scalar_cartan(c1, c2, c3):
    eye = np.eye(4, dtype=np.complex128)
    result = eye
    for angle, generator in ((_fold(c1), XX), (_fold(c2), YY), (_fold(c3), ZZ)):
        result = result @ (math.cos(angle) * eye - 1j * math.sin(angle) * generator)
    return result


def _scalar_separable(c, l, m, n):
    return np.kron(_scalar_rotation_x(c) @ _scalar_rotation_z(l), _scalar_rotation_x(m) @ _scalar_rotation_z(n))


def _scalar_quench(delta_theta):
    u = _scalar_rotation_x(delta_theta)
    return np.kron(u, u)


_SPECIAL = [0.0, -0.0, 1e-300, *(k * math.pi for k in (1, -1, 2, 3, -7, 100)), 1e200, -1e200, 2 * math.pi + 0.3]
_ANGLES = np.array([*_SPECIAL, *np.random.default_rng(2024).uniform(-10.0, 10.0, 4000)])


def _assert_stack_matches(stack, one_element, scalar, points):
    """Matrix i of a stack, the one-element call and the scalar expression at point i: equal uint64 words."""
    assert stack.shape == (len(points), *scalar(*points[0]).shape) and not stack.flags.writeable
    for matrix, point in zip(stack, points):
        expected = _words(scalar(*point))
        assert np.array_equal(_words(matrix), expected), point
        assert np.array_equal(_words(one_element(*point)), expected), point


def test_stacked_single_angle_builders_equal_scalar_expressions_word_for_word():
    points = [(a,) for a in _ANGLES.tolist()]
    for builder, scalar in ((rotation_x, _scalar_rotation_x), (rotation_z, _scalar_rotation_z), (rxx, _scalar_rxx),
                            (bipartite_quench, _scalar_quench)):
        _assert_stack_matches(builder(_ANGLES), builder, scalar, points)


def test_stacked_cartan_and_separable_builders_equal_scalar_expressions_word_for_word():
    rng = np.random.default_rng(7)
    triples = np.vstack([rng.uniform(-7.0, 7.0, (1000, 3)), [(a, b, 0.3) for a in _SPECIAL for b in _SPECIAL]])
    stack = cartan_entangler(CartanCoefficients(*triples.T))
    _assert_stack_matches(stack, lambda *t: cartan_entangler(CartanCoefficients(*t)), _scalar_cartan, triples.tolist())
    # a scalar coefficient broadcasts against the arrays: one matrix per element
    mixed = cartan_entangler(CartanCoefficients(triples[:, 0], 0.37, triples[:, 2]))
    _assert_stack_matches(mixed, lambda a, c: cartan_entangler(CartanCoefficients(a, 0.37, c)),
                          lambda a, c: _scalar_cartan(a, 0.37, c), triples[:, [0, 2]].tolist())
    quads = np.vstack([rng.uniform(-7.0, 7.0, (1000, 4)), [(a, b, b, a) for a in _SPECIAL for b in _SPECIAL]])
    stack = separable_xzx(SeparableXZXParams(*quads.T))
    _assert_stack_matches(stack, lambda *q: separable_xzx(SeparableXZXParams(*q)), _scalar_separable, quads.tolist())


def test_batched_kron_equals_np_kron_word_for_word():
    rng = np.random.default_rng(11)
    a, b = (rng.normal(size=(50, 2, 2)) + 1j * rng.normal(size=(50, 2, 2)) for _ in range(2))
    a[0, 0, 0], b[1, 1, 0] = -0.0, complex(0.0, -0.0)
    for left, right in ((a, b), (a, b[0]), (a[0], b)):
        stack = kron(left, right)
        assert stack.shape == (50, 4, 4) and not stack.flags.writeable
        for i in range(50):
            pair = (left if left.ndim == 2 else left[i], right if right.ndim == 2 else right[i])
            assert np.array_equal(_words(stack[i]), _words(np.kron(*pair)))
            assert np.array_equal(_words(kron(*pair)), _words(np.kron(*pair)))
    with pytest.raises(UnsupportedDimensionError, match="kron result would be 8x8"):
        kron(a, np.eye(4))


def test_stacked_builders_refuse_a_non_finite_angle():
    for builder in (rotation_x, rotation_z, rxx, bipartite_quench):
        with pytest.raises(ValidationError, match="must be finite, got .*nan"):
            builder(np.array([0.1, np.nan, np.inf]))
    with pytest.raises(ValidationError, match="c2 must be finite, got .*inf"):
        CartanCoefficients(np.zeros(3), np.array([0.0, 0.0, -np.inf]))
    with pytest.raises(ValidationError, match="l must be finite"):
        SeparableXZXParams(0.1, np.array([np.nan]), 0.2, 0.3)
