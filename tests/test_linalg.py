"""Kronecker products, partial transpose, and the Jacobi Hermitian eigensolver."""

import numpy as np
import pytest

from workfdr import (
    ContractViolationError,
    UnsupportedDimensionError,
    hermitian_eigenvalues,
    identity,
    kron,
    partial_transpose_A,
    rotation_x,
    rotation_z,
    rxx,
)
from workfdr import linalg
from workfdr.linalg import check_density, check_unitary
from workfdr.model import PAULI_X

RNG = np.random.default_rng(1234)


def random_unitary(dim):
    z = RNG.standard_normal((dim, dim)) + 1j * RNG.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_kron_identity():
    np.testing.assert_array_equal(kron(identity(2), identity(2)), identity(4))


def test_kron_pauli_flip_on_both_qubits():
    ket00 = np.array([1, 0, 0, 0], dtype=complex)
    np.testing.assert_array_equal(kron(PAULI_X, PAULI_X) @ ket00, [0, 0, 0, 1])


def test_kron_thermal_product_state():
    # diag(1, e^-1)/Z (x) itself = diag(1, e^-1, e^-1, e^-2)/Z^2, worked by hand
    w = np.exp(-1.0)
    z = 1.0 + w
    single = np.diag([1.0, w]).astype(complex) / z
    expected = np.diag([1.0, w, w, w * w]).astype(complex) / z**2
    np.testing.assert_allclose(kron(single, single), expected, atol=1e-15)


def test_kron_rejects_dimension_overflow():
    with pytest.raises(UnsupportedDimensionError):
        kron(identity(2), identity(4))
    with pytest.raises(UnsupportedDimensionError):
        identity(3)


@pytest.mark.parametrize("shape", [(2,), (2, 3), (1, 2, 2, 2), (3, 2, 4)])
def test_every_matrix_function_refuses_a_shape_that_is_no_matrix_or_stack(shape):
    message = f"expected a square matrix or a (k, d, d) stack, got shape {shape}"
    for call in (lambda m: kron(m, identity(2)), check_unitary, check_density, hermitian_eigenvalues):
        with pytest.raises(UnsupportedDimensionError) as refused:
            call(np.zeros(shape))
        assert str(refused.value) == message


def test_kron_mixed_product_and_trace():
    for _ in range(20):
        a, b, c, d = (random_unitary(2) for _ in range(4))
        np.testing.assert_allclose(
            kron(a, b) @ kron(c, d), kron(a @ c, b @ d), atol=1e-12
        )
        assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) <= 1e-12


def test_partial_transpose_fixes_diagonal_states():
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    np.testing.assert_array_equal(partial_transpose_A(rho), rho)


def test_partial_transpose_is_involution_and_preserves_trace():
    for _ in range(10):
        u = random_unitary(4)
        rho = u @ np.diag([0.5, 0.3, 0.15, 0.05]).astype(complex) @ u.conj().T
        pt = partial_transpose_A(rho)
        np.testing.assert_array_equal(partial_transpose_A(pt), rho)
        assert abs(np.trace(pt) - np.trace(rho)) <= 1e-14
        assert np.max(np.abs(pt - pt.conj().T)) <= 1e-14


def test_partial_transpose_moves_coherence_block():
    # |00><11| coherence moves to the |01><10| slot when the first qubit index
    # is transposed: pt[(i,j),(k,l)] = rho[(k,j),(i,l)]
    psi = rxx(0.3)[:, 0]
    rho = np.outer(psi, psi.conj())
    pt = partial_transpose_A(rho)
    assert pt[0, 3] == 0 and pt[3, 0] == 0
    assert pt[1, 2] == rho[3, 0]
    assert pt[2, 1] == rho[0, 3]
    assert pt[0, 0] == rho[0, 0] and pt[3, 3] == rho[3, 3]


def test_partial_transpose_rejects_wrong_dimension():
    with pytest.raises(UnsupportedDimensionError):
        partial_transpose_A(identity(2))


def test_eigenvalues_identity_and_diagonal():
    np.testing.assert_allclose(hermitian_eigenvalues(identity(2)), [1.0, 1.0], atol=1e-13)
    np.testing.assert_allclose(
        hermitian_eigenvalues(np.diag([0, 1, 1, 2]).astype(complex)), [0, 1, 1, 2], atol=1e-13
    )


def test_eigenvalues_of_entangled_state_partial_transpose():
    # evaluated by hand at half-angle 0.15: +-sin(0.3)/2 and cos^2/sin^2 of 0.15
    psi = rxx(0.3)[:, 0]
    pt = partial_transpose_A(np.outer(psi, psi.conj()))
    expected = np.sort(
        [
            -0.14776010333066979,
            0.14776010333066979,
            0.97766824456280301,
            0.022331755437196990,
        ]
    )
    np.testing.assert_allclose(hermitian_eigenvalues(pt), expected, atol=1e-11)


def test_eigenvalues_spectral_invariance_and_trace():
    for _ in range(20):
        h = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
        h = (h + h.conj().T) / 2
        u = random_unitary(4)
        before = hermitian_eigenvalues(h)
        after = hermitian_eigenvalues(u @ h @ u.conj().T)
        np.testing.assert_allclose(before, after, atol=1e-10)
        assert abs(np.sum(before) - np.trace(h).real) <= 1e-10


def test_eigenvalues_match_independent_solver():
    for _ in range(50):
        dim = int(RNG.choice([2, 4]))
        h = RNG.standard_normal((dim, dim)) + 1j * RNG.standard_normal((dim, dim))
        h = (h + h.conj().T) / 2
        np.testing.assert_allclose(
            hermitian_eigenvalues(h), np.linalg.eigvalsh(h), atol=1e-11
        )


def test_eigenvalues_reject_non_hermitian():
    with pytest.raises(ContractViolationError):
        hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))


def test_validity_predicates():
    check_unitary(rotation_x(0.7))
    check_unitary(rxx(1.1))
    with pytest.raises(ContractViolationError):
        check_unitary(0.5 * identity(2))
    check_density(np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex))
    with pytest.raises(ContractViolationError):
        check_density(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ContractViolationError):
        check_density(identity(4))


def test_checks_reject_nan(monkeypatch):
    # a tolerance test written as dev > tol is false for NaN and would let these through
    nan = np.full((4, 4), np.nan, dtype=complex)
    for check in (check_unitary, check_density, hermitian_eigenvalues):
        with pytest.raises(ContractViolationError):
            check(nan)
    with pytest.raises(ContractViolationError, match="not unitary"):
        check_unitary(np.diag([1.0, np.nan, 1.0, 1.0]).astype(complex))
    monkeypatch.setattr(linalg, "hermitian_eigenvalues", lambda h: np.full(4, np.nan))
    with pytest.raises(ContractViolationError, match="negative eigenvalue"):
        check_density(np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex))


def test_results_are_write_protected():
    transposed = partial_transpose_A(kron(rotation_z(0.3), identity(2)))
    for matrix in (identity(4), kron(identity(2), identity(2)), transposed):
        assert not matrix.flags.writeable
