"""The lockstep Jacobi eigensolver against the one-matrix oracle in tests/jacobi_oracle.py.

hermitian_eigenvalues on a (k, d, d) stack must return, for every matrix, the
oracle's eigenvalues bit for bit (compared as uint64 words, so -0.0 and 0.0
differ), and a matrix's row must not depend on what else is in the stack or
in which order. The inputs are check 6's 524 states and their partial
transposes, random Hermitian 2x2 and 4x4 matrices, and matrices that reach
each branch of a sweep: skipped pivots, phi = 0 and different sweep counts.
Also the stack contract of hermitian_eigenvalues, check_density and
negativity: shapes, empty stacks, the first bad matrix named, the sweep cap,
and no warnings from matrices that skip a pivot.
"""

import warnings

import numpy as np
import pytest

import jacobi_oracle
from workfdr import (
    CartanCoefficients,
    ContractViolationError,
    NumericFailureError,
    SeparableXZXParams,
    UnsupportedDimensionError,
    cartan_entangler,
    hermitian_eigenvalues,
    negativity,
    partial_transpose_A,
    separable_xzx,
    verify,
)
from workfdr import linalg
from workfdr.entanglement import column_states
from workfdr.linalg import check_density

RNG = np.random.default_rng(8128)


def bits(a) -> list:
    return np.asarray(a, dtype=np.float64).view(np.uint64).tolist()


def assert_matches_oracle(stack):
    solved = hermitian_eigenvalues(stack)
    assert solved.shape == stack.shape[:-1]
    for h, row in zip(stack, solved):
        assert bits(row) == bits(jacobi_oracle.hermitian_eigenvalues(h))
    return solved


def random_hermitian(count, dim):
    z = RNG.standard_normal((count, dim, dim)) + 1j * RNG.standard_normal((count, dim, dim))
    return (z + z.conj().swapaxes(1, 2)) / 2


def check6_states():
    # built as check 6 built them before it stacked them: one np.outer per column
    axis = np.arange(0.0, 0.5 + 1e-9, 0.05)
    gates = [cartan_entangler(CartanCoefficients(float(c1), float(c2), 0.37)) for c1 in axis for c2 in axis]
    rng = np.random.default_rng(verify._RNG_SEED + 2)
    gates += [separable_xzx(SeparableXZXParams(*(float(x) for x in rng.uniform(-2.0, 2.0, 4)))) for _ in range(10)]
    return gates, np.stack([np.outer(gate[:, u], gate[:, u].conj()) for gate in gates for u in range(4)])


def branch_cases():
    """4x4 matrices that reach each branch: every pivot skipped, phi = +0.0 and -0.0, and
    0, 1, 6 and 7 rotation sweeps."""
    product = np.kron(np.diag([0.8, 0.2]), np.diag([0.6, 0.4])).astype(complex)
    equal_diagonal = np.array([[1, 0.5, 0, 0], [0.5, 1, 0, 0], [0, 0, 2, 0.25j], [0, 0, -0.25j, 2]])
    negative_zero = np.array([[-0.0, 0, 0, 0], [0, 1, 0.3, 0], [0, 0.3, 2, 0], [0, 0, 0, 3]], dtype=complex)
    cases = [
        np.diag([0.0, 1.0, 1.0, 2.0]).astype(complex),
        product,
        equal_diagonal,  # phi = (1 - 1) / 1.0 = 0.0
        -equal_diagonal,  # phi = 0.0 / -1.0 = -0.0, where t is 1 as well
        negative_zero,
        np.diag([1.0, 1.0 + 1e-9, 2.0, 3.0]) + 1e-9 * np.eye(4, k=1) + 1e-9 * np.eye(4, k=-1),
    ]
    return np.stack(cases + list(random_hermitian(4, 4))).astype(complex)


def test_check6_states_match_the_oracle():
    gates, states = check6_states()
    assert states.shape == (524, 4, 4)
    stacked = column_states(np.stack(gates))
    assert bits(stacked.view(np.float64)) == bits(states.view(np.float64))
    densities = (states + states.conj().swapaxes(1, 2)) / 2.0  # what check_density solves
    transposes = partial_transpose_A(states)
    for u, state in enumerate(states[:8]):
        assert np.array_equal(transposes[u], partial_transpose_A(state))
    assert_matches_oracle(densities)
    assert_matches_oracle(transposes)


def test_random_hermitian_matrices_match_the_oracle():
    for dim in (2, 4):
        assert_matches_oracle(random_hermitian(300, dim))


def test_branch_cases_match_the_oracle_and_converge_in_different_sweeps():
    cases = branch_cases()
    sweeps = [jacobi_oracle.sweeps(h) for h in cases]
    assert sweeps[0] == sweeps[1] == 0  # diagonal and product states: skipped throughout
    assert len(set(sweeps)) >= 3, sweeps
    assert jacobi_oracle.JACOBI_MAX_SWEEPS == 30  # sweeps() puts the oracle's cap back
    assert_matches_oracle(cases)


def test_a_row_does_not_depend_on_its_neighbours():
    _, states = check6_states()
    stack = np.concatenate([branch_cases(), partial_transpose_A(states[::7]), random_hermitian(20, 4)])
    alone = [hermitian_eigenvalues(h) for h in stack]
    assert bits(hermitian_eigenvalues(stack)) == bits(alone)
    for _ in range(3):
        order = RNG.permutation(len(stack))
        assert bits(hermitian_eigenvalues(stack[order])) == bits([alone[i] for i in order])
    for i in (0, 4, 9):
        assert bits(hermitian_eigenvalues(stack[i : i + 1])[0]) == bits(alone[i])


def test_a_matrix_that_skips_a_pivot_is_left_untouched():
    # hermitian_eigenvalues' symmetrization turns a -0.0 diagonal into 0.0, so this is
    # checked on the real symmetric embeddings: an identity rotation in place of the
    # skip would turn the -0.0 of the first matrix into 0.0
    negative_zero = np.array([[-0.0, 0, 0, 0], [0, 1, 0.3, 0], [0, 0.3, 2, 0], [0, 0, 0, 3]], dtype=complex)
    embeddings = [jacobi_oracle._real_symmetric_embedding(h) for h in [negative_zero, *random_hermitian(5, 4)]]
    expected = [jacobi_oracle._jacobi_eigenvalues_symmetric(m) for m in embeddings]
    assert bits(expected[0][:2]) == bits([-0.0, -0.0])
    assert bits(linalg._jacobi_eigenvalues_symmetric(np.stack(embeddings))) == bits(expected)


def test_check6_solves_its_states_in_two_stacked_calls(monkeypatch):
    from workfdr import entanglement

    calls = []

    def counting(h):
        calls.append(np.shape(h))
        return hermitian_eigenvalues(h)

    monkeypatch.setattr(linalg, "hermitian_eigenvalues", counting)
    monkeypatch.setattr(entanglement, "hermitian_eigenvalues", counting)
    assert verify.check_06_negativity_closed_forms().passed
    assert calls == [(524, 4, 4), (524, 4, 4)]  # check_density's, then the partial transposes'


def test_negativity_of_a_stack_equals_its_single_calls():
    _, states = check6_states()
    picked = states[::13]
    singles = [negativity(rho) for rho in picked]
    assert all(single.shape == () for single in singles)
    assert negativity(picked).tobytes() == np.array(singles).tobytes()  # word for word


@pytest.mark.parametrize(
    "shape", [(4,), (3, 3), (2, 4), (2, 3, 3), (2, 4, 2), (1, 2, 2, 2), (5, 1, 4, 4), (8, 8)]
)
def test_other_shapes_are_unsupported(shape):
    for call in (hermitian_eigenvalues, check_density, negativity):
        with pytest.raises(UnsupportedDimensionError):
            call(np.zeros(shape, dtype=complex))


def test_empty_stacks():
    for dim in (2, 4):
        solved = hermitian_eigenvalues(np.zeros((0, dim, dim)))
        assert solved.shape == (0, dim)
        assert check_density(np.zeros((0, dim, dim))).shape == (0, dim, dim)
    assert negativity(np.zeros((0, 4, 4))).shape == (0,)


def test_one_bad_matrix_fails_the_stack_and_is_named():
    good = np.stack([np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)] * 5)
    nan, skewed, heavy, negative = good.copy(), good.copy(), good.copy(), good.copy()
    nan[3, 1, 2] = np.nan
    skewed[2, 0, 1] = 1e-6
    heavy[4] *= 2.0
    negative[1] = np.diag([1.5, -0.5, 0.0, 0.0])
    cases = [
        (hermitian_eigenvalues, nan, "matrix 3 of the stack: matrix is not Hermitian"),
        (hermitian_eigenvalues, skewed, "matrix 2 of the stack: matrix is not Hermitian"),
        (check_density, nan, "matrix 3 of the stack: density is not Hermitian"),
        (check_density, heavy, "matrix 4 of the stack: density trace deviates"),
        (check_density, negative, "matrix 1 of the stack: density has negative eigenvalue"),
        (negativity, skewed, "matrix 2 of the stack: density is not Hermitian"),
    ]
    for call, stack, message in cases:
        with pytest.raises(ContractViolationError, match=message):
            call(stack)
    two_bad = nan.copy()
    two_bad[1, 0, 3] = np.inf
    with pytest.raises(ContractViolationError, match="matrix 1 of the stack"):
        hermitian_eigenvalues(two_bad)
    with pytest.raises(ContractViolationError, match="^density is not Hermitian"):
        check_density(nan[3])  # one matrix: no index in the message


def test_negativity_cross_check_names_the_failing_matrix(monkeypatch):
    from workfdr import entanglement

    spectra = np.array([[0.0, 0.0, 0.5, 0.5], [np.nan, 0.0, 0.5, 0.5], [0.0, 0.0, 0.5, 0.5]])
    monkeypatch.setattr(entanglement, "hermitian_eigenvalues", lambda h: spectra)
    with pytest.raises(NumericFailureError, match="matrix 1 of the stack: negativity self-check failed"):
        negativity(np.stack([np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)] * 3))


def test_the_sweep_cap_still_raises(monkeypatch):
    stack = random_hermitian(6, 4)
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(NumericFailureError, match="did not converge within 1 sweeps"):
        hermitian_eigenvalues(stack)
    # converged matrices leave the stack; the cap counts the sweeps of the slowest
    cases = branch_cases()
    slowest = max(jacobi_oracle.sweeps(h) for h in cases)
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", slowest)
    with pytest.raises(NumericFailureError):
        hermitian_eigenvalues(cases)
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", slowest + 1)
    assert_matches_oracle(cases)


def test_matrices_that_skip_a_pivot_do_not_warn():
    # exact zero pivots with equal diagonals next to matrices that rotate at the same
    # pivot: 0/0 would warn, and the suite turns warnings into errors anyway
    zero_pivot = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    stack = np.stack([zero_pivot, branch_cases()[2], zero_pivot, random_hermitian(1, 4)[0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_matches_oracle(stack)
        check_density(np.stack([zero_pivot, np.eye(4, dtype=complex) / 4]))
