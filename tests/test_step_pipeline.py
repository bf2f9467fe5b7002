"""One step pipeline for one and two qubits.

step_grid serves d = 2 and d = 4 alike: each of its rows must equal, word for
word, the one-beta step_distribution of the same unitary, at every beta of a
grid that includes populations that underflow. The single-qubit model is a
registry-shaped entry, SINGLE_QUBIT: its step unitary rotation_x(dth) @ I
must have the Born moduli of rotation_x alone, word for word, at 0, -0.0,
multiples of pi, 1e200 and random angles, in longdouble (the enumeration) and
in float64 (the Monte Carlo). Also the refusals of step_grid, the defaults
of an entry that names no energies or quench (README's zz example), and the
registry's call-time lookup of model functions through SINGLE_QUBIT. A
(k, d, d) stack gives, row for row, the grids of its matrices one at a time,
for d = 2 and d = 4; a (k, 1) array of betas pairs matrix i with beta i; and a
stack with a non-unitary member is refused by that member's index.
"""

import math

import numpy as np
import pytest

from workfdr import (
    ENTANGLERS,
    SINGLE_QUBIT,
    ContractViolationError,
    Entangler,
    ProtocolConfig,
    UnsupportedDimensionError,
    identity,
    model,
    step_distribution,
    step_distribution_bipartite,
    step_grid,
)
from workfdr import work_stats as ws
from workfdr.entanglers import Param, _local_term
from workfdr.linalg import check_unitary
from workfdr.model import SINGLE_QUBIT_ENERGIES, TWO_QUBIT_ENERGIES, bipartite_quench, rotation_x

RNG = np.random.default_rng(1999)
BETAS = [0.0, 1e-300, 0.5, 1.3, 1.3, 40.0, 400.0, 700.0, 5000.0, 12000.0, *RNG.uniform(0.0, 50.0, 6)]
ANGLES = [0.0, -0.0, 1e-300, *(k * math.pi for k in (1, -1, 2, 3, -7, 100)), 1e200, -1e200, *RNG.uniform(-10, 10, 500)]
_X87 = np.finfo(np.longdouble).nmant == 63  # 80-bit x87 extended, stored in 16 bytes with padding


def words(a) -> list:
    """Each value's uint64 words, so -0.0 and 0.0 differ; an x87 longdouble's padding bytes are dropped."""
    a = np.ascontiguousarray(a)
    w = a.view(np.uint64).reshape(a.size, -1).copy()
    if a.dtype == np.longdouble and _X87:
        w[:, 1] &= 0xFFFF  # sign and exponent; the 6 bytes above them are padding
    return w.tolist()


def random_unitary(dim):
    q, _ = np.linalg.qr(RNG.normal(size=(dim, dim)) + 1j * RNG.normal(size=(dim, dim)))
    return q


def step_unitaries():
    """(unitary, energies): the single-qubit model, every registry kind, and random unitaries."""
    cases = [(SINGLE_QUBIT.step_unitary(dth, {}), SINGLE_QUBIT_ENERGIES) for dth in (0.0, 0.3, math.pi, 2.1)]
    for entry in ENTANGLERS.values():
        params = {spec.step: float(a) for spec, a in zip(entry.params, RNG.uniform(-1.5, 1.5, len(entry.params)))}
        cases += [(entry.step_unitary(dth, params), entry.energies) for dth in (0.0, 0.4, -2.5)]
    cases += [(random_unitary(2), SINGLE_QUBIT_ENERGIES) for _ in range(5)]
    cases += [(random_unitary(4), TWO_QUBIT_ENERGIES) for _ in range(5)]
    return cases


def test_grid_rows_equal_one_beta_distributions_word_for_word():
    for unitary, energies in step_unitaries():
        support, probs = step_grid(BETAS, unitary, energies)
        assert probs.shape == (len(BETAS), len(support)) and probs.dtype == np.longdouble
        for beta, row in zip(BETAS, probs):
            alone = step_distribution(beta, unitary, energies)
            kept = row != 0.0  # the distribution drops the grid's zeros
            assert alone.support == tuple(np.asarray(support)[kept].tolist()), beta
            assert words(np.array(alone.probs, dtype=np.longdouble)) == words(row[kept]), beta


def test_single_qubit_step_has_the_moduli_of_rotation_x():
    for angle in ANGLES:
        unitary = SINGLE_QUBIT.step_unitary(angle, {})
        rotation = np.abs(rotation_x(angle))
        assert words(ws.born_moduli(unitary)) == words(rotation.astype(np.longdouble) ** 2), angle
        assert words(ws.born_moduli(unitary, dtype=np.float64)) == words(rotation**2), angle


def test_single_qubit_entry_shape():
    assert SINGLE_QUBIT not in ENTANGLERS.values() and SINGLE_QUBIT.params == ()
    assert SINGLE_QUBIT.energies == SINGLE_QUBIT_ENERGIES
    assert SINGLE_QUBIT.small_angle(100, 2.0, 5.0, 0.01, {}) == (100 * 0.01**2 * 2.0 / 4.0, 0.0)
    closed = SINGLE_QUBIT.closed_form(1.3, 0.4, {})
    assert closed == ws.closed_form_distribution_single(1.3, 0.4)
    assert ws.distribution_distance(closed, SINGLE_QUBIT.step_distribution(1.3, 0.4, {})) <= 1e-15


def test_step_grid_refuses_a_unitary_of_the_wrong_size():
    with pytest.raises(UnsupportedDimensionError, match="4 levels take a 4x4"):
        step_grid(BETAS, identity(2))
    with pytest.raises(UnsupportedDimensionError, match="2 levels take a 2x2"):
        step_grid(BETAS, identity(4), SINGLE_QUBIT_ENERGIES)
    with pytest.raises(UnsupportedDimensionError):
        step_distribution(1.0, np.eye(3))
    for quench, entangler in ((identity(2), identity(2)), (identity(4), identity(2)), (identity(2), identity(4))):
        with pytest.raises(UnsupportedDimensionError, match="4x4 quench and entangler"):
            step_distribution_bipartite(1.0, quench, entangler)


def test_step_grid_refuses_a_product_that_is_not_unitary():
    with pytest.raises(ContractViolationError, match="not unitary"):
        step_grid(BETAS, rotation_x(0.3) @ (0.9 * identity(2)), SINGLE_QUBIT_ENERGIES)
    with pytest.raises(ContractViolationError, match="not unitary"):
        step_grid(BETAS, bipartite_quench(0.3) @ np.diag([1, 1, 1, 1.1]).astype(complex))
    # the two-factor form checks the product: a unitary quench leaves E^dagger E as it is
    with pytest.raises(ContractViolationError, match="not unitary"):
        step_distribution_bipartite(1.0, bipartite_quench(0.3), 0.9 * identity(4))


def test_an_entry_without_energies_or_quench_is_a_two_qubit_kind(monkeypatch):
    # README's always-on zz crosstalk, as written there
    zz = Entangler(
        params=(Param("dzz", "zz", "zz crosstalk angle"),),
        unitary=lambda p: model.cartan_entangler(model.CartanCoefficients(0.0, 0.0, p["dzz"])),
        closed_form=lambda beta, dth, p: ws.closed_form_distribution_cartan(beta, dth, 0.0, 0.0),
        small_angle=lambda n, f, g, dth, p: (_local_term(n, f, dth), 0.0),
    )
    assert zz.energies == TWO_QUBIT_ENERGIES
    expected = bipartite_quench(0.3) @ model.cartan_entangler(model.CartanCoefficients(0.0, 0.0, 0.7))
    assert words(zz.step_unitary(0.3, {"dzz": 0.7})) == words(expected)
    step = zz.step_distribution(1.1, 0.3, {"dzz": 0.7})
    assert ws.distribution_distance(step, zz.closed_form(1.1, 0.3, {"dzz": 0.7})) <= 1e-12
    monkeypatch.setitem(ENTANGLERS, "zz", zz)
    assert words(ProtocolConfig(1.0, 10, 3.0, "zz", total_zz=7.0).step_unitary()) == words(expected)


def test_single_qubit_looks_rotation_x_up_at_call_time(monkeypatch):
    original = model.rotation_x
    calls = []
    monkeypatch.setattr(model, "rotation_x", lambda angle: calls.append(angle) or original(2.0 * angle))
    assert words(SINGLE_QUBIT.step_unitary(0.3, {})) == words(original(0.6) @ identity(2))
    assert calls == [0.3]
    assert SINGLE_QUBIT.step_distribution(0.7, 0.25, {}) == step_distribution(0.7, original(0.5), SINGLE_QUBIT_ENERGIES)


@pytest.mark.parametrize("energies", [SINGLE_QUBIT_ENERGIES, TWO_QUBIT_ENERGIES], ids=["d2", "d4"])
def test_stack_grid_rows_equal_per_matrix_grids_word_for_word(energies):
    stack = np.array([unitary for unitary, levels in step_unitaries() if levels == energies])
    support, probs = step_grid(BETAS, stack, energies)
    assert probs.shape == (len(stack), len(BETAS), len(support)) and probs.dtype == np.longdouble
    for unitary, grid in zip(stack, probs):
        one_support, one_grid = step_grid(BETAS, unitary, energies)
        assert one_support == support and words(one_grid) == words(grid)
    # a (k, 1) array of betas pairs matrix i with beta i, and the Q columns broadcast the same way
    betas = np.array(BETAS[: len(stack)] * 2)[: len(stack), None]
    steps = np.arange(1, len(stack) + 1)[:, None]
    paired_support, paired = step_grid(betas, stack, energies)
    q_paired = ws.q_grid(paired_support, paired, betas, steps)
    assert paired.shape == (len(stack), 1, len(support)) and q_paired[2].shape == (len(stack), 1)
    for i, unitary in enumerate(stack):
        beta, n = float(betas[i, 0]), int(steps[i, 0])
        one_support, one_grid = step_grid([beta], unitary, energies)
        assert words(one_grid[0]) == words(paired[i, 0]), i
        one_q = ws.q_grid(one_support, one_grid, [beta], n)
        assert [column[0] for column in one_q] == [column[i, 0] for column in q_paired], i


def test_a_stack_with_a_non_unitary_member_is_refused_by_its_index():
    stack = np.array([bipartite_quench(0.1 * k) for k in range(5)])
    stack[3] = stack[3] @ np.diag([1, 1, 1, 1.1]).astype(complex)
    message = r"^matrix 3 of the stack: matrix is not unitary: max \|U†U - I\| = 2\.100e-01 > 1e-12$"
    for call in (lambda: step_grid(BETAS, stack), lambda: ws.born_moduli(stack), lambda: check_unitary(stack)):
        with pytest.raises(ContractViolationError, match=message):
            call()
    stack[1, 0, 0] = np.nan
    with pytest.raises(ContractViolationError, match="^matrix 1 of the stack: matrix is not unitary"):
        check_unitary(stack)
    # one matrix: the message names no index
    with pytest.raises(ContractViolationError, match=r"^matrix is not unitary"):
        check_unitary(stack[3])
