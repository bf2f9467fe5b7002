"""The paper's claims as hypothesis properties over its domain.

An entangling step adds a positive term to the dissipated work, beyond the
local-coherence term of the same quench, and in the slow-driving limit that
term is the registry's small-angle g term. A separable step is two independent
qubits, so its Q is exactly the sum of two single-qubit Qs: it adds no term,
and without an entangler the two qubits' Q is twice one qubit's. The Cartan
step's law sees the entangler only through c1 - c2, and the entangled image of
a basis state has the closed-form negativity |sin(2c1 -+ 2c2)|/2. The two halves
meet in one relation: the entangler's excess Q is 2N g(beta) times the squared
negativity of its image of |00>, the entanglement each step generates.
"""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from workfdr import (
    ENTANGLERS,
    SINGLE_QUBIT,
    CartanCoefficients,
    cartan_entangler,
    distribution_distance,
    f_beta,
    g_beta,
    negativity,
    negativity_cartan_basis,
    q_correction,
    q_single_exact,
)
from workfdr.entanglement import column_states


def _q(kind, beta, n, theta, **totals):
    """Exact Q of the N-step protocol of a kind at protocol totals (per-step angles are total / N)."""
    entry = ENTANGLERS[kind]
    params = {spec.step: totals.get(spec.total, 0.0) / n for spec in entry.params}
    return q_correction(entry.step_distribution(beta, theta / n, params), beta, n)


_TOTALS = st.floats(-1.5, 1.5)
_BETAS = st.sampled_from([0.0, 1e-300, 0.05, 40.0, 700.0]) | st.floats(0.0, 50.0)
# per-step angles within 2 pi: past that the float64 fold of CartanCoefficients loses bits (ROADMAP item 13)
_ANGLES = st.floats(-2 * math.pi, 2 * math.pi)


def _size(step, beta, n):
    """N((beta/2)<w^2> + <|w|>): the size of the sums Q is formed from, the scale its rounding is relative to."""
    w, p = np.asarray(step.support, dtype=float), np.asarray(step.probs, dtype=float)
    return n * (beta / 2 * (p @ w**2) + p @ np.abs(w))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(beta=st.floats(0.05, 5.0), n=st.sampled_from([10, 50, 200, 1000]), theta=_TOTALS, c1=_TOTALS, c2=_TOTALS,
       c3=_TOTALS)
def test_entanglement_adds_a_positive_q_that_tends_to_the_g_term(beta, n, theta, c1, c2, c3):
    # at c1 = c2 the entangler adds nothing and Q_ent is rounding; 0.1 keeps Q_ent far above it
    assume(abs(c1 - c2) >= 0.1)

    def excess(n):
        """Q_ent = Q(cartan) - Q(none, two qubits) at fixed totals, and its ratio to the g term."""
        q_ent = _q("cartan", beta, n, theta, c1=c1, c2=c2, c3=c3) - _q("none", beta, n, theta)
        params = {"c1": c1 / n, "c2": c2 / n, "c3": c3 / n}
        _, g_term = ENTANGLERS["cartan"].small_angle(n, f_beta(beta), g_beta(beta), theta / n, params)
        return q_ent, q_ent / g_term

    q_ent, ratio = excess(n)
    _, finer = excess(2 * n)
    assert q_ent > 0
    assert abs(finer - 1) < abs(ratio - 1), (ratio, finer)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(beta=st.floats(0.1, 5.0), theta=_TOTALS, c1=_TOTALS, c2=_TOTALS, c3=_TOTALS)
def test_the_entanglers_excess_q_is_2n_g_times_its_squared_negativity(beta, theta, c1, c2, c3):
    # entanglement generated costs dissipated work: Q(cartan) - Q(none, two qubits) = 2N g(beta) N00^2
    # (1 + O(N^-2)), N00 the negativity, by partial transpose, of the per-step entangler's image of |00>
    assume(abs(c1 - c2) >= 0.1)

    def ratio(n):
        q_ent = _q("cartan", beta, n, theta, c1=c1, c2=c2, c3=c3) - _q("none", beta, n, theta)
        image = column_states(cartan_entangler(CartanCoefficients(c1 / n, c2 / n, c3 / n)))[0]
        return q_ent / (2 * n * g_beta(beta) * float(negativity(image)) ** 2)

    coarse, fine = ratio(400), ratio(800)
    assert abs(coarse - 1) <= 1e-3, coarse
    assert abs(fine - 1) < abs(coarse - 1), (coarse, fine)


def _rho(dth, x):
    """Condition number of sin((dth + x)/2) = sin(dth/2)cos(x/2) + cos(dth/2)sin(x/2), the sum the
    step's float64 product R_X(dth)R_X(x) forms: near dth = -x its terms cancel."""
    a, b = math.sin(dth / 2) * math.cos(x / 2), math.cos(dth / 2) * math.sin(x / 2)
    if a + b == 0:
        return math.inf if a else 1.0
    return (abs(a) + abs(b)) / abs(a + b)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(beta=_BETAS, n=st.integers(1, 1000), totals=st.lists(st.floats(-10.0, 10.0), min_size=5, max_size=5))
def test_separable_q_is_two_single_qubit_qs(beta, n, totals):
    # The bound is relative to the size of the sums Q is formed from, N((beta/2)<w^2> + <|w|>),
    # times _rho of each qubit's angle sum. N((beta/2)Var + |<w>|) is no such size, because
    # Var = <w^2> - <w>^2 and <w> (up minus down flows) cancel: 1e-14 of it is exceeded below
    # beta = 0.05, at angle sums near pi and near dth = -x. Past per-step angles of about 10,
    # the float sum dth + x that q_single_exact takes rounds by more. The _rho factor is a known
    # gap: it weakens the bound as the angles near cancelling, and at an exact cancellation
    # (rho infinite) the example is dropped, so every accepted one meets a finite bound. Exact
    # step unitaries (ROADMAP item 13) should let the factor go.
    theta, c, l, m, nz = (total / n for total in totals)
    step = ENTANGLERS["separable_xzx"].step_distribution(beta, theta, {"c": c, "l": l, "m": m, "nz": nz})
    size = _size(step, beta, n) * max(_rho(theta, c), _rho(theta, m))
    assume(math.isfinite(size))
    gap = q_correction(step, beta, n) - q_single_exact(n, beta, theta + c) - q_single_exact(n, beta, theta + m)
    assert gap == 0 or abs(gap) <= 1e-14 * size


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(beta=_BETAS, n=st.integers(1, 1000), theta=st.floats(-10.0, 10.0))
def test_two_qubits_without_an_entangler_have_twice_the_single_qubit_q(beta, n, theta):
    # the two-qubit step is R_X(dth) (x) R_X(dth) on two independent qubits; its Born matrix is
    # the Kronecker square of the qubit's, each entry within an ulp or two of that product
    two = ENTANGLERS["none"].step_distribution(beta, theta / n, {})
    gap = q_correction(two, beta, n) - 2 * q_correction(SINGLE_QUBIT.step_distribution(beta, theta / n, {}), beta, n)
    assert gap == 0 or abs(gap) <= 1e-14 * _size(two, beta, n)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(beta=_BETAS, dth=_ANGLES, c1=st.floats(-math.pi, math.pi), c2=st.floats(-math.pi, math.pi),
       shift=st.floats(-math.pi, math.pi), c3=_ANGLES)
def test_cartan_law_is_invariant_under_a_common_shift_and_any_c3(beta, dth, c1, c2, shift, c3):
    # the step law sees the entangler only through c1 - c2, as closed_form_distribution_cartan states it
    cartan = ENTANGLERS["cartan"]
    base, shifted, rotated = (
        cartan.step_distribution(beta, dth, {"c1": a, "c2": b, "c3": c})
        for a, b, c in ((c1, c2, 0.0), (c1 + shift, c2 + shift, 0.0), (c1, c2, c3))
    )
    assert distribution_distance(base, shifted) <= 1e-12
    assert distribution_distance(base, rotated) <= 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(c1=_ANGLES, c2=_ANGLES, c3=_ANGLES)
def test_negativity_of_cartan_images_is_the_closed_form(c1, c2, c3):
    values = negativity(column_states(cartan_entangler(CartanCoefficients(c1, c2, c3))))
    assert values.shape == (4,)
    for u, value in enumerate(values.tolist()):
        assert 0.0 <= value <= 0.5
        assert abs(value - negativity_cartan_basis(u, c1, c2)) <= 1e-10
