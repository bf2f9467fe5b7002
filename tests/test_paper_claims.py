"""The paper's claims as hypothesis properties over its domain.

An entangling step adds a positive term to the dissipated work, beyond the
local-coherence term of the same quench, and in the slow-driving limit that
term is the registry's small-angle g term. A separable step is two independent
qubits, so its Q is exactly the sum of two single-qubit Qs: it adds no term.
"""

import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from workfdr import ENTANGLERS, f_beta, g_beta, q_correction, q_single_exact


def _q(kind, beta, n, theta, **totals):
    """Exact Q of the N-step protocol of a kind at protocol totals (per-step angles are total / N)."""
    entry = ENTANGLERS[kind]
    params = {spec.step: totals.get(spec.total, 0.0) / n for spec in entry.params}
    return q_correction(entry.step_distribution(beta, theta / n, params), beta, n).q_value


_TOTALS = st.floats(-1.5, 1.5)


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


def _rho(dth, x):
    """Condition number of sin((dth + x)/2) = sin(dth/2)cos(x/2) + cos(dth/2)sin(x/2), the sum the
    step's float64 product R_X(dth)R_X(x) forms: near dth = -x its terms cancel."""
    a, b = math.sin(dth / 2) * math.cos(x / 2), math.cos(dth / 2) * math.sin(x / 2)
    if a + b == 0:
        return math.inf if a else 1.0
    return (abs(a) + abs(b)) / abs(a + b)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(beta=st.sampled_from([0.0, 1e-300, 0.05, 40.0, 700.0]) | st.floats(0.0, 50.0), n=st.integers(1, 1000),
       totals=st.lists(st.floats(-10.0, 10.0), min_size=5, max_size=5))
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
    w, p = np.asarray(step.support, dtype=float), np.asarray(step.probs, dtype=float)
    size = n * (beta / 2 * (p @ w**2) + p @ np.abs(w)) * max(_rho(theta, c), _rho(theta, m))
    assume(math.isfinite(size))
    gap = q_correction(step, beta, n).q_value - q_single_exact(n, beta, theta + c) - q_single_exact(n, beta, theta + m)
    assert gap == 0 or abs(gap) <= 1e-14 * size
