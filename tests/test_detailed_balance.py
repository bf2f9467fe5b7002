"""Detailed balance one work value at a time: the exact oracle for every law.

A spectrum-preserving step U started from the Gibbs state obeys Tasaki-Crooks,
P_U(w) e^{-beta w} = P_{U^dagger}(-w) (Tasaki, arXiv:cond-mat/0009244; Talkner & Hanggi,
J. Phys. A 40, F569 (2007)). Every kind's law is the same for U and U^dagger, so each
step law is in detailed balance, P(-w) = e^{-beta w} P(w) at every w, and so is every
N-fold convolution of it. Jarzynski (check 7) tests only the sum of this relation; the
per-w form names the work value where a law goes wrong, and tells a wrong probability
from one that longdouble cannot hold.

Each tolerance is 4 times the largest residual measured over 4,000 random draws from
the property's domain (three seeds):
- Tasaki-Crooks, absolute: 1.63e-19 measured, 6.5e-19 allowed;
- one step, |P(-w) e^{beta w} - P(w)|: 8.9e-16 measured, 3.6e-15 allowed. It is read in
  log space, where the log of a probability near e^-11000 carries its own rounding of
  2**-50 = 8.9e-16, and in units of P(w): the float64 unitaries of cartan and
  separable_xzx leave their tiny Born entries only absolutely accurate;
- N steps, |log P(-w) + beta w - log P(w)|: 8.9e-16 measured, 3.6e-15 allowed.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from workfdr import work_stats as ws
from workfdr.entanglers import ENTANGLERS, SINGLE_QUBIT
from workfdr.model import SINGLE_QUBIT_ENERGIES, TWO_QUBIT_ENERGIES

_LD = np.longdouble
_TINY = np.finfo(_LD).tiny  # the smallest normal longdouble
_LOG_HALF_SUBNORMAL = np.log(np.finfo(_LD).smallest_subnormal) - np.log(_LD(2))  # a value below it rounds to 0
TASAKI_CROOKS_TOL = 6.5e-19
STEP_TOL = 3.6e-15
N_STEP_LOG_TOL = 3.6e-15
MODELS = {**ENTANGLERS, "single_qubit": SINGLE_QUBIT}


def _unitary(entries, phases) -> np.ndarray:
    """exp(-i H) of the Hermitian H with upper triangle and diagonal from entries, phases
    scaling its eigenvalues: a d x d unitary whose Born matrix is in general not symmetric."""
    d = len(phases)
    h = np.zeros((d, d), complex)
    h[np.triu_indices(d)] = entries[: d * (d + 1) // 2] + 1j * entries[d * (d + 1) // 2 :]
    h = (h + h.conj().T) / 2
    values, vectors = np.linalg.eigh(h)
    return (vectors * np.exp(-1j * values * phases)) @ vectors.conj().T


def tasaki_crooks_residual(beta: float, unitary: np.ndarray, energies) -> float:
    """max over w of |P_U(w) e^{-beta w} - P_{U^dagger}(-w)| of the enumerated step laws."""
    support, forward = ws.step_grid([beta], unitary, energies)
    _, backward = ws.step_grid([beta], unitary.conj().T, energies)
    w = np.array(support, dtype=_LD)
    assert support == tuple(-x for x in reversed(support))  # the support is symmetric: index i mirrors -1 - i
    return float(np.max(np.abs(forward[0] * np.exp(-_LD(beta) * w) - backward[0][::-1])))


def _mirror_pairs(dist: ws.WorkDistribution):
    """(w, P(w), P(-w)) at each w > 0 of the law's support, as longdoubles."""
    return [(w, _LD(dist.prob(w)), _LD(dist.prob(-w))) for w in dist.support if w > 0]


def step_residual(dist: ws.WorkDistribution, beta: float) -> float:
    """max over w > 0 of |P(-w) e^{beta w} - P(w)|, read in log space where the mirror e^{-beta w} P(w)
    is a normal longdouble; where it and its tolerance lie below half the smallest subnormal, P(-w) must
    be exactly 0 (asserted here). Between the two, in longdouble's subnormal range, nothing is compared."""
    worst = 0.0
    with np.errstate(divide="ignore", over="ignore"):
        for w, high, low in _mirror_pairs(dist):
            log_mirror = np.log(high) - _LD(beta) * w
            if np.log(high + _LD(STEP_TOL)) - _LD(beta) * w < _LOG_HALF_SUBNORMAL:
                assert low == 0.0, (w, low)
            elif log_mirror >= np.log(_TINY):
                worst = max(worst, float(high * abs(np.expm1(np.log(low) - log_mirror))))
    return worst


def n_step_residual(dist: ws.WorkDistribution, beta: float) -> float:
    """max over w > 0 of |log P(-w) + beta w - log P(w)| where both sides are normal longdoubles; where
    the mirror e^{-beta w} P(w), within the tolerance, lies below half the smallest subnormal, P(-w) must
    be exactly 0 (asserted here)."""
    worst = 0.0
    for w, high, low in _mirror_pairs(dist):
        log_mirror = np.log(high) - _LD(beta) * w
        if log_mirror + N_STEP_LOG_TOL < _LOG_HALF_SUBNORMAL:
            assert low == 0.0, (w, low)
        elif low >= _TINY and log_mirror >= np.log(_TINY):
            worst = max(worst, float(abs(np.log(low) - log_mirror)))
    return worst


_ENTRIES = st.lists(st.floats(-3.0, 3.0), min_size=20, max_size=20)
_ANGLES = st.sampled_from([0.0, np.pi, 1e3]) | st.floats(-3.0, 3.0) | st.floats(-1e3, 1e3)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(beta=st.floats(0.0, 8.0), entries=_ENTRIES, phases=st.lists(st.floats(0.1, 3.0), min_size=4, max_size=4),
       two_qubit=st.booleans())
def test_tasaki_crooks_holds_at_every_w_of_random_unitaries(beta, entries, phases, two_qubit):
    # not only the registry's unitaries: a random U's law differs from its adjoint's
    energies = TWO_QUBIT_ENERGIES if two_qubit else SINGLE_QUBIT_ENERGIES
    unitary = _unitary(np.array(entries[:20] if two_qubit else entries[:3] + entries[10:13]),
                       np.array(phases[: len(energies)]))
    assert tasaki_crooks_residual(beta, unitary, energies) <= TASAKI_CROOKS_TOL


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(kind=st.sampled_from(list(MODELS)), beta=st.sampled_from([0.0, 5700.0, 12000.0]) | st.floats(0.0, 8.0)
       | st.floats(0.0, 12000.0), dth=_ANGLES, angles=st.lists(_ANGLES, min_size=4, max_size=4))
def test_every_step_law_is_in_detailed_balance_at_every_w(kind, beta, dth, angles):
    # enumerated and in closed form: P(-w) = e^{-beta w} P(w), or exactly 0 past longdouble's range
    model = MODELS[kind]
    params = {spec.step: angle for spec, angle in zip(model.params, angles)}
    for dist in (model.step_distribution(beta, dth, params), model.closed_form(beta, dth, params)):
        assert step_residual(dist, beta) <= STEP_TOL, (kind, beta, dth, params)


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(beta=st.sampled_from([0.5, 2.5, 400.0]), n=st.integers(1, 400), dth=st.floats(-3.0, 3.0),
       dphi=st.floats(-3.0, 3.0))
def test_every_n_step_law_is_in_detailed_balance_at_every_w(beta, n, dth, dphi):
    # convolution keeps the relation: the rxx step's N-fold law, in log space
    step = ENTANGLERS["rxx"].step_distribution(beta, dth, {"dphi": dphi})
    assert n_step_residual(ws.convolve_n(step, n), beta) <= N_STEP_LOG_TOL, (beta, n, dth, dphi)
