"""Step distributions, closed forms, convolution, cumulants, and Q corrections."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from workfdr import (
    CartanCoefficients,
    ContractViolationError,
    ENTANGLERS,
    ProtocolConfig,
    SeparableXZXParams,
    UnsupportedDimensionError,
    ValidationError,
    WorkDistribution,
    cartan_entangler,
    closed_form_distribution_cartan,
    closed_form_distribution_separable,
    closed_form_distribution_single,
    convolve_n,
    distribution_distance,
    f_beta,
    g_beta,
    identity,
    jarzynski_check,
    kron,
    moments,
    q_correction,
    q_single_exact,
    rotation_x,
    rxx,
    separable_xzx,
    step_distribution,
    step_distribution_bipartite,
)
from workfdr import work_stats
from workfdr.entanglers import SINGLE_QUBIT, Entangler

import convolve_oracle
import mp_oracle

RNG = np.random.default_rng(2718)

# frozen at 30-digit precision
F_AT_1 = 0.037882842739990241
G_AT_1 = 0.14465897625702654
G_MINUS_F_AT_1 = 0.10677613351703629
P_PLUS_1_BETA1_DTH02 = 0.0072862496353068683
Q_SMALL_SINGLE = 9.4707106849975604e-05
Q_SMALL_RXX = 9.1270909498508389e-04


def bipartite_quench(dth):
    return kron(rotation_x(dth), rotation_x(dth))


def single_step(beta, dth):
    return SINGLE_QUBIT.step_distribution(beta, dth, {})


def small_angle_q(kind, n, beta, dth, **params):
    """The small-angle Q of an entangler kind ("single": SINGLE_QUBIT), the sum of its entry's f and g terms."""
    model = SINGLE_QUBIT if kind == "single" else ENTANGLERS[kind]
    return sum(model.small_angle(n, f_beta(beta), g_beta(beta), dth, params))


# ---------------------------------------------------------------- f and g ---


def test_f_beta_values_and_monotonicity():
    assert f_beta(0.0) == 0.0
    assert abs(f_beta(1.0) - F_AT_1) <= 1e-15
    assert f_beta(5.0) > f_beta(1.0) > f_beta(0.1) > 0.0


def test_g_beta_values_and_identity():
    assert g_beta(0.0) == 0.0
    assert abs(g_beta(1.0) - G_AT_1) <= 1e-15
    assert abs(g_beta(1.0) - f_beta(1.0) - G_MINUS_F_AT_1) <= 1e-15
    assert abs(G_MINUS_F_AT_1 - 0.5 * math.tanh(0.5) ** 2) <= 1e-16


def test_g_dominates_f():
    for beta in np.linspace(0.0, 20.0, 50):
        assert g_beta(float(beta)) >= f_beta(float(beta)) - 1e-18


def test_small_beta_difference_is_cubic():
    # (beta/2)tanh^2(beta/2) ~ beta^3/8, so 0.2*beta^3 bounds it comfortably
    for beta in np.linspace(1e-4, 0.1, 20):
        beta = float(beta)
        assert abs(g_beta(beta) - f_beta(beta)) <= 0.2 * beta**3


def test_negative_beta_rejected():
    for fn in (f_beta, g_beta):
        with pytest.raises(ValidationError):
            fn(-1.0)


# ---------------------------------------------------- step distributions ---


def test_single_step_identity_quench():
    dist = single_step(1.0, 0.0)
    assert dist.support == (0,)
    assert float(dist.probs[0]) == 1.0


def test_single_step_infinite_temperature_symmetry():
    dist = single_step(0.0, math.pi / 2)
    assert abs(dist.prob(1) - 0.25) <= 1e-15
    assert abs(dist.prob(-1) - 0.25) <= 1e-15
    assert abs(dist.prob(0) - 0.5) <= 1e-15


def test_single_step_frozen_value():
    dist = single_step(1.0, 0.2)
    assert abs(float(dist.prob(1)) - P_PLUS_1_BETA1_DTH02) <= 1e-15


def test_single_step_matches_textbook_formulas():
    for beta, dth in RNG.uniform(0.05, 3.0, (20, 2)):
        dist = single_step(float(beta), float(dth))
        s = math.sin(dth / 2.0) ** 2
        w = math.exp(-beta)
        assert abs(dist.prob(1) - s / (1.0 + w)) <= 1e-15
        assert abs(dist.prob(-1) - s * w / (1.0 + w)) <= 1e-15
        assert abs(dist.prob(0) - (1.0 - s)) <= 1e-15


def test_bipartite_identity_dynamics():
    dist = step_distribution_bipartite(1.3, identity(4), identity(4))
    assert dist.support == (0,)


def test_bipartite_rxx_at_infinite_temperature():
    dphi = 0.9
    dist = step_distribution_bipartite(0.0, identity(4), rxx(dphi))
    s = math.sin(dphi / 2.0) ** 2
    assert abs(dist.prob(2) - s / 4.0) <= 1e-15
    assert abs(dist.prob(-2) - s / 4.0) <= 1e-15
    assert abs(dist.prob(0) - (1.0 - s / 2.0)) <= 1e-15
    assert dist.prob(1) == 0.0 and dist.prob(-1) == 0.0


def test_bipartite_rejects_bad_inputs():
    with pytest.raises(ContractViolationError):
        step_distribution_bipartite(1.0, 0.5 * identity(4), identity(4))
    with pytest.raises(UnsupportedDimensionError):
        step_distribution_bipartite(1.0, identity(2), identity(2))


def test_cartan_closed_form_matches_enumeration_with_c3_freedom():
    worst = 0.0
    for beta in (0.0, 0.4, 1.0, 2.2):
        for dth in (0.0, 0.15, 0.8):
            for c1, c2, c3 in ((0.0, 0.0, 0.0), (0.3, -0.1, 0.9), (0.5, 0.5, -1.2), (-0.2, 0.6, 0.4)):
                enum = step_distribution_bipartite(
                    beta, bipartite_quench(dth), cartan_entangler(CartanCoefficients(c1, c2, c3))
                )
                closed = closed_form_distribution_cartan(beta, dth, c1, c2)
                worst = max(worst, distribution_distance(enum, closed))
    assert worst <= 1e-11


def test_cartan_closed_form_printed_value():
    # P(-1) = sin^2(dth)/(2(e^beta + 1)) -> 1/4 at dth = pi/2, beta = 0
    dist = closed_form_distribution_cartan(0.0, math.pi / 2, 0.2, -0.4)
    assert abs(dist.prob(-1) - 0.25) <= 1e-15


def test_cartan_degenerate_entanglement_leaves_no_work():
    dist = closed_form_distribution_cartan(1.0, 0.0, 0.3, 0.3)
    assert dist.support == (0,)


def test_cartan_distribution_depends_only_on_c1_minus_c2():
    base = closed_form_distribution_cartan(0.8, 0.2, 0.35, 0.1)
    for delta in (-0.4, 0.25, 1.0):
        shifted = closed_form_distribution_cartan(0.8, 0.2, 0.35 + delta, 0.1 + delta)
        assert distribution_distance(base, shifted) <= 1e-12


def test_separable_closed_form_factorizes_at_zero_angles():
    for beta, dth in ((0.0, 0.7), (1.2, 0.3)):
        product = convolve_n(single_step(beta, dth), 2)
        closed = closed_form_distribution_separable(beta, dth, 0.0, 0.0)
        assert distribution_distance(product, closed) <= 1e-15


def test_separable_closed_form_printed_value():
    dist = closed_form_distribution_separable(0.0, math.pi / 2, 0.0, 0.0)
    assert abs(dist.prob(-2) - 1.0 / 16.0) <= 1e-15


def test_separable_closed_form_vs_enumeration_grid():
    # z-angles l, n vary too: the printed forms omit them, and the enumeration
    # confirms they genuinely drop out
    worst = 0.0
    dth = 0.1
    for beta in np.linspace(0.0, 2.0, 5):
        for c in np.linspace(-0.6, 0.6, 5):
            for m in np.linspace(-0.6, 0.6, 5):
                l, nz = RNG.uniform(-2.0, 2.0, 2)
                enum = step_distribution_bipartite(
                    float(beta),
                    bipartite_quench(dth),
                    separable_xzx(SeparableXZXParams(float(c), float(l), float(m), float(nz))),
                )
                closed = closed_form_distribution_separable(float(beta), dth, float(c), float(m))
                worst = max(worst, distribution_distance(enum, closed))
    assert worst <= 1e-11


def test_separable_closed_form_keeps_a_small_dtheta_beside_a_huge_c():
    # sin((dth + c)/2) by the addition formula: dth + c in any float would round 0.1 away at c = 1e17
    separable = ENTANGLERS["separable_xzx"]
    for c in (1e17, 1e19):
        p = {"c": c, "l": 0.0, "m": 0.2, "nz": 0.0}
        enum, closed = separable.step_distribution(1.0, 0.1, p), separable.closed_form(1.0, 0.1, p)
        assert distribution_distance(enum, closed) <= 1e-15


@pytest.mark.parametrize("beta, dth, c, m", [(1.3, 0.4, 0.0, 0.0), (1.3, 0.3, 0.2, -0.15), (0.0, 2.0, -1.1, 0.7),
                                             (40.0, 1e-8, 3.0, -3.0), (1.0, 1e200, 1e300, 0.0)])
def test_qubit_law_closed_forms_are_longdouble_accurate(beta, dth, c, m):
    # float64 arithmetic alone would leave errors near 1e-17; longdouble keeps them near 1e-20
    for dist, law in ((closed_form_distribution_single(beta, dth), mp_oracle.qubit_law(beta, dth)),
                      (closed_form_distribution_separable(beta, dth, c, m), mp_oracle.separable_law(beta, dth, c, m))):
        lowest = -(len(law) // 2)
        for w, p in zip(dist.support, dist.probs):
            assert abs(mp_oracle.exact(p) - law[w - lowest]) <= 2e-19, (w, p)


_BETAS = st.sampled_from([0.0, 1e-300, 0.5, 40.0, 700.0, 12000.0]) | st.floats(0.0, 50.0)
_ANGLES = (st.sampled_from([0.0, -0.0]) | st.integers(-10**6, 10**6).map(lambda k: k * math.pi)
           | st.floats(-10.0, 10.0) | st.floats(-1e300, 1e300))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(beta=_BETAS, dth=_ANGLES, c=_ANGLES, l=_ANGLES, m=_ANGLES, nz=_ANGLES)
def test_qubit_law_closed_forms_match_enumeration_at_any_angle(beta, dth, c, l, m, nz):
    assert distribution_distance(single_step(beta, dth), closed_form_distribution_single(beta, dth)) <= 2e-15
    separable, p = ENTANGLERS["separable_xzx"], {"c": c, "l": l, "m": m, "nz": nz}
    enum = separable.step_distribution(beta, dth, p)
    assert distribution_distance(enum, separable.closed_form(beta, dth, p)) <= 2e-15


# ------------------------------------------------- convolution and moments ---


def test_convolve_identity_and_zero():
    step = single_step(1.0, 0.4)
    assert convolve_n(step, 1) == step
    point = convolve_n(step, 0)
    assert point.support == (0,)


def test_convolve_hand_checked():
    step = WorkDistribution((-1, 0, 1), (0.25, 0.5, 0.25))
    two = convolve_n(step, 2)
    expected = {-2: 1 / 16, -1: 1 / 4, 0: 3 / 8, 1: 1 / 4, 2: 1 / 16}
    for w, p in expected.items():
        assert abs(two.prob(w) - p) <= 1e-15


def test_convolve_cumulant_additivity():
    step = step_distribution_bipartite(0.9, bipartite_quench(0.3), rxx(0.5))
    mean1, var1 = moments(step)
    mean50, var50 = moments(convolve_n(step, 50))
    assert abs(mean50 - 50 * mean1) <= 1e-10
    assert abs(var50 - 50 * var1) <= 1e-10


def assert_bitwise_equal(a, b):
    # longdouble's tobytes() includes padding bytes, so compare values and sign bits
    pa, pb = np.array(a.probs, dtype=np.longdouble), np.array(b.probs, dtype=np.longdouble)
    assert a.support == b.support
    assert np.array_equal(pa, pb) and np.array_equal(np.signbit(pa), np.signbit(pb))


def test_convolve_equals_whole_row_oracle_on_the_long_horizon_step():
    # sample --beta 1 --n 4000 --theta 40 --entangler rxx --phi 40: both tails underflow
    config = ProtocolConfig(1.0, 4000, 40.0, "rxx", total_phi=40.0)
    step = step_distribution(config.beta, config.step_unitary())
    result = convolve_n(step, 4000)
    assert_bitwise_equal(result, convolve_oracle.convolve_n(step, 4000))
    assert len(result.support) < 4 * 4000 + 1


def test_convolve_equals_whole_row_oracle_on_random_steps():
    rng = np.random.default_rng(4000)  # its own stream: the module RNG feeds the later tests
    kinds = {
        "rxx": lambda: {"dphi": rng.uniform(-1.5, 1.5)},
        "cartan": lambda: dict(zip(("c1", "c2", "c3"), rng.uniform(-1.0, 1.0, 3))),
        "separable_xzx": lambda: dict(zip(("c", "l", "m", "nz"), rng.uniform(-1.0, 1.0, 4))),
    }
    for _ in range(4):
        beta, dth, n = rng.uniform(0.0, 60.0), rng.uniform(-1.5, 1.5), int(rng.integers(2, 400))
        steps = [single_step(beta, dth)]
        steps += [step_distribution_bipartite(beta, bipartite_quench(dth), ENTANGLERS[kind].unitary(params()))
                  for kind, params in kinds.items()]
        for step in steps:
            assert_bitwise_equal(convolve_n(step, n), convolve_oracle.convolve_n(step, n))


def test_convolve_equals_whole_row_oracle_at_the_edges():
    rng = np.random.default_rng(4001)
    tiny = np.nextafter(np.longdouble(0), np.longdouble(1))
    mass = np.longdouble("1e-3000")
    cases = [
        (closed_form_distribution_single(1.0, math.pi), 300),  # interior zero: support (-1, 1)
        (single_step(5000.0, 0.3), 50),  # only the left tail underflows
        (WorkDistribution((-1, 0, 1), (mass, 1 - 2 * mass, mass)), 50),
    ]
    # ends that underflow against the bulk at once: the non-zero window is shorter than
    # the step for a few convolutions, so np.convolve would swap its operands
    for bulk in rng.dirichlet(np.ones(3), 20).astype(np.longdouble):
        bulk[1] = 1 - bulk[0] - bulk[2] - 2 * tiny
        cases.append((WorkDistribution((-4, -1, 0, 1, 4), (tiny, *bulk, tiny)), 5))
    for step, n in cases:
        assert_bitwise_equal(convolve_n(step, n), convolve_oracle.convolve_n(step, n))
    assert convolve_n(cases[0][0], 3).support == (-3, -1, 1, 3)


def test_moments_basics():
    assert moments(WorkDistribution((0,), (1.0,))) == (0.0, 0.0)
    dist = single_step(0.0, 1.1)
    mean, _ = moments(dist)
    assert abs(mean) <= 1e-18
    for beta, dth in RNG.uniform(0.1, 2.5, (10, 2)):
        mean, _ = moments(single_step(float(beta), float(dth)))
        assert abs(mean - math.sin(dth / 2.0) ** 2 * math.tanh(beta / 2.0)) <= 1e-15


def test_distribution_constructor_validation():
    with pytest.raises(ValidationError):
        WorkDistribution((0,), (1.5,))
    with pytest.raises(ValidationError):
        WorkDistribution((0, 1), (0.5, 0.2))
    dist = WorkDistribution(*zip(*sorted({1: 0.25, -1: 0.25, 0: 0.5}.items())))
    assert dist.support == (-1, 0, 1)


def test_constructor_refuses_what_from_weights_refuses():
    # accepted before: moments gave (0.5, 2.25) for probabilities summing to 1.5
    with pytest.raises(ValidationError, match="sum to 1.5"):
        moments(WorkDistribution((-1, 0, 2), (0.5, 0.5, 0.5)))


def test_constructor_refuses_decreasing_support():
    # convolve_n of it ended in a bare ValueError (negative dimensions)
    with pytest.raises(ValidationError, match="strictly increasing integers"):
        convolve_n(WorkDistribution((1, -1), (0.5, 0.5)), 2)


def test_constructor_refuses_repeated_work_values():
    with pytest.raises(ValidationError, match="strictly increasing integers"):
        WorkDistribution((0, 0), (0.5, 0.5))


def test_constructor_refuses_other_malformed_inputs():
    for support, probs in [((0, 1), (1.0,)), ((0.5, 1), (0.5, 0.5)), ((True, 2), (0.5, 0.5)), ((0,), (1.5,))]:
        with pytest.raises(ValidationError):
            WorkDistribution(support, probs)
    # integer types and probabilities within the clamp stay accepted, values untouched
    dist = WorkDistribution((np.int64(-1), 2), (np.longdouble(0.25), np.longdouble(0.75) + np.longdouble(1e-15)))
    assert dist.probs[1] == np.longdouble(0.75) + np.longdouble(1e-15)


def test_constructor_refuses_a_nested_probability_row():
    # accepted before: _checked_rows summed the (1, 2, 2) array over the wrong axis, and probs held two arrays
    for nested in (((0.5, 0.5), (0.5, 0.5)), [[0.5], [0.25, 0.25]]):  # the second is ragged: numpy refuses it
        with pytest.raises(ValidationError, match="one row of real numbers"):
            WorkDistribution((0, 1), nested)


def test_constructor_refuses_a_scalar_probability():
    # a bare TypeError (len of a float) before
    with pytest.raises(ValidationError, match="one row of real numbers"):
        WorkDistribution((0,), 1.0)


def test_constructor_refuses_non_numeric_probabilities():
    # a bare ValueError (a string numpy cannot convert) before
    with pytest.raises(ValidationError, match="one row of real numbers"):
        WorkDistribution((0,), ("a",))


def test_constructor_drops_zero_entries():
    dist = WorkDistribution((0, 1), (1.0, 0.0))
    assert dist.support == (0,) and dist.probs == (1.0,)
    # log(0) of a kept zero raised a divide-by-zero RuntimeWarning, an error under this suite's settings
    assert jarzynski_check(dist, 2.0) == 1.0


def test_constructor_stores_ints_and_longdouble_probabilities():
    dist = WorkDistribution((np.int64(-1), 0, 1), (0.25, 0.5, 0.25))
    assert [type(w) for w in dist.support] == [int, int, int]
    assert [type(p) for p in dist.probs] == [np.longdouble] * 3


def test_constructor_clamps_then_drops_roundoff_below_zero():
    dist = WorkDistribution((-1, 0, 1), (-1e-16, 0.5, 0.5))
    assert dist.support == (0, 1) and dist.probs == (0.5, 0.5)


def test_each_distribution_row_is_checked_once(monkeypatch):
    step = step_distribution_bipartite(0.9, bipartite_quench(0.3), rxx(0.5))
    calls = []
    checked_rows = work_stats._checked_rows
    monkeypatch.setattr(work_stats, "_checked_rows", lambda *args: calls.append(1) or checked_rows(*args))
    builds = [lambda: convolve_n(step, 50), lambda: closed_form_distribution_single(0.9, 0.3),
              lambda: closed_form_distribution_cartan(0.9, 0.3, 0.2, 0.1),
              lambda: closed_form_distribution_separable(0.9, 0.3, 0.2, -0.15)]
    for build in builds:
        calls.clear()
        build()
        assert len(calls) == 1


def test_nan_probabilities_and_unitaries_are_rejected():
    nan = float("nan")
    for weights in ({0: nan}, {-1: 0.5, 0: nan, 1: 0.5}):
        with pytest.raises(ValidationError, match="outside"):
            WorkDistribution(*zip(*sorted(weights.items())))
    with pytest.raises(ContractViolationError):
        step_distribution_bipartite(1.0, np.full((4, 4), nan, dtype=complex), identity(4))


# ------------------------------------------------------------ Q corrections ---


def test_q_zero_when_classical_fdr_holds():
    # pick beta = 2*mean/var so that (beta/2)var - mean vanishes identically
    dist = single_step(1.4, 0.8)
    mean, var = moments(dist)
    beta_star = 2.0 * mean / var
    assert abs(q_correction(dist, beta_star, 25)) <= 1e-15 * max(1.0, 25 * var)


def test_q_zero_for_identity_quench():
    assert q_correction(single_step(1.0, 0.0), 1.0, 10) == 0.0


def test_q_report_is_self_consistent():
    dist = step_distribution_bipartite(1.1, bipartite_quench(0.2), rxx(0.4))
    mean, var = moments(dist)
    assert abs(q_correction(dist, 1.1, 60) - ((1.1 / 2.0) * 60 * var - 60 * mean)) <= 1e-13


def test_q_correction_matches_closed_form():
    assert abs(q_correction(single_step(1.0, 0.2), 1.0, 100) - q_single_exact(100, 1.0, 0.2)) <= 1e-13
    for beta in (0.1, 1.0, 5.0):
        for dth in (0.01, 0.1, 0.5):
            for n in (1, 10, 100):
                got = q_correction(single_step(beta, dth), beta, n)
                want = q_single_exact(n, beta, dth)
                assert abs(got - want) <= 1e-12 * abs(want)


def test_q_single_exact_limits():
    assert q_single_exact(50, 1.0, 0.0) == 0.0
    assert q_single_exact(50, 0.0, 0.7) == 0.0


def test_q_single_closed_forms_reject_non_finite_angles():
    for bad in (float("nan"), float("inf"), -float("inf"), None):
        with pytest.raises(ValidationError, match="delta_theta"):
            q_single_exact(10, 1.0, bad)
    # the small-angle terms, as every entry's, name an angle that is not finite
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValidationError, match="dth must be finite"):
            small_angle_q("single", 10, 1.0, bad)


@pytest.mark.parametrize("kind", ["single", *ENTANGLERS])
def test_small_angle_terms_name_an_angle_that_is_not_a_finite_number(kind):
    # the angle is named before any term is formed: None and a string end in no bare TypeError,
    # and NaN is not taken for an overflow
    model = SINGLE_QUBIT if kind == "single" else ENTANGLERS[kind]
    good = {spec.step: 0.1 for spec in model.params}
    for name in ("dth", *good):
        for bad, message in ((None, "must be a real number"), ("0.1", "must be a real number"),
                             (float("nan"), "must be finite")):
            angles = dict(good, dth=0.1) | {name: bad}
            dth = angles.pop("dth")
            with pytest.raises(ValidationError, match=f"^{name} {message}"):
                model.small_angle(10, f_beta(1.0), g_beta(1.0), dth, angles)


def test_small_angle_predictions_refuse_angles_that_overflow():
    # float ** raises OverflowError past about 1.3e154; n * x overflows to inf without one
    raising = [
        lambda: small_angle_q("single", 10, 1.0, 1e200),
        lambda: small_angle_q("rxx", 10, 1.0, 0.1, dphi=1e200),
        lambda: small_angle_q("none", 10, 1.0, -1e200),
        lambda: small_angle_q("separable_xzx", 1, 1.0, 0.1, c=1e160, l=0.0, m=0.0, nz=0.0),
    ]
    silent = [
        lambda: small_angle_q("single", 10**9, 1.0, 1e153),
        lambda: small_angle_q("single", 10**9, 0.0, 1e153),  # inf * f(0) is nan
        lambda: small_angle_q("cartan", 10**9, 1.0, 0.0, c1=1e153, c2=-1e153, c3=0.0),
        lambda: small_angle_q("rxx", 1, 100.0, 1.8e153, dphi=1.8e153),  # each term finite, the sum inf
    ]
    for case in raising + silent:
        with pytest.raises(ValidationError, match="angles too large"):
            case()
    # a kind added at run time is checked too
    crosstalk = Entangler(params=(), unitary=ENTANGLERS["none"].unitary, closed_form=ENTANGLERS["none"].closed_form,
                          small_angle=lambda n, f, g, dth, p: (n * dth**2, 0.0))
    with pytest.raises(ValidationError, match="angles too large"):
        crosstalk.small_angle(10, f_beta(1.0), g_beta(1.0), 1e200, {})
    # the largest finite predictions keep their values
    assert small_angle_q("single", 10**9, 1.0, 1e149) == 10**9 * 1e149**2 * f_beta(1.0) / 4.0
    assert small_angle_q("rxx", 1, 1.0, 0.0, dphi=1e154) == 1e154**2 / 2.0 * g_beta(1.0)


def test_q_single_smallangle_value_and_convergence():
    assert small_angle_q("single", 10, 2.0, 0.0) == 0.0
    assert abs(small_angle_q("single", 100, 1.0, 0.01) - Q_SMALL_SINGLE) <= 1e-18
    theta = 1.0
    gaps = []
    for n in (50, 100, 200):
        exact = q_correction(single_step(1.0, theta / n), 1.0, n)
        gaps.append(abs(exact - small_angle_q("single", n, 1.0, theta / n)) / abs(exact))
    assert 3.5 <= gaps[0] / gaps[1] <= 4.5
    assert 3.5 <= gaps[1] / gaps[2] <= 4.5


def test_q_rxx_smallangle_values():
    assert abs(small_angle_q("rxx", 100, 1.0, 0.01, dphi=0.01) - Q_SMALL_RXX) <= 1e-17
    for n, beta, dth in ((10, 0.5, 0.02), (77, 2.0, 0.005)):
        assert small_angle_q("rxx", n, beta, dth, dphi=0.0) == pytest.approx(
            2.0 * small_angle_q("single", n, beta, dth), rel=1e-15
        )
        dphi = 0.013
        assert (
            abs(
                small_angle_q("rxx", n, beta, dth, dphi=dphi)
                - small_angle_q("cartan", n, beta, dth, c1=dphi / 2.0, c2=0.0)
            )
            <= 1e-18
        )


def test_q_cartan_smallangle_structure():
    n, beta, dth = 40, 1.5, 0.01
    assert small_angle_q("cartan", n, beta, dth, c1=0.2, c2=0.2) == pytest.approx(
        n * dth**2 * f_beta(beta) / 2.0, abs=1e-18
    )
    base = small_angle_q("cartan", n, beta, 0.0, c1=0.01, c2=0.0)
    assert small_angle_q("cartan", n, beta, 0.0, c1=0.02, c2=0.0) == pytest.approx(4.0 * base, rel=1e-12)


def test_q_separable_smallangle_structure():
    n, beta, dth = 60, 1.2, 0.02
    assert small_angle_q("separable_xzx", n, beta, dth, c=0.0, m=0.0) == pytest.approx(
        2.0 * small_angle_q("single", n, beta, dth), abs=1e-18
    )
    assert small_angle_q("separable_xzx", n, beta, dth, c=-dth, m=-dth) == 0.0


def test_q_cartan_smallangle_converges_to_exact_pipeline():
    beta, theta, c1_total, c2_total = 1.0, 1.0, 0.8, 0.3
    gaps = []
    for n in (50, 100, 200):
        dist = step_distribution_bipartite(
            beta,
            bipartite_quench(theta / n),
            cartan_entangler(CartanCoefficients(c1_total / n, c2_total / n, 0.2 / n)),
        )
        exact = q_correction(dist, beta, n)
        approx = small_angle_q("cartan", n, beta, theta / n, c1=c1_total / n, c2=c2_total / n)
        gaps.append(abs(exact - approx) / abs(exact))
    assert gaps[0] > gaps[1] > gaps[2]
    assert 3.5 <= gaps[0] / gaps[1] <= 4.5


def test_q_separable_smallangle_converges_to_exact_pipeline():
    beta, theta, c_total, m_total = 1.0, 1.0, 0.4, 0.6
    gaps = []
    for n in (50, 100, 200):
        dist = step_distribution_bipartite(
            beta,
            bipartite_quench(theta / n),
            separable_xzx(SeparableXZXParams(c_total / n, 0.3 / n, m_total / n, 0.2 / n)),
        )
        exact = q_correction(dist, beta, n)
        approx = small_angle_q("separable_xzx", n, beta, theta / n, c=c_total / n, m=m_total / n)
        gaps.append(abs(exact - approx) / abs(exact))
    assert gaps[0] > gaps[1] > gaps[2]


def test_classical_limit_suppresses_q():
    for q_fn in (
        lambda b: q_correction(single_step(b, 0.2), b, 20),
        lambda b: small_angle_q("single", 20, b, 0.01),
        lambda b: small_angle_q("cartan", 20, b, 0.01, c1=0.03, c2=0.0),
    ):
        assert abs(q_fn(1e-6)) < 1e-6 * abs(q_fn(1.0))


# ------------------------------------------------------------- Jarzynski ---


def test_jarzynski_point_mass():
    assert jarzynski_check(WorkDistribution((0,), (1.0,)), 2.0) == 1.0


def test_jarzynski_per_step_and_convolved():
    for beta, dth in RNG.uniform(0.05, 2.0, (8, 2)):
        beta, dth = float(beta), float(dth)
        single = single_step(beta, dth)
        assert abs(jarzynski_check(single, beta) - 1.0) <= 1e-13
        c1, c2, c3 = RNG.uniform(-0.7, 0.7, 3)
        pair = step_distribution_bipartite(
            beta, bipartite_quench(dth), cartan_entangler(CartanCoefficients(c1, c2, c3))
        )
        assert abs(jarzynski_check(pair, beta) - 1.0) <= 1e-12
        assert abs(jarzynski_check(convolve_n(pair, 200), beta) - 1.0) <= 1e-11


def test_relative_gap_is_zero_where_q_is_zero():
    q = np.array([0.0, -0.0, 2.0, -4.0, 0.0])
    prediction = np.array([1.0, 0.0, 1.5, -3.0, 0.0])
    with np.errstate(all="raise"):  # no division warning either
        gaps = work_stats.relative_gap(q, prediction)
    assert gaps.tolist() == [0.0, 0.0, 0.25, 0.25, 0.0]
    assert float(work_stats.relative_gap(0.0, 3.0)) == 0.0
    assert float(work_stats.relative_gap(0.3, 0.1)) == abs(0.3 - 0.1) / 0.3
