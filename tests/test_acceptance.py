"""Acceptance suite: one test per verification item, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-item lines.

Item 8b states "g(40)/f(40) within 1e-3 of 2". With f pinned by items 1-2
and g - f = (beta/2) tanh^2(beta/2) pinned by item 8a, the ratio is
2(beta-1)/(beta-2) = 2 + 2/(beta-2) up to e^-beta terms: 39/19 = 2.0526 at
beta = 40, inside the 1e-3 window only from beta = 2002. Its test therefore
checks what the item is about rather than the stated window at beta = 40:
(a) the profiles give 39/19 at beta = 40, (b) the window holds in the
low-temperature limit (beta = 4000), (c) exact TPM enumeration of an
rxx-only step and a single-qubit step gives the same 39/19, and (d)
`verify.check_08b_fg_low_temperature_ratio` still applies the stated window
to the measured ratio. `workfdr verify` alone keeps reporting the stated
criterion as FAIL (exit 1); see README.
"""

import dataclasses

from workfdr import verify
from workfdr import work_stats as ws
from workfdr.entanglers import ENTANGLERS, SINGLE_QUBIT
from workfdr.model import rxx


def line(result: verify.CheckResult) -> str:
    mark = "PASS" if result.passed else "FAIL"
    return f"[{mark}] criterion {result.item}: {result.description} -- {result.detail}"


def report(result: verify.CheckResult) -> None:
    print(line(result))
    assert result.passed, line(result)


def test_criterion_01_single_qubit_exact_q():
    report(verify.check_01_single_qubit_exact_q())


def test_criterion_02_small_angle_convergence():
    report(verify.check_02_small_angle_convergence())


def test_criterion_03_no_entangler_reduction():
    report(verify.check_03_no_entangler_reduction())


def test_criterion_04_distribution_invariances():
    report(verify.check_04_distribution_invariances())


def test_criterion_05_separable_null_result():
    report(verify.check_05_separable_null_result())


def test_criterion_05_tests_the_registry_prediction(monkeypatch):
    # check 5 compares the fit with the separable entry's small_angle, the formula q and sweep print
    separable = ENTANGLERS["separable_xzx"]

    def five_percent_off(n, f, g, dth, params):
        f_term, g_term = separable.small_angle(n, f, g, dth, params)
        return 1.05 * f_term, g_term

    monkeypatch.setitem(ENTANGLERS, "separable_xzx", dataclasses.replace(separable, small_angle=five_percent_off))
    result = verify.check_05_separable_null_result()
    assert not result.passed, line(result)
    assert "f-coef rel error vs prediction = 4.7" in result.detail, result.detail


def test_criterion_06_negativity_closed_forms():
    report(verify.check_06_negativity_closed_forms())


def test_criterion_07_jarzynski_identity():
    report(verify.check_07_jarzynski())


def test_criterion_08a_fg_difference_identity():
    report(verify.check_08a_fg_identity())


def test_criterion_08b_fg_low_temperature_ratio():
    # The stated window (within 1e-3 of 2 at beta = 40) is false for the f and g
    # that items 1, 2 and 8a pin; assert the true ratio 2(beta-1)/(beta-2) instead.
    beta = 40.0
    exact = 2.0 * (beta - 1.0) / (beta - 2.0)  # 39/19
    ratio = ws.g_beta(beta) / ws.f_beta(beta)
    # (a) the profiles at beta = 40
    assert abs(ratio - exact) <= 1e-12 * exact, f"g/f = {ratio!r}, expected 39/19"
    # (b) the stated window holds in the low-temperature limit
    low_t = ws.g_beta(4000.0) / ws.f_beta(4000.0)
    assert abs(low_t - 2.0) <= 1e-3, f"g/f at beta = 4000 is {low_t!r}"
    # (c) exact enumeration: Q = (a^2/2) g for an rxx(a)-only step and
    # Q = (a^2/4) f for a single-qubit step at d(theta) = a
    a = 1e-4
    g_enum = ws.q_correction(ws.step_distribution(beta, rxx(a)), beta, 1)
    f_enum = ws.q_correction(SINGLE_QUBIT.step_distribution(beta, a, {}), beta, 1)
    ratio_enum = (g_enum / (a * a / 2.0)) / (f_enum / (a * a / 4.0))
    assert abs(ratio_enum - exact) <= 1e-6 * exact, f"enumerated g/f = {ratio_enum!r}"
    # (d) the verify check still applies the stated window to the measured ratio
    result = verify.check_08b_fg_low_temperature_ratio()
    print(line(result))
    assert result.item == "8b"
    assert "within 1e-3 of 2" in result.description
    assert f"measured {ratio:.12f}" in result.detail
    assert result.passed == (abs(ratio - 2.0) <= 1e-3)


def test_criterion_08c_fg_vanish_at_zero():
    report(verify.check_08c_fg_zero())


def test_criterion_09_monte_carlo_consistency():
    report(verify.check_09_monte_carlo(n_trajectories=100_000, seed=42))


def test_criterion_10_closed_form_vs_enumeration():
    report(verify.check_10_cross_oracle())
