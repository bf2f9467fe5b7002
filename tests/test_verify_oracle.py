"""The stacked grid checks of workfdr.verify against the point-by-point loops in tests/verify_oracle.py.

Checks 1, 3, 4 and 10 build their grid's step unitaries as one stack and
enumerate it in one call. The worst value each reports must equal, as a float,
the largest of the loop's per-point values, not only in the %.3e text that
verify.out pins; and the per-point values the check reduces must be the loop's
own, so a point's unitary paired with another point's beta shows even where
the maximum does not move. Both are read where the check takes its maximum:
its one reduction, np.max or max, is replaced by a spy that records what it
receives and returns (the last call is the check's own; check 3's _rel_gap
calls max first).
"""

import numpy as np
import pytest

import verify_oracle
from workfdr import verify

CHECKS = {  # item: (check, oracle, the check's per-point values from what its reduction receives)
    "1": (verify.check_01_single_qubit_exact_q, verify_oracle.points_01, np.ravel),
    "3": (verify.check_03_no_entangler_reduction, verify_oracle.points_03, np.ravel),
    "4": (verify.check_04_distribution_invariances, verify_oracle.points_04, lambda d: np.max(d, axis=-1).ravel()),
    "10": (verify.check_10_cross_oracle, verify_oracle.points_10, np.ravel),
}


class _Numpy:
    """numpy, with max replaced."""

    def __init__(self, max_):
        self.max = max_

    def __getattr__(self, name):
        return getattr(np, name)


def _reduction(monkeypatch, check):
    """Run check; return its result, what its last max reduction received and what it returned."""
    seen = []

    def spy(reduce):
        def recorded(*args, **kwargs):
            if len(args) == 1 and not isinstance(args[0], np.ndarray):
                args = (list(args[0]),)  # a generator is read once: keep its values
            seen.append((args[0], reduce(*args, **kwargs)))
            return seen[-1][1]
        return recorded

    monkeypatch.setattr(verify, "np", _Numpy(spy(np.max)))
    monkeypatch.setattr(verify, "max", spy(max), raising=False)
    result = check()
    values, worst = seen[-1]
    return result, values, float(worst)


@pytest.mark.parametrize("item", sorted(CHECKS, key=int))
def test_stacked_check_reports_the_point_loops_values(monkeypatch, item):
    check, oracle, per_point = CHECKS[item]
    result, values, worst = _reduction(monkeypatch, check)
    expected = oracle()
    assert result.item == item and result.passed
    assert sorted(float(v) for v in per_point(values)) == sorted(expected)
    assert worst.hex() == max([0.0, *expected]).hex(), (worst, max(expected))
    assert f" {worst:.3e} " in result.detail
