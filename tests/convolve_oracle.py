"""Whole-row oracle for workfdr.work_stats.convolve_n.

It keeps the earlier loop: every one of the n - 1 convolutions runs over the
whole dense row of n * (hi - lo) + 1 entries, underflowed tails included, so
its cost grows as n^2. convolve_n convolves only the window that is not
exactly zero and must agree with it bitwise. Test use only.
"""

from __future__ import annotations

import numpy as np

from workfdr.work_stats import WorkDistribution

_LD = np.longdouble


def convolve_n(step: WorkDistribution, n: int) -> WorkDistribution:
    """Exact n-fold convolution of an integer-support distribution (n >= 1) over the whole row."""
    lo, hi = step.support[0], step.support[-1]
    dense = np.zeros(hi - lo + 1, dtype=_LD)
    for w, p in zip(step.support, step.probs):
        dense[w - lo] = p
    result = dense
    for _ in range(n - 1):
        result = np.convolve(result, dense)
    return WorkDistribution(range(n * lo, n * lo + len(result)), result)
