"""A 50-digit mpmath oracle for the closed-form step laws (test code; the package never imports mpmath).

Each law is built from the float64 angles exactly: dtheta + x is summed without
rounding (mpmath's exact addition), halved exactly, and only then goes through
sin at 50 digits, so an angle of 1e300 beside one of 1e200 loses nothing.
"""

from __future__ import annotations

import numpy as np
from mpmath import mp, mpf

DPS = 50


def qubit_law(beta: float, delta_theta: float, x: float = 0.0) -> list:
    """[P(-1), P(0), P(+1)] of one qubit's step R_X(delta_theta) R_X(x) from its Gibbs state."""
    with mp.workdps(DPS):
        s = mp.sin(mp.ldexp(mp.fadd(mpf(delta_theta), mpf(x), exact=True), -1)) ** 2
        w = mp.exp(-mpf(beta))
        return [w * s / (1 + w), 1 - s, s / (1 + w)]


def separable_law(beta: float, delta_theta: float, c: float, m: float) -> list:
    """[P(-2), ..., P(+2)] of the separable X-Z-X step: the convolution of its two qubit laws."""
    a, b = qubit_law(beta, delta_theta, c), qubit_law(beta, delta_theta, m)
    with mp.workdps(DPS):
        return [mp.fsum(a[i] * b[k - i] for i in range(3) if 0 <= k - i <= 2) for k in range(5)]


def exact(x) -> mpf:
    """The exact value of a float or a numpy.longdouble (64-bit mantissa at most) as an mpf."""
    mantissa, exponent = np.frexp(np.longdouble(x))
    with mp.workdps(DPS):
        return mp.ldexp(mpf(int(np.ldexp(mantissa, 64))), int(exponent) - 64)
