"""Point-by-point oracle for the grid checks of workfdr.verify.

It keeps the earlier loops of checks 1, 3, 4 and 10: one step unitary built and
one distribution enumerated per grid point, through Entangler.step_distribution.
Each function returns the per-point values in loop order (check 4: the base's
distance to the shifted, then to the rotated distribution); the check reports
their maximum, or 0.0. The stacked checks must give the same floats. Test use
only.
"""

from __future__ import annotations

import numpy as np

from workfdr import work_stats as ws
from workfdr.entanglers import DEFAULT_KIND, ENTANGLERS, SINGLE_QUBIT
from workfdr.verify import _RNG_SEED, _rel_gap


def points_01() -> list[float]:
    points = []
    for beta in (0.1, 1.0, 5.0):
        for dth in (0.01, 0.1, 0.5):
            for n in (1, 10, 100):
                q_dist = ws.q_correction(SINGLE_QUBIT.step_distribution(beta, dth, {}), beta, n)
                q_closed = ws.q_single_exact(n, beta, dth)
                points.append(float(ws.relative_gap(q_closed, q_dist)))
    return points


def points_03() -> list[float]:
    rng = np.random.default_rng(_RNG_SEED)
    points = []
    for _ in range(10):
        beta = float(rng.uniform(0.1, 4.0))
        dth = float(rng.uniform(0.01, 1.0))
        n = int(rng.integers(1, 201))
        q_two, q_one = (ws.q_correction(model.step_distribution(beta, dth, {}), beta, n)
                        for model in (ENTANGLERS[DEFAULT_KIND], SINGLE_QUBIT))
        points.append(_rel_gap(q_two, 2.0 * q_one))
    return points


def points_04() -> list[float]:
    rng = np.random.default_rng(_RNG_SEED + 1)
    cartan, points = ENTANGLERS["cartan"], []
    for beta in rng.uniform(0.1, 3.0, 3):
        for dth in rng.uniform(0.05, 1.0, 3):
            for _ in range(3):
                c1, c2 = rng.uniform(-0.8, 0.8, 2)
                delta, c3 = float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-1.5, 1.5))
                base, shifted, rotated = (
                    cartan.step_distribution(float(beta), float(dth), {"c1": a, "c2": b, "c3": c})
                    for a, b, c in ((c1, c2, 0.0), (c1 + delta, c2 + delta, 0.0), (c1, c2, c3))
                )
                points += [ws.distribution_distance(base, shifted), ws.distribution_distance(base, rotated)]
    return points


def points_10() -> list[float]:
    cartan, points = ENTANGLERS["cartan"], []
    for beta in (0.0, 0.5, 1.0, 2.5):
        for dth in (0.0, 0.1, 0.5, 1.2):
            for c1, c2, c3 in (
                (0.0, 0.0, 0.0),
                (0.3, 0.0, 0.0),
                (0.25, 0.25, 0.6),
                (0.5, -0.2, 0.0),
                (-0.4, 0.3, -0.9),
                (0.7, 0.1, 1.3),
            ):
                p = {"c1": c1, "c2": c2, "c3": c3}
                enumerated, closed = cartan.step_distribution(beta, dth, p), cartan.closed_form(beta, dth, p)
                points.append(ws.distribution_distance(enumerated, closed))
    return points
