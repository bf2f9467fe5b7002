"""Work statistics of the discrete two-point-measurement (TPM) protocol.

Per-step work distributions (exact 16-term enumeration and closed forms),
N-fold convolution, cumulants, the Jarzynski identity check, and the
fluctuation-dissipation correction with its small-angle predictions.

Sign convention: the correction is reported as

    Q = (beta/2) * Var(W) - <W_diss>,

which is zero for classical (coherence-free) driving, non-negative in the
slow-driving regime, and decomposes into a local-coherence term with
temperature profile f(beta) plus an entanglement term with profile g(beta).

Work values are exact small integers (the level splitting is the unit).
Distribution probabilities are carried in extended precision
(numpy.longdouble): Q sits up to ~10^4 below the cumulants it is a difference
of, so plain doubles in the enumeration pipeline would already spend the
1e-12 relative budget on representation noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import UnsupportedDimensionError, ValidationError, require_beta, require_finite, require_int
from .linalg import check_unitary
from .model import QubitHamiltonian, gibbs_populations, rotation_x

PROB_CLAMP = 1e-14
NORMALIZATION_TOL = 1e-12

_LD = np.longdouble


@dataclass(frozen=True)
class WorkDistribution:
    """Finite distribution over integer work values, strictly increasing support."""

    support: tuple[int, ...]
    probs: tuple

    @classmethod
    def from_weights(cls, weights: dict) -> "WorkDistribution":
        """Build from a work -> probability map; clamps sub-roundoff noise, drops zeros."""
        support = sorted(weights)
        return cls.from_row(support, _checked_rows(support, np.array([[weights[w] for w in support]], dtype=_LD))[0])

    @classmethod
    def from_row(cls, support, probs) -> "WorkDistribution":
        """One checked row of a probability grid over `support`, zero probabilities dropped."""
        nonzero = (np.asarray(probs) != 0.0).tolist()
        return cls(support=tuple(int(w) for w in compress(support, nonzero)), probs=tuple(compress(probs, nonzero)))

    @classmethod
    def point_mass(cls, value: int = 0) -> "WorkDistribution":
        return cls(support=(int(value),), probs=(_LD(1.0),))

    def prob(self, w: int):
        """Probability of work value w (0 when w is off-support)."""
        try:
            return self.probs[self.support.index(w)]
        except ValueError:
            return _LD(0.0)


@dataclass(frozen=True)
class QReport:
    """Cumulants of the N-step work, with the FDR correction Q = (beta/2)Var - W_diss."""

    mean_work: float
    var_work: float
    delta_f: float
    w_diss: float
    q_value: float
    beta: float
    n_steps: int


def f_beta(beta: float) -> float:
    """Local-coherence temperature profile beta/2 - tanh(beta/2); zero at beta = 0."""
    beta = require_beta(beta)
    return beta / 2.0 - math.tanh(beta / 2.0)


def g_beta(beta: float) -> float:
    """Entanglement temperature profile beta/(1 + sech(beta)) - tanh(beta/2)."""
    beta = require_beta(beta)
    sech = 2.0 * math.exp(-beta) / (1.0 + math.exp(-2.0 * beta))
    return beta / (1.0 + sech) - math.tanh(beta / 2.0)


def _checked_rows(support, probs: np.ndarray) -> np.ndarray:
    """Every row of a (rows, k) probability array within PROB_CLAMP of [0, 1], clamped
    into it, and summing to 1 within NORMALIZATION_TOL; returns the clamped rows."""
    outside = (probs < -PROB_CLAMP) | (probs > 1.0 + PROB_CLAMP)
    if outside.any():
        row, col = np.argwhere(outside)[0]
        raise ValidationError(f"probability {float(probs[row, col])!r} at work {support[col]} is outside [0, 1]")
    probs = np.minimum(np.maximum(probs, _LD(0.0)), _LD(1.0))
    totals = np.sum(probs, axis=1)
    off = np.abs(totals.astype(np.float64) - 1.0) > NORMALIZATION_TOL
    if off.any():
        raise ValidationError(f"probabilities sum to {float(totals[np.argmax(off)])!r}, expected 1")
    return probs


def _enumerate(populations: np.ndarray, transition: np.ndarray, energies) -> tuple[tuple[int, ...], np.ndarray]:
    # TPM enumeration, one row per row of populations: first outcome from the thermal
    # populations, second from the Born matrix; equal work values from degenerate
    # outcome pairs aggregate, in first-then-second order.
    dim = len(energies)
    works = [[int(round(energies[second] - energies[first])) for second in range(dim)] for first in range(dim)]
    support = sorted({w for row in works for w in row})
    probs = np.zeros((len(populations), len(support)), dtype=_LD)
    for first in range(dim):
        for second in range(dim):
            probs[:, support.index(works[first][second])] += populations[:, first] * transition[second, first]
    return tuple(support), _checked_rows(support, probs)


def step_grid_single(betas, delta_theta: float) -> tuple[tuple[int, ...], np.ndarray]:
    """Single-qubit step distributions at every beta: the sorted support and one row of
    probabilities per beta, zeros kept."""
    hamiltonian = QubitHamiltonian.single()
    transition = np.abs(rotation_x(delta_theta)).astype(_LD) ** 2
    return _enumerate(gibbs_populations(betas, hamiltonian, dtype=_LD), transition, hamiltonian.energies)


def step_distribution_single(beta: float, delta_theta: float) -> WorkDistribution:
    """Work distribution of one single-qubit step, by enumeration of both outcomes."""
    support, probs = step_grid_single([require_beta(beta)], delta_theta)
    return WorkDistribution.from_row(support, probs[0])


def step_grid_bipartite(betas, quench: np.ndarray, entangler: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """Two-qubit step distributions at every beta (each >= 0), by exhaustive 16-pair enumeration.

    The Born amplitudes are taken from quench @ entangler (4x4 unitaries: the
    local quench, then the entangler applied between the two measurements), the
    first outcome from the diagonal two-qubit Gibbs populations; outcome pairs
    with equal work (the degenerate |01>/|10> levels) are aggregated. Returns
    the sorted support and one longdouble row of probabilities per beta, zeros kept.
    """
    if np.shape(quench) != (4, 4) or np.shape(entangler) != (4, 4):
        raise UnsupportedDimensionError("bipartite step needs 4x4 quench and entangler")
    quench = check_unitary(quench)
    entangler = check_unitary(entangler)
    hamiltonian = QubitHamiltonian.two_qubit()
    transition = np.abs(quench @ entangler).astype(_LD) ** 2
    return _enumerate(gibbs_populations(betas, hamiltonian, dtype=_LD), transition, hamiltonian.energies)


def step_distribution_bipartite(beta: float, quench: np.ndarray, entangler: np.ndarray) -> WorkDistribution:
    """Work distribution of one two-qubit step: the one-beta case of step_grid_bipartite."""
    support, probs = step_grid_bipartite([require_beta(beta)], quench, entangler)
    return WorkDistribution.from_row(support, probs[0])


def closed_form_distribution_single(beta: float, delta_theta: float) -> WorkDistribution:
    """Closed-form single-qubit step distribution in float64: P(+-1) = sin^2(dth/2) * population."""
    beta = require_beta(beta)
    require_finite(delta_theta=delta_theta)
    s = math.sin(delta_theta / 2.0) ** 2
    w = math.exp(-beta)
    return WorkDistribution.from_weights({-1: w * s / (1.0 + w), 0: 1.0 - s, 1: s / (1.0 + w)})


def closed_form_distribution_cartan(
    beta: float, delta_theta: float, c1: float, c2: float
) -> WorkDistribution:
    """Closed-form two-qubit step distribution for the xx/yy/zz entangler.

    Depends on the entangler only through c1 - c2; P(0) is obtained by
    normalization. Written with exp(-beta) factors so it is stable at any beta.
    """
    beta = require_beta(beta)
    require_finite(delta_theta=delta_theta, c1=c1, c2=c2)
    w = np.exp(-_LD(beta))
    denom = (1 + w) ** 2
    half = _LD(delta_theta) / 2
    # non-degenerate channel weight: cos^4(dth/2) sin^2(c1-c2) + sin^4(dth/2) cos^2(c1-c2)
    k2 = np.cos(half) ** 4 * np.sin(_LD(c1) - _LD(c2)) ** 2 + np.sin(half) ** 4 * np.cos(_LD(c1) - _LD(c2)) ** 2
    sin_sq = np.sin(_LD(delta_theta)) ** 2
    weights = {
        -2: w * w * k2 / denom,
        -1: w * sin_sq / (2 * (1 + w)),
        1: sin_sq / (2 * (1 + w)),
        2: k2 / denom,
    }
    weights[0] = 1 - sum(weights.values())
    return WorkDistribution.from_weights(weights)


def closed_form_distribution_separable(
    beta: float, delta_theta: float, c: float, m: float
) -> WorkDistribution:
    """Closed-form two-qubit step distribution for a separable X-Z-X entangler.

    The Z angles drop out of the probabilities (they only add phases to
    computational-basis columns before the X structure acts), so only the two
    X angles c and m enter; P(0) is obtained by normalization.
    """
    beta = require_beta(beta)
    require_finite(delta_theta=delta_theta, c=c, m=m)
    w = np.exp(-_LD(beta))
    denom = (1 + w) ** 2
    dth = _LD(delta_theta)
    sc, cc = np.sin((_LD(c) + dth) / 2), np.cos((_LD(c) + dth) / 2)
    sm, cm = np.sin((_LD(m) + dth) / 2), np.cos((_LD(m) + dth) / 2)
    sc2, cc2 = np.sin(_LD(c) / 2), np.cos(_LD(c) / 2)
    sm2, cm2 = np.sin(_LD(m) / 2), np.cos(_LD(m) / 2)
    sdt, sdt_half, cdt_half = np.sin(dth), np.sin(dth / 2), np.cos(dth / 2)
    p_minus_1 = (
        w * w * sc**2 * cm**2
        + w * cc**2 * sm**2
        + w * w * cc**2 * sm**2
        + w * sc * cm * (-0.5 * sc2 * sm2 * sdt + sc2 * cm2 * cdt_half**2)
        + w * sc * cm * cc2 * sdt_half * cm
    ) / denom
    p_plus_1 = (
        w * sc**2 * cm**2
        + sc**2 * cm**2
        + cc**2 * sm**2
        + w * cc * sm * (-0.5 * sc2 * sm2 * sdt - sc2 * cm2 * sdt_half**2)
        + w * cc * sm * cc2 * cdt_half * sm
    ) / denom
    weights = {
        -2: w * w * sc**2 * sm**2 / denom,
        -1: p_minus_1,
        1: p_plus_1,
        2: sc**2 * sm**2 / denom,
    }
    weights[0] = 1 - sum(weights.values())
    return WorkDistribution.from_weights(weights)


def _moments_rows(support, probs):
    # Zero entries, which a WorkDistribution drops, leave these sums unchanged
    # while a row has fewer than 8 entries: numpy then adds them in order from 0.
    support, probs = np.asarray(support, dtype=_LD), np.asarray(probs, dtype=_LD)
    mean = np.sum(support * probs, axis=1)
    second = np.sum(support * support * probs, axis=1)
    return mean, second - mean * mean


def moments(dist: WorkDistribution) -> tuple[float, float]:
    """First two cumulants (mean, variance) by direct summation."""
    mean, variance = _moments_rows(dist.support, [dist.probs])
    return float(mean[0]), float(variance[0])


def convolve_n(step: WorkDistribution, n: int) -> WorkDistribution:
    """Exact n-fold convolution of an integer-support distribution (n = 0: point mass)."""
    n = require_int("n", n, minimum=0)
    if n == 0:
        return WorkDistribution.point_mass(0)
    lo, hi = step.support[0], step.support[-1]
    dense = np.zeros(hi - lo + 1, dtype=_LD)
    for w, p in zip(step.support, step.probs):
        dense[w - lo] = p
    result = dense
    for _ in range(n - 1):
        result = np.convolve(result, dense)
    support = range(n * lo, n * lo + len(result))
    return WorkDistribution.from_row(support, _checked_rows(support, result[None, :])[0])


def distribution_rows(a: WorkDistribution, b: WorkDistribution) -> list[tuple[int, float, float, float]]:
    """(w, P_a(w), P_b(w), |P_a(w) - P_b(w)|) at each w of the sorted union of the two supports."""
    support = sorted(set(a.support) | set(b.support))
    return [(w, float(a.prob(w)), float(b.prob(w)), float(abs(a.prob(w) - b.prob(w)))) for w in support]


def distribution_distance(a: WorkDistribution, b: WorkDistribution) -> float:
    """Largest absolute probability difference over the union of supports."""
    return max(row[3] for row in distribution_rows(a, b))


def jarzynski_check(dist: WorkDistribution, beta: float) -> float:
    """<exp(-beta*w)>; equals 1 for every spectrum-preserving protocol step.

    Terms are evaluated as exp(log p - beta*w) so deep convolution tails with
    large |beta*w| neither overflow nor produce inf*0.
    """
    beta = require_beta(beta)
    support = np.asarray(dist.support, dtype=_LD)
    probs = np.asarray(dist.probs, dtype=_LD)
    return float(np.sum(np.exp(np.log(probs) - _LD(beta) * support)))


def q_grid(support, probs, betas, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """q_correction over a grid: row i of probs is the step distribution over support at betas[i].

    Returns float64 arrays (mean_work, var_work, q_value), each row computed in
    q_correction's operation order.
    """
    betas = np.array([require_beta(b) for b in betas], dtype=_LD)
    n = require_int("n", n, minimum=1)
    mean_step, var_step = _moments_rows(support, probs)
    mean_work = n * mean_step
    var_work = n * var_step
    q_value = (betas / 2) * var_work - mean_work
    return mean_work.astype(np.float64), var_work.astype(np.float64), q_value.astype(np.float64)


def q_correction(dist: WorkDistribution, beta: float, n: int) -> QReport:
    """FDR correction of the N-step protocol built on a per-step distribution.

    Uses cumulant additivity of independent identical steps:
    mean and variance of the total work are n times the per-step values, and
    Q = (beta/2) * n * Var(w) - n * <w>. Every unitary in scope preserves the
    spectrum, so the free-energy change is 0 and W_diss is the mean work.
    """
    beta = require_beta(beta)
    n = require_int("n", n, minimum=1)
    mean_work, var_work, q_value = (float(x[0]) for x in q_grid(dist.support, [dist.probs], [beta], n))
    return QReport(mean_work=mean_work, var_work=var_work, delta_f=0.0, w_diss=mean_work, q_value=q_value,
                   beta=beta, n_steps=n)


def q_single_exact(n: int, beta: float, delta_theta: float) -> float:
    """Closed-form single-qubit correction N*sin^2(dth/2)*[(b/2)(1 - sin^2(dth/2)tanh^2(b/2)) - tanh(b/2)]."""
    n = require_int("n", n, minimum=1)
    beta = require_beta(beta)
    s = math.sin(delta_theta / 2.0) ** 2
    t = math.tanh(beta / 2.0)
    return n * s * ((beta / 2.0) * (1.0 - s * t * t) - t)


def q_single_smallangle(n: int, beta: float, delta_theta: float) -> float:
    """Leading small-angle single-qubit correction N*(dth^2/4)*f(beta)."""
    n = require_int("n", n, minimum=1)
    return n * delta_theta**2 * f_beta(beta) / 4.0
