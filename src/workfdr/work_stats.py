"""Work statistics of the discrete two-point-measurement (TPM) protocol.

Per-step work distributions (exact enumeration, and closed forms; the
single-qubit and separable ones are built from one longdouble qubit law),
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

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import UnsupportedDimensionError, ValidationError, require_beta, require_betas, require_finite, require_int
from .linalg import check_unitary
from .model import TWO_QUBIT_ENERGIES, gibbs_populations

PROB_CLAMP = 1e-14
NORMALIZATION_TOL = 1e-12

_LD = np.longdouble


@dataclass(frozen=True)
class WorkDistribution:
    """Finite distribution over integer work values, strictly increasing support.

    The constructor is its one check: probabilities must lie within PROB_CLAMP of
    [0, 1] and sum to 1 within NORMALIZATION_TOL. They are clamped into [0, 1],
    zero entries are dropped with their work values, and what is kept is stored as
    int work values and numpy.longdouble probabilities.
    """

    support: tuple[int, ...]
    probs: tuple

    def __post_init__(self):
        support = self.support
        try:
            probs = np.asarray(self.probs)
        except ValueError:  # a ragged nesting
            probs = np.asarray(None)
        if probs.ndim != 1 or probs.dtype.kind not in "iuf":
            raise ValidationError(f"probabilities must be one row of real numbers, got {self.probs!r}")
        integers = all(issubclass(t, (int, np.integer)) and t is not bool for t in set(map(type, support)))
        if not integers or any(b <= a for a, b in zip(support, support[1:])) or len(support) != len(probs):
            raise ValidationError(f"support {support!r} is not {len(probs)} strictly increasing integers")
        probs = _checked_rows(support, probs.astype(_LD)[None])[0]
        nonzero = (probs != 0.0).tolist()
        object.__setattr__(self, "support", tuple(int(w) for w in compress(support, nonzero)))
        object.__setattr__(self, "probs", tuple(compress(probs, nonzero)))

    def prob(self, w: int):
        """Probability of work value w (0 when w is off-support)."""
        try:
            return self.probs[self.support.index(w)]
        except ValueError:
            return _LD(0.0)


def _f(beta: float) -> float:
    return beta / 2.0 - math.tanh(beta / 2.0)


def _g(beta: float) -> float:
    sech = 2.0 * math.exp(-beta) / (1.0 + math.exp(-2.0 * beta))
    return beta / (1.0 + sech) - math.tanh(beta / 2.0)


def f_beta(beta: float) -> float:
    """Local-coherence temperature profile beta/2 - tanh(beta/2); zero at beta = 0."""
    return _f(require_beta(beta))


def g_beta(beta: float) -> float:
    """Entanglement temperature profile beta/(1 + sech(beta)) - tanh(beta/2)."""
    return _g(require_beta(beta))


def profiles(betas) -> tuple[np.ndarray, np.ndarray]:
    """f(beta) and g(beta) at every beta of a grid, as float64 arrays: the grid is checked once,
    then each is one scalar evaluation per beta, as f_beta and g_beta make it."""
    betas = require_betas(betas).tolist()
    return np.array([_f(beta) for beta in betas]), np.array([_g(beta) for beta in betas])


def _checked_rows(support, probs: np.ndarray) -> np.ndarray:
    """Every row (the last axis, over support) of a probability array within PROB_CLAMP of [0, 1],
    clamped into it, and summing to 1 within NORMALIZATION_TOL; returns the clamped rows."""
    outside = ~((probs >= -PROB_CLAMP) & (probs <= 1.0 + PROB_CLAMP))
    if outside.any():
        where = tuple(np.argwhere(outside)[0])
        raise ValidationError(f"probability {float(probs[where])!r} at work {support[where[-1]]} is outside [0, 1]")
    probs = np.minimum(np.maximum(probs, _LD(0.0)), _LD(1.0))
    totals = np.sum(probs, axis=-1)
    off = ~(np.abs(totals.astype(np.float64) - 1.0) <= NORMALIZATION_TOL)
    if off.any():
        raise ValidationError(f"probabilities sum to {float(totals.flat[np.argmax(off)])!r}, expected 1")
    return probs


def _enumerate(populations: np.ndarray, transition: np.ndarray, energies) -> tuple[tuple[int, ...], np.ndarray]:
    # TPM enumeration, one row per (Born matrix, populations row) as their shapes broadcast (a matrix's with
    # a trailing 1): first outcome from the thermal populations, second from the Born matrix; equal work
    # values from degenerate outcome pairs aggregate, in first-then-second order.
    dim = len(energies)
    works = [[int(round(energies[second] - energies[first])) for second in range(dim)] for first in range(dim)]
    support = sorted({w for row in works for w in row})
    probs = np.zeros(np.broadcast(populations[..., 0], transition[..., 0, 0, None]).shape + (len(support),), dtype=_LD)
    for first in range(dim):
        terms = populations[..., first, None] * transition[..., None, :, first]  # [..., beta, second]
        for second in range(dim):
            probs[..., support.index(works[first][second])] += terms[..., second]
    return tuple(support), _checked_rows(support, probs)


def born_moduli(unitary: np.ndarray, dtype=_LD) -> np.ndarray:
    """Born matrix T[second, first] = |<second|U|first>|^2 of a checked unitary (of each of a stack), in dtype."""
    return np.abs(check_unitary(unitary)).astype(dtype) ** 2


def step_grid(betas, unitary: np.ndarray, energies=TWO_QUBIT_ENERGIES) -> tuple[tuple[int, ...], np.ndarray]:
    """Step distributions at every beta (each >= 0) by enumeration of the outcome pairs: the first from
    the Gibbs populations of energies, the second from born_moduli(unitary), the step's one unitary (two
    qubits: quench @ entangler) or each of a (k, d, d) stack; equal work values (the degenerate |01>/|10>
    levels) aggregate. Returns the sorted support and longdouble probability rows, zeros kept: one per
    beta, and of a stack one per (matrix, beta), (k, len(betas), .); (k, 1) betas pair matrix i with beta i."""
    dim = len(energies)
    if np.ndim(unitary) not in (2, 3) or np.shape(unitary)[-2:] != (dim, dim):
        raise UnsupportedDimensionError(f"{dim} levels take a {dim}x{dim} unitary, not shape {np.shape(unitary)}")
    populations = gibbs_populations(betas, energies, dtype=_LD)
    return _enumerate(populations, born_moduli(unitary), energies)


def step_distribution(beta: float, unitary: np.ndarray, energies=TWO_QUBIT_ENERGIES) -> WorkDistribution:
    """Work distribution of one step: the one-beta case of step_grid."""
    support, probs = step_grid([require_beta(beta)], unitary, energies)
    return WorkDistribution(support, probs[0])


def step_distribution_bipartite(beta: float, quench: np.ndarray, entangler: np.ndarray) -> WorkDistribution:
    """step_distribution of the two-qubit step quench @ entangler."""
    if np.shape(quench) != (4, 4) or np.shape(entangler) != (4, 4):
        raise UnsupportedDimensionError("bipartite step needs 4x4 quench and entangler")
    return step_distribution(beta, np.matmul(quench, entangler))


def _qubit_law(beta: float, delta_theta: float, x: float = 0.0) -> np.ndarray:
    # longdouble (P(-1), P(0), P(+1)) of one qubit's step R_X(delta_theta) R_X(x) from its Gibbs
    # state: s = sin^2((dth + x)/2) and w = exp(-beta). The sine is taken by the addition formula,
    # as the matrix product forms it, so it stays exact when |x| >> |dth|.
    w = np.exp(-_LD(beta))
    half_dth, half_x = _LD(delta_theta) / 2, _LD(x) / 2
    s = (np.sin(half_dth) * np.cos(half_x) + np.cos(half_dth) * np.sin(half_x)) ** 2
    return np.array([w * s / (1 + w), 1 - s, s / (1 + w)])


def closed_form_distribution_single(beta: float, delta_theta: float) -> WorkDistribution:
    """Closed-form single-qubit step distribution in longdouble: P(+-1) = sin^2(dth/2) * population."""
    beta = require_beta(beta)
    require_finite(delta_theta=delta_theta)
    return WorkDistribution((-1, 0, 1), _qubit_law(beta, delta_theta))


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
    tails = (w * w * k2 / denom, w * sin_sq / (2 * (1 + w)), sin_sq / (2 * (1 + w)), k2 / denom)  # w = -2, -1, 1, 2
    return WorkDistribution((-2, -1, 0, 1, 2), (*tails[:2], 1 - sum(tails), *tails[2:]))


def closed_form_distribution_separable(beta: float, delta_theta: float, c: float, m: float) -> WorkDistribution:
    """Closed-form two-qubit step distribution for a separable X-Z-X entangler, in longdouble.

    The step R_X(dth)R_X(c)R_Z(l) (x) R_X(dth)R_X(m)R_Z(n) is two independent qubits, so its law
    is the convolution of their two single-qubit laws, exact at any angle. The Z angles drop out:
    they only add phases to computational-basis columns.
    """
    beta = require_beta(beta)
    require_finite(delta_theta=delta_theta, c=c, m=m)
    law = np.convolve(_qubit_law(beta, delta_theta, c), _qubit_law(beta, delta_theta, m))
    return WorkDistribution((-2, -1, 0, 1, 2), law)


def _moments_rows(support, probs):
    # Zero entries, which a WorkDistribution drops, leave these sums unchanged
    # while a row has fewer than 8 entries: numpy then adds them in order from 0.
    support, probs = np.asarray(support, dtype=_LD), np.asarray(probs, dtype=_LD)
    mean = np.sum(support * probs, axis=-1)
    second = np.sum(support * support * probs, axis=-1)
    return mean, second - mean * mean


def moments(dist: WorkDistribution) -> tuple[float, float]:
    """First two cumulants (mean, variance) by direct summation."""
    mean, variance = _moments_rows(dist.support, [dist.probs])
    return float(mean[0]), float(variance[0])


def convolve_n(step: WorkDistribution, n: int) -> WorkDistribution:
    """Exact n-fold convolution of an integer-support distribution (n = 0: point mass).

    O(n * non-zero width): each convolution skips the exact zeros of underflowed tails,
    which add exact zeros to every sum, so the bits are those of the whole row: 0.37 s
    at N = 4000 and 2.45 s at N = 20,000 (README, design notes). Still n - 1 convolutions,
    so N = 1e19 never ends, and by N = 5000 the total can round more than 1e-12 off 1.
    The whole padded row goes to the WorkDistribution constructor, so its normalization
    sum sees the zeros too; that one check clamps the row and drops them.
    """
    n = require_int("n", n, minimum=0)
    if n == 0:
        return WorkDistribution((0,), (1.0,))
    lo, hi = step.support[0], step.support[-1]
    dense = np.zeros(hi - lo + 1, dtype=_LD)
    for w, p in zip(step.support, step.probs):
        dense[w - lo] = p
    window, start = dense, 0  # the row from index start on; every entry outside is exactly 0
    for _ in range(n - 1):
        window = np.convolve(window, dense)
        first, last = 0, len(window)  # keep len(dense) entries: np.convolve swaps a longer 2nd operand
        while first < last - len(dense) and window[first] == 0:
            first += 1
        while last > first + len(dense) and window[last - 1] == 0:
            last -= 1
        window, start = window[first:last], start + first
    row = np.zeros(n * (hi - lo) + 1, _LD)
    row[start : start + len(window)] = window
    return WorkDistribution(range(n * lo, n * lo + len(row)), row)


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


def q_grid(support, probs, betas, n) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cumulants and FDR correction over a grid: each row of probs (its last axis, over support) is
    a step distribution, of the protocol of n steps at the beta that broadcast to that row: a step_grid
    of one unitary takes its betas and an int n, one of a (k, d, d) stack a (k, 1) array of counts.
    Returns float64 arrays (mean_work, var_work, q_value) of the rows' shape.
    """
    betas = require_betas(betas).astype(_LD)
    n = np.array([require_int("n", count, minimum=1) for count in np.ravel(n).tolist()], dtype=_LD).reshape(np.shape(n))
    mean_step, var_step = _moments_rows(support, probs)
    mean_work = n * mean_step
    var_work = n * var_step
    q_value = (betas / 2) * var_work - mean_work
    return mean_work.astype(np.float64), var_work.astype(np.float64), q_value.astype(np.float64)


def q_correction(dist: WorkDistribution, beta: float, n: int) -> float:
    """FDR correction Q = (beta/2) * n * Var(w) - n * <w> of n independent steps of dist (cumulant
    additivity): the one-beta case of q_grid. Every unitary in scope preserves the spectrum, so
    the free-energy change is 0 and W_diss is the mean work."""
    return float(q_grid(dist.support, [dist.probs], [beta], n)[2][0])


def q_single_exact(n: int, beta: float, delta_theta: float) -> float:
    """Closed-form single-qubit correction N*sin^2(dth/2)*[(b/2)(1 - sin^2(dth/2)tanh^2(b/2)) - tanh(b/2)]."""
    n = require_int("n", n, minimum=1)
    beta = require_beta(beta)
    require_finite(delta_theta=delta_theta)
    s = math.sin(delta_theta / 2.0) ** 2
    t = math.tanh(beta / 2.0)
    return n * s * ((beta / 2.0) * (1.0 - s * t * t) - t)


def relative_gap(q_value, prediction) -> np.ndarray:
    """|Q - prediction| / |Q| at each point (of floats or of arrays), and 0 where Q is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(q_value != 0.0, np.abs(q_value - prediction) / np.abs(q_value), 0.0)


def small_angle_terms(terms, n, f, g, dth, params) -> tuple:
    """terms(n, f, g, dth, params), a small-angle (f_term, g_term) pair, of floats or of arrays over a beta
    grid; ValidationError naming an angle that is not a finite number, or if any of their sums overflows."""
    require_finite(dth=dth, **params)
    with np.errstate(over="ignore", invalid="ignore"):  # n * x gives inf and inf * 0 gives nan
        try:  # float ** raises past about 1.3e154
            f_term, g_term = terms(n, f, g, dth, params)
        except OverflowError:
            f_term = g_term = math.inf
        finite = np.isfinite(f_term + g_term)
    if not finite.all():
        raise ValidationError("angles too large: the small-angle prediction overflows a float")
    return f_term, g_term
