"""Seeded Monte Carlo simulation of full N-step TPM trajectories.

Random streams are counter-based: a Philox generator keyed by the master seed,
with trajectory i owning counter blocks [i*B, (i+1)*B) where B = ceil(2N/4)
(one block yields four 64-bit words) and draws ordered (step, outcome) with
two draws per step. Every trajectory is therefore reproducible in isolation,
and results depend only on (config, master_seed, trajectory count) -- never on
batching, scheduling, or worker count. Outcome sampling is inverse-CDF over at
most four outcomes, drawn from the Born amplitudes directly rather than from
the exact work-distribution pipeline, so statistical agreement with that
pipeline is an independent check. A scalar one-step-at-a-time version of the
batch kernel is kept in the test suite (tests/mc_oracle.py) as its oracle.

The batch kernel compares raw Philox words with integer thresholds, which
picks the same outcomes as the oracle's float uniforms (see _thresholds), and
a batch holds as many trajectories as fit in _DRAWS_PER_BATCH raw words, so
its memory does not grow with the trajectory count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Philox

from . import work_stats as ws
from .entanglers import DEFAULT_KIND, ENTANGLERS
from .errors import ContractViolationError, ValidationError, require_beta, require_finite, require_int
from .linalg import check_unitary
from .model import QubitHamiltonian, bipartite_quench, gibbs_populations

BORN_NORMALIZATION_TOL = 1e-10
_DRAWS_PER_STEP = 2
_WORDS_PER_BLOCK = 4
_DRAWS_PER_BATCH = 2**18  # raw words drawn per batch, padding included: about 2 MB
_UNIFORM_BITS = 53  # Generator.random keeps the top 53 bits of each raw Philox word


@dataclass(frozen=True, init=False)
class ProtocolConfig:
    """Two-qubit protocol description; angles are totals, per-step values are totals/n_steps.

    The entangler's totals are keywords total_<name>, one per total name of the
    kind's registry specs (total_phi for rxx, total_c1..total_c3 for cartan, ...),
    and are kept in `totals` under that name; an omitted total is 0.
    """

    beta: float
    n_steps: int
    total_theta: float
    entangler_kind: str
    totals: dict[str, float] = field(hash=False)  # unhashable; equal configs still hash equal

    def __init__(self, beta, n_steps, total_theta, entangler_kind=DEFAULT_KIND, **totals):
        object.__setattr__(self, "beta", require_beta(beta))
        object.__setattr__(self, "n_steps", require_int("n_steps", n_steps, minimum=1))
        if not isinstance(entangler_kind, str) or entangler_kind not in ENTANGLERS:
            raise ValidationError(f"entangler_kind must be one of {tuple(ENTANGLERS)}, got {entangler_kind!r}")
        require_finite(total_theta=total_theta, **totals)
        names = [spec.total for spec in ENTANGLERS[entangler_kind].params]
        values = {name: totals.pop(f"total_{name}", 0.0) for name in names}
        if totals:
            raise ValidationError(f"entangler {entangler_kind!r} takes no {', '.join(totals)}")
        object.__setattr__(self, "total_theta", total_theta)
        object.__setattr__(self, "entangler_kind", entangler_kind)
        object.__setattr__(self, "totals", values)

    @property
    def delta_theta(self) -> float:
        return self.total_theta / self.n_steps

    def step_params(self) -> dict[str, float]:
        """Per-step entangler parameters (total / n_steps), keyed by the registry specs' step names."""
        params = ENTANGLERS[self.entangler_kind].params
        return {spec.step: self.totals[spec.total] / self.n_steps for spec in params}

    def step_quench(self) -> np.ndarray:
        return bipartite_quench(self.delta_theta)

    def step_entangler(self) -> np.ndarray:
        return ENTANGLERS[self.entangler_kind].unitary(self.step_params())


@dataclass(frozen=True)
class SampleStats:
    """Monte Carlo work cumulants with standard errors and seed provenance."""

    n_trajectories: int
    mean_w: float
    var_w: float
    se_mean: float
    se_var: float
    q_estimate: float
    q_se: float
    master_seed: int


def exact_reference(config: ProtocolConfig) -> tuple[float, float, float]:
    """Exact (mean_W, var_W, q_value) a Monte Carlo run of config is compared with: the
    moments of the N-fold convolution of the step distribution, and the step's Q."""
    step = ws.step_distribution_bipartite(config.beta, config.step_quench(), config.step_entangler())
    mean_w, var_w = ws.moments(ws.convolve_n(step, config.n_steps))
    return mean_w, var_w, ws.q_correction(step, config.beta, config.n_steps).q_value


def _blocks_per_trajectory(n_steps: int) -> int:
    return (_DRAWS_PER_STEP * n_steps + _WORDS_PER_BLOCK - 1) // _WORDS_PER_BLOCK


def require_run(n_trajectories: int, master_seed: int, workers: int = 1) -> tuple[int, int, int]:
    """Check the trajectory count (>= 2), the master seed (a 64-bit Philox key) and the
    worker count (>= 1) of a Monte Carlo run; return them as ints."""
    return (
        require_int("n_trajectories", n_trajectories, minimum=2),
        require_int("master_seed", master_seed, minimum=0, maximum=2**64 - 1),
        require_int("workers", workers, minimum=1),
    )


def _born_matrix(quench: np.ndarray, entangler: np.ndarray) -> np.ndarray:
    """Column-stochastic Born matrix T[second, first] = |<second|quench@entangler|first>|^2."""
    quench = check_unitary(quench)
    entangler = check_unitary(entangler)
    transition = np.abs(quench @ entangler) ** 2
    column_sums = transition.sum(axis=0)
    deviation = float(np.max(np.abs(column_sums - 1.0)))
    if deviation > BORN_NORMALIZATION_TOL:
        raise ContractViolationError(
            f"Born probabilities fail to normalize: max |sum - 1| = {deviation:.3e}"
        )
    return transition / column_sums


def _thresholds(cdf: np.ndarray) -> np.ndarray:
    """uint64 t with (r >> 11) >= t exactly when (r >> 11) * 2**-53 >= cdf, the
    uniform Generator.random makes from the raw Philox word r."""
    return np.ceil(cdf * 2.0**_UNIFORM_BITS).astype(np.uint64)


def _simulate_batch(
    master_seed: int,
    start: int,
    count: int,
    n_steps: int,
    population_cdf: np.ndarray,
    born_cdf_rows: np.ndarray,
    energies: np.ndarray,
) -> np.ndarray:
    """Integer total work for trajectories [start, start+count), vectorized.

    An outcome is the number of CDF entries at or below its uniform, capped at
    the last outcome; as a CDF never decreases, that is the count over all
    entries but the last.
    """
    blocks = _blocks_per_trajectory(n_steps)
    first_thresholds = _thresholds(population_cdf[:-1])
    second_thresholds = _thresholds(born_cdf_rows[:, :-1])  # [first outcome, j]
    work = (energies - energies[:, None]).astype(np.int8).ravel()  # work[4*first + second]
    bits = Philox(key=np.uint64(master_seed))
    bits.advance(start * blocks)
    words = bits.random_raw(count * _WORDS_PER_BLOCK * blocks)
    words >>= np.uint64(64 - _UNIFORM_BITS)
    draws = words.reshape(count, -1, _DRAWS_PER_STEP)[:, :n_steps]
    first_draws, second_draws = draws[..., 0], draws[..., 1]
    # a bool array viewed as int8 holds 0 and 1: each pass adds one compare in place
    first = (first_draws >= first_thresholds[0]).view(np.int8)
    for threshold in first_thresholds[1:]:
        first += first_draws >= threshold
    # threshold j of each draw's Born row: column j taken at the draw's first outcome
    second = (second_draws >= second_thresholds[:, 0].take(first)).view(np.int8)
    for column in second_thresholds.T[1:]:
        second += second_draws >= column.take(first)
    first *= len(energies)
    first += second
    return work.take(first).sum(axis=1, dtype=np.int64)


def _power_sums(w: np.ndarray) -> tuple[int, int, int, int]:
    """Exact sums of w, w**2, w**3 and w**4 as Python ints; int64 powers wrap once |w| >= 55,109."""
    values, counts = np.unique(w, return_counts=True)
    pairs = list(zip(values.tolist(), counts.tolist()))
    return tuple(sum(c * v**k for v, c in pairs) for k in (1, 2, 3, 4))


def estimate(
    config: ProtocolConfig,
    n_trajectories: int,
    master_seed: int,
    workers: int = 1,
) -> SampleStats:
    """Monte Carlo estimate of the N-step work cumulants and the FDR correction.

    Parameters
    ----------
    config : ProtocolConfig
        Protocol to simulate.
    n_trajectories : int
        Number of independent trajectories, >= 2.
    master_seed : int
        Seed of the counter-based stream family: the 64-bit Philox key, in
        [0, 2**64).
    workers : int
        Thread count for batch processing, >= 1. A batch holds as many
        trajectories as fit in a fixed budget of raw Philox words (at least
        one), so its memory depends on N but not on n_trajectories. The
        reduction is over exact integer power sums, so the result is identical
        for any worker count or batch schedule.

    Returns
    -------
    SampleStats
        Sample mean/variance of W with standard errors (variance SE via the
        fourth central moment), and q_estimate = (beta/2)*var - mean with a
        delta-method standard error that keeps the mean-variance covariance.
    """
    n_trajectories, master_seed, workers = require_run(n_trajectories, master_seed, workers)
    hamiltonian = QubitHamiltonian.two_qubit()
    population_cdf = np.cumsum(gibbs_populations(config.beta, hamiltonian))
    born = _born_matrix(config.step_quench(), config.step_entangler())
    born_cdf_rows = np.cumsum(born, axis=0).T.copy()
    energies = np.asarray(hamiltonian.energies, dtype=np.int64)

    per_batch = max(1, _DRAWS_PER_BATCH // (_WORDS_PER_BLOCK * _blocks_per_trajectory(config.n_steps)))
    batches = [
        (start, min(per_batch, n_trajectories - start)) for start in range(0, n_trajectories, per_batch)
    ]

    def power_sums(batch: tuple[int, int]) -> tuple[int, int, int, int]:
        start, count = batch
        return _power_sums(
            _simulate_batch(master_seed, start, count, config.n_steps, population_cdf, born_cdf_rows, energies)
        )

    with ThreadPoolExecutor(max_workers=workers) as pool:
        partials = list(pool.map(power_sums, batches))

    s1 = sum(p[0] for p in partials)
    s2 = sum(p[1] for p in partials)
    s3 = sum(p[2] for p in partials)
    s4 = sum(p[3] for p in partials)

    n = n_trajectories
    mean = s1 / n
    sample_var = (s2 - s1 * s1 / n) / (n - 1)
    m3 = (s3 - 3.0 * mean * s2 + 2.0 * n * mean**3) / n
    m4 = (s4 - 4.0 * mean * s3 + 6.0 * mean**2 * s2 - 3.0 * n * mean**4) / n
    se_mean = math.sqrt(max(sample_var, 0.0) / n)
    var_of_var = max(m4 - (n - 3) / (n - 1) * sample_var**2, 0.0) / n
    se_var = math.sqrt(var_of_var)
    half_beta = config.beta / 2.0
    q_estimate = half_beta * sample_var - mean
    q_var = max(
        half_beta**2 * var_of_var + max(sample_var, 0.0) / n - 2.0 * half_beta * m3 / n, 0.0
    )
    return SampleStats(
        n_trajectories=n,
        mean_w=mean,
        var_w=sample_var,
        se_mean=se_mean,
        se_var=se_var,
        q_estimate=q_estimate,
        q_se=math.sqrt(q_var),
        master_seed=master_seed,
    )
