"""Seeded Monte Carlo simulation of full N-step TPM trajectories.

Random streams are counter-based: a Philox generator keyed by the master seed,
with trajectory i owning counter blocks [i*B, (i+1)*B) where B = ceil(2N/4)
(one block yields four 64-bit words) and draws ordered (step, outcome) with two
draws per step; a kernel call builds its generator from key and counter alone,
np.random.Philox(key=master_seed, counter=block). Every trajectory is therefore
reproducible in isolation, and results depend only on (config, master_seed,
trajectory count) -- never on batching, scheduling, or worker count. Outcome
sampling is inverse-CDF over at most four outcomes, drawn from the step's Born
moduli (work_stats.born_moduli, in float64) rather than from the enumerated
work distribution, so statistical agreement with the enumeration checks it. A
scalar one-step-at-a-time version of the batch kernel is kept in the test suite
(tests/mc_oracle.py) as its oracle.
"""

import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import work_stats as ws
from .entanglers import ProtocolConfig  # what estimate and sample take; callers import it from here too
from .errors import ValidationError, require_int
from .model import TWO_QUBIT_ENERGIES, gibbs_populations

_DRAWS_PER_STEP = 2
_WORDS_PER_BLOCK = 4
_DRAWS_PER_BATCH = 2**17  # raw words drawn per kernel call, padding included: 1 MB
_DRAWS_PER_PIECE = 2**14  # raw words a kernel call draws at once: 128 KB, which stays in L2
_UNIFORM_BITS = 53  # Generator.random keeps the top 53 bits of each raw Philox word
_FLAGGED_SHARE_MAX = 0.125  # the band filter runs when at most this share of second draws leaves the band
_BETA_MAX = 2.0 * math.sqrt(sys.float_info.max)  # the largest beta whose (beta/2)**2 is a finite float
_RISES = np.diff(np.asarray(TWO_QUBIT_ENERGIES, dtype=np.int64))  # E[j+1] - E[j] of the two-qubit levels


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

    def z_scores(self, reference: tuple[float, float, float]) -> tuple[float, float, float]:
        """(mean_W, var_W, Q) z-scores against an exact (mean_W, var_W, q_value); 0.0 where the SE is 0."""
        pairs = zip((self.mean_w, self.var_w, self.q_estimate), reference, (self.se_mean, self.se_var, self.q_se))
        return tuple((value - exact) / se if se else 0.0 for value, exact, se in pairs)


def exact_reference(config: ProtocolConfig) -> tuple[float, float, float]:
    """Exact (mean_W, var_W, q_value) a Monte Carlo run of config is compared with: the
    moments of the N-fold convolution of the step distribution, and the step's Q."""
    step = ws.step_distribution(config.beta, config.step_unitary())
    mean_w, var_w = ws.moments(ws.convolve_n(step, config.n_steps))
    return mean_w, var_w, ws.q_correction(step, config.beta, config.n_steps)


def _blocks_per_trajectory(n_steps: int) -> int:
    return (_DRAWS_PER_STEP * n_steps + _WORDS_PER_BLOCK - 1) // _WORDS_PER_BLOCK


def _tile(budget: int, n_steps: int) -> tuple[int, int]:
    """(trajectories, steps) of a tile of at most budget raw words: as many whole trajectories of
    n_steps as fit, at least one, or for a longer trajectory as many whole Philox blocks of its steps."""
    words = _WORDS_PER_BLOCK * _blocks_per_trajectory(n_steps)
    if words <= budget:
        return budget // words, n_steps
    return 1, min(n_steps, _WORDS_PER_BLOCK // _DRAWS_PER_STEP * max(1, budget // _WORDS_PER_BLOCK))


def require_run(n_trajectories: int, master_seed: int, workers: int = 1) -> tuple[int, int, int]:
    """Check the trajectory count (>= 2), the master seed (a 64-bit Philox key) and the
    worker count (>= 1) of a Monte Carlo run; return them as ints."""
    return (
        require_int("n_trajectories", n_trajectories, minimum=2),
        require_int("master_seed", master_seed, minimum=0, maximum=2**64 - 1),
        require_int("workers", workers, minimum=1),
    )


def _born_matrix(unitary: np.ndarray) -> np.ndarray:
    """Column-stochastic Born matrix T[second, first] = |<second|unitary|first>|^2 in float64: column j
    sums to (U^dagger U)_jj, which check_unitary (in born_moduli) holds within 1e-12 of 1, before division."""
    transition = ws.born_moduli(unitary, dtype=np.float64)
    return transition / transition.sum(axis=0)


def _thresholds(cdf: np.ndarray) -> np.ndarray:
    """uint64 t with (r >> 11) >= t exactly when (r >> 11) * 2**-53 >= cdf, the
    uniform Generator.random makes from the raw Philox word r."""
    return np.ceil(cdf * 2.0**_UNIFORM_BITS).astype(np.uint64)


def _band(second_thresholds: np.ndarray):
    """The band filter's flag test: of raw second words r [trajectory, step], the flat indices trajectory
    * steps + step of the words outside the band that keeps every first outcome. A draw d keeps f when
    T[f, f-1] <= d < T[f, f], so one in [max_f T[f, f-1], min_f T[f, f]) does no work, and d >= T exactly
    when r >= T * 2**11. None where more than _FLAGGED_SHARE_MAX of the words leave the band."""
    low = int(np.diagonal(second_thresholds, -1).max()) << (64 - _UNIFORM_BITS)
    high = int(np.diagonal(second_thresholds).min()) << (64 - _UNIFORM_BITS)
    width = min(high, 2**64 - 1) - low  # a band up to 2**64 drops its top word, which is then flagged
    if width <= 0 or 1.0 - width / 2**64 > _FLAGGED_SHARE_MAX:
        return None
    low, width = np.uint64(low), np.uint64(width)
    return lambda second_words: np.flatnonzero(second_words - low >= width)  # a word below low wraps past width


def _simulate_batch(
    master_seed: int,
    start: int,
    count: int,
    n_steps: int,
    population_cdf: np.ndarray,
    born_cdf_rows: np.ndarray,
    first_step: int,
    last_step: int,
) -> np.ndarray:
    """Integer work of steps [first_step, last_step) of trajectories [start, start+count),
    vectorized with no Born-row gather; every array is allocated here and freed on return. Each
    piece of words is used as it arrives: filtered, it keeps its flagged steps' words; dense, it is
    shifted into the draws' space, 16 bytes a step. The staircase's int8 arrays take 6 bytes a step
    that runs.

    A step's work is a sum over the rises of the levels in ascending energy,
    W = sum_j (E[j+1] - E[j]) * ([second >= j+1] - [first >= j+1]): an outcome lies at or above level
    j+1 exactly when its draw reaches threshold j. The degenerate |01>/|10> rise of 0 is skipped.

    A partial range must start at an even step (a Philox block holds two steps)
    and is for a single trajectory, whose words are then contiguous.
    """
    steps = last_step - first_step
    first_thresholds = _thresholds(population_cdf[:-1])
    second_thresholds = _thresholds(born_cdf_rows[:, :-1])  # [first outcome, j]
    flag = _band(second_thresholds)
    block = start * _blocks_per_trajectory(n_steps) + first_step // _DRAWS_PER_STEP
    per_piece, steps_per_piece = _tile(_DRAWS_PER_PIECE, steps)
    # the stream keyed by master_seed, from counter block `block` on (numpy loads np.random at its first use)
    generator = np.random.Philox(key=np.uint64(master_seed), counter=block)
    if flag is None:
        draws = np.empty((_DRAWS_PER_STEP, count, steps), np.uint64)  # [outcome, trajectory, step]
    # per piece with a flagged step, those steps' flat indices trajectory * steps + step and [step, outcome] words
    flagged = [(np.empty(0, np.intp), np.empty((0, _DRAWS_PER_STEP), np.uint64))]
    for begin in range(0, count, per_piece):
        end = min(begin + per_piece, count)
        for first in range(0, steps, steps_per_piece):
            last = min(first + steps_per_piece, steps)
            size = (end - begin) * _WORDS_PER_BLOCK * _blocks_per_trajectory(last - first)  # padding last
            pairs = generator.random_raw(size).reshape(end - begin, -1, _DRAWS_PER_STEP)[:, : last - first]
            if flag is None:
                np.right_shift(np.moveaxis(pairs, -1, 0), np.uint64(64 - _UNIFORM_BITS),
                               out=draws[:, begin:end, first:last])  # interleaved words to contiguous draws
            elif (moving := flag(pairs[..., 1])).size:
                # a piece is whole trajectories (first is 0) or steps of one (moving < last - first)
                flagged.append((moving + (begin * steps + first), pairs.reshape(-1, _DRAWS_PER_STEP)[moving]))
            del pairs  # one piece at a time: freed before the next is drawn
    if flag is not None:
        trajectories = np.concatenate([piece[0] for piece in flagged]) // steps
        draws = np.concatenate([piece[1] for piece in flagged]).T >> np.uint64(64 - _UNIFORM_BITS)  # [outcome, step]
    first_draws, second_draws = draws
    # [first >= k+1] as int8 0/1: a bool array viewed as int8
    first_above = [(first_draws >= threshold).view(np.int8) for threshold in first_thresholds]
    reached, term = np.empty((2, *first_draws.shape), np.int8)
    work = np.zeros(first_draws.shape, np.int8)
    for j in np.flatnonzero(_RISES):
        # the staircase: [second >= j+1] is c_f, f the first outcome and c_k the second draw against row k's
        # threshold j; reached goes from c_0 to c_{k+1} where [first >= k+1], skipping rows that share j
        column = second_thresholds[:, j]
        np.greater_equal(second_draws, column[0], out=reached.view(np.bool_))
        for k in np.flatnonzero(column[1:] != column[:-1]):
            np.greater_equal(second_draws, column[k + 1], out=term.view(np.bool_))
            term -= reached
            term *= first_above[k]
            reached += term
        reached -= first_above[j]
        reached *= np.int8(_RISES[j])
        work += reached
    if flag is None:
        return work.sum(axis=1, dtype=np.int64)
    # exact in float64: |total| <= 2 * steps < 2**53
    return np.bincount(trajectories, weights=work, minlength=count).astype(np.int64)


def _power_sums(w: np.ndarray) -> tuple[int, int, int, int]:
    """Exact sums of w, w**2, w**3 and w**4 as Python ints; int64 powers wrap once |w| >= 55,109."""
    values, counts = np.unique(w, return_counts=True)
    pairs = list(zip(values.tolist(), counts.tolist()))
    return tuple(sum(c * v**k for v, c in pairs) for k in (1, 2, 3, 4))


def sample(config: ProtocolConfig, n_trajectories: int, master_seed: int, workers: int = 1) -> tuple:
    """(exact_reference(config), estimate(config, n_trajectories, master_seed, workers)), the reference
    computed on the calling thread (not one of workers) while the worker threads run the batches. An
    exception there (a refused reference, a KeyboardInterrupt, ...) stops every worker within one kernel
    call and propagates. Both sides refuse a step only in check_unitary, with the same message."""
    return _run(config, n_trajectories, master_seed, workers, exact_reference)


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
        Protocol to simulate; ValidationError if its beta is above 2.68e154.
    n_trajectories : int
        Number of independent trajectories, >= 2.
    master_seed : int
        Seed of the counter-based stream family: the 64-bit Philox key, in
        [0, 2**64).
    workers : int
        Most threads to use, >= 1: a run uses min(workers, batch count), and
        thread w runs every threads-th batch from batch w, so the schedule
        holds no per-batch or per-worker state. A batch is cut to a fixed
        budget of raw Philox words (see _tile), so its memory depends on
        neither N nor n_trajectories. Exact integer power sums make the
        result identical for any worker count or batch schedule.

    Returns
    -------
    SampleStats
        Sample mean/variance of W with standard errors (variance SE via the
        fourth central moment), and q_estimate = (beta/2)*var - mean with a
        delta-method standard error that keeps the mean-variance covariance.
    """
    return _run(config, n_trajectories, master_seed, workers, lambda config: None)[1]


def _run(config, n_trajectories, master_seed, workers, meanwhile) -> tuple[object, SampleStats]:
    """(meanwhile(config), estimate's SampleStats), meanwhile called while the batches run."""
    n_trajectories, master_seed, workers = require_run(n_trajectories, master_seed, workers)
    if config.beta > _BETA_MAX:  # q_var's half_beta**2 would raise OverflowError after the whole run
        raise ValidationError(f"beta must be in [0, {_BETA_MAX!r}] for the Monte Carlo, got {config.beta!r}")
    population_cdf = np.cumsum(gibbs_populations(config.beta, TWO_QUBIT_ENERGIES))
    born_cdf_rows = np.cumsum(_born_matrix(config.step_unitary()), axis=0).T.copy()

    n_steps = config.n_steps
    per_batch, chunk = _tile(_DRAWS_PER_BATCH, n_steps)  # chunk: steps per kernel call
    threads = min(workers, -(-n_trajectories // per_batch))
    stopped = threading.Event()

    def power_sums(thread: int) -> list[int]:
        sums = [0, 0, 0, 0]
        for start in range(thread * per_batch, n_trajectories, threads * per_batch):
            count = min(per_batch, n_trajectories - start)
            totals = 0
            for first in range(0, n_steps, chunk):
                if stopped.is_set():  # the calling thread raised; these sums are dropped
                    return sums
                totals += _simulate_batch(
                    master_seed, start, count, n_steps, population_cdf, born_cdf_rows,
                    first, min(first + chunk, n_steps),
                )
            sums = [a + b for a, b in zip(sums, _power_sums(totals))]
        return sums

    with ThreadPoolExecutor(max_workers=threads) as pool:
        try:
            tasks = [pool.submit(power_sums, thread) for thread in range(threads)]
            reference = meanwhile(config)
            s1, s2, s3, s4 = (sum(column) for column in zip(*(task.result() for task in tasks)))
        except BaseException:
            stopped.set()  # every worker returns before its next kernel call
            raise

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
    return reference, SampleStats(
        n_trajectories=n,
        mean_w=mean,
        var_w=sample_var,
        se_mean=se_mean,
        se_var=se_var,
        q_estimate=q_estimate,
        q_se=math.sqrt(q_var),
        master_seed=master_seed,
    )
