"""Monte Carlo sampler: determinism, statistical agreement with the exact pipeline."""

import dataclasses
import inspect
import math
import sys
import threading
import tracemalloc
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.random import Generator, Philox

from workfdr import (
    ContractViolationError,
    ProtocolConfig,
    SampleStats,
    ValidationError,
    estimate,
    identity,
)
from workfdr import sampler
from workfdr.entanglers import ENTANGLERS
from workfdr.model import TWO_QUBIT_ENERGIES, gibbs_populations
from workfdr.sampler import (
    _blocks_per_trajectory,
    _born_matrix,
    _power_sums,
    _simulate_batch,
    exact_reference,
    sample,
)
from workfdr.work_stats import convolve_n, moments, step_distribution

from mc_oracle import _pick, run_protocol, sample_step, trajectory_stream


def kernel_inputs(config):
    """(population_cdf, born_cdf_rows) of config, as the sampler passes them to its kernel."""
    population_cdf = np.cumsum(gibbs_populations(config.beta, TWO_QUBIT_ENERGIES))
    return population_cdf, np.cumsum(_born_matrix(config.step_unitary()), axis=0).T.copy()


def batch_works(config, master_seed, start, count):
    return _simulate_batch(master_seed, start, count, config.n_steps, *kernel_inputs(config), 0, config.n_steps)


def oracle_total(config, pairs):
    """The scalar oracle's total work over the raw (first, second) words of config's steps, one row a step."""
    population_cdf = np.cumsum(gibbs_populations(config.beta, TWO_QUBIT_ENERGIES))
    born = _born_matrix(config.step_unitary())
    total = 0
    for first_word, second_word in pairs.tolist():
        first = _pick(population_cdf, (first_word >> 11) * 2.0**-53)
        second = _pick(np.cumsum(born[:, first]), (second_word >> 11) * 2.0**-53)
        total += round(TWO_QUBIT_ENERGIES[second] - TWO_QUBIT_ENERGIES[first])
    return total


def test_identity_dynamics_yields_zero_work():
    config = ProtocolConfig(beta=1.0, n_steps=12, total_theta=0.0)
    assert all(run_protocol(config, i, 7) == 0 for i in range(5))
    stats = estimate(config, 500, 7)
    assert stats.mean_w == 0.0 and stats.var_w == 0.0 and stats.q_estimate == 0.0


def test_work_stays_within_support_bound():
    config = ProtocolConfig(beta=0.3, n_steps=9, total_theta=2.5, entangler_kind="rxx", total_phi=2.0)
    works = batch_works(config, 11, 0, 400)
    assert np.all(np.abs(works) <= 2 * config.n_steps)


def test_run_protocol_is_deterministic_and_matches_vectorized_path():
    config = ProtocolConfig(
        beta=1.0, n_steps=13, total_theta=0.8, entangler_kind="cartan",
        total_c1=0.6, total_c2=0.1, total_c3=0.4,
    )
    scalar = [run_protocol(config, i, 123) for i in range(40)]
    assert scalar == [run_protocol(config, i, 123) for i in range(40)]
    assert scalar == list(batch_works(config, 123, 0, 40))
    # partition independence: any starting offset reproduces the same works
    assert scalar[25:] == list(batch_works(config, 123, 25, 15))


def test_estimate_is_independent_of_worker_count():
    config = ProtocolConfig(beta=1.0, n_steps=20, total_theta=0.5, entangler_kind="rxx", total_phi=0.5)
    reference = estimate(config, 30000, 42, workers=1)
    # 10 batches: 50 workers are more workers than batches
    for workers in (2, 3, 8, 50):
        assert estimate(config, 30000, 42, workers=workers) == reference
    assert sample(config, 30000, 42, workers=3)[1] == reference


def test_estimate_uses_no_more_threads_than_batches(monkeypatch):
    starts, start, run = [], threading.Thread.start, sampler._run  # the threads each run starts

    def counted_start(thread):
        starts[-1] += 1
        start(thread)

    def counted_run(*args):
        starts.append(0)
        return run(*args)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    monkeypatch.setattr(sampler, "_run", counted_run)
    config = ProtocolConfig(beta=1.0, n_steps=20, total_theta=0.5, entangler_kind="rxx", total_phi=0.5)
    estimate(config, 2, 7, workers=50)
    estimate(config, 30000, 42, workers=50)
    estimate(config, 30000, 42, workers=4)
    # workers counts Monte Carlo threads: the calling thread, which computes the reference, is not one
    sample(config, 30000, 42, workers=4)
    sample(config, 2, 7, workers=50)
    assert starts == [1, 10, 4, 4, 1]


def test_a_worker_exception_is_raised_once_every_worker_is_joined(monkeypatch):
    # the first batch fails on its worker thread: the other workers stop within a kernel call or two, where
    # unstopped they would make 306 calls
    kernel, calls = sampler._simulate_batch, []

    def failing(*args):
        calls.append(args[1])  # the batch start
        if args[1] == 0:
            raise MemoryError("the first batch")
        return kernel(*args)

    monkeypatch.setattr(sampler, "_simulate_batch", failing)
    config = ProtocolConfig(beta=1.0, n_steps=20, total_theta=0.5, entangler_kind="rxx", total_phi=0.5)
    before = threading.enumerate()
    with pytest.raises(MemoryError, match="the first batch"):
        estimate(config, 10**6, 42, workers=4)
    assert threading.enumerate() == before and len(calls) < 50, len(calls)


@pytest.mark.parametrize("kind", list(ENTANGLERS))
def test_sample_is_the_exact_reference_and_estimate(kind):
    totals = {f"total_{spec.total}": 0.3 + 0.1 * i for i, spec in enumerate(ENTANGLERS[kind].params)}
    config = ProtocolConfig(beta=0.8, n_steps=20, total_theta=0.5, entangler_kind=kind, **totals)
    reference = exact_reference(config)
    for workers in (1, 3, 8):  # 4 batches of 3,276 trajectories
        expected = (reference, estimate(config, 10_000, 9, workers=workers))
        assert repr(sample(config, 10_000, 9, workers=workers)) == repr(expected)


def test_sample_raises_the_reference_error_when_both_sides_refuse(monkeypatch):
    # a run-time kind whose step is not unitary: both sides refuse it in check_unitary, alike
    def must_not_run(*args):
        raise AssertionError("a Monte Carlo batch ran on a refused step")

    shrunk = dataclasses.replace(ENTANGLERS["none"], unitary=lambda p: 0.9 * identity(4))
    monkeypatch.setitem(ENTANGLERS, "shrunk", shrunk)
    monkeypatch.setattr(sampler, "_simulate_batch", must_not_run)
    config = ProtocolConfig(beta=1.0, n_steps=20, total_theta=0.5, entangler_kind="shrunk")
    with pytest.raises(ContractViolationError, match="not unitary") as reference_error:
        exact_reference(config)
    for workers in (1, 3):
        with pytest.raises(ContractViolationError) as sample_error:
            sample(config, 1000, 3, workers=workers)
        assert str(sample_error.value) == str(reference_error.value)


@pytest.mark.parametrize("error", [ValidationError("reference refused"), KeyboardInterrupt()])
@pytest.mark.parametrize("n_steps, n_trajectories", [(20, 10_000_000), (200_000, 1000)])  # the second is chunked
def test_an_exception_on_the_calling_thread_stops_the_batches(monkeypatch, error, n_steps, n_trajectories):
    # unstopped, each run would make thousands of kernel calls (3,052 batches; 4 chunks a trajectory)
    config = ProtocolConfig(beta=1.0, n_steps=n_steps, total_theta=0.5, entangler_kind="rxx", total_phi=0.5)
    started, raised = threading.Event(), threading.Event()
    late = []  # the thread of each kernel call begun after the reference raised

    def recording(*args):
        if raised.is_set():
            late.append(threading.get_ident())
        started.set()
        return _simulate_batch(*args)

    def failing(config):
        assert started.wait(60)
        raised.set()
        raise error

    monkeypatch.setattr(sampler, "_simulate_batch", recording)
    monkeypatch.setattr(sampler, "exact_reference", failing)
    for workers in (1, 3):  # 3: more workers than the two cores of a small host
        started.clear()
        raised.clear()
        late.clear()
        with pytest.raises(type(error)):
            sample(config, n_trajectories, 5, workers=workers)
        threads = Counter(late)
        assert len(threads) <= workers and all(calls == 1 for calls in threads.values()), threads


def test_per_step_histogram_matches_exact_distribution():
    config = ProtocolConfig(beta=0.7, n_steps=1, total_theta=0.4, entangler_kind="rxx", total_phi=0.6)
    n_draws = 1_000_000
    works = batch_works(config, 2024, 0, n_draws)
    exact = step_distribution(config.beta, config.step_unitary())
    counts = {w: int(np.sum(works == w)) for w in exact.support}
    for w, p in zip(exact.support, exact.probs):
        p = float(p)
        se = math.sqrt(p * (1.0 - p) / n_draws)
        assert abs(counts[w] / n_draws - p) <= 5.0 * se, f"work {w} off by > 5 SE"
    # chi-squared goodness of fit at significance 1e-3: the statistic's upper tail under k - 1 degrees of
    # freedom, with the totals agreeing to sqrt(eps), as scipy.stats.chisquare requires
    observed = np.array([counts[w] for w in exact.support])
    expected = np.array([float(p) * n_draws for p in exact.probs])
    assert abs(observed.sum() - expected.sum()) <= 2**-26 * min(observed.sum(), expected.sum())
    statistic = float(np.sum((observed - expected) ** 2 / expected))
    p_value = mpmath.gammainc((len(observed) - 1) / 2, statistic / 2, mpmath.inf, regularized=True)
    assert p_value > 1e-3


def test_low_temperature_first_outcome_is_ground_state():
    # at beta = 50 the excited weights are ~e^-50, so 1e5 draws all start in
    # the ground state; a pi rotation then flips both qubits: W = +2 every time
    config = ProtocolConfig(beta=50.0, n_steps=1, total_theta=math.pi)
    works = batch_works(config, 5, 0, 100_000)
    assert np.all(works == 2)


def test_empirical_jarzynski_for_short_protocols():
    config = ProtocolConfig(beta=1.0, n_steps=15, total_theta=0.9, entangler_kind="rxx", total_phi=0.7)
    works = batch_works(config, 77, 0, 100_000).astype(np.float64)
    values = np.exp(-config.beta * works)
    mean = values.mean()
    se = values.std(ddof=1) / math.sqrt(len(values))
    assert abs(mean - 1.0) <= 5.0 * se


def test_estimate_matches_exact_cumulants():
    config = ProtocolConfig(beta=1.0, n_steps=50, total_theta=0.5, entangler_kind="rxx", total_phi=0.5)
    result = estimate(config, 100_000, 42)
    step = step_distribution(config.beta, config.step_unitary())
    mean_ref, var_ref = moments(convolve_n(step, config.n_steps))
    assert abs(result.mean_w - mean_ref) <= 5.0 * result.se_mean
    assert abs(result.var_w - var_ref) <= 5.0 * result.se_var


def _born_orientation_z_scores(monkeypatch, unitary, beta, n_steps, n_trajectories):
    """z-scores (mean, var) of estimate's run of n_steps of unitary against the exact N-step law of
    unitary and against the law of its transposed Born matrix, the law of unitary^dagger."""
    monkeypatch.setattr(ProtocolConfig, "step_unitary", lambda self: unitary)
    stats = estimate(ProtocolConfig(beta=beta, n_steps=n_steps, total_theta=0.0), n_trajectories, 3)
    scores = []
    for law in (unitary, unitary.conj().T):
        mean, var = (n_steps * m for m in moments(step_distribution(beta, law)))  # cumulants add over steps
        scores.append(((stats.mean_w - mean) / stats.se_mean, (stats.var_w - var) / stats.se_var))
    return scores


def test_the_monte_carlo_draws_the_second_outcome_from_the_born_column_of_the_first(monkeypatch):
    # every registry kind's law is the same for U and U^dagger, so only a unitary whose Born matrix is
    # not symmetric shows the Monte Carlo reading T[second, first] = |U[second, first]|**2 the right way
    def complex_gaussian(seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))

    q, r = np.linalg.qr(complex_gaussian(2026))
    dense = q * (np.diagonal(r) / np.abs(np.diagonal(r)))  # Haar random
    generator = complex_gaussian(4)
    values, vectors = np.linalg.eigh(generator + generator.conj().T)
    near_identity = (vectors * np.exp(-0.066j * values)) @ vectors.conj().T  # its asymmetry is third order
    for unitary, n_steps, n_trajectories, filtered in ((dense, 1, 200_000, False),
                                                       (near_identity, 50, 200_000, True)):
        born = _born_matrix(unitary)
        assert np.max(np.abs(born - born.T)) > 1e-3
        assert (sampler._band(sampler._thresholds(np.cumsum(born, axis=0).T[:, :-1])) is not None) == filtered
        (z_mean, z_var), (z_mean_t, z_var_t) = _born_orientation_z_scores(
            monkeypatch, unitary, 2.0, n_steps, n_trajectories)
        assert abs(z_mean) <= 5.0 and abs(z_var) <= 5.0, (n_steps, z_mean, z_var)
        assert abs(z_mean_t) >= 10.0 and abs(z_var_t) >= 10.0, (n_steps, z_mean_t, z_var_t)


def test_se_scales_like_inverse_sqrt_n():
    config = ProtocolConfig(beta=1.0, n_steps=10, total_theta=0.6, entangler_kind="rxx", total_phi=0.4)
    ratios = []
    for seed in (1, 2, 3, 4):
        se_small = estimate(config, 20_000, seed).se_mean
        se_large = estimate(config, 40_000, seed).se_mean
        ratios.append(se_large / se_small)
    target = 1.0 / math.sqrt(2.0)
    assert all(0.8 * target <= r <= 1.2 * target for r in ratios)


def test_sample_step_draws_and_born_contract():
    config = ProtocolConfig(beta=1.0, n_steps=3, total_theta=0.7, entangler_kind="rxx", total_phi=0.3)
    stream = trajectory_stream(9, 0, config.n_steps)
    first, second, work = sample_step(config.beta, config.step_unitary(), stream)
    assert first in range(4) and second in range(4)
    assert work == [0, 1, 1, 2][second] - [0, 1, 1, 2][first]
    with pytest.raises(ContractViolationError):
        sample_step(1.0, 0.9 * identity(4), stream)


def test_born_normalization_check_rejects_nan():
    # the Born matrix is normalized only after check_unitary holds each column sum within 1e-12 of 1
    nan = np.full((4, 4), np.nan, dtype=complex)
    with pytest.raises(ContractViolationError, match="not unitary"):
        _born_matrix(nan)


def test_z_scores_are_zero_where_a_standard_error_is_zero():
    stats = SampleStats(n_trajectories=4, mean_w=0.5, var_w=2.0, se_mean=0.25, se_var=0.0,
                        q_estimate=1.5, q_se=0.0, master_seed=0)
    assert stats.z_scores((0.0, 1.0, 1.0)) == (2.0, 0.0, 0.0)
    # a run whose every trajectory does the same work: every standard error is 0
    config = ProtocolConfig(beta=1.0, n_steps=3, total_theta=0.0)
    reference, stats = sample(config, 100, 1)
    assert (stats.se_mean, stats.se_var, stats.q_se) == (0.0, 0.0, 0.0)
    assert stats.z_scores(reference) == (0.0, 0.0, 0.0)


def test_integer_thresholds_agree_with_float_uniforms():
    # Philox's Generator.random is the top 53 bits of the raw word times 2**-53
    raw = Philox(key=np.uint64(9)).random_raw(1000)
    assert np.array_equal(Generator(Philox(key=np.uint64(9))).random(1000), (raw >> np.uint64(11)) * 2.0**-53)
    populations = np.cumsum(gibbs_populations(50.0, TWO_QUBIT_ENERGIES))
    for c in [0.0, 5e-324, 2.0**-53, 0.3, 0.5, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, *populations]:
        t = int(sampler._thresholds(np.array([c]))[0])
        for k in (t - 1, t, t + 1):
            if 0 <= k < 2**53:
                assert (k >= t) == (k * 2.0**-53 >= c), (c, k)


# odd N (two padding draws per trajectory), beta = 0, 1e-300, 50 and 700
# (population thresholds at 1/4 steps, or at or next to 1.0), theta = 0 and
# pi (Born rows of exact or near 0 and 1), and every kind; each repeats a Born
# threshold, so the kernel's staircase skips a term
EDGE_CONFIGS = {
    "odd_n": ProtocolConfig(beta=0.8, n_steps=7, total_theta=6.0, entangler_kind="cartan",
                            total_c1=3.0, total_c2=-1.0, total_c3=2.0),
    "beta_0": ProtocolConfig(beta=0.0, n_steps=6, total_theta=0.9, entangler_kind="rxx", total_phi=1.4),
    "beta_1e-300": ProtocolConfig(beta=1e-300, n_steps=5, total_theta=1.2, entangler_kind="rxx", total_phi=0.5),
    "beta_50": ProtocolConfig(beta=50.0, n_steps=5, total_theta=2.0, entangler_kind="rxx", total_phi=0.7),
    "beta_700": ProtocolConfig(beta=700.0, n_steps=5, total_theta=1.2, entangler_kind="rxx", total_phi=0.5),
    "theta_0": ProtocolConfig(beta=1.0, n_steps=8, total_theta=0.0),
    "rxx_theta_0": ProtocolConfig(beta=1.0, n_steps=6, total_theta=0.0, entangler_kind="rxx", total_phi=0.7),
    "rxx_theta_pi": ProtocolConfig(beta=1.0, n_steps=5, total_theta=5 * math.pi, entangler_kind="rxx",
                                   total_phi=0.9),
    # c = -theta: qubit A's X angle undoes its quench, so only qubit B moves
    "separable_xzx": ProtocolConfig(beta=0.6, n_steps=5, total_theta=1.1, entangler_kind="separable_xzx",
                                    total_c=-1.1, total_l=0.3, total_m=-0.4, total_nz=0.5),
    "none": ProtocolConfig(beta=1.3, n_steps=4, total_theta=0.8),
}
EDGE_COUNT = 23


def _band(config):
    """The kernel's Born thresholds T[first outcome, j] and the band [low, high) of second
    draws that keep every first outcome: low = max_f T[f, f-1], high = min_f T[f, f]."""
    thresholds = sampler._thresholds(np.cumsum(_born_matrix(config.step_unitary()), axis=0).T[:, :-1])
    return thresholds, int(np.diagonal(thresholds, -1).max()), int(np.diagonal(thresholds).min())


def _repeated_thresholds(config):
    """How many staircase terms the kernel skips: (first outcome k, energy rise j) pairs
    whose Born rows k and k+1 share threshold j."""
    thresholds = _band(config)[0]
    rises = np.flatnonzero(np.diff(TWO_QUBIT_ENERGIES))
    return int(np.sum(thresholds[1:, rises] == thresholds[:-1, rises]))


@pytest.mark.parametrize("name", list(EDGE_CONFIGS))
def test_edge_configs_repeat_a_born_threshold(name):
    assert _repeated_thresholds(EDGE_CONFIGS[name]) > 0


def _recorded_estimate(monkeypatch, config, n_trajectories, seed):
    """Run estimate and return its stats with every kernel call it made, as
    (start, count, first_step, last_step, works), and the sizes of each call's random_raw draws."""
    calls, drawn = [], []

    class CountingPhilox(Philox):
        def random_raw(self, size=None, output=True):
            drawn[-1].append(size)
            return super().random_raw(size, output)

    def recording(master_seed, start, count, n_steps, *args):
        drawn.append([])  # one thread: the draws that follow are this call's
        works = _simulate_batch(master_seed, start, count, n_steps, *args)
        first_step, last_step = args[2:4]
        calls.append((start, count, first_step, last_step, works))
        return works

    monkeypatch.setattr(np.random, "Philox", CountingPhilox)
    monkeypatch.setattr(sampler, "_simulate_batch", recording)
    stats = estimate(config, n_trajectories, seed)
    order = sorted(range(len(calls)), key=lambda i: calls[i][:3])
    return stats, [calls[i] for i in order], [drawn[i] for i in order]


# 0.1 a step: a step leaves the band with probability 1.5%, a trajectory of 50 steps with 53%
MID = ProtocolConfig(beta=1.0, n_steps=50, total_theta=5.0, entangler_kind="rxx", total_phi=5.0)


@pytest.mark.parametrize("name", [*EDGE_CONFIGS, "rxx_mid_driving"])
def test_batch_kernel_matches_scalar_oracle_for_any_draw_budget(monkeypatch, name):
    config = EDGE_CONFIGS.get(name, MID)
    oracle = [run_protocol(config, i, 31) for i in range(EDGE_COUNT)]
    words = 4 * _blocks_per_trajectory(config.n_steps)
    # one trajectory per batch, 5 per batch (not a divisor of 23), the default budget
    budgets = {1: words, 5: 5 * words + words // 2, None: sampler._DRAWS_PER_BATCH}
    results = []
    for per_batch, budget in budgets.items():
        monkeypatch.setattr(sampler, "_DRAWS_PER_BATCH", budget)
        stats, calls, _ = _recorded_estimate(monkeypatch, config, EDGE_COUNT, 31)
        assert [call[0] for call in calls] == list(range(0, EDGE_COUNT, per_batch or EDGE_COUNT))
        assert np.concatenate([call[-1] for call in calls]).tolist() == oracle, (name, per_batch)
        results.append(stats)
    assert results[0] == results[1] == results[2]
    # the stats are those of the oracle's totals
    mean = sum(oracle) / EDGE_COUNT
    assert results[0].mean_w == mean
    assert results[0].var_w == pytest.approx(sum((w - mean) ** 2 for w in oracle) / (EDGE_COUNT - 1), abs=1e-12)


@pytest.mark.parametrize(("n_steps", "n_trajectories"), [(1, 300_000), (50, 20_000), (4000, 70), (70_000, 3)])
def test_no_batch_draws_more_than_the_budget(monkeypatch, n_steps, n_trajectories):
    monkeypatch.setattr(sampler, "_DRAWS_PER_BATCH", 2**16)  # 70_000 steps need 140_000 words
    config = ProtocolConfig(beta=1.0, n_steps=n_steps, total_theta=0.3)
    _, calls, drawn = _recorded_estimate(monkeypatch, config, n_trajectories, 5)
    words = 4 * _blocks_per_trajectory(n_steps)
    # every call draws within the budget, and no word is drawn twice
    assert len(drawn) == len(calls) and max(map(sum, drawn)) <= 2**16
    assert sum(map(sum, drawn)) == n_trajectories * words
    # no single draw is more than one piece
    assert max(map(max, drawn)) <= sampler._DRAWS_PER_PIECE
    # batches tile the trajectories in order, and each batch's chunks tile its
    # steps from even step indices (a Philox block holds two steps)
    batches = sorted({(start, count) for start, count, _, _, _ in calls})
    assert [start for start, _ in batches] == list(np.cumsum([0] + [count for _, count in batches[:-1]]))
    assert sum(count for _, count in batches) == n_trajectories
    for start, count in batches:
        ranges = [(first, last) for s, c, first, last, _ in calls if (s, c) == (start, count)]
        assert ranges[0][0] == 0 and ranges[-1][1] == n_steps
        assert all(last == next_first for (_, last), (next_first, _) in zip(ranges, ranges[1:]))
        assert all(first % 2 == 0 for first, _ in ranges)
        assert len(ranges) == 1 or count == 1
    # batches are as full as the budget allows
    assert calls[0][1] == min(n_trajectories, max(1, 2**16 // words))


def _assert_chunks_match_scalar_oracle(monkeypatch, config):
    # a budget of 8 words is 2 Philox blocks, 4 steps: every trajectory runs in
    # chunks, and at odd N the last chunk ends in two padding words
    oracle = [run_protocol(config, i, 17) for i in range(9)]
    unchunked = estimate(config, 9, 17)
    monkeypatch.setattr(sampler, "_DRAWS_PER_BATCH", 8)
    stats, calls, drawn = _recorded_estimate(monkeypatch, config, 9, 17)
    assert max(map(sum, drawn)) == 8 and len(calls) == 9 * math.ceil(config.n_steps / 4)
    totals = [sum(int(works[0]) for start, _, _, _, works in calls if start == i) for i in range(9)]
    assert totals == oracle
    assert stats == unchunked
    return oracle


@pytest.mark.parametrize("n_steps", [13, 14])
def test_chunked_trajectories_match_scalar_oracle(monkeypatch, n_steps):
    config = ProtocolConfig(beta=0.8, n_steps=n_steps, total_theta=6.0, entangler_kind="cartan",
                            total_c1=3.0, total_c2=-1.0, total_c3=2.0)
    _assert_chunks_match_scalar_oracle(monkeypatch, config)


@pytest.mark.parametrize("n_steps", [13, 14])
def test_slow_chunked_trajectories_match_scalar_oracle(monkeypatch, n_steps):
    # slow (0.2 a step), the band filter runs on each chunk and flags about one
    # in five: some chunks flag no step and run the staircase on none, and some
    # trajectories still do work
    config = ProtocolConfig(beta=0.8, n_steps=n_steps, total_theta=0.2 * n_steps, entangler_kind="rxx",
                            total_phi=0.2 * n_steps)
    oracle = _assert_chunks_match_scalar_oracle(monkeypatch, config)
    _, low, high = _band(config)
    seconds = [trajectory_stream(17, i, n_steps).bit_generator.random_raw(2 * n_steps)[1::2] >> 11
               for i in range(9)]
    chunks = [bool(np.any((d[first:first + 4] < low) | (d[first:first + 4] >= high)))
              for d in seconds for first in range(0, n_steps, 4)]
    assert not all(chunks) and any(oracle)


# the paper's protocol, 0.01 a step: a row leaves the band with probability 0.75% (50 steps)
SLOW = ProtocolConfig(beta=1.0, n_steps=50, total_theta=0.5, entangler_kind="rxx", total_phi=0.5)


def test_band_filter_is_exact_at_the_band_edges(monkeypatch):
    # hand-picked raw words: row 4e + f has first outcome f and, at step e, the second
    # draw edges[e]; every other second draw is mid-band. The last 48 rows draw only
    # mid-band words: no step of theirs is flagged, and each total is still 0
    _, low, high = _band(SLOW)
    assert 0 < low < high < 2**53
    edges = [0, (low << 11) - 1, low << 11, (high << 11) - 1, high << 11, 2**64 - 1]
    population_cdf = np.cumsum(gibbs_populations(SLOW.beta, TWO_QUBIT_ENERGIES))
    first_words = [0] + [int(t) << 11 for t in sampler._thresholds(population_cdf[:-1])]
    words = np.zeros((4 * len(edges) + 48, SLOW.n_steps, 2), dtype=np.uint64)
    words[:, :, 1] = (low + high) // 2 << 11
    for e, edge in enumerate(edges):
        for f, first in enumerate(first_words):
            words[4 * e + f, :, 0] = first
            words[4 * e + f, e, 1] = edge

    class HandPickedPhilox(Philox):
        def random_raw(self, size=None, output=True):
            assert size == words.size
            return words.reshape(-1).copy()

    monkeypatch.setattr(np.random, "Philox", HandPickedPhilox)
    expected = [oracle_total(SLOW, row) for row in words]
    assert batch_works(SLOW, 0, 0, len(words)).tolist() == expected
    assert expected[4 * 4] == 1 and expected[4 * 1 + 3] == -1  # high itself leaves f = 0, low - 1 leaves f = 3


def test_stream_positions_past_64_bits(monkeypatch):
    # the last 16 steps of trajectory 3 at N = 2**66 start at counter block 3 * 2**65 + 2**65 - 8:
    # the kernel draws the words Philox gives there, with no counter bit dropped
    n_steps, first_step = 2**66, 2**66 - 16
    config = ProtocolConfig(beta=1.0, n_steps=n_steps, total_theta=0.8 * n_steps, entangler_kind="rxx",
                            total_phi=0.6 * n_steps)
    block = 3 * _blocks_per_trajectory(n_steps) + first_step // 2
    assert block > 2**64
    advanced = Philox(key=np.uint64(7))
    advanced.advance(block)
    expected = advanced.random_raw(2 * 16)
    drawn = []

    class RecordingPhilox(Philox):
        def random_raw(self, size=None, output=True):
            drawn.append(super().random_raw(size, output))
            return drawn[-1]

    monkeypatch.setattr(np.random, "Philox", RecordingPhilox)
    works = _simulate_batch(7, 3, 1, n_steps, *kernel_inputs(config), first_step, n_steps)
    assert len(drawn) == 1 and drawn[0].tolist() == expected.tolist()
    assert works.tolist() == [oracle_total(config, expected.reshape(-1, 2))]


def test_band_filter_runs_the_staircase_on_the_flagged_steps_only():
    # per-step angles of 0.05 (N = 20) and 0.1 (N = 50): 0.4% and 1.5% of the second draws leave
    # the band, and the second flags more than half of the trajectories
    count = 100
    for config in (ProtocolConfig(beta=1.0, n_steps=20, total_theta=1.0, entangler_kind="rxx", total_phi=1.0), MID):
        oracle = [run_protocol(config, i, 5) for i in range(count)]
        assert batch_works(config, 5, 0, count).tolist() == oracle
        thresholds, low, high = _band(config)
        words = np.stack([trajectory_stream(5, i, config.n_steps).bit_generator.random_raw(2 * config.n_steps)
                          for i in range(count)])
        seconds = words[:, 1::2]
        outside = ((seconds >> 11) < low) | ((seconds >> 11) >= high)
        flagged = np.flatnonzero(outside)
        assert 0 < len(flagged) < sampler._FLAGGED_SHARE_MAX * outside.size and any(oracle)
        assert sampler._band(thresholds)(seconds).tolist() == flagged.tolist()
    # a MID trajectory leaves the band with probability 1 - (1 - q)**50 > 1/2
    assert 1.0 - ((high - low) / 2**53) ** MID.n_steps > 0.5
    # fast driving (the fast-driving golden's protocol): two thirds of the steps leave the band; the filter does not run
    fast = ProtocolConfig(beta=1.0, n_steps=20, total_theta=16.0, entangler_kind="rxx", total_phi=12.0)
    assert sampler._band(_band(fast)[0]) is None


_MC_BETAS = st.sampled_from([0.0, 1e-300, 0.5, 50.0, 700.0]) | st.floats(0.0, 50.0)
_MC_TOTALS = st.sampled_from([0.0, -0.0]) | st.integers(-4, 4).map(lambda k: k * math.pi) | st.floats(-10.0, 10.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(kind=st.sampled_from(list(ENTANGLERS)), beta=_MC_BETAS, theta=_MC_TOTALS,
       totals=st.lists(_MC_TOTALS, min_size=4, max_size=4), n_steps=st.integers(1, 40),
       seed=st.integers(0, 2**64 - 1), start=st.integers(0, 10**6), batches=st.integers(0, 7),
       extra=st.integers(2, 300), workers=st.integers(1, 3), budget_bits=st.integers(15, 21),
       piece_words=st.sampled_from([6, 10]) | st.integers(4, 2**14))
def test_batch_kernel_is_the_oracle_and_stats_ignore_workers_and_budget(
    kind, beta, theta, totals, n_steps, seed, start, batches, extra, workers, budget_bits, piece_words
):
    names = [f"total_{spec.total}" for spec in ENTANGLERS[kind].params]
    config = ProtocolConfig(beta, n_steps, theta, kind, **dict(zip(names, totals)))
    oracle = [run_protocol(config, start + i, seed) for i in range(3)]
    assert batch_works(config, seed, start, 3).tolist() == oracle
    # pieces from one Philox block (2 steps of one trajectory) up to several whole trajectories, of
    # any word count: a budget that is not a multiple of 4 words still cuts a trajectory at whole blocks
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampler, "_DRAWS_PER_PIECE", piece_words)
        assert batch_works(config, seed, start, 3).tolist() == oracle
    # `batches` full batches and a partial one at the smallest budget, 2**15 words
    n_trajectories = batches * (2**15 // (4 * _blocks_per_trajectory(n_steps))) + extra
    reference = estimate(config, n_trajectories, seed)
    with pytest.MonkeyPatch.context() as patch:
        for budget in (2**15, 2**budget_bits):
            patch.setattr(sampler, "_DRAWS_PER_BATCH", budget)
            assert estimate(config, n_trajectories, seed, workers=workers) == reference


@pytest.mark.parametrize(("n_steps", "n_trajectories"), [(50, 20_000), (300_000, 2)])
def test_estimate_memory_is_bounded_by_the_draw_budget(n_steps, n_trajectories):
    # numpy reports its array buffers to tracemalloc. Both runs here are slow enough to filter,
    # and the second runs its one trajectory in chunks of 65,536 steps, each drawn in pieces of
    # 8,192: one piece's words (8 bytes a word), the band test's uint64 subtract and bool flags
    # (4.5 bytes a word), the flagged steps' words and int8 arrays, and a batch's totals come to
    # about 13.6 times the piece size, a fifth of the budget's bytes, at any N
    config = ProtocolConfig(beta=1.0, n_steps=n_steps, total_theta=0.3)
    tracemalloc.start()
    try:
        estimate(config, n_trajectories, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * sampler._DRAWS_PER_PIECE


def _full_batch_call_peak(config):
    """(tracemalloc peak, steps) of one full-batch kernel call of config."""
    count = sampler._DRAWS_PER_BATCH // (4 * _blocks_per_trajectory(config.n_steps))
    tracemalloc.start()
    try:
        _simulate_batch(42, 0, count, config.n_steps, *kernel_inputs(config), 0, config.n_steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, count * config.n_steps


def test_a_dense_kernel_call_holds_its_arrays_and_one_piece_of_words():
    # dense (the fast-driving golden's protocol, where the band filter does not run), a full batch: the
    # call allocates the draws' space (16 bytes a step) and six int8 arrays (6 bytes a step), and holds
    # one piece of raw words at a time
    peak, steps = _full_batch_call_peak(ProtocolConfig(beta=1.0, n_steps=20, total_theta=16.0,
                                                       entangler_kind="rxx", total_phi=12.0))
    assert peak <= 22 * steps + 8 * sampler._DRAWS_PER_PIECE


def test_a_filtered_kernel_call_holds_one_piece_of_words_at_a_time():
    # the paper's protocol, a full batch of 1 MB of words: the call keeps only the flagged steps'
    # words of each piece, so its peak is one piece's words (8 bytes a word) and the band test's
    # uint64 subtract and bool flags (8 and 1 bytes a step, two words), with 16 KB for the rest
    peak, _ = _full_batch_call_peak(SLOW)
    assert peak <= 8 * sampler._DRAWS_PER_PIECE + 9 * sampler._DRAWS_PER_PIECE // 2 + 2**14


def test_kernel_parameters_read_by_position():
    # perfbench/layers.py reads count, n_steps and born_cdf_rows from a kernel call's first six arguments
    names = list(inspect.signature(_simulate_batch).parameters)
    assert names[:6] == ["master_seed", "start", "count", "n_steps", "population_cdf", "born_cdf_rows"]


def test_a_beta_past_the_monte_carlo_range_is_refused_before_any_batch(monkeypatch):
    # past it, the (beta/2)**2 of q_se raises OverflowError once every batch has run
    config = ProtocolConfig(beta=2.0 * math.sqrt(sys.float_info.max), n_steps=3, total_theta=0.1)
    assert estimate(config, 5, 1).q_se == 0.0  # the largest beta still runs
    calls = []
    monkeypatch.setattr(sampler, "_simulate_batch", lambda *args: calls.append(args))
    for beta in (math.nextafter(config.beta, math.inf), 1e200):
        with pytest.raises(ValidationError, match=r"beta must be in \[0, 2.681561585988519e\+154\]"):
            estimate(ProtocolConfig(beta=beta, n_steps=3, total_theta=0.1), 5, 1)
    assert calls == []


def test_power_sums_are_exact_past_the_int64_wrap():
    # w**4 passes 2**63 at |w| = 55,109; int64 arithmetic wraps there
    w = np.array([55_108, 55_109, -55_109, 60_000, -60_000, 60_000, 0], dtype=np.int64)
    expected = tuple(sum(int(v) ** k for v in w) for k in (1, 2, 3, 4))
    assert _power_sums(w) == expected
    assert _power_sums(w)[3] > 2**63


def test_estimate_moments_of_a_wide_distribution_past_the_int64_wrap():
    # a pi rotation per step takes |00> to |11> (w = +2) and |11> to |00> (w = -2);
    # at beta = 2 that puts every total near 61,000 with a spread of about 200
    n = 40_000
    config = ProtocolConfig(beta=2.0, n_steps=n, total_theta=math.pi * n)
    stats = estimate(config, 64, 3)
    works = batch_works(config, 3, 0, 64).astype(np.float64)
    assert works.min() >= 55_109
    deviations = works - works.mean()
    var = deviations.var(ddof=1)
    var_of_var = (np.mean(deviations**4) - (64 - 3) / (64 - 1) * var**2) / 64
    assert stats.var_w == pytest.approx(var, rel=1e-12)
    assert stats.se_var == pytest.approx(math.sqrt(var_of_var), rel=1e-4)
    assert stats.q_se > 0.0


def test_validation_errors():
    with pytest.raises(ValidationError):
        ProtocolConfig(beta=-1.0, n_steps=10, total_theta=0.1)
    with pytest.raises(ValidationError):
        ProtocolConfig(beta=1.0, n_steps=0, total_theta=0.1)
    with pytest.raises(ValidationError):
        ProtocolConfig(beta=1.0, n_steps=10, total_theta=0.1, entangler_kind="bogus")
    # non-numbers, bools, a non-string kind, and totals the kind does not take (separable_xzx has total_nz)
    for bad in ({"total_phi": "0.5"}, {"total_phi": True}, {"total_theta": True}, {"entangler_kind": ["rxx"]},
                {"total_c1": 0.5}, {"total_bogus": 0.5}, {"entangler_kind": "separable_xzx", "total_n": 0.5}):
        with pytest.raises(ValidationError):
            ProtocolConfig(**{"beta": 1.0, "n_steps": 10, "total_theta": 0.1, "entangler_kind": "rxx", **bad})
    with pytest.raises(TypeError):  # totals are keywords only
        ProtocolConfig(1.0, 10, 0.1, "rxx", 0.5)
    config = ProtocolConfig(beta=1.0, n_steps=10, total_theta=0.1)
    with pytest.raises(ValidationError):
        estimate(config, 1, 0)
    with pytest.raises(ValidationError):
        estimate(config, 100, 0, workers=0)
    with pytest.raises(ValidationError):
        trajectory_stream(3, -1, 10)
