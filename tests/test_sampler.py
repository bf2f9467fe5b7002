"""Monte Carlo sampler: determinism, statistical agreement with the exact pipeline."""

import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from workfdr import (
    ContractViolationError,
    ProtocolConfig,
    ValidationError,
    estimate,
    identity,
)
from workfdr.model import QubitHamiltonian, gibbs_populations
from workfdr.sampler import _born_matrix, _simulate_batch
from workfdr.work_stats import convolve_n, moments, step_distribution_bipartite

from mc_oracle import run_protocol, sample_step, trajectory_stream


def batch_works(config, master_seed, start, count):
    hamiltonian = QubitHamiltonian.two_qubit()
    population_cdf = np.cumsum(gibbs_populations(config.beta, hamiltonian))
    born = _born_matrix(config.step_quench(), config.step_entangler())
    born_cdf_rows = np.cumsum(born, axis=0).T.copy()
    energies = np.asarray(hamiltonian.energies, dtype=np.int64)
    return _simulate_batch(
        master_seed, start, count, config.n_steps, population_cdf, born_cdf_rows, energies
    )


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
    for workers in (2, 8):
        assert estimate(config, 30000, 42, workers=workers) == reference


def test_per_step_histogram_matches_exact_distribution():
    config = ProtocolConfig(beta=0.7, n_steps=1, total_theta=0.4, entangler_kind="rxx", total_phi=0.6)
    n_draws = 1_000_000
    works = batch_works(config, 2024, 0, n_draws)
    exact = step_distribution_bipartite(config.beta, config.step_quench(), config.step_entangler())
    counts = {w: int(np.sum(works == w)) for w in exact.support}
    for w, p in zip(exact.support, exact.probs):
        p = float(p)
        se = math.sqrt(p * (1.0 - p) / n_draws)
        assert abs(counts[w] / n_draws - p) <= 5.0 * se, f"work {w} off by > 5 SE"
    # chi-squared goodness of fit at significance 1e-3
    observed = np.array([counts[w] for w in exact.support])
    expected = np.array([float(p) * n_draws for p in exact.probs])
    _, p_value = scipy_stats.chisquare(observed, expected)
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
    step = step_distribution_bipartite(config.beta, config.step_quench(), config.step_entangler())
    mean_ref, var_ref = moments(convolve_n(step, config.n_steps))
    assert abs(result.mean_w - mean_ref) <= 5.0 * result.se_mean
    assert abs(result.var_w - var_ref) <= 5.0 * result.se_var


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
    first, second, work = sample_step(config.beta, config.step_quench(), config.step_entangler(), stream)
    assert first in range(4) and second in range(4)
    assert work == [0, 1, 1, 2][second] - [0, 1, 1, 2][first]
    with pytest.raises(ContractViolationError):
        sample_step(1.0, 0.9 * identity(4), identity(4), stream)


def test_validation_errors():
    with pytest.raises(ValidationError):
        ProtocolConfig(beta=-1.0, n_steps=10, total_theta=0.1)
    with pytest.raises(ValidationError):
        ProtocolConfig(beta=1.0, n_steps=0, total_theta=0.1)
    with pytest.raises(ValidationError):
        ProtocolConfig(beta=1.0, n_steps=10, total_theta=0.1, entangler_kind="bogus")
    config = ProtocolConfig(beta=1.0, n_steps=10, total_theta=0.1)
    with pytest.raises(ValidationError):
        estimate(config, 1, 0)
    with pytest.raises(ValidationError):
        estimate(config, 100, 0, workers=0)
    with pytest.raises(ValidationError):
        trajectory_stream(3, -1, 10)
