"""Scalar Monte Carlo oracle for the vectorized batch kernel in workfdr.sampler.

It draws one TPM step at a time from the same Philox counter layout, so for
any seed and trajectory index it reproduces the batch kernel's total work
bitwise, at about 1/500 of its speed. Test use only.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

from workfdr.errors import require_int
from workfdr.model import SINGLE_QUBIT_ENERGIES, TWO_QUBIT_ENERGIES, gibbs_populations
from workfdr.sampler import ProtocolConfig, _blocks_per_trajectory, _born_matrix


def trajectory_stream(master_seed: int, trajectory_index: int, n_steps: int) -> Generator:
    """Random stream positioned at the counter block owned by one trajectory."""
    trajectory_index = require_int("trajectory_index", trajectory_index, minimum=0)
    bits = Philox(key=np.uint64(master_seed))
    bits.advance(trajectory_index * _blocks_per_trajectory(n_steps))
    return Generator(bits)


def _pick(cdf: np.ndarray, u: float) -> int:
    # inverse CDF with right-closed boundaries; clip guards u landing on cdf[-1]
    return int(min(np.count_nonzero(u >= cdf), len(cdf) - 1))


def sample_step(beta: float, unitary: np.ndarray, stream: Generator) -> tuple[int, int, int]:
    """Draw one TPM step: thermal first outcome, Born second outcome, work difference."""
    energies = TWO_QUBIT_ENERGIES if np.shape(unitary) == (4, 4) else SINGLE_QUBIT_ENERGIES
    populations = gibbs_populations(beta, energies)
    born = _born_matrix(unitary)
    population_cdf = np.cumsum(populations)
    first = _pick(population_cdf, stream.random())
    second = _pick(np.cumsum(born[:, first]), stream.random())
    return first, second, int(round(energies[second] - energies[first]))


def run_protocol(config: ProtocolConfig, trajectory_index: int, master_seed: int) -> int:
    """Total work of one trajectory: n_steps i.i.d. TPM steps (thermal reset between steps)."""
    unitary = config.step_unitary()
    stream = trajectory_stream(master_seed, trajectory_index, config.n_steps)
    total = 0
    for _ in range(config.n_steps):
        _, _, work = sample_step(config.beta, unitary, stream)
        total += work
    return total
