"""A fixed program that measures how fast the machine is right now.

    python3 perfbench/reference_task.py

It does, in a fresh interpreter, the same kinds of work workfdr does, in
fixed amounts: Python loops and string formatting (the CLI rows), products
of small complex matrices (the step unitaries and the pair enumeration),
Philox uniforms compared against CDF rows and gathered (the MC batch kernel),
and repeated ``np.convolve`` (``convolve_n``). It imports nothing from
workfdr, so no change to the program changes its time. ``run.py`` runs it
between the workload runs and divides each run's wall time by the mean of
the two reference times around it (see README.md, Noise). It prints a
checksum so that its work cannot be skipped.
"""

import numpy as np

PY_ROWS = 40_000
MATRIX_PRODUCTS = 2_000
MC_TRAJECTORIES = 20_000
MC_STEPS = 50
CONVOLUTIONS = 1_500


def python_rows() -> int:
    total = 0
    for i in range(PY_ROWS):
        row = f"{i * 0.01:.17g},{i % 400},{(i * 7) % 13 / 3:.17g}"
        total += len(row.split(","))
    return total


def matrix_products() -> float:
    theta = 0.3
    rot = np.array([[np.cos(theta), -1j * np.sin(theta)], [-1j * np.sin(theta), np.cos(theta)]])
    u = np.kron(rot, rot)
    acc = np.eye(4, dtype=complex)
    for _ in range(MATRIX_PRODUCTS):
        acc = u @ acc
        np.allclose(acc @ acc.conj().T, np.eye(4))
    return float(np.abs(acc).sum())


def mc_batch() -> int:
    cdf = np.cumsum(np.full(4, 0.25))
    rows = np.cumsum(np.full((4, 4), 0.25), axis=1)
    energies = np.arange(4, dtype=np.int64)
    uniforms = np.random.Generator(np.random.Philox(key=7)).random(MC_TRAJECTORIES * MC_STEPS * 2)
    uniforms = uniforms.reshape(MC_TRAJECTORIES, MC_STEPS, 2)
    first = np.minimum((uniforms[:, :, 0][..., None] >= cdf).sum(axis=-1), 3)
    second = np.minimum((uniforms[:, :, 1][..., None] >= rows[first]).sum(axis=-1), 3)
    return int((energies[second] - energies[first]).sum())


def convolutions() -> float:
    step = np.array([0.1, 0.2, 0.4, 0.2, 0.1], dtype=np.longdouble)
    result = step
    for _ in range(CONVOLUTIONS):
        result = np.convolve(result, step)
    return float(result.sum())


if __name__ == "__main__":
    print(python_rows(), matrix_products(), mc_batch(), convolutions())
