"""The four CLI workloads and the checks every run's output must pass.

Each workload is one ``workfdr`` command line built from the benchmark seed,
the exit code it must return, the amount of work it does (for the throughput
figure of the report), and a check of its stdout. See README.md for why each
workload exists and which layers it loads or bypasses.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 42
Z_LIMIT = 5.0
VERIFY_TRAJECTORIES = 20_000
VERIFY_SUMMARY = "11/12 checks passed; failing: 8b"  # 8b is red by mathematical necessity
SWEEP_HEADER = "beta,n,Q_exact,Q_small_angle,f,g,relative_gap"
SWEEP_BETAS = 1001  # 0:10:0.01, endpoints included
SWEEP_NS = (25, 50, 100, 200, 400)


def cli_seed(seed: int) -> int:
    """The Philox key must fit in 64 bits; every seed in [0, 2**63) passes unchanged."""
    return seed % 2**63


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int], list[str]]
    exit_code: int
    check: Callable[[bytes, int], list[str]]
    work: int  # MC steps or grid points per run; 0 when there is no single unit
    work_metric: str | None
    work_unit: str | None


def _sample_argv(n: int, theta: str, phi: str, trajectories: int):
    def argv(seed: int) -> list[str]:
        return [
            "sample", "--beta", "1", "--n", str(n), "--theta", theta,
            "--entangler", "rxx", "--phi", phi,
            "--trajectories", str(trajectories), "--workers", "1", "--seed", str(cli_seed(seed)),
        ]

    return argv


def _sample_check(trajectories: int):
    def check(stdout: bytes, seed: int) -> list[str]:
        try:
            document = json.loads(stdout)
            z_scores = document["results"]["z_scores"]
            count = document["results"]["estimates"]["n_trajectories"]
            echoed_seed = document["seed"]
        except (ValueError, KeyError, TypeError) as error:
            return [f"sample output is not the expected JSON: {error!r}"]
        problems = [f"|z_{k}| = {abs(z):.3f} > {Z_LIMIT}" for k, z in z_scores.items() if not abs(z) <= Z_LIMIT]
        if count != trajectories:
            problems.append(f"n_trajectories {count} != {trajectories}")
        if echoed_seed != cli_seed(seed):
            problems.append(f"seed {echoed_seed} != {cli_seed(seed)}")
        return problems

    return check


SWEEP_ARGV = [
    "sweep", "--beta-grid", "0:10:0.01", "--n-grid", ",".join(map(str, SWEEP_NS)),
    "--theta", "1", "--entangler", "cartan", "--c1", "0.8", "--c2", "0.3", "--c3", "0.2",
]


def _sweep_check(stdout: bytes, seed: int) -> list[str]:
    lines = stdout.decode("utf-8", "replace").splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return ["sweep header differs"]
    rows = lines[1:]
    expected = SWEEP_BETAS * len(SWEEP_NS)
    if len(rows) != expected:
        return [f"sweep printed {len(rows)} rows, expected {expected}"]
    for row in rows:
        cells = row.split(",")
        try:
            values = [float(c) for c in cells]
        except ValueError:
            return [f"sweep row is not numeric: {row!r}"]
        if len(values) != 7 or not all(math.isfinite(v) for v in values):
            return [f"sweep row is malformed: {row!r}"]
    return []


def _verify_check(stdout: bytes, seed: int) -> list[str]:
    lines = stdout.decode("utf-8", "replace").splitlines()
    last = lines[-1] if lines else ""
    return [] if last == VERIFY_SUMMARY else [f"verify summary is {last!r}, expected {VERIFY_SUMMARY!r}"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc_paper", _sample_argv(50, "0.5", "0.5", 400_000), 0, _sample_check(400_000),
            400_000 * 50, "mc_steps_per_s", "steps/s",
        ),
        Workload(
            "mc_long_horizon", _sample_argv(4000, "40", "40", 2000), 0, _sample_check(2000),
            2000 * 4000, "mc_steps_per_s", "steps/s",
        ),
        Workload(
            "exact_sweep", lambda seed: list(SWEEP_ARGV), 0, _sweep_check,
            SWEEP_BETAS * len(SWEEP_NS), "sweep_points_per_s", "points/s",
        ),
        Workload(
            "verify_quick",
            lambda seed: ["verify", "--trajectories", str(VERIFY_TRAJECTORIES), "--seed", str(cli_seed(seed))],
            1, _verify_check, 0, None, None,
        ),
    )
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_problems(
    workload: Workload, seed: int, code: int, stdout: bytes, first_stdout: bytes, reference: dict
) -> list[str]:
    """Why one run failed; empty when it passed.

    A run fails on an unexpected exit code, on output that differs from the
    first run of the same invocation, on output that differs from the stored
    reference whenever the command line equals the default seed's, and on any
    failure of the workload's own check.
    """
    problems = []
    if code != workload.exit_code:
        problems.append(f"exit code {code}, expected {workload.exit_code}")
    if stdout != first_stdout:
        problems.append("stdout differs from the first run with the same seed")
    if workload.argv(seed) == workload.argv(DEFAULT_SEED) and sha256(stdout) != reference[workload.name]:
        problems.append("stdout differs from the stored default-seed reference")
    problems.extend(workload.check(stdout, seed))
    return problems
