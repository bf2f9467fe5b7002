"""One-shot verification suite for every analytic claim the package reproduces.

Each check returns a CheckResult with a deterministic detail string, so two
runs with the same inputs produce byte-identical reports. run_all() executes
all checks; the CLI `verify` command prints one PASS/FAIL line per item and
the acceptance tests assert them individually.

Known red item: check 8b demands g(40)/f(40) within 1e-3 of 2. The exact
value is 39/19 = 2.05263...; the ratio approaches its beta -> infinity limit
of 2 only like 2 + 2/(beta - 2), so a 1e-3 window would need beta > 2000. The
check is implemented as stated and reports the measured value honestly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import work_stats as ws
from .entanglement import cartan_basis_negativities, negativity
from .entanglers import ENTANGLERS
from .model import CartanCoefficients, SeparableXZXParams, bipartite_quench, cartan_entangler, separable_xzx
from .sampler import ProtocolConfig, estimate, exact_reference, require_run

_RNG_SEED = 20250810


@dataclass(frozen=True)
class CheckResult:
    item: str
    description: str
    passed: bool
    detail: str


def _rel_gap(value: float, reference: float) -> float:
    return abs(value - reference) / max(1.0, abs(reference))


def check_01_single_qubit_exact_q() -> CheckResult:
    worst = 0.0
    for beta in (0.1, 1.0, 5.0):
        for dth in (0.01, 0.1, 0.5):
            for n in (1, 10, 100):
                q_dist = ws.q_correction(ws.step_distribution_single(beta, dth), beta, n).q_value
                q_closed = ws.q_single_exact(n, beta, dth)
                worst = max(worst, abs(q_dist - q_closed) / abs(q_closed))
    return CheckResult(
        "1",
        "single-qubit exact Q: enumerated distribution vs closed form (rel 1e-12)",
        worst <= 1e-12,
        f"worst relative difference {worst:.3e} over 27 grid points",
    )


def check_02_small_angle_convergence() -> CheckResult:
    beta, grid = 1.0, (25, 50, 100, 200)

    def single(n: int) -> tuple[float, float]:
        step = ws.step_distribution_single(beta, 1.0 / n)
        return ws.q_correction(step, beta, n).q_value, ws.q_single_smallangle(n, beta, 1.0 / n)

    def two_qubit(n: int, kind: str, **totals: float) -> tuple[float, float]:
        config = ProtocolConfig(beta, n, 1.0, kind, **totals)
        step = ws.step_distribution_bipartite(beta, config.step_quench(), config.step_entangler())
        approx = ENTANGLERS[kind].small_angle(n, beta, config.delta_theta, config.step_params())
        return ws.q_correction(step, beta, n).q_value, sum(approx)

    families = {
        "single": [single(n) for n in grid],
        "rxx": [two_qubit(n, "rxx", total_phi=1.0) for n in grid],
        "cartan": [two_qubit(n, "cartan", total_c1=0.8, total_c2=0.3, total_c3=0.2) for n in grid],
    }
    gaps = {name: [abs(q - approx) / abs(q) for q, approx in pairs] for name, pairs in families.items()}
    ratios = {name: [g[i] / g[i + 1] for i in range(len(g) - 1)] for name, g in gaps.items()}
    ok = all(3.5 <= r <= 4.5 for rs in ratios.values() for r in rs)
    detail = "; ".join(
        f"{name} gap ratios per doubling: " + ", ".join(f"{r:.3f}" for r in rs)
        for name, rs in ratios.items()
    )
    return CheckResult(
        "2",
        "small-angle convergence: relative gap shrinks ~4x per doubling of N",
        ok,
        detail,
    )


def check_03_no_entangler_reduction() -> CheckResult:
    rng = np.random.default_rng(_RNG_SEED)
    worst = 0.0
    for _ in range(10):
        beta = float(rng.uniform(0.1, 4.0))
        dth = float(rng.uniform(0.01, 1.0))
        n = int(rng.integers(1, 201))
        q_two = ws.q_correction(
            ws.step_distribution_bipartite(beta, bipartite_quench(dth), ENTANGLERS["none"].unitary({})), beta, n
        ).q_value
        q_one = ws.q_correction(ws.step_distribution_single(beta, dth), beta, n).q_value
        worst = max(worst, _rel_gap(q_two, 2.0 * q_one))
    return CheckResult(
        "3",
        "no-entangler reduction: two-qubit Q equals twice the single-qubit Q (1e-12)",
        worst <= 1e-12,
        f"worst relative difference {worst:.3e} over 10 random (beta, dtheta, N)",
    )


def check_04_distribution_invariances() -> CheckResult:
    rng = np.random.default_rng(_RNG_SEED + 1)
    worst = 0.0
    for beta in rng.uniform(0.1, 3.0, 3):
        for dth in rng.uniform(0.05, 1.0, 3):
            for _ in range(3):
                c1, c2 = rng.uniform(-0.8, 0.8, 2)
                quench = bipartite_quench(float(dth))
                base = ws.step_distribution_bipartite(
                    float(beta), quench, cartan_entangler(CartanCoefficients(c1, c2, 0.0))
                )
                delta = float(rng.uniform(-0.5, 0.5))
                shifted = ws.step_distribution_bipartite(
                    float(beta),
                    quench,
                    cartan_entangler(CartanCoefficients(c1 + delta, c2 + delta, 0.0)),
                )
                c3 = float(rng.uniform(-1.5, 1.5))
                rotated = ws.step_distribution_bipartite(
                    float(beta), quench, cartan_entangler(CartanCoefficients(c1, c2, c3))
                )
                worst = max(
                    worst,
                    ws.distribution_distance(base, shifted),
                    ws.distribution_distance(base, rotated),
                )
    return CheckResult(
        "4",
        "distribution invariances under (c1,c2) common shift and arbitrary c3 (1e-12)",
        worst <= 1e-12,
        f"worst probability difference {worst:.3e} over 3x3x3 random grid",
    )


def check_05_separable_null_result() -> CheckResult:
    n = 200
    dth, c, l, m, nz = 1.0 / n, 0.4 / n, 0.3 / n, 0.6 / n, 0.2 / n
    quench = bipartite_quench(dth)
    entangler = separable_xzx(SeparableXZXParams(c, l, m, nz))
    betas = np.arange(0.2, 5.0 + 1e-9, 0.05).tolist()
    per_step_q = ws.q_grid(*ws.step_grid_bipartite(betas, quench, entangler), betas, 1)[2]
    design = np.column_stack([[ws.f_beta(b) for b in betas], [ws.g_beta(b) for b in betas]])
    (coef_f, coef_g), *_ = np.linalg.lstsq(design, per_step_q, rcond=None)
    predicted_f = (c + dth) ** 2 / 4.0 + (m + dth) ** 2 / 4.0
    g_small = abs(coef_g) < 1e-3 * coef_f
    f_match = abs(coef_f - predicted_f) <= 0.01 * predicted_f
    return CheckResult(
        "5",
        "separable entanglers: no g(beta) component, f coefficient matches (c+dth)^2/4+(m+dth)^2/4",
        bool(g_small and f_match),
        f"|g-coef|/f-coef = {abs(coef_g) / coef_f:.3e}, "
        f"f-coef rel error vs prediction = {abs(coef_f - predicted_f) / predicted_f:.3e}",
    )


def check_06_negativity_closed_forms() -> CheckResult:
    worst = 0.0
    for c1 in np.arange(0.0, 0.5 + 1e-9, 0.05):
        for c2 in np.arange(0.0, 0.5 + 1e-9, 0.05):
            for _, numeric, closed in cartan_basis_negativities(float(c1), float(c2), 0.37):
                worst = max(worst, abs(numeric - closed))
    rng = np.random.default_rng(_RNG_SEED + 2)
    worst_separable = 0.0
    for _ in range(10):
        params = SeparableXZXParams(*(float(x) for x in rng.uniform(-2.0, 2.0, 4)))
        gate = separable_xzx(params)
        for u in range(4):
            column = gate[:, u]
            worst_separable = max(
                worst_separable, negativity(np.outer(column, column.conj())).value
            )
    passed = worst <= 1e-10 and worst_separable <= 1e-12
    return CheckResult(
        "6",
        "negativity closed forms |sin(2c1±2c2)|/2 (1e-10); separable unitaries give 0 (1e-12)",
        bool(passed),
        f"worst closed-form deviation {worst:.3e} over 11x11 grid x 4 states; "
        f"worst separable negativity {worst_separable:.3e}",
    )


def check_07_jarzynski() -> CheckResult:
    rng = np.random.default_rng(_RNG_SEED + 3)
    worst_step = 0.0
    worst_total = 0.0
    # per-step angle range of each entangler; every fourth step is a single-qubit one
    ranges = {"rxx": (0.0, 0.8), "cartan": (-0.6, 0.6), "separable_xzx": (-0.8, 0.8)}
    for index in range(20):
        beta = float(rng.uniform(0.05, 2.5))
        dth = float(rng.uniform(0.0, 0.6))
        kind = (None, *ranges)[index % 4]
        if kind is None:
            dist = ws.step_distribution_single(beta, dth)
        else:
            specs = ENTANGLERS[kind].params
            angles = rng.uniform(*ranges[kind], len(specs))
            entangler = ENTANGLERS[kind].unitary({spec.step: float(a) for spec, a in zip(specs, angles)})
            dist = ws.step_distribution_bipartite(beta, bipartite_quench(dth), entangler)
        worst_step = max(worst_step, abs(ws.jarzynski_check(dist, beta) - 1.0))
        worst_total = max(worst_total, abs(ws.jarzynski_check(ws.convolve_n(dist, 200), beta) - 1.0))
    passed = worst_step <= 1e-12 and worst_total <= 1e-11
    return CheckResult(
        "7",
        "Jarzynski identity <exp(-beta w)> = 1: per step (1e-12) and after 200 convolutions (1e-11)",
        bool(passed),
        f"worst per-step deviation {worst_step:.3e}; worst 200-step deviation {worst_total:.3e}",
    )


def check_08a_fg_identity() -> CheckResult:
    worst = 0.0
    for beta in np.arange(0.0, 10.0 + 1e-9, 0.01):
        beta = float(beta)
        residual = abs(
            ws.g_beta(beta) - ws.f_beta(beta) - (beta / 2.0) * math.tanh(beta / 2.0) ** 2
        )
        worst = max(worst, residual)
    return CheckResult(
        "8a",
        "identity g(beta) - f(beta) = (beta/2) tanh^2(beta/2) on [0, 10] (1e-13)",
        worst <= 1e-13,
        f"max residual {worst:.3e} over 1001 grid points",
    )


def check_08b_fg_low_temperature_ratio() -> CheckResult:
    ratio = ws.g_beta(40.0) / ws.f_beta(40.0)
    return CheckResult(
        "8b",
        "low-temperature ratio g(40)/f(40) within 1e-3 of 2",
        abs(ratio - 2.0) <= 1e-3,
        f"measured {ratio:.12f}; exact value is 39/19 = 2.052631..., and the ratio "
        "approaches 2 only like 2 + 2/(beta-2), so this window needs beta > 2000",
    )


def check_08c_fg_zero() -> CheckResult:
    passed = abs(ws.f_beta(0.0)) <= 1e-15 and abs(ws.g_beta(0.0)) <= 1e-15
    return CheckResult(
        "8c",
        "f(0) = g(0) = 0 (1e-15)",
        passed,
        f"f(0) = {ws.f_beta(0.0):.3e}, g(0) = {ws.g_beta(0.0):.3e}",
    )


def check_09_monte_carlo(n_trajectories: int, seed: int) -> CheckResult:
    config = ProtocolConfig(
        beta=1.0, n_steps=50, total_theta=0.5, entangler_kind="rxx", total_phi=0.5
    )
    started = time.perf_counter()
    stats = estimate(config, n_trajectories, seed, workers=1)
    elapsed = time.perf_counter() - started
    stats_parallel = estimate(config, n_trajectories, seed, workers=8)
    mean_ref, var_ref, _ = exact_reference(config)
    z_mean = (stats.mean_w - mean_ref) / stats.se_mean
    z_var = (stats.var_w - var_ref) / stats.se_var
    deterministic = stats == stats_parallel
    in_time = elapsed < 60.0
    passed = abs(z_mean) <= 5.0 and abs(z_var) <= 5.0 and deterministic and in_time
    return CheckResult(
        "9",
        "Monte Carlo consistency at beta=1, N=50, theta=phi=0.5 "
        f"({n_trajectories} trajectories, seed {seed})",
        bool(passed),
        f"z_mean = {z_mean:.3f}, z_var = {z_var:.3f}, "
        f"1 vs 8 workers identical = {deterministic}, runtime < 60 s = {in_time}",
    )


def check_10_cross_oracle() -> CheckResult:
    worst = 0.0
    count = 0
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
                enumerated = ws.step_distribution_bipartite(
                    beta, bipartite_quench(dth), cartan_entangler(CartanCoefficients(c1, c2, c3))
                )
                closed = ws.closed_form_distribution_cartan(beta, dth, c1, c2)
                worst = max(worst, ws.distribution_distance(enumerated, closed))
                count += 1
    return CheckResult(
        "10",
        "closed form vs 16-term enumeration for the general entangler (1e-11)",
        worst <= 1e-11,
        f"worst probability difference {worst:.3e} over {count} grid points; note: the "
        "+-2 channel weight is the non-negative form cos^4(dth/2)sin^2(c1-c2) + "
        "sin^4(dth/2)cos^2(c1-c2) -- the sign-flipped variant yields negative "
        "probabilities at c1 = c2 and is rejected by the enumeration oracle",
    )


def run_all(mc_trajectories: int = 100_000, mc_seed: int = 42) -> list[CheckResult]:
    """Run every acceptance check in order; deterministic given the same inputs.

    The Monte Carlo count and seed are checked before the first check runs.
    """
    require_run(mc_trajectories, mc_seed)
    return [
        check_01_single_qubit_exact_q(),
        check_02_small_angle_convergence(),
        check_03_no_entangler_reduction(),
        check_04_distribution_invariances(),
        check_05_separable_null_result(),
        check_06_negativity_closed_forms(),
        check_07_jarzynski(),
        check_08a_fg_identity(),
        check_08b_fg_low_temperature_ratio(),
        check_08c_fg_zero(),
        check_09_monte_carlo(n_trajectories=mc_trajectories, seed=mc_seed),
        check_10_cross_oracle(),
    ]
