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

import math
import time
from dataclasses import dataclass

import numpy as np

from . import work_stats as ws
from .entanglement import column_states, negativity, negativity_cartan_basis
from .entanglers import DEFAULT_KIND, ENTANGLERS, SINGLE_QUBIT, ProtocolConfig
from .model import CartanCoefficients, SeparableXZXParams, cartan_entangler, separable_xzx
from .sampler import estimate, require_run, sample

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
    betas, angles, steps = [0.1, 1.0, 5.0], [0.01, 0.1, 0.5], [1, 10, 100]
    grid = ws.step_grid(betas, SINGLE_QUBIT.step_unitary(np.array(angles), {}), SINGLE_QUBIT.energies)
    q_dist = ws.q_grid(*grid, betas, np.array(steps)[:, None, None])[2]  # [n, dth, beta]
    q_closed = [[[ws.q_single_exact(n, beta, dth) for beta in betas] for dth in angles] for n in steps]
    worst = float(np.max(ws.relative_gap(np.array(q_closed), q_dist)))
    return CheckResult(
        "1",
        "single-qubit exact Q: enumerated distribution vs closed form (rel 1e-12)",
        worst <= 1e-12,
        f"worst relative difference {worst:.3e} over 27 grid points",
    )


def check_02_small_angle_convergence() -> CheckResult:
    beta, grid, f, g = 1.0, (25, 50, 100, 200), ws.f_beta(1.0), ws.g_beta(1.0)

    def gap(model, kind: str, n: int, totals: dict) -> float:  # theta = 1 and the entangler totals
        config = ProtocolConfig(beta, n, 1.0, kind, **totals)
        dth, params = config.delta_theta, config.step_params()
        q = ws.q_correction(model.step_distribution(beta, dth, params), beta, n)
        return float(ws.relative_gap(q, sum(model.small_angle(n, f, g, dth, params))))

    families = {"single": (SINGLE_QUBIT, DEFAULT_KIND, {}), "rxx": (ENTANGLERS["rxx"], "rxx", {"total_phi": 1.0}),
                "cartan": (ENTANGLERS["cartan"], "cartan", {"total_c1": 0.8, "total_c2": 0.3, "total_c3": 0.2})}
    gaps = {name: [gap(model, kind, n, totals) for n in grid] for name, (model, kind, totals) in families.items()}
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
    points = [(rng.uniform(0.1, 4.0), rng.uniform(0.01, 1.0), int(rng.integers(1, 201))) for _ in range(10)]
    betas, angles, steps = (np.array(column)[:, None] for column in zip(*points))  # row i: point i's step at its beta
    grids = (ws.step_grid(betas, model.step_unitary(angles[:, 0], {}), model.energies)
             for model in (ENTANGLERS[DEFAULT_KIND], SINGLE_QUBIT))
    q_two, q_one = (ws.q_grid(*grid, betas, steps)[2].ravel().tolist() for grid in grids)
    worst = max(_rel_gap(two, 2.0 * one) for two, one in zip(q_two, q_one))
    return CheckResult(
        "3",
        "no-entangler reduction: two-qubit Q equals twice the single-qubit Q (1e-12)",
        worst <= 1e-12,
        f"worst relative difference {worst:.3e} over 10 random (beta, dtheta, N)",
    )


def check_04_distribution_invariances() -> CheckResult:
    rng = np.random.default_rng(_RNG_SEED + 1)
    points = []  # (beta, dth, c1, c2, c3) of each grid point's base, common-shifted and c3-rotated entangler
    for beta in rng.uniform(0.1, 3.0, 3):
        for dth in rng.uniform(0.05, 1.0, 3):
            for _ in range(3):
                c1, c2 = rng.uniform(-0.8, 0.8, 2)
                delta, c3 = float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-1.5, 1.5))
                points += [(beta, dth, *c) for c in ((c1, c2, 0.0), (c1 + delta, c2 + delta, 0.0), (c1, c2, c3))]
    betas, angles, c1, c2, c3 = (np.array(column) for column in zip(*points))
    stack = ENTANGLERS["cartan"].step_unitary(angles, {"c1": c1, "c2": c2, "c3": c3})
    rows = ws.step_grid(betas[:, None], stack)[1].reshape(len(points) // 3, 3, -1)  # [point, variant, w]
    worst = float(np.max(np.abs(rows[:, 1:] - rows[:, :1])))
    return CheckResult(
        "4",
        "distribution invariances under (c1,c2) common shift and arbitrary c3 (1e-12)",
        worst <= 1e-12,
        f"worst probability difference {worst:.3e} over 3x3x3 random grid",
    )


def check_05_separable_null_result() -> CheckResult:
    config = ProtocolConfig(1.0, 200, 1.0, "separable_xzx", total_c=0.4, total_l=0.3, total_m=0.6, total_nz=0.2)
    separable, dth, params = ENTANGLERS[config.entangler_kind], config.delta_theta, config.step_params()
    betas = np.arange(0.2, 5.0 + 1e-9, 0.05).tolist()
    per_step_q = ws.q_grid(*ws.step_grid(betas, config.step_unitary()), betas, 1)[2]
    (coef_f, coef_g), *_ = np.linalg.lstsq(np.column_stack(ws.profiles(betas)), per_step_q, rcond=None)
    predicted_f = separable.small_angle(1, 1.0, 0.0, dth, params)[0]  # the f coefficient of one step
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
    axis = np.arange(0.0, 0.5 + 1e-9, 0.05).tolist()
    grid = [(c1, c2) for c1 in axis for c2 in axis]
    rng = np.random.default_rng(_RNG_SEED + 2)
    gates = np.concatenate([cartan_entangler(CartanCoefficients(*np.array(grid).T, 0.37)),
                            separable_xzx(SeparableXZXParams(*rng.uniform(-2.0, 2.0, (10, 4)).T))])  # two stacks
    values = negativity(column_states(gates)).tolist()  # all 524 states in one stack
    closed = [negativity_cartan_basis(u, c1, c2) for c1, c2 in grid for u in range(4)]
    worst = max([0.0] + [abs(numeric - form) for numeric, form in zip(values, closed)])
    worst_separable = max([0.0] + values[len(closed) :])
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
    # each model with its per-step angle range, in turn: every fourth step is a single-qubit one
    models = [(SINGLE_QUBIT, (0.0, 0.0)), (ENTANGLERS["rxx"], (0.0, 0.8)), (ENTANGLERS["cartan"], (-0.6, 0.6)),
              (ENTANGLERS["separable_xzx"], (-0.8, 0.8))]
    for index in range(20):
        beta = float(rng.uniform(0.05, 2.5))
        dth = float(rng.uniform(0.0, 0.6))
        model, bounds = models[index % 4]
        angles = rng.uniform(*bounds, len(model.params))  # no draw for SINGLE_QUBIT's no angles
        dist = model.step_distribution(beta, dth, {spec.step: float(a) for spec, a in zip(model.params, angles)})
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
    betas = np.arange(0.0, 10.0 + 1e-9, 0.01).tolist()
    f, g = (profile.tolist() for profile in ws.profiles(betas))
    worst = max(abs(g_b - f_b - (b / 2.0) * math.tanh(b / 2.0) ** 2) for b, f_b, g_b in zip(betas, f, g))
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
    reference, stats = sample(config, n_trajectories, seed, workers=1)
    elapsed = time.perf_counter() - started
    stats_parallel = estimate(config, n_trajectories, seed, workers=8)
    z_mean, z_var, _ = stats.z_scores(reference)
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
    cartan, betas = ENTANGLERS["cartan"], [0.0, 0.5, 1.0, 2.5]
    coefficients = ((0.0, 0.0, 0.0), (0.3, 0.0, 0.0), (0.25, 0.25, 0.6), (0.5, -0.2, 0.0), (-0.4, 0.3, -0.9),
                    (0.7, 0.1, 1.3))
    points = [(dth, {"c1": c1, "c2": c2, "c3": c3}) for dth in (0.0, 0.1, 0.5, 1.2) for c1, c2, c3 in coefficients]
    params = {name: np.array([p[name] for _, p in points]) for name in ("c1", "c2", "c3")}
    support, probs = ws.step_grid(betas, cartan.step_unitary(np.array([dth for dth, _ in points]), params))
    distances = [ws.distribution_distance(ws.WorkDistribution(support, row), cartan.closed_form(beta, dth, p))
                 for (dth, p), grid in zip(points, probs) for beta, row in zip(betas, grid)]  # [point][beta]
    worst, count = max(distances), len(distances)
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
