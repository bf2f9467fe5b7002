"""Point-by-point oracle for the batched exact pipeline in workfdr.work_stats and workfdr.cli.

It keeps the earlier path: one dict enumeration of the 16 (first, second)
outcome pairs per (beta, N) point, a per-point check and clamp of each
probability, cumulants summed over the non-zero support, and `sweep` as a
loop over sorted beta, then sorted N, that rebuilds the quench and the
entangler at every point. The batched pipeline must agree with it bitwise.
Test use only.
"""

from __future__ import annotations

import contextlib
import io

import numpy as np

from workfdr import cli
from workfdr.entanglers import ENTANGLERS
from workfdr.errors import ValidationError
from workfdr.model import SINGLE_QUBIT_ENERGIES, TWO_QUBIT_ENERGIES, bipartite_quench, rotation_x
from workfdr.work_stats import NORMALIZATION_TOL, PROB_CLAMP, WorkDistribution, f_beta, g_beta

_LD = np.longdouble


def _populations(beta: float, energies: tuple[float, ...]) -> np.ndarray:
    weights = np.exp(-_LD(beta) * np.asarray(energies, dtype=_LD))
    return weights / weights.sum()


def _from_weights(weights: dict) -> WorkDistribution:
    support, probs = [], []
    for w in sorted(weights):
        p = _LD(weights[w])
        if p < -PROB_CLAMP or p > 1.0 + PROB_CLAMP:
            raise ValidationError(f"probability {float(p)!r} at work {w} is outside [0, 1]")
        p = min(max(p, _LD(0.0)), _LD(1.0))
        if p == 0.0:
            continue
        support.append(int(w))
        probs.append(p)
    total = np.sum(np.array(probs, dtype=_LD))
    if abs(float(total) - 1.0) > NORMALIZATION_TOL:
        raise ValidationError(f"probabilities sum to {float(total)!r}, expected 1")
    return WorkDistribution(support=tuple(support), probs=tuple(probs))


def distribution_from_transition(populations, transition, energies) -> WorkDistribution:
    """Dict enumeration: equal work values from degenerate outcome pairs aggregate."""
    weights: dict[int, object] = {}
    dim = len(energies)
    for first in range(dim):
        for second in range(dim):
            w = int(round(energies[second] - energies[first]))
            weights[w] = weights.get(w, _LD(0.0)) + populations[first] * transition[second, first]
    return _from_weights(weights)


def step_single(beta: float, delta_theta: float) -> WorkDistribution:
    energies = SINGLE_QUBIT_ENERGIES
    transition = np.abs(rotation_x(delta_theta)).astype(_LD) ** 2
    return distribution_from_transition(_populations(beta, energies), transition, energies)


def step_bipartite(beta: float, quench: np.ndarray, entangler: np.ndarray) -> WorkDistribution:
    energies = TWO_QUBIT_ENERGIES
    transition = np.abs(quench @ entangler).astype(_LD) ** 2
    return distribution_from_transition(_populations(beta, energies), transition, energies)


def single_qubit(p: dict) -> bool:
    """The one-qubit model: the identity kind without --two-qubit."""
    return p["entangler"] == "none" and not p["two_qubit"]


def step(p: dict, beta: float) -> WorkDistribution:
    """The step of a (beta, N) point, its quench and entangler built for it alone."""
    config = cli._config(p)
    if single_qubit(p):
        return step_single(beta, config.delta_theta)
    entangler = ENTANGLERS[config.entangler_kind].unitary(config.step_params())
    return step_bipartite(beta, bipartite_quench(config.delta_theta), entangler)


def q_values(dist: WorkDistribution, beta: float, n: int) -> tuple[float, float, float]:
    """(mean_work, var_work, q_value) of the N-step protocol, summed over the non-zero support."""
    support = np.asarray(dist.support, dtype=_LD)
    probs = np.asarray(dist.probs, dtype=_LD)
    mean = np.sum(support * probs)
    second = np.sum(support * support * probs)
    mean_work = n * mean
    var_work = n * (second - mean * mean)
    q_value = (_LD(beta) / 2) * var_work - mean_work
    return float(mean_work), float(var_work), float(q_value)


def q_report(p: dict) -> dict:
    """The `q` results of one (beta, N) point, the quench and entangler built for it alone."""
    config = cli._config(p)
    beta, n, dtheta = config.beta, config.n_steps, config.delta_theta
    if single_qubit(p):
        f_term, g_term = n * dtheta**2 * f_beta(beta) / 4.0, 0.0
    else:
        small_angle = ENTANGLERS[config.entangler_kind].small_angle
        f_term, g_term = small_angle(n, f_beta(beta), g_beta(beta), dtheta, config.step_params())
    mean_work, var_work, q_value = q_values(step(p, beta), beta, n)
    prediction = f_term + g_term
    return {
        "mean_work": mean_work,
        "var_work": var_work,
        "delta_F": 0.0,
        "w_diss": mean_work,
        "q_exact": q_value,
        "small_angle_prediction": prediction,
        "relative_gap": abs(q_value - prediction) / abs(q_value) if q_value else 0.0,
        "f_beta": f_beta(beta),
        "g_beta": g_beta(beta),
        "f_term": f_term,
        "g_term": g_term,
        "beta": beta,
        "n_steps": n,
    }


def sweep_output(argv: list[str]) -> str:
    """What `workfdr sweep <argv>` prints, one q_report per point."""
    args = cli.build_parser().parse_args(["sweep", *argv])
    p = cli._params(args)
    betas = cli._parse_grid(args.beta_grid, integral=False) if args.beta_grid else [p["beta"]]
    steps = cli._parse_grid(args.n_grid, integral=True).tolist() if args.n_grid else [p["n"]]
    rows = []
    for beta in sorted(betas):
        for n in sorted(steps):
            r = q_report(dict(p, beta=float(beta), n=n))
            rows.append(
                [beta, n, r["q_exact"], r["small_angle_prediction"], r["f_beta"], r["g_beta"], r["relative_gap"]]
            )
    header = ["beta", "n", "Q_exact", "Q_small_angle", "f", "g", "relative_gap"]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        cli._emit_table(args, cli._spec_echo(p), header, [rows])
    return buffer.getvalue()
