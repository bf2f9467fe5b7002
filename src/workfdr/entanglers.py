"""The entangler registry: one entry per two-qubit entangler kind, read by the
CLI, ProtocolConfig and the small-angle functions, so a new kind is one entry.

An entry holds its parameter specs, the per-step 4x4 unitary, the closed-form
step distribution, and the small-angle Q as (f_term, g_term). This is the one
place a parameter is named: the CLI flags, --config keys and ProtocolConfig's
total_<name> keywords are derived from the specs when they are used. The
callables take the per-step parameters as a mapping keyed by the specs' step
names and look functions up on their modules at call time, so a replaced
module attribute (a test's mutant, a profiler's wrapper) is seen here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import linalg, model
from . import work_stats as ws
from .errors import require_int


@dataclass(frozen=True)
class Param:
    """One entangler angle: `step` is its per-step name (a `dist` flag and a
    step-mapping key), `total` its protocol-total name (a `q`/`sweep`/`sample`
    flag, a --config key and ProtocolConfig's total_<total> keyword)."""

    step: str
    total: str
    help: str


@dataclass(frozen=True)
class Entangler:
    """One entangler kind. `reduces_to_single_qubit` marks the identity, under
    which the two qubits are independent copies of the single-qubit model."""

    params: tuple[Param, ...]
    unitary: Callable[[Mapping], np.ndarray]
    closed_form: Callable[[float, float, Mapping], ws.WorkDistribution]
    small_angle: Callable[[int, float, float, Mapping], tuple[float, float]]
    reduces_to_single_qubit: bool = False


def _local_term(n: int, beta: float, delta_theta: float) -> float:
    # N*(dth^2/2)*f(beta), the f term of the two local quenches
    return n * delta_theta**2 / 2.0 * ws.f_beta(beta)


DEFAULT_KIND = "none"  # the identity, the kind a protocol has when no kind is given
ENTANGLERS = {
    DEFAULT_KIND: Entangler(
        params=(),
        unitary=lambda p: linalg.identity(4),
        closed_form=lambda beta, dth, p: ws.closed_form_distribution_cartan(beta, dth, 0.0, 0.0),
        small_angle=lambda n, beta, dth, p: (_local_term(n, beta, dth), 0.0),
        reduces_to_single_qubit=True,
    ),
    "rxx": Entangler(
        params=(Param("dphi", "phi", "xx entangler angle"),),
        unitary=lambda p: model.rxx(p["dphi"]),
        closed_form=lambda beta, dth, p: ws.closed_form_distribution_cartan(beta, dth, p["dphi"] / 2.0, 0.0),
        small_angle=lambda n, beta, dth, p: (
            _local_term(n, beta, dth),
            n * p["dphi"] ** 2 / 2.0 * ws.g_beta(beta),
        ),
    ),
    "cartan": Entangler(
        params=(
            Param("c1", "c1", "xx entangler angle"),
            Param("c2", "c2", "yy entangler angle"),
            Param("c3", "c3", "zz entangler angle"),
        ),
        unitary=lambda p: model.cartan_entangler(model.CartanCoefficients(p["c1"], p["c2"], p["c3"])),
        closed_form=lambda beta, dth, p: ws.closed_form_distribution_cartan(beta, dth, p["c1"], p["c2"]),
        small_angle=lambda n, beta, dth, p: (
            _local_term(n, beta, dth),
            n * 2.0 * (p["c1"] - p["c2"]) ** 2 * ws.g_beta(beta),
        ),
    ),
    "separable_xzx": Entangler(
        params=(
            Param("c", "c", "separable X angle, qubit A"),
            Param("l", "l", "separable Z angle, qubit A"),
            Param("m", "m", "separable X angle, qubit B"),
            Param("nz", "nz", "separable Z angle, qubit B"),
        ),
        unitary=lambda p: model.separable_xzx(model.SeparableXZXParams(p["c"], p["l"], p["m"], p["nz"])),
        closed_form=lambda beta, dth, p: ws.closed_form_distribution_separable(beta, dth, p["c"], p["m"]),
        small_angle=lambda n, beta, dth, p: (
            n * ws.f_beta(beta) * ((p["c"] + dth) ** 2 / 4.0 + (p["m"] + dth) ** 2 / 4.0),
            0.0,
        ),
    ),
}


def all_params() -> list[Param]:
    """Every parameter spec of the registry once, in registry order."""
    return list(dict.fromkeys(spec for entry in ENTANGLERS.values() for spec in entry.params))


def q_bipartite_smallangle_rxx(n: int, beta: float, delta_theta: float, delta_phi: float) -> float:
    """Small-angle two-qubit correction N*[(dth^2/2) f + (dphi^2/2) g] for the xx entangler."""
    n = require_int("n", n, minimum=1)
    return sum(ENTANGLERS["rxx"].small_angle(n, beta, delta_theta, {"dphi": delta_phi}))


def q_bipartite_smallangle_cartan(n: int, beta: float, delta_theta: float, c1: float, c2: float) -> float:
    """Small-angle two-qubit correction N*[(dth^2/2) f + 2(c1-c2)^2 g]; independent of c3."""
    n = require_int("n", n, minimum=1)
    return sum(ENTANGLERS["cartan"].small_angle(n, beta, delta_theta, {"c1": c1, "c2": c2}))


def q_separable_smallangle(n: int, beta: float, delta_theta: float, c: float, m: float) -> float:
    """Small-angle correction N*f(beta)*[(c+dth)^2/4 + (m+dth)^2/4]; no g term for separable driving."""
    n = require_int("n", n, minimum=1)
    return sum(ENTANGLERS["separable_xzx"].small_angle(n, beta, delta_theta, {"c": c, "m": m}))
