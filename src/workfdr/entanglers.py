"""The entangler registry: one entry per two-qubit entangler kind, read by the
CLI, ProtocolConfig and the verification suite, so a new kind is one entry.

An entry holds its parameter specs, the per-step entangler unitary, the
closed-form step distribution, and the small-angle Q as (f_term, g_term): the
prediction of a kind is sum(ENTANGLERS[kind].small_angle(n, f, g, dth, params)),
with f and g the profiles f_beta(beta) and g_beta(beta), or arrays of them over
a beta grid, and there is no other. The spectrum and the local quench default
to two qubits'; SINGLE_QUBIT is the one-qubit model as an entry of the same
shape, outside the registry. The identity, DEFAULT_KIND, is the kind under which
the two qubits are independent copies of it. This is the one place a parameter
is named: the CLI flags, --config keys and ProtocolConfig's total_<name>
keywords are derived from the specs when they are used. The callables take the
per-step parameters as a mapping keyed by the specs' step names and look
functions up on their modules at call time, so a replaced module attribute (a
test's mutant, a profiler's wrapper) is seen here too.
"""

import functools
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from . import linalg, model
from . import work_stats as ws
from .errors import ValidationError, require_beta, require_finite, require_int


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
    """One entangler kind: a model whose step is quench(dth) @ unitary(params) on energies."""

    params: tuple[Param, ...]
    unitary: Callable[[Mapping], np.ndarray]
    closed_form: Callable[[float, float, Mapping], ws.WorkDistribution]
    small_angle: Callable[[int, float, float, float, Mapping], tuple[float, float]]
    energies: tuple[float, ...] = model.TWO_QUBIT_ENERGIES
    quench: Callable[[float], np.ndarray] = lambda dth: model.bipartite_quench(dth)

    def __post_init__(self):  # every kind names a non-finite angle and refuses angles whose prediction overflows
        object.__setattr__(self, "small_angle", functools.partial(ws.small_angle_terms, self.small_angle))

    def step_unitary(self, dth, p: Mapping) -> np.ndarray:
        """The per-step unitary: the local quench, then the entangler; of (k,) angle arrays, a stack."""
        return self.quench(dth) @ self.unitary(p)

    def step_distribution(self, beta: float, dth: float, p: Mapping) -> ws.WorkDistribution:
        """The enumerated step distribution at one beta."""
        return ws.step_distribution(beta, self.step_unitary(dth, p), self.energies)


def _local_term(n: int, f, delta_theta: float):
    # N*(dth^2/2)*f(beta), the f term of the two local quenches
    return n * delta_theta**2 / 2.0 * f


DEFAULT_KIND = "none"  # the identity, the kind a protocol has when no kind is given
ENTANGLERS = {
    DEFAULT_KIND: Entangler(
        params=(),
        unitary=lambda p: linalg.identity(4),
        closed_form=lambda beta, dth, p: ws.closed_form_distribution_cartan(beta, dth, 0.0, 0.0),
        small_angle=lambda n, f, g, dth, p: (_local_term(n, f, dth), 0.0),
    ),
    "rxx": Entangler(
        params=(Param("dphi", "phi", "xx entangler angle"),),
        unitary=lambda p: model.rxx(p["dphi"]),
        closed_form=lambda beta, dth, p: ws.closed_form_distribution_cartan(beta, dth, p["dphi"] / 2.0, 0.0),
        small_angle=lambda n, f, g, dth, p: (
            _local_term(n, f, dth),
            n * p["dphi"] ** 2 / 2.0 * g,
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
        small_angle=lambda n, f, g, dth, p: (
            _local_term(n, f, dth),
            n * 2.0 * (p["c1"] - p["c2"]) ** 2 * g,
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
        small_angle=lambda n, f, g, dth, p: (
            n * f * ((p["c"] + dth) ** 2 / 4.0 + (p["m"] + dth) ** 2 / 4.0),
            0.0,
        ),
    ),
}


# the one-qubit model; the --entangler none protocol without --two-qubit
SINGLE_QUBIT = Entangler(
    params=(),
    unitary=lambda p: linalg.identity(2),
    closed_form=lambda beta, dth, p: ws.closed_form_distribution_single(beta, dth),
    small_angle=lambda n, f, g, dth, p: (n * dth**2 * f / 4.0, 0.0),
    energies=model.SINGLE_QUBIT_ENERGIES,
    quench=lambda dth: model.rotation_x(dth),
)


def all_params() -> list[Param]:
    """Every parameter spec once: the local quench's, which every kind has, then the registry's in registry order."""
    quench = Param("dtheta", "theta", "local quench angle")  # ProtocolConfig's total_theta and delta_theta
    return list(dict.fromkeys([quench, *(spec for entry in ENTANGLERS.values() for spec in entry.params)]))


@dataclass(frozen=True, init=False)
class ProtocolConfig:
    """Two-qubit protocol description; angles are totals, per-step values are totals/n_steps.

    The entangler's totals are keywords total_<name>, one per total name of the
    kind's registry specs (total_phi for rxx, total_c1..total_c3 for cartan, ...),
    and are kept in `totals` under that name; an omitted total is 0. step_unitary()
    is the kind's Entangler.step_unitary at the per-step values: always two qubits,
    so a kind "none" config is two independent copies of SINGLE_QUBIT.
    """

    beta: float
    n_steps: int
    total_theta: float
    entangler_kind: str
    totals: dict[str, float] = field(hash=False)  # unhashable; equal configs still hash equal

    def __init__(self, beta, n_steps, total_theta, entangler_kind=DEFAULT_KIND, **totals):
        object.__setattr__(self, "beta", require_beta(beta))
        object.__setattr__(self, "n_steps", require_int("n_steps", n_steps, minimum=1))
        if not isinstance(entangler_kind, str) or entangler_kind not in ENTANGLERS:
            raise ValidationError(f"entangler_kind must be one of {tuple(ENTANGLERS)}, got {entangler_kind!r}")
        require_finite(n_steps=self.n_steps, total_theta=total_theta, **totals)  # the per-step angles divide by n_steps
        names = [spec.total for spec in ENTANGLERS[entangler_kind].params]
        values = {name: totals.pop(f"total_{name}", 0.0) for name in names}
        if totals:
            raise ValidationError(f"entangler {entangler_kind!r} takes no {', '.join(totals)}")
        object.__setattr__(self, "total_theta", total_theta)
        object.__setattr__(self, "entangler_kind", entangler_kind)
        object.__setattr__(self, "totals", values)

    @property
    def delta_theta(self) -> float:
        return self.total_theta / self.n_steps

    def step_params(self) -> dict[str, float]:
        """Per-step entangler parameters (total / n_steps), keyed by the registry specs' step names."""
        params = ENTANGLERS[self.entangler_kind].params
        return {spec.step: self.totals[spec.total] / self.n_steps for spec in params}

    def step_unitary(self) -> np.ndarray:
        return ENTANGLERS[self.entangler_kind].step_unitary(self.delta_theta, self.step_params())
