"""Command-line front end: distributions, Q reports, sweeps, negativity tables,
Monte Carlo runs, and the verification suite, emitting deterministic CSV/JSON.

Conventions: `dist` takes per-step angles (--dtheta, --dphi, --c1, ...);
`q`, `sweep`, and `sample` take protocol totals (--theta, --phi, --c1, ...)
that are divided by the step count N; the entangler flags and --config keys
come from the registry's parameter specs. Angles are radians unless --degrees
is given. Exit codes: 0 success, 1 verification failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

from . import __version__
from . import work_stats as ws
from .entanglement import cartan_basis_negativities
from .entanglers import DEFAULT_KIND, ENTANGLERS, Param, all_params
from .errors import WorkFdrError, ValidationError, require_finite, require_int
from .model import bipartite_quench
from .sampler import ProtocolConfig, estimate, exact_reference, require_run
from .verify import run_all

_MAX_GRID_POINTS = 1_000_000  # per grid, and per sweep
_MODEL_FLAGS = ("--beta", "--entangler", "--two-qubit", "--format", "--degrees")  # what dist, q and sweep read
_QUENCH = Param("dtheta", "theta", "local quench angle")  # every kind's, named like an entangler angle


def _write_output(text: str, path: str | None) -> None:
    """Print to stdout, or atomically replace the target file (temp + rename)."""
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".workfdr-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        os.unlink(tmp_path)
        raise


def _fmt(value) -> str:
    """A table cell: an int as is, a float to 17 significant digits."""
    return str(value) if isinstance(value, int) else f"{value:.17g}"


def _csv_table(header: list[str], rows: list) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_document(spec: dict, results, seed=None) -> str:
    document = {
        "spec": spec,
        "results": results,
        "versions": {"workfdr": __version__},
        "seed": seed,
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _emit_table(args, spec: dict, header: list[str], rows: list) -> None:
    if args.format == "csv":
        _write_output(_csv_table(header, rows), args.output)
    else:
        results = {"rows": [dict(zip(header, row)) for row in rows]}
        _write_output(_json_document(spec, results), args.output)


def _single_qubit(p: dict) -> bool:
    return p["entangler"] == DEFAULT_KIND and not p["two_qubit"]


def _config(p: dict) -> ProtocolConfig:
    totals = {f"total_{spec.total}": p[spec.total] for spec in ENTANGLERS[p["entangler"]].params}
    return ProtocolConfig(p["beta"], p["n"], p["theta"], p["entangler"], **totals)


def cmd_dist(args) -> int:
    p = _params(args)
    beta, dtheta, entangler = p["beta"], p["dtheta"], ENTANGLERS[p["entangler"]]
    if _single_qubit(p):
        exact = ws.step_distribution_single(beta, dtheta)
        closed = ws.closed_form_distribution_single(beta, dtheta)
    else:
        exact = ws.step_distribution_bipartite(beta, bipartite_quench(dtheta), entangler.unitary(p))
        closed = entangler.closed_form(beta, dtheta, p)
    rows = ws.distribution_rows(exact, closed)
    _emit_table(args, _spec_echo(p), ["w", "P_exact", "P_closed_form", "abs_diff"], rows)
    return 0


def _q_reports(p: dict, n: int, betas: list, fg: list):
    """Q report of one N at each beta, one dict at a time, from one step-distribution grid;
    fg holds (f_beta, g_beta) of each beta. Betas come sorted: inputs are checked at the first."""
    config = _config(dict(p, beta=betas[0], n=n))
    dtheta = config.delta_theta
    if _single_qubit(p):  # the small-angle terms come first: they refuse too large angles
        terms = [(ws.q_single_smallangle(n, beta, dtheta), 0.0) for beta in betas]
        grid = ws.step_grid_single(betas, dtheta)
    else:
        small_angle, step_params = ENTANGLERS[config.entangler_kind].small_angle, config.step_params()
        terms = [small_angle(n, beta, dtheta, step_params) for beta in betas]
        grid = ws.step_grid_bipartite(betas, config.step_quench(), config.step_entangler())
    columns = (column.tolist() for column in ws.q_grid(*grid, betas, n))
    for beta, (f, g), (f_term, g_term), mean_work, var_work, q_value in zip(betas, fg, terms, *columns):
        prediction = f_term + g_term
        yield {
            "mean_work": mean_work,
            "var_work": var_work,
            "delta_F": 0.0,
            "w_diss": mean_work,
            "q_exact": q_value,
            "small_angle_prediction": prediction,
            "relative_gap": abs(q_value - prediction) / abs(q_value) if q_value else 0.0,
            "f_beta": f,
            "g_beta": g,
            "f_term": f_term,
            "g_term": g_term,
            "beta": beta,
            "n_steps": n,
        }


def cmd_q(args) -> int:
    p = _params(args)
    results = next(_q_reports(p, p["n"], [p["beta"]], [(ws.f_beta(p["beta"]), ws.g_beta(p["beta"]))]))
    if args.format == "csv":
        header = list(results)
        _write_output(_csv_table(header, [[results[k] for k in header]]), args.output)
    else:
        _write_output(_json_document(_spec_echo(p), results), args.output)
    return 0


def _parse_grid(text: str, integral: bool) -> list:
    """Parse 'start:stop:step' (inclusive endpoints, at most _MAX_GRID_POINTS) or a comma list."""
    is_range = ":" in text
    try:
        items = [float(x) for x in text.split(":" if is_range else ",") if x.strip()]
    except ValueError:
        raise ValidationError(f"grid values must be numbers, got {text!r}") from None
    for item in items:
        require_finite(**{f"grid {text!r} value": item})
    if is_range:
        if len(items) != 3:
            raise ValidationError(f"grid must be start:stop:step, got {text!r}")
        start, stop, step = items
        if step <= 0 or stop < start:
            raise ValidationError(f"grid needs stop >= start and step > 0, got {text!r}")
        span = (stop - start) / step + 1e-9
        if span >= _MAX_GRID_POINTS:
            raise ValidationError(f"grid {text!r} has more than {_MAX_GRID_POINTS} points")
        values = [start + k * step for k in range(int(span) + 1)]
    else:
        values = items
    if not values:
        raise ValidationError(f"grid {text!r} is empty")
    if integral:
        return [require_int("n-grid value", v) for v in values]
    return values


def cmd_sweep(args) -> int:
    p = _params(args)
    if args.beta_grid is None and args.n_grid is None:
        raise ValidationError("sweep needs --beta-grid and/or --n-grid")
    # a grid replaces its scalar; a --config value is a default the grid overrides
    for scalar, grid in (("beta", "beta_grid"), ("n", "n_grid")):
        if getattr(args, scalar) is not None and getattr(args, grid) is not None:
            raise ValidationError(f"sweep takes --{scalar} or --{grid.replace('_', '-')}, not both")
    betas = sorted(_parse_grid(args.beta_grid, integral=False) if args.beta_grid else [p["beta"]])
    steps = sorted(_parse_grid(args.n_grid, integral=True) if args.n_grid else [p["n"]])
    if len(betas) * len(steps) > _MAX_GRID_POINTS:
        raise ValidationError(f"sweep has {len(betas)} x {len(steps)} points, more than {_MAX_GRID_POINTS}")
    fg = [(ws.f_beta(beta), ws.g_beta(beta)) for beta in betas]
    keys = ["beta", "n_steps", "q_exact", "small_angle_prediction", "f_beta", "g_beta", "relative_gap"]
    by_n = {n: [[r[k] for k in keys] for r in _q_reports(p, n, betas, fg)] for n in dict.fromkeys(steps)}
    rows = [by_n[n][i] for i in range(len(betas)) for n in steps]  # sorted beta outer, sorted N inner
    header = ["beta", "n", "Q_exact", "Q_small_angle", "f", "g", "relative_gap"]
    _emit_table(args, _spec_echo(p), header, rows)
    return 0


def cmd_negativity(args) -> int:
    p = _params(args)
    table = cartan_basis_negativities(p["c1"], p["c2"], p["c3"])
    rows = [(u, numerical, closed, abs(numerical - closed)) for u, numerical, closed in table]
    header = ["u", "negativity_numerical", "negativity_closed_form", "abs_diff"]
    _emit_table(args, _spec_echo(p), header, rows)
    return 0


def cmd_sample(args) -> int:
    p = _params(args)
    if p["seed"] is None or p["trajectories"] is None:
        raise ValidationError("sample needs --seed and --trajectories")
    config = _config(p)
    # every input and the exact reference first, so a failure comes before the Monte Carlo run
    require_run(p["trajectories"], p["seed"], p["workers"])
    mean_ref, var_ref, q_ref = exact_reference(config)
    stats = estimate(config, p["trajectories"], p["seed"], workers=p["workers"])
    results = {
        "estimates": {
            "n_trajectories": stats.n_trajectories,
            "mean_W": stats.mean_w,
            "var_W": stats.var_w,
            "se_mean": stats.se_mean,
            "se_var": stats.se_var,
            "q_estimate": stats.q_estimate,
            "q_se": stats.q_se,
        },
        "exact_reference": {"mean_W": mean_ref, "var_W": var_ref, "q_value": q_ref},
        "z_scores": {
            "mean_W": (stats.mean_w - mean_ref) / stats.se_mean if stats.se_mean else 0.0,
            "var_W": (stats.var_w - var_ref) / stats.se_var if stats.se_var else 0.0,
            "q": (stats.q_estimate - q_ref) / stats.q_se if stats.q_se else 0.0,
        },
    }
    _write_output(_json_document(_spec_echo(p), results, seed=p["seed"]), args.output)
    return 0


def cmd_verify(args) -> int:
    p = _params(args)
    given = {"mc_trajectories": p["trajectories"], "mc_seed": p["seed"]}
    results = run_all(**{name: value for name, value in given.items() if value is not None})
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"[{mark}] {r.item:>3}  {r.description}")
        lines.append(f"           {r.detail}")
    failed = [r.item for r in results if not r.passed]
    lines.append(
        f"{len(results) - len(failed)}/{len(results)} checks passed"
        + (f"; failing: {', '.join(failed)}" if failed else "")
    )
    _write_output("\n".join(lines) + "\n", args.output)
    return 1 if failed else 0


_COMMON_DEFAULTS = {
    "beta": 1.0,
    "n": 100,
    "entangler": DEFAULT_KIND,
    "two_qubit": False,
    "trajectories": None,
    "seed": None,
    "workers": 1,
}


def _params(args) -> dict:
    """Merge defaults, --config file values, and explicit flags (flags win)."""
    specs = [_QUENCH, *all_params()]
    angles = dict.fromkeys([*(s.step for s in specs), *(s.total for s in specs)], 0.0)
    merged = {**_COMMON_DEFAULTS, **angles}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                file_values = json.load(handle)
        except (ValueError, RecursionError) as error:  # bad UTF-8, bad JSON, or nesting too deep
            raise ValidationError(f"--config {args.config}: {error}") from None
        if not isinstance(file_values, dict):
            raise ValidationError("--config must hold a JSON object of parameter values")
        for key, value in file_values.items():
            if key not in merged:
                raise ValidationError(f"unknown config key {key!r}")
            if key in angles and not hasattr(args, key):  # an angle this subcommand has no flag for
                raise ValidationError(f"config key {key!r} is not an angle of `{args.command}`")
            merged[key] = value
    for key in merged:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    # integer type only: each range is checked by the library function that takes the value
    for key in ("n", "workers", "trajectories", "seed"):
        if merged[key] is not None:
            merged[key] = require_int(key, merged[key])
    if type(merged["two_qubit"]) is not bool:
        raise ValidationError(f"two_qubit must be true or false, got {merged['two_qubit']!r}")
    if not isinstance(merged["entangler"], str) or merged["entangler"] not in ENTANGLERS:
        raise ValidationError(f"unknown entangler {merged['entangler']!r}")
    # --config values keep their JSON types (argparse types the flags): a string or a bool fails here
    require_finite(**{key: merged[key] for key in ("beta", *angles)})
    for key in ("beta", *angles):  # as from a flag: a --config 2 prints as 2.0
        merged[key] = float(merged[key])
    if getattr(args, "degrees", False):
        for key in angles:
            merged[key] = math.radians(merged[key])
    return merged


def _spec_echo(p: dict) -> dict:
    return {k: p[k] for k in sorted(p) if p[k] is not None}


def _add_shared(parser: argparse.ArgumentParser, *flags: str) -> None:
    """The named shared flags, then --output and --config, which every subcommand reads."""
    definitions = {
        "--beta": {"type": float, "help": "inverse bath temperature (>= 0)"},
        "--entangler": {"choices": list(ENTANGLERS)},
        "--two-qubit": {"dest": "two_qubit", "action": "store_const", "const": True,
                        "help": "use two qubits even without an entangler"},
        "--output": {"help": "output path (default: stdout)"},
        "--format": {"choices": ["csv", "json"], "default": "csv"},
        "--config": {"help": "JSON file of parameter values; flags override"},
        "--degrees": {"action": "store_true", "help": "interpret angle inputs as degrees"},
    }
    for flag in (*flags, "--output", "--config"):
        parser.add_argument(flag, **definitions[flag])


def _add_angles(parser: argparse.ArgumentParser, per_step: bool) -> None:
    """The quench and entangler angles, per step or as totals; totals come with --n."""
    if not per_step:
        parser.add_argument("--n", type=int, default=None, help="number of protocol steps N")
    _add_params(parser, [_QUENCH, *all_params()], per_step)


def _add_params(parser: argparse.ArgumentParser, specs, per_step: bool) -> None:
    """One float flag per parameter spec, named by its per-step or its total name."""
    for spec in specs:
        name, which = (spec.step, "per-step") if per_step else (spec.total, "total")
        parser.add_argument(f"--{name}", type=float, default=None, help=f"{which} {spec.help}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="workfdr",
        description="Work statistics of slowly driven qubits under the discrete "
        "two-point-measurement protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("dist", help="per-step work distribution: exact vs closed form")
    _add_angles(p_dist, per_step=True)
    _add_shared(p_dist, *_MODEL_FLAGS)
    p_dist.set_defaults(func=cmd_dist)

    p_q = sub.add_parser("q", help="FDR correction report for an N-step protocol")
    _add_angles(p_q, per_step=False)
    _add_shared(p_q, *_MODEL_FLAGS)
    p_q.set_defaults(func=cmd_q)

    p_sweep = sub.add_parser("sweep", help="Q and small-angle gap over a beta and/or N grid")
    _add_angles(p_sweep, per_step=False)
    p_sweep.add_argument("--beta-grid", default=None, help="start:stop:step or comma list")
    p_sweep.add_argument("--n-grid", default=None, help="start:stop:step or comma list of integers")
    _add_shared(p_sweep, *_MODEL_FLAGS)
    p_sweep.set_defaults(func=cmd_sweep)

    p_neg = sub.add_parser("negativity", help="negativity of entangled basis states: numeric vs closed form")
    _add_params(p_neg, ENTANGLERS["cartan"].params, per_step=True)
    _add_shared(p_neg, "--format", "--degrees")
    p_neg.set_defaults(func=cmd_negativity)

    p_sample = sub.add_parser("sample", help="seeded Monte Carlo estimate with exact references")
    _add_angles(p_sample, per_step=False)
    p_sample.add_argument("--trajectories", type=int, default=None)
    p_sample.add_argument("--seed", type=int, default=None)
    p_sample.add_argument("--workers", type=int, default=None)
    _add_shared(p_sample, "--beta", "--entangler", "--degrees")  # JSON only, always two qubits
    p_sample.set_defaults(func=cmd_sample)

    p_verify = sub.add_parser("verify", help="run the full acceptance suite (exit 1 on any failure)")
    p_verify.add_argument("--trajectories", type=int, default=None, help="Monte Carlo trajectory count")
    p_verify.add_argument("--seed", type=int, default=None, help="Monte Carlo master seed")
    _add_shared(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (WorkFdrError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
