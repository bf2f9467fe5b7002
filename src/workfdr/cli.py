"""Command-line front end: distributions, Q reports, sweeps, negativity tables,
Monte Carlo runs, and the verification suite, emitting deterministic CSV/JSON.

Conventions: `dist` takes per-step angles (--dtheta, --dphi, --c1, ...); `q`, `sweep`,
and `sample` take protocol totals (--theta, --phi, --c1, ...) that are divided by the step
count N; the entangler flags and --config keys come from the registry's parameter specs.
Angles are radians unless --degrees is given. Exit codes: 0 success, 1 verification
failure, 2 invalid input, 130 interrupted (Ctrl-C).
"""

import argparse
import math
import os
import re
import sys

import numpy as np

from . import __version__
from . import work_stats as ws
from .entanglers import DEFAULT_KIND, ENTANGLERS, SINGLE_QUBIT, Entangler, ProtocolConfig, all_params
from .errors import WorkFdrError, ValidationError, _echo, require_finite, require_int

_MAX_GRID_POINTS = 1_000_000  # per grid, and per sweep
_SWEEP_BLOCK = 8192  # betas per grid and rows per output block of a sweep: it bounds memory; no row depends on it
_MODEL_FLAGS = ("--beta", "--entangler", "--two-qubit", "--format", "--degrees")  # what dist, q and sweep read


def _write_output(pieces, path: str | None) -> None:
    """Write an iterable of text pieces as they come: to stdout, or to a temporary file in the target's
    directory that then atomically replaces the target file (temp + rename). The file keeps an existing
    target's mode, else gets a new file's (0o666 less the umask). An error names the path, not the temp file."""
    if path is None:
        if sys.stdout is None:  # the process started with stdout closed (>&-)
            raise OSError("stdout is closed")
        sys.stdout.writelines(pieces)
        return
    import errno
    import tempfile

    tmp_path = None
    try:
        if not os.path.basename(path) or os.path.isdir(path):  # '', '.', 'out/' or a directory: no file to replace
            raise OSError(errno.EISDIR if path else errno.ENOENT, "")
        umask = os.umask(0o022)
        os.umask(umask)
        mode = os.stat(path).st_mode & 0o7777 if os.path.exists(path) else 0o666 & ~umask
        fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(path) or os.curdir, prefix=".workfdr-", suffix=".tmp")
        with os.fdopen(fd, "w", newline="\n") as handle:
            os.fchmod(fd, mode)  # mkstemp made it 0o600
            handle.writelines(pieces)
        os.replace(tmp_path, path)
    except BaseException as error:
        if tmp_path:
            os.unlink(tmp_path)
        if isinstance(error, OSError) and error.errno:
            raise OSError(f"cannot write --output {_echo(path)}: {os.strerror(error.errno)}") from None
        raise


def _csv_lines(header: list[str], blocks):
    """A CSV table, one string per block of rows: an int cell as is, a float to 17 significant
    digits. Every column holds one type, so the first row sets the format of every line."""
    yield ",".join(header) + "\n"
    line = None
    for rows in blocks:
        if line is None:
            line = ",".join("%d" if isinstance(cell, int) else "%.17g" for cell in rows[0]) + "\n"
        yield "".join([line % tuple(row) for row in rows])


def _json_document(spec: dict, results, seed=None) -> str:
    import json

    document = {
        "spec": spec,
        "results": results,
        "versions": {"workfdr": __version__},
        "seed": seed,
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _json_lines(spec: dict, header: list[str], blocks):
    """_json_document of the table {"rows": [...]}, one string per block of rows: one C-encoder dump of
    the block, its cells (numbers, split at ", " and "], [") set into an indent-2 row, keys sorted."""
    import json

    marker = "\0rows"
    head, tail = _json_document(spec, {"rows": [marker]}).split(json.dumps(marker))
    keys = sorted(range(len(header)), key=header.__getitem__)  # a row sits at depth 3 of the document
    template = "{{\n" + ",\n".join(f"        {json.dumps(header[i])}: {{{i}}}" for i in keys) + "\n      }}"
    yield head
    separator = ""
    for rows in blocks:
        texts = [template.format(*row.split(", ")) for row in json.dumps(rows)[2:-2].split("], [")]
        yield separator + ",\n      ".join(texts)
        separator = ",\n      "
    yield tail


def _emit_table(args, spec: dict, header: list[str], blocks) -> None:
    """Write a table as CSV or JSON from an iterable of non-empty blocks (lists) of rows,
    each written as it comes."""
    lines = _csv_lines(header, blocks) if args.format == "csv" else _json_lines(spec, header, blocks)
    _write_output(lines, args.output)


def _model(p: dict) -> Entangler:
    """The one model of a command: SINGLE_QUBIT for the identity without --two-qubit, else the kind's entry."""
    return SINGLE_QUBIT if p["entangler"] == DEFAULT_KIND and not p["two_qubit"] else ENTANGLERS[p["entangler"]]


def _config(p: dict) -> ProtocolConfig:
    totals = {f"total_{spec.total}": p[spec.total] for spec in ENTANGLERS[p["entangler"]].params}
    return ProtocolConfig(p["beta"], p["n"], p["theta"], p["entangler"], **totals)


def cmd_dist(args) -> int:
    p = _params(args)
    beta, dtheta, model = p["beta"], p["dtheta"], _model(p)
    rows = ws.distribution_rows(model.step_distribution(beta, dtheta, p), model.closed_form(beta, dtheta, p))
    _emit_table(args, _spec_echo(p), ["w", "P_exact", "P_closed_form", "abs_diff"], [rows])
    return 0


def _q_reports(p: dict, steps: list[int], betas: np.ndarray, f: np.ndarray, g: np.ndarray) -> dict:
    """The 13 `q` fields at each (N, beta) of steps x betas (f, g the betas' profiles), as columns in
    `q`'s key order: (len(steps), len(betas)) float64 arrays, and rows of ints for n_steps. The N values'
    steps are one stack. Betas come sorted, so each N's inputs are checked at the first; the
    small-angle terms come before the grid: they refuse too large angles."""
    model = _model(p)
    configs = (_config(dict(p, beta=float(betas[0]), n=n)) for n in steps)
    angles = [(config.delta_theta, config.step_params()) for config in configs]
    f_term, g_term = np.empty((2, len(steps), len(betas)))
    for i, (n, (dtheta, params)) in enumerate(zip(steps, angles)):
        f_term[i], g_term[i] = model.small_angle(n, f, g, dtheta, params)
    stacked = {spec.step: np.array([params[spec.step] for _, params in angles]) for spec in model.params}
    stack = model.step_unitary(np.array([dtheta for dtheta, _ in angles]), stacked)
    mean_work, var_work, q_value = ws.q_grid(*ws.step_grid(betas, stack, model.energies), betas, [[n] for n in steps])
    prediction = f_term + g_term
    return {
        "mean_work": mean_work,
        "var_work": var_work,
        "delta_F": np.zeros(q_value.shape),
        "w_diss": mean_work,
        "q_exact": q_value,
        "small_angle_prediction": prediction,
        "relative_gap": ws.relative_gap(q_value, prediction),
        "f_beta": np.broadcast_to(f, q_value.shape),
        "g_beta": np.broadcast_to(g, q_value.shape),
        "f_term": f_term,
        "g_term": g_term,
        "beta": np.broadcast_to(betas, q_value.shape),
        "n_steps": [[n] * len(betas) for n in steps],
    }


def cmd_q(args) -> int:
    p = _params(args)
    betas = np.array([p["beta"]])
    results = {key: column[0][0] for key, column in _q_reports(p, [p["n"]], betas, *ws.profiles(betas)).items()}
    if args.format == "csv":
        _write_output(_csv_lines(list(results), [[results.values()]]), args.output)
    else:
        _write_output([_json_document(_spec_echo(p), results)], args.output)
    return 0


def _grid_value(text: str, integral: bool):
    """float(text), or of an integral grid int(text) where it parses: float() rounds an int past 2**53.
    int() refuses an int text of more than sys.get_int_max_str_digits() digits, which Decimal reads."""
    if integral:
        try:
            return int(text)
        except ValueError:
            if re.fullmatch(r"\s*[+-]?\d+(?:_\d+)*\s*", text):  # int()'s syntax, refused for its length: past 2**1024
                import decimal

                return int(decimal.Decimal(text))
    return float(text)


_INT64 = range(-(2**63), 2**63)


def _parse_grid(text: str, integral: bool):
    """Parse 'start:stop:step' (inclusive endpoints, at most _MAX_GRID_POINTS) or a comma list,
    into a float64 array, or if integral an int64 array (an object array of ints past int64's range)."""
    is_range = ":" in text
    try:
        items = [_grid_value(x, integral) for x in text.split(":" if is_range else ",") if x.strip()]
    except ValueError:
        raise ValidationError(f"grid values must be numbers, got {_echo(text)}") from None
    name = f"grid {_echo(text)} value"  # once: a name built per item made a long list quadratic in its length
    for item in items:
        require_finite(**{name: item})
    if not is_range:
        if not items:
            raise ValidationError(f"grid {_echo(text)} is empty")
        if not integral:
            return np.array(items)
        values = [require_int("n-grid value", item) for item in items]
        return np.array(values, dtype=np.int64 if all(value in _INT64 for value in values) else object)
    if len(items) != 3:
        raise ValidationError(f"grid must be start:stop:step, got {_echo(text)}")
    start, stop, step = items
    if step <= 0 or stop < start:
        raise ValidationError(f"grid needs stop >= start and step > 0, got {_echo(text)}")
    if integral:  # counted and built in ints
        start, stop, step = require_int("n-grid value", start), math.floor(stop), require_int("n-grid value", step)
    span = (stop - start) // step if integral else (stop - start) / step + 1e-9
    if span >= _MAX_GRID_POINTS:
        raise ValidationError(f"grid {_echo(text)} has more than {_MAX_GRID_POINTS} points")
    count = int(span) + 1
    if integral and not (start in _INT64 and step in _INT64 and start + (count - 1) * step in _INT64):
        return np.array([start + k * step for k in range(count)], dtype=object)
    return start + np.arange(count) * step  # start + k * step, as floats or int64


def cmd_sweep(args) -> int:
    p = _params(args)
    if args.beta_grid is None and args.n_grid is None:
        raise ValidationError("sweep needs --beta-grid and/or --n-grid")
    # a grid replaces its scalar; a --config value is a default the grid overrides
    for scalar, grid in (("beta", "beta_grid"), ("n", "n_grid")):
        if getattr(args, scalar) is not None and getattr(args, grid) is not None:
            raise ValidationError(f"sweep takes --{scalar} or --{grid.replace('_', '-')}, not both")
    betas = _parse_grid(args.beta_grid, integral=False) if args.beta_grid is not None else np.array([p["beta"]])
    betas.sort(kind="stable")  # stable: -0.0 and 0.0 keep their order, as sorted() keeps it
    steps = np.sort(_parse_grid(args.n_grid, integral=True) if args.n_grid is not None
                    else np.array([p["n"]], dtype=object),
                    kind="stable")  # as betas: the default int64 sort's SIMD code costs 0.4 MB of RSS
    if len(betas) * len(steps) > _MAX_GRID_POINTS:
        raise ValidationError(f"sweep has {len(betas)} x {len(steps)} points, more than {_MAX_GRID_POINTS}")
    # every point before any output, so a refusal prints nothing: 16 bytes a point, 24 a beta, 8 an N
    f, g = np.empty((2, len(betas)))
    q_value, prediction = np.empty((2, len(steps), len(betas)))
    for start in range(0, len(betas), _SWEEP_BLOCK):
        part = slice(start, start + _SWEEP_BLOCK)
        f[part], g[part] = ws.profiles(betas[part])
        stacked = _SWEEP_BLOCK // len(betas[part])  # N values per stack: at most _SWEEP_BLOCK rows of probabilities
        for block in (slice(first, first + stacked) for first in range(0, len(steps), stacked)):
            columns = _q_reports(p, steps[block].tolist(), betas[part], f[part], g[part])
            q_value[block, part], prediction[block, part] = columns["q_exact"], columns["small_angle_prediction"]
    total = len(betas) * len(steps)

    def blocks():  # row r is (betas[r // len(steps)], steps[r % len(steps)]): sorted beta outer, sorted N inner
        for start in range(0, total, _SWEEP_BLOCK):
            i, k = np.divmod(np.arange(start, min(start + _SWEEP_BLOCK, total)), len(steps))
            q, predicted = q_value[k, i], prediction[k, i]
            yield list(zip(betas[i].tolist(), steps[k].tolist(), q.tolist(), predicted.tolist(),
                           f[i].tolist(), g[i].tolist(), ws.relative_gap(q, predicted).tolist()))

    header = ["beta", "n", "Q_exact", "Q_small_angle", "f", "g", "relative_gap"]
    _emit_table(args, _spec_echo(p), header, blocks())
    return 0


def cmd_negativity(args) -> int:
    p = _params(args)
    from .entanglement import cartan_basis_negativities  # on first use: no other command computes a negativity

    table = cartan_basis_negativities(p["c1"], p["c2"], p["c3"])
    rows = [(u, numerical, closed, abs(numerical - closed)) for u, numerical, closed in table]
    header = ["u", "negativity_numerical", "negativity_closed_form", "abs_diff"]
    _emit_table(args, _spec_echo(p), header, [rows])
    return 0


def cmd_sample(args) -> int:
    p = _params(args)
    if p["seed"] is None or p["trajectories"] is None:
        raise ValidationError("sample needs --seed and --trajectories")
    from .sampler import sample  # on first use: no other command runs the Monte Carlo

    # the exact reference runs beside the Monte Carlo threads, and its refusal stops them
    reference, stats = sample(_config(p), p["trajectories"], p["seed"], workers=p["workers"])
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
        "exact_reference": dict(zip(("mean_W", "var_W", "q_value"), reference)),
        "z_scores": dict(zip(("mean_W", "var_W", "q"), stats.z_scores(reference))),
    }
    _write_output([_json_document(_spec_echo(p), results, seed=p["seed"])], args.output)
    return 0


def cmd_verify(args) -> int:
    p = _params(args)
    from .verify import run_all  # on first use: no other command needs the acceptance suite

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
    _write_output(["\n".join(lines) + "\n"], args.output)
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
    specs = all_params()
    angles = dict.fromkeys([*(s.step for s in specs), *(s.total for s in specs)], 0.0)
    merged = {**_COMMON_DEFAULTS, **angles}
    if getattr(args, "config", None):
        import json

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


def _flag_type(convert):
    """A flag's type= that converts its text by int or float, and echoes a refused text to 40 characters
    (argparse's own message echoes all of it): "invalid int value: '12x'"."""

    def parse(text: str):
        try:
            return convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {convert.__name__} value: {_echo(text)}") from None

    return parse


def _add_shared(parser: argparse.ArgumentParser, *flags: str) -> None:
    """The named shared flags, then --output and --config, which every subcommand reads."""
    definitions = {
        "--beta": {"type": _flag_type(float), "help": "inverse bath temperature (>= 0)"},
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
        parser.add_argument("--n", type=_flag_type(int), default=None, help="number of protocol steps N")
    _add_params(parser, all_params(), per_step)


def _add_params(parser: argparse.ArgumentParser, specs, per_step: bool) -> None:
    """One float flag per parameter spec, named by its per-step or its total name."""
    for spec in specs:
        name, which = (spec.step, "per-step") if per_step else (spec.total, "total")
        parser.add_argument(f"--{name}", type=_flag_type(float), default=None, help=f"{which} {spec.help}")


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
    p_sample.add_argument("--trajectories", type=_flag_type(int), default=None)
    p_sample.add_argument("--seed", type=_flag_type(int), default=None)
    p_sample.add_argument("--workers", type=_flag_type(int), default=None)
    _add_shared(p_sample, "--beta", "--entangler", "--degrees")  # JSON only, always two qubits
    p_sample.set_defaults(func=cmd_sample)

    p_verify = sub.add_parser("verify", help="run the full acceptance suite (exit 1 on any failure)")
    p_verify.add_argument("--trajectories", type=_flag_type(int), default=None, help="Monte Carlo trajectory count")
    p_verify.add_argument("--seed", type=_flag_type(int), default=None, help="Monte Carlo master seed")
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
    except KeyboardInterrupt:  # Ctrl-C: one line, and the shell's 128 + SIGINT
        print("error: interrupted", file=sys.stderr)
        return 130


def run() -> None:
    """main() as a process, ended by os._exit once stdout and stderr are flushed, skipping the interpreter's teardown:
    sampler._run joined its worker threads, _write_output closed and renamed any --output file, no atexit is set."""
    sys.stderr = sys.stderr or open(os.devnull, "w")  # 2>&-: main's error line is dropped, not printed to stdout
    code = main()
    try:
        for stream in filter(None, (sys.stdout, sys.stderr)):  # a stream closed at start (>&-) is None
            stream.flush()
    except (OSError, ValueError):  # a closed pipe or stream: exit through the teardown, as before
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
