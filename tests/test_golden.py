"""Golden CLI outputs: stdout bytes and exit codes of a fixed command set.

Every entangler kind goes through `dist`, `q` and `sweep` in CSV and JSON,
plus `negativity`, `--degrees`, `--config`, a small seeded `sample` per kind,
and `verify`. A refactor that claims "same behaviour" must leave every one of
these byte-identical. The files in tests/golden/ are reference data; rewrite
them (`python tests/test_golden.py --write`) only in a change that means to
alter the CLI's output, and say so in that change.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
from pathlib import Path

import pytest

from mp_oracle import qubit_law, separable_law
from workfdr.cli import main

GOLDEN = Path(__file__).parent / "golden"
CONFIG = str(GOLDEN / "config_cartan.json")

# per-step angles for `dist`, protocol totals for `q`, `sweep` and `sample`
DIST_ANGLES = {
    "none": ["--dtheta", "0.4"],
    "none_two_qubit": ["--dtheta", "0.4", "--two-qubit"],
    "rxx": ["--dtheta", "0.3", "--dphi", "0.2"],
    "cartan": ["--dtheta", "0.3", "--c1", "0.25", "--c2", "-0.1", "--c3", "0.4"],
    "separable_xzx": ["--dtheta", "0.3", "--c", "0.2", "--l", "0.1", "--m", "-0.15", "--nz", "0.3"],
}
TOTALS = {
    "none": ["--theta", "0.8"],
    "none_two_qubit": ["--theta", "0.8", "--two-qubit"],
    "rxx": ["--theta", "0.8", "--phi", "0.6"],
    "cartan": ["--theta", "0.8", "--c1", "0.9", "--c2", "0.2", "--c3", "0.5"],
    "separable_xzx": ["--theta", "0.8", "--c", "0.4", "--l", "0.3", "--m", "0.6", "--nz", "0.2"],
}


def _kind(variant: str) -> list[str]:
    return ["--entangler", variant.removesuffix("_two_qubit")]


def _cases() -> dict[str, tuple[list[str], int]]:
    cases = {}
    for variant in DIST_ANGLES:
        for fmt in ("csv", "json"):
            cases[f"dist_{variant}_{fmt}"] = (
                ["dist", "--beta", "1.3", *_kind(variant), *DIST_ANGLES[variant], "--format", fmt], 0
            )
            cases[f"q_{variant}_{fmt}"] = (
                ["q", "--beta", "1.3", "--n", "40", *_kind(variant), *TOTALS[variant], "--format", fmt], 0
            )
            cases[f"sweep_{variant}_{fmt}"] = (
                ["sweep", "--beta-grid", "0:2:0.5", "--n-grid", "10,20", *_kind(variant),
                 *TOTALS[variant], "--format", fmt],
                0,
            )
    for variant in TOTALS:
        if variant.endswith("_two_qubit"):
            continue  # `sample` is always two-qubit: same run as plain "none"
        cases[f"sample_{variant}"] = (
            ["sample", "--beta", "1.3", "--n", "20", *_kind(variant), *TOTALS[variant],
             "--trajectories", "2000", "--seed", "7"],
            0,
        )
    for fmt in ("csv", "json"):
        cases[f"negativity_{fmt}"] = (
            ["negativity", "--c1", "0.3", "--c2", "0.1", "--c3", "0.37", "--format", fmt], 0
        )
    cases["dist_cartan_degrees"] = (
        ["dist", "--beta", "0.7", "--entangler", "cartan", "--dtheta", "20", "--c1", "10",
         "--c2", "4", "--c3", "30", "--degrees"],
        0,
    )
    cases["q_rxx_degrees_json"] = (
        ["q", "--beta", "0.7", "--n", "25", "--entangler", "rxx", "--theta", "45", "--phi", "30",
         "--degrees", "--format", "json"],
        0,
    )
    # the closed form's qubit laws take dtheta + c by the addition formula: exact here
    cases["dist_separable_xzx_huge_csv"] = (
        ["dist", "--beta", "1", "--dtheta", "1e200", "--entangler", "separable_xzx", "--c", "1e300",
         "--format", "csv"],
        0,
    )
    cases["q_config_json"] = (["q", "--config", CONFIG, "--format", "json"], 0)
    cases["sweep_config_override"] = (["sweep", "--config", CONFIG, "--n-grid", "5,10", "--beta", "2"], 0)
    cases["sample_config_workers"] = (["sample", "--config", CONFIG, "--workers", "3"], 0)
    cases["verify"] = (["verify", "--trajectories", "4000", "--seed", "42"], 1)
    return cases


CASES = _cases()


def _run(argv: list[str]) -> tuple[int, bytes]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    argv, expected_code = CASES[name]
    code, stdout = _run(argv)
    assert code == expected_code
    assert stdout == (GOLDEN / f"{name}.out").read_bytes()


def _reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


# the goldens that hold a JSON document (`--format json`, and every `sample`)
JSON_GOLDENS = sorted(name for name, (argv, _) in CASES.items() if argv[0] == "sample" or "json" in argv)


@pytest.mark.parametrize("name", JSON_GOLDENS)
def test_json_golden_is_strict_json(name):
    # json.loads accepts NaN, Infinity and -Infinity unless parse_constant refuses them
    json.loads((GOLDEN / f"{name}.out").read_text(encoding="utf-8"), parse_constant=_reject_constant)


def _closed_form_column(text: str) -> list[tuple[int, float]]:
    if text.startswith("{"):
        return [(row["w"], row["P_closed_form"]) for row in json.loads(text)["results"]["rows"]]
    return [(int(row["w"]), float(row["P_closed_form"])) for row in csv.DictReader(io.StringIO(text))]


# the dist goldens whose closed form is built from one-qubit laws (--entangler none without --two-qubit, separable_xzx)
QUBIT_LAW_DISTS = ("dist_none_csv", "dist_none_json", "dist_separable_xzx_csv", "dist_separable_xzx_json",
                   "dist_separable_xzx_huge_csv")


@pytest.mark.parametrize("name", QUBIT_LAW_DISTS)
def test_dist_golden_closed_form_is_within_one_ulp_of_the_oracle(name):
    argv = CASES[name][0]
    flags = dict(zip(argv[1::2], argv[2::2]))  # every flag of these command lines takes a value; --m defaults to 0
    beta, dtheta = float(flags["--beta"]), float(flags["--dtheta"])
    if flags["--entangler"] == "none":
        law, lowest = qubit_law(beta, dtheta), -1
    else:
        law, lowest = separable_law(beta, dtheta, float(flags["--c"]), float(flags.get("--m", 0.0))), -2
    rows = _closed_form_column((GOLDEN / f"{name}.out").read_text(encoding="utf-8"))
    assert [w for w, _ in rows] == list(range(lowest, -lowest + 1))
    for w, p in rows:
        assert abs(p - float(law[w - lowest])) <= math.ulp(p), (w, p)


def _write() -> None:
    for name, (argv, expected_code) in CASES.items():
        code, stdout = _run(argv)
        if code != expected_code:
            raise SystemExit(f"{name}: exit {code}, expected {expected_code}")
        (GOLDEN / f"{name}.out").write_bytes(stdout)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_golden.py --write   (rewrites tests/golden/*.out)")
    _write()
