"""The batched exact pipeline against the point-by-point oracle in tests/sweep_oracle.py.

Grids, their one-row cases, q_grid, `q` and the `sweep` CSV and JSON bytes
must equal the oracle exactly, for every registry kind, single-qubit and
two-qubit, at betas where populations underflow (5000, 12000) and at N = 1,
3 and 400, and over one beta at N = 1..400, where the N values are one stack.
JSON tables must equal the earlier per-row encoder's bytes. Probabilities are
compared with ==, which for the non-zero values kept here is equality of the
values bit for bit.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest

import sweep_oracle
from workfdr import ValidationError, WorkDistribution, cli, verify, work_stats
from workfdr.entanglers import ENTANGLERS

BETAS = [0.0, 1e-300, 0.5, 1.3, 1.3, 400.0, 700.0, 5000.0, 12000.0]
STEPS = (1, 3, 400)
# entangler flags and protocol totals; the last two leave exact zeros inside the support
VARIANTS = {
    "none": ["--entangler", "none", "--theta", "0.8"],
    "none_two_qubit": ["--entangler", "none", "--theta", "0.8", "--two-qubit"],
    "rxx": ["--entangler", "rxx", "--theta", "0.8", "--phi", "0.6"],
    "cartan": ["--entangler", "cartan", "--theta", "0.8", "--c1", "0.9", "--c2", "0.2", "--c3", "0.5"],
    "separable_xzx": ["--entangler", "separable_xzx", "--theta", "0.8", "--c", "0.4", "--l", "0.3",
                      "--m", "0.6", "--nz", "0.2"],
    "rxx_no_quench": ["--entangler", "rxx", "--theta", "0", "--phi", "0.6"],
    "none_identity": ["--entangler", "none", "--theta", "0", "--two-qubit"],
}


def test_variants_cover_every_registry_kind():
    assert {argv[1] for argv in VARIANTS.values()} == set(ENTANGLERS)


def _point(variant: str, beta: float, n: int) -> dict:
    args = cli.build_parser().parse_args(["q", "--beta", str(beta), "--n", str(n), *VARIANTS[variant]])
    return cli._params(args)


def _grid(p: dict, betas: list):
    config, model = cli._config(p), cli._model(p)
    return work_stats.step_grid(betas, model.step_unitary(config.delta_theta, config.step_params()), model.energies)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("n", STEPS)
def test_grid_rows_equal_point_enumeration(variant, n):
    p = _point(variant, BETAS[0], n)
    support, probs = _grid(p, BETAS)
    assert support == tuple(sorted(support)) and probs.shape == (len(BETAS), len(support))
    mean_work, var_work, q_value = work_stats.q_grid(support, probs, BETAS, n)
    for i, beta in enumerate(BETAS):
        expected = sweep_oracle.step(p, beta)
        assert WorkDistribution(support, probs[i]) == expected, beta
        assert [w for w, prob in zip(support, probs[i]) if prob == 0.0] == sorted(set(support) - set(expected.support))
        # the one-row case, through the model's per-point function
        one = dict(p, beta=beta)
        config = cli._config(one)
        assert cli._model(one).step_distribution(beta, config.delta_theta, config.step_params()) == expected
        # one row of a grid equals the same beta evaluated alone
        one_support, one_row = _grid(one, [beta])
        assert one_support == support and list(one_row[0]) == list(probs[i])
        assert (mean_work[i], var_work[i], q_value[i]) == sweep_oracle.q_values(expected, beta, n)
        # q_correction is the one-beta case of q_grid, bit for bit
        assert work_stats.q_correction(expected, beta, n).hex() == float(q_value[i]).hex()


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_bytes_equal_point_loop(variant, fmt):
    for grids in (["--beta-grid", "700,0,1e-300,1.3,0.5,1.3,12000,400,5000", "--n-grid", "400,1,3,3"],
                  ["--beta-grid", "0:2:0.25", "--n", "3"], ["--beta", "5000", "--n-grid", "1:4:1"]):
        argv = [*grids, *VARIANTS[variant], "--format", fmt]
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert cli.main(["sweep", *argv]) == 0
        assert buffer.getvalue() == sweep_oracle.sweep_output(argv), argv


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_bytes_do_not_depend_on_the_block_size(monkeypatch, fmt):
    # blocks of betas (computing) and of rows (writing) that split the grid and the N values of one beta
    argv = ["--beta-grid", "700,0,1e-300,1.3,0.5,1.3,12000,400,5000", "--n-grid", "400,1,3,3", *VARIANTS["cartan"],
            "--format", fmt]
    expected = sweep_oracle.sweep_output(argv)
    for block in (1, 3, 7):
        monkeypatch.setattr(cli, "_SWEEP_BLOCK", block)
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert cli.main(["sweep", *argv]) == 0
        assert buffer.getvalue() == expected, block


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_q_is_the_one_point_case(variant):
    for beta in (0.0, 1.3, 12000.0):
        for n in STEPS:
            p = _point(variant, beta, n)
            betas = np.array([beta])
            columns = cli._q_reports(p, [n], betas, *work_stats.profiles(betas))
            assert all(np.shape(column) == (1, 1) for column in columns.values())
            report = {key: column[0][0] for key, column in columns.items()}
            expected = sweep_oracle.q_report(p)
            assert list(report) == list(expected) and report == expected, (beta, n)


def test_one_grid_per_sweep(monkeypatch, capsys):
    # (betas, the unitaries' stack shape) of each grid: the N values, a repeated one too, are one stack
    calls = []
    grid = work_stats.step_grid

    def record(*args):
        calls.append((len(args[0]), np.shape(args[1])[:-2]))
        return grid(*args)

    monkeypatch.setattr(work_stats, "step_grid", record)
    argv = ["sweep", "--beta-grid", "0:1:0.1", "--n-grid", "5,10,5", "--entangler", "rxx", "--phi", "0.3"]
    assert cli.main(argv) == 0
    assert calls == [(11, (3,))]
    assert len(capsys.readouterr().out.splitlines()) == 1 + 11 * 3
    calls.clear()
    assert verify.check_05_separable_null_result().passed
    assert calls == [(97, ())]


def test_grid_checks_every_row():
    # a transition matrix whose columns do not sum to 1 fails on the row that shows it
    populations = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.longdouble)
    transition = np.array([[1.0, 0.0], [0.0, 0.5]], dtype=np.longdouble)
    with pytest.raises(ValidationError, match="probabilities sum to 0.5"):
        work_stats._enumerate(populations, transition, (0.0, 1.0))
    with pytest.raises(ValidationError, match=r"probability 2.0 at work 0 is outside \[0, 1\]"):
        work_stats._enumerate(populations, 2 * transition, (0.0, 1.0))


def test_grid_of_random_unitaries_equals_point_enumeration():
    # no symmetry between |01> and |10>: the order in which degenerate pairs add up shows
    rng = np.random.default_rng(1618)
    for _ in range(20):
        quench, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        entangler, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        support, probs = work_stats.step_grid(BETAS, quench @ entangler)
        for i, beta in enumerate(BETAS):
            expected = sweep_oracle.step_bipartite(beta, quench, entangler)
            assert WorkDistribution(support, probs[i]) == expected, beta
            assert work_stats.step_distribution_bipartite(beta, quench, entangler) == expected, beta


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_many_n_sweep_equals_point_loop(variant):
    # one beta over N = 1..400: all 400 N values are one stack
    argv = ["--beta", "1.3", "--n-grid", "1:400:1", *VARIANTS[variant]]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main(["sweep", *argv]) == 0
    assert buffer.getvalue() == sweep_oracle.sweep_output(argv)


def _per_row_json_lines(spec: dict, header: list, blocks):
    # the earlier table encoder: json.dumps(row, indent=2, sort_keys=True) of each row, re-indented
    marker = "\0rows"
    head, tail = cli._json_document(spec, {"rows": [marker]}).split(json.dumps(marker))
    yield head
    separator = ""
    for rows in blocks:
        texts = [json.dumps(dict(zip(header, row)), indent=2, sort_keys=True).replace("\n", "\n      ") for row in rows]
        yield separator + ",\n      ".join(texts)
        separator = ",\n      "
    yield tail


def test_json_rows_equal_the_per_row_encoder():
    header = ["w", "beta", "Q_exact", "n", "abs_diff"]  # not in sorted order
    rows = [
        (1, 0.5, math.nan, -0.0, math.inf),
        (-2, -math.inf, 1e-300, 10**30, np.float64(0.1)),
        (0, 0.0, -1.7976931348623157e308, 1, 5e-324),
        (3, 1.3, 2.0000000000000004, -7, -math.nan),
    ]
    spec = {"beta": 1.0, "entangler": "cartan"}
    for blocks in ([rows], [rows[:1], rows[1:3], rows[3:]]):
        assert "".join(cli._json_lines(spec, header, blocks)) == "".join(_per_row_json_lines(spec, header, blocks))
