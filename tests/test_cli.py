"""CLI behaviour: outputs, determinism, exit codes, config/degrees handling."""

import json
import math

import pytest

from workfdr import ProtocolConfig, ValidationError, cli, model, verify, work_stats
from workfdr.cli import build_parser, main
from workfdr.entanglers import ENTANGLERS, Entangler, Param

Q_SMALL_RXX = 9.1270909498508389e-04


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_dist_identity_quench(capsys):
    code, out, _ = run_cli(capsys, "dist", "--beta", "1", "--dtheta", "0", "--entangler", "none")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["w", "P_exact", "P_closed_form", "abs_diff"]
    assert len(rows) == 1
    assert rows[0][0] == "0" and float(rows[0][1]) == 1.0


def test_dist_infinite_temperature_quarter_probabilities(capsys):
    code, out, _ = run_cli(
        capsys, "dist", "--beta", "0", "--dtheta", str(math.pi / 2), "--entangler", "none"
    )
    assert code == 0
    _, rows = parse_csv(out)
    probs = {int(r[0]): float(r[1]) for r in rows}
    assert abs(probs[1] - 0.25) <= 1e-15 and abs(probs[-1] - 0.25) <= 1e-15


def test_dist_c3_does_not_change_the_distribution(capsys):
    base_args = ["dist", "--beta", "1", "--dtheta", "0.1", "--entangler", "cartan",
                 "--c1", "0.05", "--c2", "0.01"]
    code_a, out_a, _ = run_cli(capsys, *base_args, "--c3", "0.7")
    code_b, out_b, _ = run_cli(capsys, *base_args, "--c3", "0.0")
    assert code_a == code_b == 0
    _, rows_a = parse_csv(out_a)
    _, rows_b = parse_csv(out_b)
    assert [r[0] for r in rows_a] == [r[0] for r in rows_b]
    for row_a, row_b in zip(rows_a, rows_b):
        assert abs(float(row_a[1]) - float(row_b[1])) <= 1e-12
        assert row_a[2] == row_b[2]  # closed form takes no c3: byte-identical


def test_q_zero_angles(capsys):
    code, out, _ = run_cli(
        capsys, "q", "--beta", "1", "--n", "50", "--theta", "0", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["q_exact"] == 0.0
    assert doc["versions"]["workfdr"]


def test_q_rxx_worked_example(capsys):
    code, out, _ = run_cli(
        capsys, "q", "--beta", "1", "--n", "100", "--theta", "1", "--entangler", "rxx",
        "--phi", "1", "--format", "json",
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["small_angle_prediction"] == pytest.approx(Q_SMALL_RXX, rel=1e-12)
    assert results["relative_gap"] < 2e-4
    assert results["f_term"] > 0 and results["g_term"] > 0


def test_q_two_qubit_without_entangler_doubles_single(capsys):
    shared = ["--beta", "1", "--n", "100", "--theta", "1", "--entangler", "none", "--format", "json"]
    _, single_out, _ = run_cli(capsys, "q", *shared)
    _, double_out, _ = run_cli(capsys, "q", *shared, "--two-qubit")
    q_single = json.loads(single_out)["results"]["q_exact"]
    q_double = json.loads(double_out)["results"]["q_exact"]
    assert q_double == pytest.approx(2.0 * q_single, rel=1e-12)


def test_sweep_beta_monotone_f_g(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--beta-grid", "0:5:0.5", "--n", "50", "--theta", "0.5",
        "--entangler", "rxx", "--phi", "0.5",
    )
    assert code == 0
    header, rows = parse_csv(out)
    f_col = [float(r[header.index("f")]) for r in rows]
    g_col = [float(r[header.index("g")]) for r in rows]
    betas = [float(r[0]) for r in rows]
    assert betas == sorted(betas)
    assert all(a <= b + 1e-15 for a, b in zip(f_col, f_col[1:]))
    assert all(a <= b + 1e-15 for a, b in zip(g_col, g_col[1:]))


def test_sweep_n_grid_gap_shrinks_fourfold(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--n-grid", "10,20,40,80", "--beta", "1", "--theta", "1",
        "--entangler", "rxx", "--phi", "1",
    )
    assert code == 0
    header, rows = parse_csv(out)
    gaps = [float(r[header.index("relative_gap")]) for r in rows]
    for first, second in zip(gaps, gaps[1:]):
        assert 3.5 <= first / second <= 4.5


def test_sweep_without_grid_fails(capsys):
    code, _, err = run_cli(capsys, "sweep", "--beta", "1", "--theta", "0.5")
    assert code == 2
    assert "error:" in err


def test_negativity_table(capsys):
    code, out, _ = run_cli(capsys, "negativity", "--c1", "0", "--c2", "0")
    assert code == 0
    _, rows = parse_csv(out)
    assert all(float(r[1]) <= 1e-12 and float(r[2]) == 0.0 for r in rows)

    _, out, _ = run_cli(capsys, "negativity", "--c1", "0.1", "--c2", "0")
    _, rows = parse_csv(out)
    for row in rows:
        assert float(row[1]) == pytest.approx(0.09933466539753061, abs=1e-10)

    _, out, _ = run_cli(capsys, "negativity", "--c1", "0.1", "--c2", "0.1")
    _, rows = parse_csv(out)
    values = {int(r[0]): float(r[2]) for r in rows}
    assert values[0] == 0.0 and values[3] == 0.0
    assert values[1] == pytest.approx(0.19470917115432525, abs=1e-12)
    assert values[2] == values[1]


def test_sample_identity_dynamics_and_determinism(capsys):
    args = ["sample", "--beta", "1", "--n", "10", "--theta", "0", "--trajectories", "2000",
            "--seed", "9"]
    code, out_a, _ = run_cli(capsys, *args)
    assert code == 0
    doc = json.loads(out_a)
    assert doc["results"]["estimates"]["mean_W"] == 0.0
    assert doc["results"]["estimates"]["var_W"] == 0.0
    assert doc["seed"] == 9
    _, out_b, _ = run_cli(capsys, *args)
    assert out_a == out_b


def test_sample_z_scores_are_small(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--beta", "1", "--n", "50", "--theta", "0.5", "--entangler", "rxx",
        "--phi", "0.5", "--trajectories", "20000", "--seed", "42",
    )
    assert code == 0
    z = json.loads(out)["results"]["z_scores"]
    assert abs(z["mean_W"]) <= 5 and abs(z["var_W"]) <= 5


def test_sample_requires_seed_and_trajectories(capsys):
    code, _, err = run_cli(capsys, "sample", "--beta", "1", "--n", "10", "--theta", "0.5")
    assert code == 2 and "error:" in err


def test_config_file_with_flag_override(capsys, tmp_path):
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps({"beta": 1.0, "n": 100, "theta": 1.0, "entangler": "rxx", "phi": 1.0}))
    _, out_file, _ = run_cli(capsys, "q", "--config", str(config), "--format", "json")
    _, out_flags, _ = run_cli(
        capsys, "q", "--beta", "1", "--n", "100", "--theta", "1", "--entangler", "rxx",
        "--phi", "1", "--format", "json",
    )
    assert json.loads(out_file)["results"] == json.loads(out_flags)["results"]
    # explicit flag wins over the file value
    _, out_override, _ = run_cli(
        capsys, "q", "--config", str(config), "--beta", "2", "--format", "json"
    )
    assert json.loads(out_override)["results"]["beta"] == 2.0


def test_config_integers_print_like_flags(capsys, tmp_path):
    # JSON integers for float keys give the bytes the same flags give
    config = tmp_path / "integers.json"
    config.write_text(json.dumps({"beta": 2, "n": 10, "theta": 1, "entangler": "rxx", "phi": 1}))
    flags = ["--beta", "2", "--n", "10", "--theta", "1", "--entangler", "rxx", "--phi", "1"]
    mc = ["--trajectories", "300", "--seed", "4"]
    for command, extra in (("q", ["--format", "json"]), ("sweep", ["--n-grid", "5,10"]), ("sample", mc)):
        _, out_file, _ = run_cli(capsys, command, "--config", str(config), *extra)
        _, out_flags, _ = run_cli(capsys, command, *flags, *extra)
        assert out_file == out_flags, command
    assert '"beta": 2.0' in out_file


def test_sample_builds_exact_reference_before_monte_carlo(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise ValidationError("probabilities sum to 0.99, expected 1")

    def must_not_run(*args, **kwargs):
        raise AssertionError("estimate ran before the exact reference")

    monkeypatch.setattr(work_stats, "convolve_n", fail)
    monkeypatch.setattr(cli, "estimate", must_not_run)
    code, out, err = run_cli(capsys, "sample", "--n", "5", "--theta", "0.1", "--trajectories", "100", "--seed", "1")
    assert code == 2 and out == "" and "probabilities" in err


def test_verify_checks_seed_and_count_before_check_1(capsys, monkeypatch):
    def must_not_run():
        raise AssertionError("check 1 ran before the Monte Carlo inputs were checked")

    monkeypatch.setattr(verify, "check_01_single_qubit_exact_q", must_not_run)
    for argv in (["--seed", "-1"], ["--trajectories", "1"], ["--seed", str(2**64)]):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == "" and err.startswith("error:"), argv


def test_unknown_config_key_rejected(capsys, tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"bogus": 1}))
    code, _, err = run_cli(capsys, "q", "--config", str(config))
    assert code == 2 and "bogus" in err


def test_degrees_flag(capsys):
    _, out_rad, _ = run_cli(capsys, "dist", "--beta", "1", "--dtheta", str(math.pi / 2))
    _, out_deg, _ = run_cli(capsys, "dist", "--beta", "1", "--dtheta", "90", "--degrees")
    _, rows_rad = parse_csv(out_rad)
    _, rows_deg = parse_csv(out_deg)
    for row_rad, row_deg in zip(rows_rad, rows_deg):
        assert float(row_rad[1]) == pytest.approx(float(row_deg[1]), rel=1e-12)


def test_output_file_matches_stdout(capsys, tmp_path):
    target = tmp_path / "table.csv"
    args = ["dist", "--beta", "0.5", "--dtheta", "0.3", "--entangler", "rxx", "--dphi", "0.2"]
    code, out, _ = run_cli(capsys, *args)
    code_file, _, _ = run_cli(capsys, *args, "--output", str(target))
    assert code == 0 and code_file == 0
    assert target.read_text() == out
    assert not list(tmp_path.glob(".workfdr-*"))  # no temp litter


def test_invalid_inputs_exit_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "q", "--beta", "-1", "--n", "10", "--theta", "0.1")
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    code, _, _ = run_cli(capsys, "dist", "--beta", "1", "--dtheta", "nan")
    assert code == 2
    for argv in (["q", "--n", "0", "--theta", "1"], ["sweep", "--n", "0", "--theta", "1", "--beta-grid", "1,2"]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and err.startswith("error:") and "n_steps" in err
    config = tmp_path / "bad.json"
    for values in ({"beta": "x"}, {"theta": True}, {"n": 2.7}, {"seed": 1.5}, {"workers": "2"},
                   {"two_qubit": "no"}, {"entangler": ["rxx"]}):
        config.write_text(json.dumps(values))
        code, out, err = run_cli(capsys, "q", "--config", str(config))
        assert code == 2 and out == "", values
        assert err.startswith("error:") and next(iter(values)) in err, (values, err)
    # an angle key the subcommand has no flag for: q reads totals only, dist per-step angles only
    for argv, values in ((["q", "--n", "10", "--theta", "0.5", "--entangler", "rxx"], {"dphi": 0.5}),
                         (["dist", "--dtheta", "0.5", "--entangler", "rxx"], {"phi": 0.5})):
        config.write_text(json.dumps(values))
        code, out, err = run_cli(capsys, *argv, "--config", str(config))
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and err.count("\n") == 1 and next(iter(values)) in err, (argv, err)
    # a beta too large for a float, written out in full as a JSON integer
    config.write_text('{"beta": 1' + "0" * 400 + "}")
    bad = [["q", "--config", str(config)]]
    # config files that are not UTF-8, or that nest deeper than the JSON decoder recurses
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff\xfe{}")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    # an integer longer than the 4,300 digits int() converts from a string
    long_int = tmp_path / "long_int.json"
    long_int.write_text('{"beta": 1' + "0" * 5000 + "}")
    bad += [["q", "--config", str(path)] for path in (not_utf8, deep, long_int)]
    # angles whose square overflows a float in the small-angle prediction
    huge = tmp_path / "huge.json"
    huge.write_text('{"theta": 1' + "0" * 300 + "}")
    bad += [["q", "--config", str(huge)], ["q", "--n", "1", "--theta", "1e200"],
            ["q", "--n", "1", "--entangler", "rxx", "--phi=-1e200"],
            ["q", "--n", "2", "--entangler", "cartan", "--c1", "1e300", "--c2=-1e300"],
            ["q", "--n", "1", "--entangler", "separable_xzx", "--c", "1e160"],
            ["sweep", "--n", "1", "--theta", "1e200", "--beta-grid", "1,2"]]
    mc = ["--trajectories", "100"]
    for seed in ("-1", str(2**64)):
        bad += [["sample", "--n", "5", "--theta", "0.1", *mc, "--seed", seed], ["verify", *mc, "--seed", seed]]
    for flag, grid in (("--beta-grid", "1,x"), ("--beta-grid", "1:x:1"), ("--n-grid", "1:inf:1"),
                       ("--n-grid", "2.5"), ("--beta-grid", "0:1e308:1e-308")):
        bad.append(["sweep", "--theta", "1", flag, grid])
    # each grid within the cap, their product of 1,500,003 points above it
    bad.append(["sweep", "--theta", "1", "--beta-grid", "0:1:2e-6", "--n-grid", "1,2,3"])
    for argv in bad:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and err.count("\n") == 1, (argv, err)
    # a flag its command would not read is no flag of that subcommand: argparse exits 2
    removed = {
        ("verify", "--trajectories", "100"): [["--beta", "2"], ["--entangler", "rxx"], ["--two-qubit"],
                                              ["--format", "json"], ["--degrees"]],
        ("negativity", "--c1", "0.1"): [["--beta", "2"], ["--entangler", "rxx"], ["--two-qubit"]],
        ("sample", "--n", "5", "--theta", "0.1", *mc, "--seed", "1"): [["--format", "csv"], ["--two-qubit"]],
    }
    for argv, flags in removed.items():
        for flag in flags:
            with pytest.raises(SystemExit) as exit_info:
                main([*argv, *flag])
            assert exit_info.value.code == 2, (argv, flag)


# per-step angles for every registry parameter; each kind reads only its own
ALL_STEP_ANGLES = ["--dtheta", "0.3", "--dphi", "0.2", "--c1", "0.25", "--c2", "-0.1", "--c3", "0.4",
                   "--c", "0.2", "--l", "0.1", "--m", "-0.15", "--nz", "0.3"]


@pytest.mark.parametrize("kind", list(ENTANGLERS))
def test_registry_kind_dist_closed_form_matches_enumeration(capsys, kind):
    code, out, _ = run_cli(capsys, "dist", "--beta", "0.8", "--entangler", kind, *ALL_STEP_ANGLES)
    assert code == 0
    header, rows = parse_csv(out)
    assert len(rows) >= 3
    assert max(float(r[header.index("abs_diff")]) for r in rows) <= 1e-11


def test_entangler_choices_are_the_registry_keys():
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    for name in ("dist", "q", "sweep", "sample"):
        entangler = next(a for a in subparsers.choices[name]._actions if a.dest == "entangler")
        assert list(entangler.choices) == list(ENTANGLERS)
    # every other flag is an angle flag, named after the registry's parameter specs
    specs = [spec for entry in ENTANGLERS.values() for spec in entry.params]
    totals = {"--n", "--theta", *(f"--{spec.total}" for spec in specs)}
    angle_flags = {
        "dist": {"--dtheta", *(f"--{spec.step}" for spec in specs)},
        "q": totals,
        "sweep": totals,
        "sample": totals,
        "negativity": {f"--{spec.step}" for spec in ENTANGLERS["cartan"].params},
        "verify": set(),
    }
    # and the rest are exactly the flags each command reads
    model = {"--beta", "--entangler", "--two-qubit", "--format", "--degrees"}
    other = {
        "dist": model,
        "q": model,
        "sweep": model | {"--beta-grid", "--n-grid"},
        "negativity": {"--format", "--degrees"},
        "sample": {"--beta", "--entangler", "--degrees", "--trajectories", "--seed", "--workers"},
        "verify": {"--trajectories", "--seed"},
    }
    for name, expected in angle_flags.items():
        flags = {flag for action in subparsers.choices[name]._actions for flag in action.option_strings}
        assert flags == {"-h", "--help", "--output", "--config"} | other[name] | expected, name


def test_a_new_entangler_kind_is_one_registry_entry(capsys, monkeypatch, tmp_path):
    # always-on zz crosstalk: Cartan c3 alone, under a parameter no other kind has
    crosstalk = Entangler(
        params=(Param("dzz", "zz", "zz crosstalk angle"),),
        unitary=lambda p: model.cartan_entangler(model.CartanCoefficients(0.0, 0.0, p["dzz"])),
        closed_form=lambda beta, dth, p: work_stats.closed_form_distribution_cartan(beta, dth, 0.0, 0.0),
        small_angle=lambda n, beta, dth, p: (n * dth**2 / 2.0 * work_stats.f_beta(beta), 0.0),
    )
    monkeypatch.setitem(ENTANGLERS, "zz", crosstalk)
    config = ProtocolConfig(1.0, 10, 0.5, "zz", total_zz=0.7)
    assert config.totals == {"zz": 0.7} and config.step_params() == {"dzz": 0.7 / 10}
    zz_file = tmp_path / "zz.json"
    zz_file.write_text(json.dumps({"zz": 0.7, "theta": 0.6}))
    q = ["q", "--beta", "1.3", "--n", "20", "--format", "json"]
    code, out, _ = run_cli(capsys, *q, "--theta", "0.6", "--entangler", "zz", "--zz", "0.7")
    code_file, out_file, _ = run_cli(capsys, *q, "--entangler", "zz", "--config", str(zz_file))
    code_ref, out_ref, _ = run_cli(capsys, *q, "--theta", "0.6", "--entangler", "none", "--two-qubit")
    assert code == code_file == code_ref == 0 and out_file == out
    document, reference = json.loads(out), json.loads(out_ref)["results"]
    assert document["spec"]["zz"] == 0.7
    # c3 only adds phases to the computational basis (check 4): no g term, and Q as without an entangler
    assert document["results"]["g_term"] == 0.0
    assert abs(document["results"]["q_exact"] - reference["q_exact"]) <= 1e-12 * abs(reference["q_exact"])
    code, out, _ = run_cli(capsys, "dist", "--beta", "0.8", "--dtheta", "0.3", "--entangler", "zz", "--dzz", "0.4")
    header, rows = parse_csv(out)
    assert code == 0 and max(float(r[header.index("abs_diff")]) for r in rows) <= 1e-12
    code, out, _ = run_cli(capsys, "sweep", "--entangler", "zz", "--config", str(zz_file), "--n-grid", "10,20")
    assert code == 0 and len(parse_csv(out)[1]) == 2
    code, out, _ = run_cli(capsys, "sample", "--entangler", "zz", "--config", str(zz_file), "--n", "10",
                           "--trajectories", "2000", "--seed", "3")
    document = json.loads(out)
    assert code == 0 and document["spec"]["zz"] == 0.7
    assert all(abs(z) <= 5.0 for z in document["results"]["z_scores"].values())


def test_verify_fast_run_reports_and_exit_code(capsys):
    # the g(40)/f(40) item (8b) is mathematically unattainable and must FAIL
    # honestly; everything else passes, so verify exits 1
    code, out_a, _ = run_cli(capsys, "verify", "--trajectories", "4000", "--seed", "42")
    assert code == 1
    assert "[FAIL]  8b" in out_a
    assert out_a.count("[PASS]") == 11
    code_b, out_b, _ = run_cli(capsys, "verify", "--trajectories", "4000", "--seed", "42")
    assert code_b == 1 and out_a == out_b


def test_cross_oracle_check_detects_injected_sign_flip(monkeypatch):
    # flip the sign of the sin^4 term in the +-2 channel weight; the
    # enumeration cross-check must notice (wrong value, or an outright
    # negative probability where the terms cancel)
    import math as _math

    from workfdr import verify
    from workfdr.errors import ValidationError
    from workfdr.work_stats import WorkDistribution

    def mutant(beta, delta_theta, c1, c2):
        w = _math.exp(-beta)
        denom = (1.0 + w) ** 2
        half = delta_theta / 2.0
        k2 = (
            _math.cos(half) ** 4 * _math.sin(c1 - c2) ** 2
            - _math.sin(half) ** 4 * _math.cos(c1 - c2) ** 2
        )
        sin_sq = _math.sin(delta_theta) ** 2
        weights = {
            -2: w * w * k2 / denom,
            -1: w * sin_sq / (2.0 * (1.0 + w)),
            1: sin_sq / (2.0 * (1.0 + w)),
            2: k2 / denom,
        }
        weights[0] = 1.0 - sum(weights.values())
        return WorkDistribution.from_weights(weights)

    monkeypatch.setattr("workfdr.work_stats.closed_form_distribution_cartan", mutant)
    try:
        triggered = not verify.check_10_cross_oracle().passed
    except ValidationError:
        triggered = True
    assert triggered
