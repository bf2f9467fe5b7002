"""CLI behaviour: outputs, determinism, exit codes, config/degrees handling."""

import json
import math
import os
import shlex
import signal
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_golden import CASES

from workfdr import ProtocolConfig, ValidationError, cli, model, sampler, verify, work_stats
from workfdr.cli import build_parser, main
from workfdr.entanglers import ENTANGLERS, SINGLE_QUBIT, Entangler, Param

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


def test_sweep_n_grid_keeps_integers_past_2_to_the_53(capsys):
    # an integer of --n-grid is the int it names, as --n's is; a float would round 2**53 + 1 to 2**53
    for n in (2**53 + 1, 2**63 - 1, 2**64 + 1):
        code, out, _ = run_cli(capsys, "q", "--beta", "1", "--theta", "1", "--n", str(n))
        header, rows = parse_csv(out)
        q_row = dict(zip(header, rows[0]))
        assert code == 0 and q_row["n_steps"] == str(n)
        for grid in (str(n), f"{n - 2}:{n}:2", f"1e3,{n}"):  # one value, a range, an integral float beside it
            code, out, _ = run_cli(capsys, "sweep", "--beta", "1", "--theta", "1", "--n-grid", grid)
            header, rows = parse_csv(out)
            row = dict(zip(header, rows[-1]))
            assert code == 0 and (row["n"], row["Q_exact"]) == (q_row["n_steps"], q_row["q_exact"]), grid
        assert rows[0][header.index("n")] == "1000"
    # an integer range counts its points exactly: a float count put N = 3000000001 past this stop
    code, out, _ = run_cli(capsys, "sweep", "--beta", "1", "--theta", "1", "--n-grid", "1:3000000000:1000000000")
    assert code == 0 and [row[1] for row in parse_csv(out)[1]] == ["1", "1000000001", "2000000001"]


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
    values = {"beta": 2, "n": 10, "theta": 1, "entangler": "rxx", "phi": 1}
    mc = ["--trajectories", "300", "--seed", "4"]
    for command, extra in (("q", ["--format", "json"]), ("sweep", ["--n-grid", "5,10"]), ("sample", mc)):
        keys = [key for key in values if (command, key) != ("sweep", "n")]  # --n next to --n-grid exits 2
        config.write_text(json.dumps({key: values[key] for key in keys}))
        flags = [word for key in keys for word in (f"--{key}", str(values[key]))]
        code_file, out_file, _ = run_cli(capsys, command, "--config", str(config), *extra)
        code_flags, out_flags, _ = run_cli(capsys, command, *flags, *extra)
        assert code_file == code_flags == 0 and out_file == out_flags, command
    assert '"beta": 2.0' in out_file


def test_a_refused_sample_reference_stops_monte_carlo(capsys, monkeypatch):
    # the reference runs beside the Monte Carlo threads; unstopped, these 10**8 trajectories
    # would take 9,156 kernel calls, and each of the two threads makes at most one more
    kernel, calls, at_failure = sampler._simulate_batch, [], []
    started = threading.Event()

    def recording(*args):
        calls.append(args[1])  # the batch start
        started.set()
        return kernel(*args)

    def fail(*args, **kwargs):
        assert started.wait(60)
        at_failure.append(len(calls))
        raise ValidationError("probabilities sum to 0.99, expected 1")

    monkeypatch.setattr(work_stats, "convolve_n", fail)
    monkeypatch.setattr(sampler, "_simulate_batch", recording)
    code, out, err = run_cli(capsys, "sample", "--n", "5", "--theta", "0.1", "--trajectories", str(10**8),
                             "--seed", "1", "--workers", "2")
    assert code == 2 and out == "" and "probabilities" in err
    assert len(calls) - at_failure[0] <= 2


def test_a_beta_past_the_monte_carlo_range_exits_2_before_any_batch(capsys, monkeypatch):
    # (beta/2)**2 of the standard-error formula overflows a float past 2.68e154
    def must_not_run(*args):
        raise AssertionError("a Monte Carlo batch ran at a refused beta")

    monkeypatch.setattr(sampler, "_simulate_batch", must_not_run)
    code, out, err = run_cli(capsys, "sample", "--beta", "3e154", "--n", "3", "--theta", "0.1",
                             "--trajectories", "5", "--seed", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: beta must be in [0, 2.681561585988519e+154]") and err.count("\n") == 1


def test_ctrl_c_stops_a_long_sample_run():
    # most of a day of Monte Carlo on one thread; SIGINT ends it within one kernel call
    argv = ["sample", "--n", "50", "--entangler", "rxx", "--theta", "0.5", "--phi", "0.5",
            "--trajectories", str(10**10), "--seed", "1", "--workers", "1"]
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "workfdr.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    time.sleep(2.0)  # past the import, into the batches
    assert proc.poll() is None
    proc.send_signal(signal.SIGINT)
    try:
        out, err = proc.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise AssertionError("sample ran on for 10 s after SIGINT") from None
    assert proc.returncode == 130 and out == b""
    assert err == b"error: interrupted\n" and b"Traceback" not in err, err


GOLDEN = Path(__file__).parent / "golden"


def run_module(*argv, closing=""):
    """`python -m workfdr.cli argv` as the benchmark runs it: from the source tree, with no bytecode cache,
    and with buffered streams, so that an exit before their flush loses bytes. A `closing` redirection
    (">&-" or "2>&-") starts it through `sh -c` with that stream closed."""
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONUNBUFFERED", None)
    command = [sys.executable, "-m", "workfdr.cli", *argv]
    if closing:
        command = ["sh", "-c", f"{shlex.join(command)} {closing}"]
    return subprocess.run(command, env=env, capture_output=True, timeout=60, check=False)


@pytest.mark.parametrize("name", ["sweep_cartan_csv", "negativity_csv", "sample_rxx", "sample_config_workers", "verify"])
def test_the_module_entry_prints_the_golden_bytes_and_exit_code(name):
    # run() ends the process by os._exit once both streams are flushed: no byte may be lost to it
    argv, code = CASES[name]
    run = run_module(*argv)
    assert (run.returncode, run.stderr) == (code, b""), run.stderr.decode()
    assert run.stdout == (GOLDEN / f"{name}.out").read_bytes()


def test_the_module_entry_writes_an_output_file_and_a_refusal_line(tmp_path):
    target = tmp_path / "negativity.csv"
    run = run_module("negativity", "--c1", "0.3", "--c2", "0.1", "--c3", "0.37", "--output", str(target))
    assert (run.returncode, run.stdout, run.stderr) == (0, b"", b""), run.stderr.decode()
    assert target.read_bytes() == (GOLDEN / "negativity_csv.out").read_bytes()
    assert [path.name for path in tmp_path.iterdir()] == ["negativity.csv"]  # the temp file was renamed
    run = run_module("q", "--beta", "-1", "--n", "10", "--theta", "0.1")
    assert (run.returncode, run.stdout) == (2, b"")
    assert run.stderr == b"error: beta must be non-negative, got -1.0\n", run.stderr


def test_run_exits_by_os_exit_after_a_flush_and_by_sys_exit_when_it_fails(monkeypatch):
    class Exited(BaseException):
        pass

    def os_exit(code):
        raise Exited(code)

    class Stream:
        def __init__(self, error=None):
            self.error, self.flushes = error, 0

        def flush(self):
            self.flushes += 1
            if self.error:
                raise self.error

    monkeypatch.setattr(cli, "main", lambda: 1)
    monkeypatch.setattr(os, "_exit", os_exit)
    monkeypatch.setattr(sys, "stdout", Stream())
    monkeypatch.setattr(sys, "stderr", Stream())
    with pytest.raises(Exited) as exit_info:
        cli.run()
    assert exit_info.value.args == (1,) and sys.stdout.flushes == sys.stderr.flushes == 1
    monkeypatch.setattr(sys, "stdout", None)  # started with stdout closed: its flush is skipped
    with pytest.raises(Exited) as exit_info:
        cli.run()
    assert exit_info.value.args == (1,) and sys.stderr.flushes == 2
    for error in (BrokenPipeError(), ValueError("I/O operation on closed file.")):
        monkeypatch.setattr(sys, "stdout", Stream(error))
        with pytest.raises(SystemExit) as exit_info:
            cli.run()
        assert exit_info.value.code == 1, error


def test_a_closed_stdout_refuses_the_output_with_one_error_line():
    run = run_module("q", "--n", "5", "--theta", "0.3", closing=">&-")
    assert (run.returncode, run.stdout, run.stderr) == (2, b"", b"error: stdout is closed\n"), run.stderr.decode()


def test_a_closed_stdout_leaves_an_output_file_run_to_exit_0(tmp_path):
    target = tmp_path / "negativity.csv"
    run = run_module("negativity", "--c1", "0.3", "--c2", "0.1", "--c3", "0.37", "--output", str(target),
                     closing=">&-")
    assert (run.returncode, run.stdout, run.stderr) == (0, b"", b""), run.stderr.decode()
    assert target.read_bytes() == (GOLDEN / "negativity_csv.out").read_bytes()


def test_a_closed_stderr_refusal_exits_2_and_prints_nothing():
    # print(file=None) writes to stdout: run() gives a closed stderr a sink instead
    run = run_module("q", "--beta", "-1", "--n", "5", "--theta", "0.3", closing="2>&-")
    assert (run.returncode, run.stdout, run.stderr) == (2, b"", b"")


def test_main_returns_with_every_thread_it_started_joined(capsys):
    # run() skips the interpreter's teardown, which would join a thread left running: none may be left
    before = threading.enumerate()
    assert main(["sample", "--config", str(GOLDEN / "config_cartan.json"), "--workers", "3"]) == 0
    assert main(["verify", "--trajectories", "4000", "--seed", "42"]) == 1
    capsys.readouterr()
    assert threading.enumerate() == before


def test_an_interrupted_command_prints_one_line_and_leaves_no_file(capsys, monkeypatch, tmp_path):
    def interrupted(header, blocks):
        yield ",".join(header) + "\n"
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_csv_lines", interrupted)
    target = tmp_path / "q.csv"
    for output in ([], ["--output", str(target)]):
        code, _, err = run_cli(capsys, "q", "--beta", "1", "--n", "5", "--theta", "0.3", *output)
        assert code == 130 and err == "error: interrupted\n", output
    assert not list(tmp_path.iterdir())  # neither the target nor a temp file


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


def test_an_output_file_gets_the_mode_a_redirection_gives_it(capsys, tmp_path):
    # as `> m.csv`: a new target gets 0o666 less the umask (mkstemp makes the temp file 0o600), and an
    # existing target keeps its mode
    target = tmp_path / "m.csv"
    argv = ["q", "--n", "5", "--theta", "0.3", "--output", str(target)]
    umask = os.umask(0o022)
    try:
        for mask, mode in ((0o022, 0o644), (0o027, 0o640)):
            target.unlink(missing_ok=True)
            os.umask(mask)
            assert run_cli(capsys, *argv) == (0, "", "")
            assert stat.S_IMODE(target.stat().st_mode) == mode, oct(mask)
        os.umask(0o022)
        for mode in (0o640, 0o604):
            target.chmod(mode)
            assert run_cli(capsys, *argv) == (0, "", "")
            assert stat.S_IMODE(target.stat().st_mode) == mode, oct(mode)
    finally:
        os.umask(umask)
    assert [path.name for path in tmp_path.iterdir()] == ["m.csv"]


def test_an_output_error_names_the_path_and_not_the_temp_file(capsys, tmp_path, monkeypatch):
    # one line naming the path, never the temp file's random name; '', '.' and a directory are refused before
    # a temp file is made
    work = tmp_path / "work"
    (work / "out").mkdir(parents=True)
    monkeypatch.chdir(work)
    q = ["q", "--n", "5", "--theta", "0.3", "--output"]
    for path, reason in (("/nonexistent/dir/m.csv", "No such file or directory"), ("", "No such file or directory"),
                         (".", "Is a directory"), ("out", "Is a directory"), ("out/", "Is a directory"),
                         (str(work / "out"), "Is a directory")):
        runs = [run_cli(capsys, *q, path) for _ in range(2)]
        assert runs[0] == runs[1], path  # the same bytes on every run
        code, out, err = runs[0]
        assert code == 2 and out == "" and err == f"error: cannot write --output {cli._echo(path)}: {reason}\n", err
        assert path[:30] in err and ".workfdr-" not in err, err
    assert [path.name for path in tmp_path.rglob("*")] == ["work", "out"]  # no temp file anywhere


@pytest.mark.parametrize("two_qubit", [False, True])
def test_refused_sweep_writes_nothing(capsys, tmp_path, two_qubit):
    # the small-angle f term (N = 1) overflows at the last beta only, a block of betas after the first
    grid = "1:1000:0.1"
    betas = cli._parse_grid(grid, integral=False)
    assert len(betas) > cli._SWEEP_BLOCK
    f_last, f_before = work_stats.f_beta(betas[-1]), work_stats.f_beta(betas[-2])
    if two_qubit:  # N * theta^2 / 2 * f
        theta = math.sqrt(2.0) * math.sqrt(sys.float_info.max / f_before) * (1.0 - 1e-9)
        terms = lambda f: ENTANGLERS["none"].small_angle(1, f, 0.0, theta, {})
    else:  # N * theta^2 * f / 4
        theta = math.sqrt(sys.float_info.max / f_before) * (1.0 - 1e-9)
        terms = lambda f: SINGLE_QUBIT.small_angle(1, f, 0.0, theta, {})
    assert math.isfinite(sum(terms(f_before)))
    with pytest.raises(ValidationError, match="angles too large"):
        terms(f_last)
    argv = ["sweep", "--beta-grid", grid, "--n", "1", "--theta", repr(theta), *(["--two-qubit"] * two_qubit)]
    target = tmp_path / "sweep.out"
    for fmt in ("csv", "json"):
        for output in ([], ["--output", str(target)]):
            code, out, err = run_cli(capsys, *argv, "--format", fmt, *output)
            assert code == 2 and out == "" and err.startswith("error: angles too large"), (fmt, output)
    assert not target.exists() and not list(tmp_path.glob(".workfdr-*.tmp"))


def test_numpy_random_is_loaded_on_first_use():
    # each command loads only the modules it runs: the exact commands leave the Monte Carlo, negativity,
    # acceptance-suite and JSON modules unloaded; negativity loads entanglement, and sample the sampler
    golden = Path(__file__).parent / "golden"
    script = """if True:
        import contextlib, io, sys
        import workfdr
        assert not [name for name in sys.modules if name.startswith("workfdr.")], "import workfdr"
        import workfdr.cli
        lazy = ["workfdr.sampler", "workfdr.entanglement", "workfdr.verify", "concurrent.futures", "json",
                "numpy.random"]
        loaded = lambda: [name for name in lazy if name in sys.modules]
        assert not loaded(), ("import", loaded())
        with contextlib.redirect_stdout(io.StringIO()):
            assert workfdr.cli.main(["q", "--beta", "1.3", "--n", "40", "--entangler", "rxx",
                                     "--theta", "0.8", "--phi", "0.6"]) == 0
            assert workfdr.cli.main(["sweep", "--beta-grid", "0:2:0.5", "--n-grid", "10,20", "--entangler", "cartan",
                                     "--theta", "0.8", "--c1", "0.9", "--c2", "0.2", "--c3", "0.5"]) == 0
        assert not loaded(), ("q and sweep", loaded())
        from workfdr import ProtocolConfig
        assert not loaded(), ("ProtocolConfig", loaded())
        with contextlib.redirect_stdout(io.StringIO()):
            assert workfdr.cli.main(["negativity", "--c1", "0.3", "--c2", "0.1", "--c3", "0.37"]) == 0
        assert loaded() == ["workfdr.entanglement"], ("negativity", loaded())
        from workfdr import estimate
        assert "numpy.random" not in sys.modules, "names"
        assert workfdr.cli.main(["sample", "--beta", "1.3", "--n", "20", "--entangler", "rxx", "--theta", "0.8",
                                 "--phi", "0.6", "--trajectories", "2000", "--seed", "7"]) == 0
        assert loaded() == [name for name in lazy if name != "workfdr.verify"], ("sample", loaded())
    """
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, check=False)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (golden / "sample_rxx.out").read_bytes()


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
    # valid JSON that is not an object of parameter values
    array = tmp_path / "array.json"
    array.write_text('[{"beta": 1}]')
    bad += [["q", "--config", str(path)] for path in (not_utf8, deep, long_int, array)]
    # angles whose square overflows a float in the small-angle prediction
    huge = tmp_path / "huge.json"
    huge.write_text('{"theta": 1' + "0" * 300 + "}")
    bad += [["q", "--config", str(huge)], ["q", "--n", "1", "--theta", "1e200"],
            ["q", "--n", "1", "--entangler", "rxx", "--phi=-1e200"],
            ["q", "--n", "2", "--entangler", "cartan", "--c1", "1e300", "--c2=-1e300"],
            ["q", "--n", "1", "--entangler", "separable_xzx", "--c", "1e160"],
            ["sweep", "--n", "1", "--theta", "1e200", "--beta-grid", "1,2"]]
    # angles whose prediction overflows to inf without raising (n * x), or to inf * 0 = NaN at beta 0
    for fmt in ("csv", "json"):
        bad += [["q", "--n", "1000000000", "--theta", "1e159", "--format", fmt],
                ["q", "--n", "1000000000", "--theta", "1e159", "--beta", "0", "--format", fmt],
                ["sweep", "--n", "1000", "--theta", "1e150", "--entangler", "rxx", "--phi", "1e156",
                 "--beta-grid", "1,2", "--format", fmt]]
    mc = ["--trajectories", "100"]
    for seed in ("-1", str(2**64)):
        bad += [["sample", "--n", "5", "--theta", "0.1", *mc, "--seed", seed], ["verify", *mc, "--seed", seed]]
    for flag, grid in (("--beta-grid", "1,x"), ("--beta-grid", "1:x:1"), ("--n-grid", "1:inf:1"),
                       ("--n-grid", "2.5"), ("--beta-grid", "0:1e308:1e-308"), ("--beta-grid", "1:2"),
                       ("--beta-grid", "2:1:1"), ("--n-grid", ",")):
        bad.append(["sweep", "--theta", "1", flag, grid])
    # an empty grid is refused, as a grid of spaces is, not read as no grid
    for argv in (["--beta-grid", "", "--n", "7"], ["--beta-grid", "", "--n-grid", ""], ["--n-grid", "", "--beta", "1"]):
        assert run_cli(capsys, "sweep", "--theta", "1", *argv) == (2, "", "error: grid '' is empty\n"), argv
    # a scalar flag next to its own grid would be ignored
    bad += [["sweep", "--theta", "1", "--beta", "2", "--beta-grid", "1,2"],
            ["sweep", "--theta", "1", "--n", "5", "--n-grid", "5,10"]]
    # each grid within the cap, their product of 1,500,003 points above it
    bad.append(["sweep", "--theta", "1", "--beta-grid", "0:1:2e-6", "--n-grid", "1,2,3"])
    # an --output that names a directory is refused before any temp file is made
    directory = tmp_path / "out"
    directory.mkdir()
    bad.append(["dist", "--beta", "1", "--dtheta", "0.3", "--output", str(directory)])
    for argv in bad:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and err.count("\n") == 1, (argv, err)
    assert not list(tmp_path.glob(".workfdr-*.tmp"))  # the failed write removed its temp file
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


def test_a_step_count_too_large_for_a_float_exits_2(capsys):
    # argparse's int takes any length; the per-step angles divide by N as a float
    n = "1" + "0" * 400
    for argv in (["q", "--beta", "1", "--theta", "1", "--n", n],
                 ["sweep", "--beta-grid", "0:1:0.5", "--theta", "1", "--n", n],
                 ["sample", "--theta", "1", "--n", n, "--trajectories", "10", "--seed", "1"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: n_steps must be below 2**1024 in magnitude") and err.count("\n") == 1, (argv, err)
        assert err.endswith("… (401 characters)\n") and len(err.encode()) < 200, (argv, err)
    # a grid is named by its text, clipped as the value it refuses is
    for flag, scalar in (("--n-grid", ["--beta", "1"]), ("--beta-grid", ["--n", "3"])):
        code, out, err = run_cli(capsys, "sweep", "--theta", "1", *scalar, flag, "1," + n)
        assert code == 2 and out == "", flag
        assert err.startswith(f"error: grid '1,{n[:36]}… (405 characters) value must be"), (flag, err)
        assert err.count("\n") == 1 and len(err.encode()) < 200, (flag, err)
    # an item past int()'s 4,300 digits is refused for the same reason, not read as a float's inf
    code, out, err = run_cli(capsys, "sweep", "--theta", "1", "--beta", "1", "--n-grid", "1,1" + "0" * 5000)
    assert code == 2 and out == ""
    assert err.startswith("error: grid '1,1") and "value must be below 2**1024 in magnitude, got" in err, err
    assert err.count("\n") == 1 and len(err.encode()) < 200, err
    with pytest.raises(ValidationError, match="n_steps"):
        ProtocolConfig(beta=1.0, n_steps=2**1024, total_theta=1.0)
    assert ProtocolConfig(beta=1.0, n_steps=2**1023, total_theta=1.0).delta_theta == 2.0**-1023


def test_a_flag_value_argparse_refuses_is_echoed_to_40_characters(capsys):
    # argparse's own int and float types echoed the whole text: 5,389 bytes for the first, 3,393 for the second
    for argv in (["q", "--n", "1" + "0" * 5000], ["q", "--beta", "x" * 3000]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        err = capsys.readouterr().err
        assert exit_info.value.code == 2 and "Traceback" not in err, argv[1]
        line = err.splitlines()[-1]
        assert line.startswith(f"workfdr q: error: argument {argv[1]}: invalid ") and len(line.encode()) < 200, line
        assert line.endswith(f"… ({len(argv[2]) + 2} characters)"), line
    # a text of at most 40 characters prints argparse's own bytes
    for argv, line in ((["q", "--n", "12x"], "workfdr q: error: argument --n: invalid int value: '12x'\n"),
                       (["sample", "--seed", "1.5"], "workfdr sample: error: argument --seed: invalid int value: '1.5'\n"),
                       (["dist", "--dtheta", "0.1.2"],
                        "workfdr dist: error: argument --dtheta: invalid float value: '0.1.2'\n")):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        err = capsys.readouterr().err
        assert exit_info.value.code == 2 and err.startswith(f"usage: workfdr {argv[0]} ") and err.endswith(line), err


# short grid texts, and texts holding one 401-digit item, as --beta-grid and as --n-grid
_GRID_TEXT = st.text("0123456789+-.eE:, x_", max_size=24)
_LONG_ITEM = st.sampled_from(["1" + "0" * 400, "-1" + "0" * 400, "1" + "0" * 400 + ".5"])
_LONG_GRID_TEXT = st.builds("{}{}{}{}{}".format, _GRID_TEXT, st.sampled_from(",:"), _LONG_ITEM,
                            st.sampled_from(["", ",", ":"]), _GRID_TEXT)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(text=_GRID_TEXT | _LONG_GRID_TEXT, integral=st.booleans())
def test_a_grid_text_parses_or_is_refused_in_at_most_200_characters(text, integral):
    try:
        values = cli._parse_grid(text, integral)
    except ValidationError as error:
        assert len(str(error)) <= 200, (text, str(error))
    else:
        assert isinstance(values, np.ndarray) and values.size, text


def test_a_grid_names_itself_once_not_once_per_item(monkeypatch):
    # a name built per item echoed the whole text per item: a 20,000-item --n-grid took 4 s to parse
    echoed = []
    monkeypatch.setattr(cli, "_echo", lambda text: echoed.append(text) or repr(text))
    assert cli._parse_grid(",".join(map(str, range(1, 1001))), integral=True).tolist() == list(range(1, 1001))
    assert len(echoed) == 1


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
        small_angle=lambda n, f, g, dth, p: (n * dth**2 / 2.0 * f, 0.0),
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
        return WorkDistribution(*zip(*sorted(weights.items())))

    monkeypatch.setattr("workfdr.work_stats.closed_form_distribution_cartan", mutant)
    try:
        triggered = not verify.check_10_cross_oracle().passed
    except ValidationError:
        triggered = True
    assert triggered
