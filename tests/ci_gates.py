"""The process gates: `workfdr` runs at the program's limits, each process reaped alone by `os.wait4` so that its
peak RSS is its own, then runs each golden command line of tests/test_golden.py. One line a gate; the exit
status names every gate that failed. Run: python tests/ci_gates.py"""

import json
import os
import subprocess
import sys
import tempfile
import time

# At the 1,000,000-point cap a sweep streams its rows, 1,024 at a time: a header and 1,000,000 lines, in under
# 100 MB (it peaks near 73 MB on Python 3.11 and numpy 2.4).
SWEEPS = {
    "sweep memory": "sweep --beta-grid 0:9.99999:0.00001 --n 100 --entangler rxx --theta 0.8 --phi 0.6",
    # one beta over 1,000,000 N values: their step unitaries are built and enumerated as stacks of at most
    # 8192 N, and the run keeps 8 bytes an N besides its 16 a point; it peaks near 70 MB. The wall time is
    # printed, not gated
    "many-N sweep": "sweep --beta 1 --n-grid 1:1000000:1 --entangler cartan --theta 0.8 --c1 0.9 --c2 0.2 --c3 0.5",
}
# 400,000 trajectories on 1 and on 8 worker threads print the same results, and 8 threads peak less than
# the bound (MB) above 1. At the paper's protocol each kernel call draws its words in pieces of at most
# 2**14 (128 KB) and keeps only the flagged steps' words. At 0.8 and 0.6 a step (dense) every step runs the
# staircase: each call allocates a batch's draws' space and int8 arrays (22 bytes a step, 1.4 MB) and
# frees them on return.
MONTE_CARLO = {"paper": ("--n 50 --theta 0.5 --phi 0.5", 8), "dense": ("--n 20 --theta 16 --phi 12", 16)}


def run(argv, keep_stdout=False, stderr=None):
    """`workfdr *argv` run to its end, its stderr to the file `stderr` (default: this process's):
    exit code, stdout (else its line count), peak RSS in MB, wall seconds."""
    started = time.perf_counter()
    with subprocess.Popen(["workfdr", *argv], stdout=subprocess.PIPE, stderr=stderr) as proc:
        chunks = iter(lambda: proc.stdout.read(1 << 20), b"")
        stdout = b"".join(chunks) if keep_stdout else sum(chunk.count(b"\n") for chunk in chunks)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout, usage.ru_maxrss / 1024, time.perf_counter() - started


def main():
    failed = []
    for name, command in SWEEPS.items():
        code, lines, peak_mb, seconds = run(command.split())
        print(f"{name}: exit {code}, {lines} lines, peak RSS {peak_mb:.1f} MB, {seconds:.1f} s", flush=True)
        failed += [] if code == 0 and lines == 1_000_001 and peak_mb < 100 else [name]
    for name, (protocol, bound_mb) in MONTE_CARLO.items():
        command = f"sample --beta 1 --entangler rxx {protocol} --trajectories 400000 --seed 42 --workers".split()
        (code_1, out_1, peak_1, _), (code_8, out_8, peak_8, _) = (run([*command, n], True) for n in ("1", "8"))
        same = code_1 == code_8 == 0 and json.loads(out_1)["results"] == json.loads(out_8)["results"]
        print(f"Monte Carlo {name}: exit {code_1} and {code_8}, peak RSS {peak_1:.1f} and {peak_8:.1f} MB, 8 workers "
              f"{peak_8 - peak_1:+.1f} MB over 1 (bound {bound_mb} MB), results {'equal' if same else 'differ'}",
              flush=True)
        failed += [] if same and peak_8 - peak_1 < bound_mb else [f"Monte Carlo {name}"]
    # imported after the memory gates: a child's peak RSS counts its parent's at the fork (43 MB once
    # test_golden has loaded numpy, pytest and mpmath, where the Monte Carlo runs peak near 38 MB)
    from test_golden import CASES, GOLDEN

    started, differ = time.perf_counter(), []
    for name, (argv, code) in CASES.items():  # each golden: its exit code, its stdout bytes and an empty stderr
        with tempfile.TemporaryFile() as stderr:
            same = run(argv, True, stderr)[:2] == (code, (GOLDEN / f"{name}.out").read_bytes())
            differ += [] if same and os.fstat(stderr.fileno()).st_size == 0 else [name]
    print(f"goldens: {len(CASES) - len(differ)}/{len(CASES)} equal, {time.perf_counter() - started:.1f} s"
          + "".join(f"; {name} differs" for name in differ), flush=True)
    failed += ["goldens"] if differ else []
    sys.exit(f"failed: {', '.join(failed)}" if failed else 0)


if __name__ == "__main__":
    main()
