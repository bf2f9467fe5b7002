"""Benchmark of the workfdr command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the program is imported from
``src/`` of that checkout. With ``--trace 0`` it runs the workload's command
line as a fresh ``python -m workfdr.cli`` subprocess, again and again until
``--seconds`` have passed, times interpreter start plus
``import workfdr.cli`` in a subprocess of its own before each run, and runs
``reference_task.py`` after each run, so that every run's wall time can be
divided by the machine's speed around it (``wall_ratio``). With
``--trace 1`` it runs the traced run of ``layers``. Every run's output is
checked (see ``workloads.run_problems``).

Standard output ends with two JSON lines: a report with the run metadata,
every figure by name and unit and the reasons for any failure, then the
result line ``{"correct", "attempted", "failed", "metrics"}`` whose metrics
are the ``end_to_end`` (trace 0) or ``per_layer`` (trace 1) entries of
BENCHMARK.json. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, Workload, run_problems, sha256

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_RUNS = 3
CHILD_TIMEOUT_S = 60.0  # every workload takes a few seconds; a stuck child fails its run
SETUP_ARGV = ["-c", "import workfdr.cli"]


@dataclass(frozen=True)
class Child:
    seconds: float
    code: int
    stdout: bytes
    stderr: bytes
    peak_rss_mb: float


def run_child(argv: list[str]) -> Child:
    """Run ``python argv`` on the checkout's sources; peak RSS is this child's own.

    ``os.wait4`` returns the rusage of the one child it reaps, where
    ``RUSAGE_CHILDREN`` would give the maximum over every child reaped so far.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    stderr: list[bytes] = []
    reader = threading.Thread(target=lambda: stderr.append(proc.stderr.read()))
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    try:
        reader.start()
        killer.start()
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(seconds, proc.returncode, stdout, stderr[0] if stderr else b"", usage.ru_maxrss / 1024)


def run_reference_task() -> float:
    """Wall time of one run of ``reference_task.py``, the machine's current speed."""
    child = run_child([str(HERE / "reference_task.py")])
    if child.code != 0:
        raise SystemExit(f"error: the reference task exited {child.code}:\n{child.stderr.decode(errors='replace')}")
    return child.seconds


def _git_sha() -> str | None:
    """HEAD of the checkout, read from its .git directory; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _preflight() -> str:
    """Import the program once (compiling its bytecode); return numpy's version."""
    if not (SRC / "workfdr" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'workfdr' / 'cli.py'} not found; run from a workfdr checkout")
    child = run_child(["-c", "import json, numpy, workfdr.cli as c; print(json.dumps([c.__file__, numpy.__version__]))"])
    if child.code != 0:
        raise SystemExit(f"error: cannot import workfdr.cli from {SRC}:\n{child.stderr.decode(errors='replace')}")
    path, numpy_version = json.loads(child.stdout)
    if Path(path).resolve().parent.parent != SRC:
        raise SystemExit(f"error: workfdr.cli was imported from {path}, not from {SRC}")
    return numpy_version


def _summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values), "n": len(values)}


def end_to_end(workload: Workload, seed: int, seconds: float, reference: dict) -> dict:
    argv = ["-m", "workfdr.cli", *workload.argv(seed)]
    walls, ratios, setups, rss = [], [], [], []
    problems: list[str] = []
    first_stdout = None
    failed = 0
    before = run_reference_task()
    start = time.perf_counter()
    while len(walls) < MIN_RUNS or time.perf_counter() - start < seconds:
        setup = run_child(SETUP_ARGV)
        child = run_child(argv)
        after = run_reference_task()
        first_stdout = child.stdout if first_stdout is None else first_stdout
        run = run_problems(workload, seed, child.code, child.stdout, first_stdout, reference)
        if setup.code != 0:
            run.append(f"import workfdr.cli exited {setup.code}")
        if run and child.stderr:
            run.append(child.stderr.decode("utf-8", "replace")[-500:])
        setups.append(setup.seconds)
        walls.append(child.seconds)
        ratios.append(child.seconds / ((before + after) / 2))
        rss.append(child.peak_rss_mb)
        failed += bool(run)
        problems.extend(f"run {len(walls)}: {p}" for p in run)
        before = after
    wall = statistics.median(walls)
    metrics = {
        "wall_ratio": statistics.median(ratios),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }
    figures = {
        "wall_s": dict(_summary(walls), unit="s"),
        "wall_ratio": dict(_summary(ratios), unit="x"),
        "setup_s": dict(_summary(setups), unit="s"),
        "peak_rss_mb": dict(_summary(rss), unit="MB"),
        "fail_frac": {"value": failed / len(walls), "unit": "frac"},
    }
    if workload.work_metric:
        figures[workload.work_metric] = {"value": workload.work / wall, "unit": workload.work_unit}
    return {
        "metrics": metrics,
        "attempted": len(walls),
        "failed": failed,
        "problems": problems,
        "correct": failed == 0,
        "figures": figures,
        "stdout_sha256": sha256(first_stdout),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    numpy_version = _preflight()
    reference = json.loads((HERE / "reference.json").read_text())
    workload = WORKLOADS[args.workload]
    if args.trace:
        sys.path.insert(0, str(SRC))  # the traced run imports the program into this process
        from layers import traced_run

        outcome = traced_run(workload, args.seed, args.seconds, reference)
    else:
        outcome = end_to_end(workload, args.seed, args.seconds, reference)

    missing = sorted(set(declared) - set(outcome["metrics"]))
    if missing:
        raise SystemExit(f"error: the run did not measure {missing}")
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "command": ["python", "-m", "workfdr.cli", *workload.argv(args.seed)],
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py"))),
        **{k: v for k, v in outcome.items() if k != "metrics"},
        "metrics": outcome["metrics"],
    }
    print(json.dumps({"report": report}, sort_keys=True))
    result = {
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": outcome["metrics"][name], "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
