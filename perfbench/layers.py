"""The traced run: per-layer metrics, counts and tracing overhead for one workload.

It has two parts, both recorded by one ``Tracer``:

1. The layer probe. Spans from this file around calls into each module's
   public functions with fixed inputs, the same on every workload, so a
   ``<module>.<function>.<unit>`` figure means the same thing wherever it is
   reported. Fast functions are called many times inside one span.
2. The workload. Its command line runs in this process through
   ``workfdr.cli.main``, untraced and traced in turn, until the run's time is
   spent. The traced runs wrap every public function (see ``tracing``) and give
   the call and batch counts, the CLI's self time and the tracing overhead:
   the median over pairs of traced minus untraced wall time.
"""

from __future__ import annotations

import io
import statistics
import time
from contextlib import redirect_stdout

import numpy as np
from numpy.random import Generator, Philox
from workfdr import cli, entanglement, linalg, model, sampler, verify, work_stats

from tracing import KERNEL, Tracer
from workloads import VERIFY_TRAJECTORIES, Workload, cli_seed, run_problems

DRAWS_PER_STEP = 2  # one uniform for the thermal outcome, one for the Born outcome
DOUBLES_PER_BLOCK = 4  # one Philox counter block yields four doubles
ESTIMATE_TRAJECTORIES = {50: 32_768, 4000: 512}
PHILOX_DOUBLES = 4_000_000


def _timed(tracer: Tracer, name: str, fn, calls: int, repeats: int) -> float:
    """Median seconds per call of ``fn`` over ``repeats`` spans of ``calls`` calls each."""
    samples = []
    for _ in range(repeats):
        with tracer.span(name) as span:
            for _ in range(calls):
                fn()
        samples.append(span.seconds / calls)
    return statistics.median(samples)


def _probe(seed: int) -> tuple[dict, list[str]]:
    tracer = Tracer()
    m: dict[str, float] = {}
    # per-step angles of the workloads: mc_paper (N=50), exact_sweep (N=400), check 5 (N=200)
    dtheta = 0.5 / 50
    quench = linalg.kron(model.rotation_x(dtheta), model.rotation_x(dtheta))
    cartan = model.CartanCoefficients(0.8 / 400, 0.3 / 400, 0.2 / 400)
    separable = model.SeparableXZXParams(0.4 / 200, 0.3 / 200, 0.6 / 200, 0.2 / 200)
    entangler = model.cartan_entangler(cartan)
    dist = work_stats.step_distribution_bipartite(1.0, quench, entangler)
    # mc_long_horizon's per-step distribution (angle 40/4000 on both generators)
    long_step = work_stats.step_distribution_bipartite(
        1.0, linalg.kron(model.rotation_x(0.01), model.rotation_x(0.01)), model.rxx(0.01)
    )
    column = model.cartan_entangler(model.CartanCoefficients(0.3, 0.1, 0.37))[:, 1]
    rho = np.outer(column, column.conj())
    transposed = linalg.partial_transpose_A(rho)
    per_call = {  # metric: (call, calls per span, spans)
        "model.rotation_x.us": (lambda: model.rotation_x(dtheta), 2000, 5),
        "model.rxx.us": (lambda: model.rxx(dtheta), 2000, 5),
        "model.cartan_entangler.us": (lambda: model.cartan_entangler(cartan), 1000, 5),
        "model.separable_xzx.us": (lambda: model.separable_xzx(separable), 1000, 5),
        "linalg.check_unitary.us": (lambda: linalg.check_unitary(entangler), 2000, 5),
        "work_stats.step_distribution_bipartite.us": (
            lambda: work_stats.step_distribution_bipartite(1.0, quench, entangler), 200, 5
        ),
        "work_stats.q_correction.us": (lambda: work_stats.q_correction(dist, 1.0, 400), 1000, 5),
        "work_stats.convolve_n.s.n200": (lambda: work_stats.convolve_n(long_step, 200), 1, 9),
        "work_stats.convolve_n.s.n4000": (lambda: work_stats.convolve_n(long_step, 4000), 1, 3),
        "entanglement.negativity.us": (lambda: entanglement.negativity(rho), 50, 5),
        "linalg.hermitian_eigenvalues.us": (lambda: linalg.hermitian_eigenvalues(transposed), 50, 5),
        "linalg.check_density.us": (lambda: linalg.check_density(rho), 50, 5),
    }
    for metric, (fn, calls, repeats) in per_call.items():
        seconds = _timed(tracer, metric, fn, calls, repeats)
        m[metric] = seconds * 1e6 if metric.endswith(".us") else seconds

    configs = {
        50: sampler.ProtocolConfig(1.0, 50, 0.5, "rxx", total_phi=0.5),
        4000: sampler.ProtocolConfig(1.0, 4000, 40.0, "rxx", total_phi=40.0),
    }
    generator = Generator(Philox(key=np.uint64(seed)))

    def rate(n: int, workers: int):
        trajectories = ESTIMATE_TRAJECTORIES[n]
        return trajectories * n, lambda: sampler.estimate(configs[n], trajectories, seed, workers=workers)

    # Steps/s in rounds, so that the ratios compare figures taken seconds apart
    # on a machine whose speed drifts.
    probes = {
        "sampler.estimate.steps_per_s.n50.w1": rate(50, 1),
        "sampler.estimate.steps_per_s.n50.w2": rate(50, 2),
        "sampler.estimate.steps_per_s.n4000.w1": rate(4000, 1),
        "sampler.philox_ceiling.steps_per_s": (
            PHILOX_DOUBLES / DRAWS_PER_STEP,
            lambda: generator.random(PHILOX_DOUBLES),
        ),
    }
    rounds = []
    for _ in range(3):
        rounds.append({name: steps / _timed(tracer, name, fn, 1, 1) for name, (steps, fn) in probes.items()})
    for name in probes:
        m[name] = statistics.median(r[name] for r in rounds)
    w1, w2 = "sampler.estimate.steps_per_s.n50.w1", "sampler.estimate.steps_per_s.n50.w2"
    m["sampler.scaling_eff.w2"] = statistics.median(r[w2] / (2 * r[w1]) for r in rounds)
    m["sampler.kernel_ceiling_frac"] = statistics.median(
        r[w1] / r["sampler.philox_ceiling.steps_per_s"] for r in rounds
    )

    # every acceptance check once, check 9 at verify_quick's trajectory count
    problems = []
    for name in sorted(n for n in vars(verify) if n.startswith("check_")):
        check = getattr(verify, name)
        kwargs = {"n_trajectories": VERIFY_TRAJECTORIES, "seed": seed} if name == "check_09_monte_carlo" else {}
        with tracer.span(f"verify.{name}") as span:
            result = check(**kwargs)
        m[f"verify.check_{result.item}.s"] = span.seconds
        if result.passed == (result.item == "8b"):  # every check passes but 8b, red by design
            problems.append(f"acceptance check {result.item} passed={result.passed}")
    return m, problems


def _blocks_per_trajectory(n_steps: int) -> int:
    # the sampler's documented stream layout: ceil(2N / 4) Philox blocks per trajectory
    return (DRAWS_PER_STEP * n_steps + DOUBLES_PER_BLOCK - 1) // DOUBLES_PER_BLOCK


def _counts(tracer: Tracer) -> dict:
    """Counts of one traced workload run; they repeat exactly for a given command line."""
    draws = used = batch_bytes = 0
    batches = tracer.named(KERNEL)
    for span in batches:
        _, _, count, n_steps, _, born_cdf_rows = span.args[:6]
        drawn = count * DOUBLES_PER_BLOCK * _blocks_per_trajectory(n_steps)
        draws += drawn
        used += count * DRAWS_PER_STEP * n_steps
        # computed from array shapes: float64 uniforms, the float64 Born-CDF row
        # gather, and the int64 first and second outcome arrays
        batch_bytes = max(batch_bytes, 8 * (drawn + count * n_steps * (born_cdf_rows.shape[1] + 2)))
    return {
        "work_stats.enumerations": len(tracer.named("work_stats.step_distribution_bipartite"))
        + len(tracer.named("work_stats.step_distribution_single")),
        "entanglement.negativity_calls": len(tracer.named("entanglement.negativity")),
        "sampler.batches": len(batches),
        "sampler.draws": draws,
        "sampler.draws_used_frac": used / draws if draws else 0.0,
        "sampler.batch_bytes.computed": batch_bytes,
        "trace.spans": len(tracer.spans),
    }


def _in_process(argv: list[str]) -> tuple[float, int, bytes]:
    buffer = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(buffer):
        code = cli.main(argv)
    return time.perf_counter() - start, code, buffer.getvalue().encode("utf-8")


def traced_run(workload: Workload, seed: int, seconds: float, reference: dict) -> dict:
    """Per-layer metrics plus the run's attempted and failed counts and its problems."""
    start = time.perf_counter()
    metrics, probe_problems = _probe(cli_seed(seed))
    argv = workload.argv(seed)
    # untimed warm-up: the first in-process run pays one-off costs (about 0.5 s
    # on mc_long_horizon) that would bias the first pair
    _, code, first_stdout = _in_process(argv)
    problems = run_problems(workload, seed, code, first_stdout, first_stdout, reference)
    attempted, failed = 1, int(bool(problems))
    untraced, traced, cli_self = [], [], []
    counts = None
    while not traced or time.perf_counter() - start < seconds:
        # alternate which side of the pair runs first
        for trace in (False, True) if len(traced) % 2 == 0 else (True, False):
            tracer = Tracer()
            if trace:
                tracer.install()
            try:
                wall, code, stdout = _in_process(argv)
            finally:
                tracer.uninstall()
            run = run_problems(workload, seed, code, stdout, first_stdout, reference)
            if trace:
                traced.append(wall)
                cli_self.append(tracer.self_seconds("cli", "cli.main"))
                run_counts = _counts(tracer)
                counts = run_counts if counts is None else counts
                if run_counts != counts:
                    run.append(f"counts differ between traced runs: {run_counts} vs {counts}")
            else:
                untraced.append(wall)
            attempted += 1
            failed += bool(run)
            problems.extend(run)
    metrics.update(counts)
    metrics["cli.self.s"] = statistics.median(cli_self)
    metrics["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced, untraced))
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": probe_problems + problems,
        "correct": not probe_problems and not failed,
        "runs": {"untraced_s": untraced, "traced_s": traced},
    }
