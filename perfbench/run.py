"""Benchmark of the noisy-sqp package: one workload per invocation.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload trace-band --seed 0 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, measured untraced;
with ``--trace 1`` it prints the per-layer metrics of a traced run and the
tracing overhead against an untraced run of the same plan.  Set-up time is
the median of several fresh interpreters that import the package and
derive the three reference solutions.  The workload plan is repeated until
``--seconds`` have passed (at least twice), timings are medians over the
repetitions, and every deterministic counter must repeat exactly.  Every
reported time is scaled to a reference machine speed by calibration chunks
timed throughout the run (see ``calibrate.py``); the raw times are in the
report line.

Human-readable lines and one ``report:`` line with the provenance, the
counters and the behaviour fingerprint come first; the last line is the
JSON result.  ``--update-fingerprints`` stores the current fingerprint as
the reference for this workload and seed.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
FINGERPRINTS = HERE / "fingerprints.json"

SETUP_REPEATS = 9
MIN_REPS = 2
# Share of --seconds spent on the untraced baseline of a traced run.
TRACE_BASELINE_SHARE = 1 / 3

SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from noisy_sqp import problems
for name in problems.PROBLEM_NAMES:
    problems.get_problem(name)
    problems.reference_solution(name)
print(time.perf_counter() - start)
"""

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "us_per_iter_p50": "us", "us_per_iter_p90": "us",
    "oracle_evals_per_iter": "count", "min_dist_median": "1", "ok_share": "share",
    "peak_rss_mb": "MB",
}

SELF_US_LAYERS = (
    "oracles.eval_noisy", "oracles.eval_exact", "oracles.next_rng",
    "kernels.solve_sqp_step", "kernels.project_tangent", "diagnostics.stationarity_psi",
    "solver.merit_value", "solver.linear_model", "solver.update_penalty",
    "solver.check_termination", "solver.line_search", "harness.write_trace_csv",
)
CALL_LAYERS = ("oracles.eval_noisy", "kernels.solve_sqp_step", "diagnostics.stationarity_psi")


def measure_setup(sampler: calibrate.Sampler) -> list[float]:
    """Set-up times of fresh interpreters, with a calibration chunk after each."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
        sampler.sample(force=True)
    return samples


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without leaving it."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, plan) -> dict:
    import numpy
    import scipy

    import noisy_sqp

    return {
        "cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "noisy_sqp": noisy_sqp.__version__,
        "git_commit": git_commit(), "machine": platform.machine(),
        "workload": args.workload, "workload_seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "plan": plan,
    }


def repeat(w, workload, plan, seconds: float, traced: bool, min_reps: int,
           sampler: calibrate.Sampler) -> list:
    """Repeat the plan for at most ``seconds``; stop early after an error.

    Past the first ``min_reps``, a repetition starts only while it is
    expected to end before the deadline.
    """
    reps = []
    deadline = time.perf_counter() + seconds
    while len(reps) < min_reps or time.perf_counter() + reps[-1].wall < deadline:
        reps.append(w.run_once(workload, plan, OUT, traced, sampler))
        sampler.sample(force=True)
        if reps[-1].error:
            break
    return reps


def percentile(values, q: float) -> float:
    return float(np.percentile(list(values), q))


def per_iter_us(reps) -> list[float]:
    """Per run: CPU time of its thread over its iterations, in microseconds.

    CPU time rather than wall time: under the thread pool a run's wall time
    mostly says how the pool interleaved it with the other workers, which
    made the 90th percentile vary by 40% between workload seeds.  Serial
    runs have equal CPU and wall time.
    """
    return [r.cpu_seconds / r.iters * 1e6 for rep in reps for r in rep.runs if r.iters]


def check_reps(w, reps) -> list[str]:
    """Every reason the outputs of these repetitions are wrong."""
    problems = []
    for rep in reps:
        if rep.error:
            problems.append(rep.error.strip().splitlines()[-1])
        elif rep.outputs is not None:
            problems.extend(rep.outputs.problems)
        for r in rep.runs:
            if r.failure:
                problems.append(f"{r.problem} eps={r.eps1:g} seed={r.seed}: {r.failure}")
    good = [rep for rep in reps if not rep.error]
    if len({rep.signature() for rep in good}) > 1:
        problems.append("outputs differ between repetitions")
    if len({json.dumps(w.counters(rep.runs)) for rep in good}) > 1:
        problems.append("counters differ between repetitions")
    return problems


def fingerprint_report(args, rep, update: bool) -> dict:
    items = dict(sorted(rep.outputs.fingerprint.items())) if rep.outputs else {}
    stored = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.is_file() else {}
    if update:
        stored.setdefault(args.workload, {})[str(args.seed)] = items
        FINGERPRINTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    reference = stored.get(args.workload, {}).get(str(args.seed))
    if reference is None:
        return {"items": len(items), "reference": None}
    matched = sum(items.get(k) == v for k, v in reference.items())
    return {"items": len(items), "reference": len(reference), "matched": matched,
            "mismatched": sorted(k for k, v in reference.items() if items.get(k) != v)}


def end_to_end(reps, setup, scale, counts, ok_share) -> dict:
    per_iter = per_iter_us(reps)
    return {
        "setup_s": statistics.median(setup) * scale,
        "wall_s": statistics.median(rep.wall for rep in reps) * scale,
        "us_per_iter_p50": percentile(per_iter, 50) * scale,
        "us_per_iter_p90": percentile(per_iter, 90) * scale,
        "oracle_evals_per_iter": counts["oracle_evals_per_iter"],
        "min_dist_median": statistics.median(r.min_dist for r in reps[0].runs),
        "ok_share": ok_share,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(plan, traced, baseline, scale, counts,
              problems: list[str]) -> tuple[dict, dict]:
    """Per-layer metrics of the traced repetitions; span-count mismatches go to problems."""
    metrics = {}
    units = {}

    def put(name, value, unit):
        metrics[name] = value
        units[name] = unit

    def calls(name):
        return statistics.median(rep.layers.get(name, {}).get("calls", 0) for rep in traced)

    def self_us(name):
        return statistics.median(rep.layers.get(name, {}).get("self_ns", 0)
                                 for rep in traced) / 1e3 * scale

    for name in CALL_LAYERS:
        put(f"{name}.calls", calls(name), "count")
    for name in SELF_US_LAYERS:
        put(f"{name}.self_us", self_us(name), "us")
    put("solver.solve.self_us_per_iter", self_us("solver.solve") / counts["iterations"],
        "us/iter")
    put("solver.line_search.trials_per_iter", counts["trials_per_iter"], "count")
    put("solver.line_search.accept_share", counts["accept_share"], "share")
    put("solver.relaxation_used_share", counts["relaxation_used_share"], "share")

    run_ms = [(s.end_ns - s.start_ns) / 1e6 * scale for rep in traced
              for s in rep.tracer.spans if s.name == "solver.solve"]
    put("harness.run_ms_p50", percentile(run_ms, 50), "ms")
    put("harness.run_ms_p90", percentile(run_ms, 90), "ms")
    efficiency = [sum(r.cpu_seconds for r in rep.runs) / (rep.wall * plan["workers"])
                  for rep in traced]
    put("harness.parallel_efficiency", statistics.median(efficiency), "share")
    put("harness.redundant_iter_share", counts["redundant_iter_share"], "share")
    put("cli.self_ms", self_us("cli.dispatch") / 1e3, "ms")
    overhead = (percentile(per_iter_us(traced), 50)
                / percentile(per_iter_us(baseline), 50))
    put("trace.overhead_ratio", overhead, "ratio")

    # The span counts must agree with the counters derived from the trace rows.
    expected = {
        "oracles.eval_noisy": counts["oracle_evals"],
        "oracles.next_rng": counts["oracle_evals"],
        "oracles.eval_exact": counts["oracle_evals"],
        "kernels.solve_sqp_step": counts["iterations"],
        "diagnostics.stationarity_psi": counts["iterations"] if plan.get("collect_psi") else 0,
    }
    for rep in traced:
        for name, want in expected.items():
            got = rep.layers.get(name, {}).get("calls", 0)
            if got != want:
                problems.append(f"{name}: {got} calls traced, {want} expected")
    return metrics, units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("trace-band", "misest-grid", "tables-cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-fingerprints", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "noisy_sqp" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2

    sampler = calibrate.Sampler()
    setup = measure_setup(sampler)
    sys.path.insert(0, str(SRC))
    os.environ.pop("NOISY_SQP_JOBS", None)  # the tables workload uses the CLI default
    import workloads as w
    from tracer import write_spans

    workload = w.WORKLOADS[args.workload]
    plan = workload.make_plan(args.seed)
    OUT.mkdir(exist_ok=True)
    w.warm_up()

    if args.trace:
        baseline = repeat(w, workload, plan, args.seconds * TRACE_BASELINE_SHARE, False, 1,
                          sampler)
        traced = repeat(w, workload, plan, args.seconds * (1 - TRACE_BASELINE_SHARE), True,
                        MIN_REPS, sampler)
        reps = baseline + traced
    else:
        baseline = traced = reps = repeat(w, workload, plan, args.seconds, False, MIN_REPS,
                                          sampler)
    scale = sampler.scale()
    problems = check_reps(w, reps)
    if any(rep.error for rep in reps):
        print("error: a repetition raised", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1

    attempted = sum(len(rep.runs) for rep in reps)
    failed = sum(rep.failed_runs() for rep in reps)
    counts = w.counters(reps[0].runs)
    if args.trace:
        metrics, units = per_layer(plan, traced, baseline, scale, counts, problems)
        with gzip.open(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz", "wt",
                       newline="") as fh:
            write_spans(traced[-1].tracer.spans, fh)
    else:
        metrics = end_to_end(reps, setup, scale, counts, 1 - failed / attempted)
        units = END_TO_END_UNITS

    raw_per_iter = per_iter_us(baseline)
    report = {
        "provenance": provenance(args, plan),
        "reps": len(reps), "runs_per_rep": plan["runs"], "per_iter_samples": len(raw_per_iter),
        "raw": {"setup_s": statistics.median(setup),
                "wall_s": statistics.median(rep.wall for rep in baseline),
                "us_per_iter_p50": percentile(raw_per_iter, 50),
                "us_per_iter_p90": percentile(raw_per_iter, 90)},
        "calibration": {"reference_s": calibrate.REFERENCE_S,
                        "mean_chunk_s": statistics.fmean(sampler.chunks),
                        "chunks": len(sampler.chunks), "scale": scale},
        "setup_samples_s": setup,
        "counters": counts,
        "failed_share": failed / attempted,
        "fingerprint": fingerprint_report(args, reps[0], args.update_fingerprints),
        "problems": problems,
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {'on' if args.trace else 'off'}"
          f"  reps {len(reps)}  runs {attempted}  failed {failed}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value!s:>24} {units[name]}")
    print(f"  {'failed_share':40s} {failed / attempted!s:>24} share")
    for p in problems:
        print(f"  problem: {p}")
    print("report: " + json.dumps(report, default=list))
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
