"""Command-line interface: single solves, trace dumps, and table reproduction.

Exit codes: 0 success / experiment completed; 1 usage error; 2 the run
ended with a line-search failure; 3 the run hit a rank-deficient
Jacobian; 4 the oracle returned a NaN or an infinity.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .diagnostics import evaluate_diagnostics
from .harness import (
    ExperimentPlan,
    render_misestimation_table,
    render_relaxation_table,
    run_misestimation_table,
    run_relaxation_table,
    run_trace_experiment,
    summaries_to_json,
)
from .oracles import NoiseSpec
from .problems import PROBLEM_NAMES, get_problem, reference_solution, verify_derivatives
from .solver import SolverConfig, Status, solve

_STATUS_EXIT = {
    Status.CONVERGED: 0,
    Status.MAX_ITERS: 0,
    Status.LINE_SEARCH_FAILURE: 2,
    Status.SINGULAR_JACOBIAN: 3,
    Status.NONFINITE: 4,
}

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(SolverConfig)}


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisy-sqp",
        description="Noise-tolerant SQP solver and benchmark experiments.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(sp):
        sp.add_argument("--problem", choices=PROBLEM_NAMES, required=True)
        sp.add_argument("--eps1", type=float, default=0.0, help="value-noise half-width")
        sp.add_argument("--eps2", type=float, default=0.0, help="derivative-noise half-width")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--config", type=Path, help="JSON file with solver config fields")
        sp.add_argument("--beta", type=float, help="Hessian scaling (default 50)")
        sp.add_argument("--nu", type=float, help="Armijo fraction (default 0.1)")
        sp.add_argument("--tau", type=float, help="penalty margin (default 0.9)")
        sp.add_argument("--pi-init", type=float, help="initial penalty (default 1)")
        sp.add_argument("--no-relaxation", action="store_true",
                        help="use the classical Armijo condition")
        sp.add_argument("--est-multiplier", type=float, default=1.0,
                        help="scale the estimated noise bounds")

    sp = sub.add_parser("solve", help="run one solve and print the outcome")
    add_common(sp)
    sp.add_argument("--max-iters", type=int, default=None)
    sp.add_argument("--no-termination", action="store_true",
                    help="run to max-iters, skipping the noisy stop test")

    sp = sub.add_parser("trace", help="write a per-iteration CSV trace")
    add_common(sp)
    sp.add_argument("--iters", type=int, default=1000)
    sp.add_argument("--out", type=Path, required=True)

    for name, help_text in (
        ("tables", "reproduce the relaxation on/off comparison"),
        ("misest", "reproduce the noise-misestimation study"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--problems", type=str, default=",".join(PROBLEM_NAMES))
        sp.add_argument("--eps-levels", type=_float_list, default=[1e-5, 1e-3, 1e-1],
                        help="comma-separated levels, eps1 = eps2 at each")
        sp.add_argument("--seeds", type=_int_list, default=list(range(10)))
        sp.add_argument("--kmax", type=_int_list, default=[100, 500, 1000])
        sp.add_argument("--out", type=Path, help="directory for JSON documents")
        sp.add_argument("--format", choices=("json", "text"), default="text")

    sp = sub.add_parser("check", help="verify analytic derivatives on all problems")
    sp.add_argument("--points", type=int, default=25)
    sp.add_argument("--seed", type=int, default=0)

    return parser


def _solver_config(args, problem) -> SolverConfig:
    values: dict = {}
    if args.config:
        loaded = json.loads(Path(args.config).read_text())
        unknown = set(loaded) - _CONFIG_FIELDS
        if unknown:
            raise SystemExit(f"unknown config fields: {', '.join(sorted(unknown))}")
        values.update(loaded)
    for flag, key in (("beta", "beta"), ("nu", "nu"), ("tau", "tau"), ("pi_init", "pi_init")):
        val = getattr(args, flag, None)
        if val is not None:
            values[key] = val
    if args.no_relaxation:
        values["relaxation_enabled"] = False
    explicit_iters = getattr(args, "max_iters", None) or getattr(args, "iters", None)
    if explicit_iters is not None:
        values["max_iters"] = explicit_iters
    values.setdefault("max_iters", 1000)
    if getattr(args, "no_termination", False):
        values["termination_enabled"] = False
    cfg = SolverConfig(**values)
    # Estimated bounds default to the true derived bounds, optionally rescaled.
    spec = NoiseSpec(args.eps1, args.eps2, seed=args.seed)
    return cfg.with_estimates(spec.bounds(problem.n, problem.m), args.est_multiplier)


def _cmd_solve(args) -> int:
    p = get_problem(args.problem)
    cfg = _solver_config(args, p)
    spec = NoiseSpec(args.eps1, args.eps2, seed=args.seed)
    ref = reference_solution(args.problem)
    result = solve(p, spec, cfg, x_ref=ref.x_star)

    pi_final = result.trace[-1].pi if result.trace else cfg.pi_init
    diag = evaluate_diagnostics(p, result.x, pi_final, cfg.tau, cfg.beta)
    print(f"problem:        {args.problem}  (n={p.n}, m={p.m})")
    print(f"status:         {result.status.value}")
    if result.failure_iter is not None:
        print(f"failure at:     iteration {result.failure_iter}")
    print(f"iterations:     {result.iters_run}")
    print(f"final x:        {np.array2string(result.x, precision=10)}")
    print(f"f(x):           {p.eval_f(result.x):.12g}")
    print(f"||c(x)||_1:     {diag.feasibility:.6e}")
    print(f"kkt residual:   {diag.kkt_residual:.6e}")
    print(f"dist to x*:     {np.linalg.norm(result.x - ref.x_star):.6e}")
    return _STATUS_EXIT[result.status]


def _cmd_trace(args) -> int:
    out = Path(args.out)
    paths = run_trace_experiment(
        out_dir=out.parent if out.suffix else out,
        problems=(args.problem,),
        eps1=args.eps1,
        eps2=args.eps2,
        seeds=(args.seed,),
        iters=args.iters,
        config=_solver_config(args, get_problem(args.problem)),
    )
    written = paths[0]
    if out.suffix:  # exact file name requested
        written.replace(out)
        written = out
    with written.open() as fh:
        rows = sum(1 for _ in fh) - 1  # minus the header; a run may end before --iters
    print(f"wrote {rows}-row trace to {written}")
    return 0


def _make_plan(args) -> ExperimentPlan:
    return ExperimentPlan(
        problems=tuple(tok for tok in args.problems.split(",") if tok),
        eps_levels=tuple((e, e) for e in args.eps_levels),
        seeds=tuple(args.seeds),
        k_max_values=tuple(args.kmax),
    )


def _emit_tables(summaries, render, table_name: str, args) -> int:
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for eps in sorted({s.eps1 for s in summaries}):
            rows = [s for s in summaries if s.eps1 == eps]
            path = out / f"{table_name}_eps{eps:g}.json"
            path.write_text(summaries_to_json(rows, f"{table_name} eps={eps:g}"))
            print(f"wrote {path}")
    if args.format == "text" or not args.out:
        print(render(summaries))
    return 0


def _cmd_tables(args) -> int:
    plan = _make_plan(args)
    summaries = run_relaxation_table(plan)
    return _emit_tables(summaries, render_relaxation_table, "relaxation", args)


def _cmd_misest(args) -> int:
    plan = _make_plan(args)
    summaries = run_misestimation_table(plan)
    return _emit_tables(summaries, render_misestimation_table, "misestimation", args)


def _cmd_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    worst_overall = 0.0
    failed = False
    for name in PROBLEM_NAMES:
        p = get_problem(name)
        worst = verify_derivatives(p, p.x_start)
        for _ in range(args.points):
            x = p.x_start + rng.uniform(-2.0, 2.0, size=p.n)
            worst = max(worst, verify_derivatives(p, x))
        status = "ok" if worst <= 1e-5 else "FAIL"
        failed = failed or worst > 1e-5
        worst_overall = max(worst_overall, worst)
        print(f"{name}: max relative derivative error {worst:.3e}  [{status}]")
    return 1 if failed else 0


_COMMANDS = {
    "solve": _cmd_solve,
    "trace": _cmd_trace,
    "tables": _cmd_tables,
    "misest": _cmd_misest,
    "check": _cmd_check,
}


def dispatch(argv: list[str]) -> int:
    """Parse argv and run the subcommand, returning the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; remap to 1
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.subcommand](args)
    except SystemExit as exc:
        print(str(exc), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
