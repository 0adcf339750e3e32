"""Command-line interface: single solves, trace dumps, and table reproduction.

``solve``'s exit code and each table row's ``termination_kind`` are ``Status`` attributes:

    status                 kind        exit code
    converged              opt         0
    max_iters              max_iters   0
    line_search_failure    ls          2
    singular_jacobian      singular    3
    nonfinite              nonfinite   4

A usage error (not a run outcome) or a failed ``check`` exits 1; other commands exit 0.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .harness import (
    ExperimentPlan,
    render_misestimation_table,
    render_relaxation_table,
    run_misestimation_table,
    run_relaxation_table,
    summaries_to_json,
    trace_path,
    write_trace_csv,
)
from .kernels import NonFiniteJacobianError, SingularJacobianError, project_tangent
from .oracles import NoiseSpec, eval_exact
from .problems import PROBLEM_NAMES, get_problem, reference_solution, verify_derivatives
from .solver import SolverConfig, solve


def _str_tuple(text: str) -> tuple[str, ...]:
    return tuple(tok for tok in text.split(",") if tok)


def _int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in _str_tuple(text))


def _eps_pairs(text: str) -> tuple[tuple[float, float], ...]:
    return tuple((float(tok), float(tok)) for tok in _str_tuple(text))


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
        sp.add_argument("--beta", type=float, default=SolverConfig.beta,
                        help="Hessian scaling (default %(default)s)")
        sp.add_argument("--no-relaxation", action="store_true",
                        help="use the classical Armijo condition")
        sp.add_argument("--est-multiplier", type=float, default=1.0,
                        help="scale the estimated noise bounds")

    sp = sub.add_parser("solve", help="run one solve and print the outcome")
    add_common(sp)
    sp.add_argument("--max-iters", type=int, default=SolverConfig.max_iters,
                    help="iteration limit (default %(default)s)")
    sp.add_argument("--no-termination", action="store_true",
                    help="run to max-iters, skipping the noisy stop test")

    sp = sub.add_parser("trace", help="write a per-iteration CSV trace")
    add_common(sp)
    sp.add_argument("--iters", type=int, default=SolverConfig.max_iters, dest="max_iters",
                    metavar="ITERS", help="iterations to run (default %(default)s)")
    sp.add_argument("--out", type=Path, required=True,
                    help="CSV file name, or a directory for the default name")
    sp.set_defaults(no_termination=True)  # a trace runs all --iters iterations

    for name, help_text in (
        ("tables", "reproduce the relaxation on/off comparison"),
        ("misest", "reproduce the noise-misestimation study"),
    ):
        # Grid flags left out take ExperimentPlan's defaults.
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--problems", type=_str_tuple)
        sp.add_argument("--eps-levels", type=_eps_pairs,
                        help="comma-separated levels, eps1 = eps2 at each")
        sp.add_argument("--seeds", type=_int_tuple)
        if name == "tables":
            sp.add_argument("--kmax", type=_int_tuple, dest="k_max_values")
        sp.add_argument("--out", type=Path, help="directory for JSON documents")
        sp.add_argument("--format", choices=("json", "text"), default="text")

    sub.add_parser("check", help="verify analytic derivatives on all problems")

    return parser


def _solver_config(args, problem) -> tuple[NoiseSpec, SolverConfig]:
    try:
        spec = NoiseSpec(args.eps1, args.eps2, seed=args.seed)
    except ValueError as err:
        raise SystemExit(f"invalid noise: {err}") from None
    # Estimated bounds default to the true derived bounds, optionally rescaled.
    try:
        cfg = SolverConfig(beta=args.beta, max_iters=args.max_iters,
                           relaxation_enabled=not args.no_relaxation,
                           termination_enabled=not args.no_termination)
        return spec, cfg.with_estimates(spec.bounds(problem.n, problem.m), args.est_multiplier)
    except ValueError as err:
        raise SystemExit(f"invalid solver config: {err}") from None


def _cmd_solve(args) -> int:
    p = get_problem(args.problem)
    spec, cfg = _solver_config(args, p)
    ref = reference_solution(args.problem)
    result = solve(p, spec, cfg, x_ref=ref.x_star)

    end = eval_exact(p, result.x)
    try:
        kkt = f"{np.linalg.norm(project_tangent(end.J, end.g)):.6e}"
    except (SingularJacobianError, NonFiniteJacobianError) as err:
        kkt = f"n/a ({err})"  # the report still prints; the exit code gives the status
    print(f"problem:        {args.problem}  (n={p.n}, m={p.m})")
    print(f"status:         {result.status.value}")
    if result.failure_iter is not None:
        print(f"failure at:     iteration {result.failure_iter}")
    print(f"iterations:     {result.iters_run}")
    print(f"final x:        {np.array2string(result.x, precision=10)}")
    print(f"f(x):           {end.f:.12g}")
    print(f"||c(x)||_1:     {np.abs(end.c).sum():.6e}")
    print(f"kkt residual:   {kkt}")
    print(f"dist to x*:     {np.linalg.norm(result.x - ref.x_star):.6e}")
    return result.status.exit_code


def _make_out_dir(path: Path) -> None:
    """Create an --out directory before any run starts, or exit with one line."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise SystemExit(f"cannot create --out directory {path}: {err.strerror}") from None


def _cmd_trace(args) -> int:
    p = get_problem(args.problem)
    spec, cfg = _solver_config(args, p)
    out = args.out
    if not out.suffix or out.is_dir():  # an existing directory, whatever its suffix
        out = trace_path(out, args.problem, spec)
    _make_out_dir(out.parent)
    result = solve(p, spec, cfg, x_ref=reference_solution(args.problem).x_star,
                   collect_psi=True)
    write_trace_csv(result, out)
    # A run may end before --iters; the file holds one row per trace record.
    print(f"wrote {len(result.trace)}-row trace to {out}")
    return 0


def _make_plan(args) -> ExperimentPlan:
    """The grid of a tables/misest call, after creating its --out directory."""
    fields = ("problems", "eps_levels", "seeds", "k_max_values")
    grid = {f: getattr(args, f) for f in fields if getattr(args, f, None) is not None}
    try:
        plan = ExperimentPlan(**grid)
    except ValueError as err:
        raise SystemExit(f"invalid plan: {err}") from None
    if args.out:
        _make_out_dir(args.out)
    return plan


def _emit_tables(summaries, render, table_name: str, args) -> int:
    if args.format == "json" and not args.out:
        print(summaries_to_json(summaries, table_name))
        return 0
    if args.out:
        for eps in sorted({s.eps1 for s in summaries}):
            rows = [s for s in summaries if s.eps1 == eps]
            path = args.out / f"{table_name}_eps{eps!r}.json"
            path.write_text(summaries_to_json(rows, f"{table_name} eps={eps!r}"))
            print(f"wrote {path}")
    if args.format == "text":
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
    rng = np.random.default_rng(0)
    failed = False
    for name in PROBLEM_NAMES:
        p = get_problem(name)
        points = [p.x_start] + [p.x_start + rng.uniform(-2.0, 2.0, size=p.n) for _ in range(25)]
        worst = float(np.max([verify_derivatives(p, x) for x in points]))  # keeps a NaN
        ok = worst <= 1e-5  # False for NaN
        failed = failed or not ok
        print(f"{name}: max relative derivative error {worst:.3e}  [{'ok' if ok else 'FAIL'}]")
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
