"""Command line interface: generate, solve, verify, ratio.

Exit codes: 0 feasible / success, 2 INFEASIBLE from ``solve`` or a
rejected solution from ``verify``, 1 error (bad input, budget refusal,
or a failed seed in ``ratio``). ``solve`` prints one
machine-readable JSON line with the cost and, when the answer is
certified optimal (exact mode, prize, fullcover), an optimality tag.
Costs are exact integers; ratios print as exact fractions plus a
decimal rendering.

``ratio`` solves each seed approximately and exactly through ``solve``'s
dispatch and checks the approximate answer with ``verify``'s verifier
(feasible, recomputed cost equal to the reported one). A seed fails when
that check fails, when only the oracle finds a solution, when the oracle
says infeasible beside a verified answer, when the approximate cost
is below the optimum or positive beside an optimum of 0, or when it is
above the factor its solver certifies times the optimum (the row then
ends in ABOVE-FACTOR).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from fractions import Fraction

from .core import (
    BudgetExceeded,
    PartialSolution,
    is_feasible,
    job_profile,
    verify_partial,
    verify_prize,
)
from .files import (
    PROBLEMS,
    ParseError,
    emit_instance,
    emit_lspc,
    emit_solution,
    parse_instance,
    parse_lspc,
    parse_solution,
)
from .fullcover import CoverPlan, full_cover
from .generate import PROFILES, generate
from .lspc import SLRA_FACTOR, LspcSolver, verify_lspc
from .oracle import oracle_lspc, oracle_partial, oracle_prize
from .pipeline import solve_partial, solve_prize


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit_line(**fields) -> None:
    print(json.dumps(fields, sort_keys=True))


def _cmd_generate(args) -> int:
    params = {name: value for name, value in vars(args).items()
              if value is not None and name not in ("command", "profile", "seed", "output")}
    inst = generate(args.profile, args.seed, **params)
    text = emit_lspc(inst) if args.profile == "lspc-random" else emit_instance(inst)
    if args.output:
        _write(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


def _solve_dispatch(problem: str, algorithm: str, inst) -> tuple:
    """Returns (cost, solution or None, certified factor): 1 is optimal."""
    if problem == "partial":
        if algorithm == "exact":
            res = oracle_partial(inst)
            return res.cost, res.solution, 1
        res = solve_partial(inst)
        return res.cost, res.solution, res.bound_factor
    if problem == "prize":
        res = oracle_prize(inst) if algorithm == "exact" else solve_prize(inst)
        return res.total, res.solution, 1  # the reduction is cost-exact
    if problem == "lspc":
        res = oracle_lspc(inst) if algorithm == "exact" else LspcSolver(inst).solve()
        return res.cost, res.solution, 1 if algorithm == "exact" else SLRA_FACTOR
    # fullcover: exact either way (beta = 1)
    plan = CoverPlan(inst.resources, inst.T)
    res = full_cover(plan.segment_demand(job_profile(inst.jobs, inst.T)), plan)
    sol = PartialSolution(res.counts, frozenset(j.id for j in inst.jobs)) if res.feasible else None
    return res.cost, sol, 1


def _verify(problem: str, inst, sol, cost: int) -> tuple[bool, dict]:
    """Check a solution against its instance and its claimed cost.

    Returns (accepted, detail fields for the verify line). A full cover is
    checked as a partial cover that must cover every job.
    """
    if problem == "lspc":
        report = verify_lspc(inst, sol)
        recomputed, reason_key, reason = report.cost, "violated_clause", report.violated_clause
    else:
        if problem == "fullcover":
            inst = replace(inst, k=len(inst.jobs))
        report = (verify_prize if problem == "prize" else verify_partial)(inst, sol)
        recomputed, reason_key, reason = report.total, "reason", report.reason
    detail = {"feasible": report.feasible,
              "cost_recomputed": recomputed if is_feasible(recomputed) else None}
    if reason:
        detail[reason_key] = reason
    if report.violated_slot:
        detail["violated_slot"] = report.violated_slot
    ok = report.feasible and recomputed == cost
    if report.feasible and recomputed != cost:
        detail["reason"] = f"reported cost {cost} != recomputed {recomputed}"
    return ok, detail


def _read_instance(problem: str, path: str):
    text = _read(path)
    return parse_lspc(text) if problem == "lspc" else parse_instance(text)


def _cmd_solve(args) -> int:
    inst = _read_instance(args.problem, args.input)
    cost, solution, factor = _solve_dispatch(args.problem, args.algorithm, inst)
    if not is_feasible(cost):
        _emit_line(status="infeasible", problem=args.problem)
        return 2
    if not _verify(args.problem, inst, solution, cost)[0]:
        raise RuntimeError(f"internal error: produced {args.problem} solution "
                           f"failed its own verifier")
    if args.output:
        _write(args.output, emit_solution(args.problem, solution, cost))
    fields = {"status": "feasible", "problem": args.problem, "cost": cost}
    if factor == 1:
        fields["optimal"] = True
    _emit_line(**fields)
    return 0


def _cmd_verify(args) -> int:
    problem, cost, sol = parse_solution(_read(args.solution))
    inst = _read_instance(problem, args.input)
    ok, detail = _verify(problem, inst, sol, cost)
    _emit_line(problem=problem, **detail)
    return 0 if ok else 2


def _parse_seed_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep or not lo.isdigit() or not hi.isdigit() or int(hi) < int(lo):
        raise ParseError("", f"--seeds expects 'a..b' with a <= b, got {text!r}")
    return range(int(lo), int(hi) + 1)


def _ratio_instance(problem: str, profile: str | None, seed: int):
    if problem == "lspc":
        return generate("lspc-random", seed)
    if problem == "prize":
        return generate("uniform-random", seed, penalties=True)
    return generate(profile or "uniform-random", seed)


def _cmd_ratio(args) -> int:
    if args.profile is not None and args.problem != "partial":
        raise ParseError("", "--profile is only supported with --problem partial")
    worst: Fraction | None = None
    failures = 0
    for seed in _parse_seed_range(args.seeds):
        inst = _ratio_instance(args.problem, args.profile, seed)
        approx_cost, approx_sol, factor = _solve_dispatch(args.problem, "approx", inst)
        exact_cost = _solve_dispatch(args.problem, "exact", inst)[0]
        valid = approx_sol is None or _verify(args.problem, inst, approx_sol, approx_cost)[0]
        if not valid or (is_feasible(exact_cost) and not is_feasible(approx_cost)):
            failures += 1
            exact_shown = exact_cost if is_feasible(exact_cost) else "INFEASIBLE"
            print(f"{seed}\tapprox=INFEASIBLE-OR-INVALID\texact={exact_shown}")
            continue
        if not is_feasible(exact_cost):
            if approx_sol is not None:
                # a solution that passed its verifier refutes the oracle
                failures += 1
                print(f"{seed}\tapprox={approx_cost}\texact=INFEASIBLE-BUT-APPROX-VALID")
            else:
                print(f"{seed}\tapprox=INFEASIBLE\texact=INFEASIBLE\tratio=-")
            continue
        if exact_cost == 0:
            ratio = Fraction(0, 1) if approx_cost == 0 else None
            shown = "0/0" if approx_cost == 0 else f"{approx_cost}/0"
        else:
            ratio = Fraction(approx_cost, exact_cost)
            shown = f"{ratio.numerator}/{ratio.denominator}"
        if ratio is not None and (worst is None or ratio > worst):
            worst = ratio
        dec = f"{float(ratio):.6f}" if ratio is not None else "inf"
        row = f"{seed}\tapprox={approx_cost}\texact={exact_cost}\tratio={shown}\t({dec})"
        if factor != 1:
            row += f"\tbound={factor}"
        above = approx_cost > factor * exact_cost
        if above:
            row += "\tABOVE-FACTOR"
        print(row)
        if ratio is None or approx_cost < exact_cost or above:
            # a positive cost beside an optimum of 0, a verified answer
            # cheaper than the optimum, which refutes the oracle, or one
            # dearer than its certified factor allows
            failures += 1
    if worst is None:
        print("max-ratio -")
    else:
        print(f"max-ratio {worst.numerator}/{worst.denominator} ({float(worst):.6f})")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intervalcover",
        description="Minimum-cost interval resource allocation: partial and "
                    "prize-collecting coverage solvers with exact oracles.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a deterministic random instance")
    gen.add_argument("--profile", choices=PROFILES, default="uniform-random")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--output", help="path; stdout when omitted")
    # unset options take the generator's default; one it lacks is an error
    gen.add_argument("--jobs", type=int)
    gen.add_argument("--resources", type=int)
    gen.add_argument("--timeslots", type=int)
    gen.add_argument("--mountains", type=int)
    gen.add_argument("--max-w", type=int)
    gen.add_argument("--max-c", type=int)
    gen.add_argument("--max-demand", type=int)
    gen.add_argument("--shorts", type=int)
    gen.add_argument("--longs", type=int)
    gen.add_argument("--k", type=int)
    gen.add_argument("--penalties", action="store_true", default=None,
                     help="attach penalties instead of k (uniform-random only)")

    sol = sub.add_parser("solve", help="solve an instance file")
    sol.add_argument("--problem", choices=PROBLEMS, required=True)
    sol.add_argument("--algorithm", choices=("approx", "exact"), default="approx")
    sol.add_argument("--input", required=True)
    sol.add_argument("--output", help="solution file to write")

    ver = sub.add_parser("verify", help="check a solution file against its instance")
    ver.add_argument("--input", required=True)
    ver.add_argument("--solution", required=True)

    rat = sub.add_parser("ratio", help="compare approx vs exact over a seed range")
    rat.add_argument("--problem", choices=("partial", "prize", "lspc"), default="partial")
    rat.add_argument("--profile", choices=PROFILES[:3], help="partial only (uniform-random)")
    rat.add_argument("--seeds", required=True, help="inclusive range a..b")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_ratio(args)
    except (ParseError, BudgetExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
