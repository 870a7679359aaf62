"""Command line interface: generate, solve, verify, ratio.

Exit codes: 0 feasible / success, 2 INFEASIBLE, 1 error (bad input,
budget refusal, or an infeasible approximate answer in ``ratio``).
``solve`` prints one machine-readable JSON line with the cost and, in
exact mode, an optimality tag. Costs are exact integers; ratios print
as exact fractions plus a decimal rendering.
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
    ParseError,
    emit_instance,
    emit_lspc,
    emit_solution,
    parse_instance,
    parse_lspc,
    parse_solution,
    solution_doc_for,
)
from .fullcover import full_cover
from .generate import (
    PROFILES,
    generate,
    generate_lspc,
    generate_uniform,
)
from .lspc import LspcSolution, solve_lspc, verify_lspc
from .oracle import Budget, oracle_lspc, oracle_partial, oracle_prize
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
    if args.penalties and args.profile != "uniform-random":
        raise ParseError("", "--penalties is only supported with uniform-random")
    if args.profile == "lspc-random":
        inst = generate_lspc(args.seed, timeslots=args.timeslots, max_demand=args.max_demand,
                             shorts=args.shorts, longs=args.longs, max_c=args.max_c, k=args.k)
        text = emit_lspc(inst)
    else:
        params = dict(jobs=args.jobs, resources=args.resources, timeslots=args.timeslots,
                      max_w=args.max_w, max_c=args.max_c, k=args.k)
        if args.profile == "uniform-random":
            params["penalties"] = args.penalties
        if args.profile == "mountain-range":
            params["mountains"] = args.mountains
        inst = generate(args.profile, args.seed, **params)
        text = emit_instance(inst)
    if args.output:
        _write(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


def _solve_dispatch(problem: str, algorithm: str, inst) -> tuple:
    """Returns (cost, solution or None, optimal flag)."""
    if problem == "partial":
        if inst.k is None:
            raise ParseError("k", "partial coverage needs the partiality parameter")
        if algorithm == "exact":
            res = oracle_partial(inst)
            return res.cost, res.solution, True
        res = solve_partial(inst)
        return res.cost, res.solution, False
    if problem == "prize":
        if any(j.penalty is None for j in inst.jobs):
            raise ParseError("jobs", "prize collecting needs a penalty on every job")
        if algorithm == "exact":
            res = oracle_prize(inst)
            return res.total, res.solution, True
        res = solve_prize(inst)
        return res.total, res.solution, True  # the reduction is cost-exact
    if problem == "lspc":
        if algorithm == "exact":
            res = oracle_lspc(inst)
            return res.cost, res.solution, True
        res = solve_lspc(inst)
        return res.cost, res.solution, False
    # fullcover: exact either way (beta = 1)
    demand = job_profile(inst.jobs, inst.T)
    res = full_cover(demand, inst.resources)
    sol = PartialSolution(res.counts, frozenset(j.id for j in inst.jobs)) if res.feasible else None
    return res.cost, sol, True


def _verify(problem: str, inst, sol, cost: int) -> tuple[bool, dict]:
    """Check a solution against its instance and its claimed cost.

    Returns (accepted, detail fields for the verify line). A full cover is
    checked as a partial cover that must cover every job.
    """
    if problem == "lspc":
        report = verify_lspc(inst, sol)
        recomputed, reason_key, reason = report.cost, "violated_clause", report.violated_clause
    elif problem == "prize":
        report = verify_prize(inst, sol)
        recomputed, reason_key, reason = report.total, "reason", report.reason
    else:
        if problem == "fullcover":
            inst = replace(inst, k=len(inst.jobs))
        report = verify_partial(inst, sol)
        recomputed, reason_key, reason = report.cost, "reason", report.reason
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


def _cmd_solve(args) -> int:
    text = _read(args.input)
    inst = parse_lspc(text) if args.problem == "lspc" else parse_instance(text)
    cost, solution, optimal = _solve_dispatch(args.problem, args.algorithm, inst)
    if not is_feasible(cost):
        _emit_line(status="infeasible", problem=args.problem)
        return 2
    if not _verify(args.problem, inst, solution, cost)[0]:
        raise RuntimeError(f"internal error: produced {args.problem} solution "
                           f"failed its own verifier")
    if args.output:
        doc = solution_doc_for(args.problem, solution, cost)
        _write(args.output, emit_solution(doc))
    fields = {"status": "feasible", "problem": args.problem, "cost": cost}
    if optimal:
        fields["optimal"] = True
    _emit_line(**fields)
    return 0


def _cmd_verify(args) -> int:
    doc = parse_solution(_read(args.solution))
    text = _read(args.input)
    if doc.problem == "lspc":
        inst = parse_lspc(text)
        sol = LspcSolution(doc.counts, frozenset(doc.short_picks), doc.coverage)
    else:
        inst = parse_instance(text)
        sol = PartialSolution(doc.counts, frozenset(doc.covered))
    ok, detail = _verify(doc.problem, inst, sol, doc.cost)
    _emit_line(problem=doc.problem, **detail)
    return 0 if ok else 2


def _parse_seed_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep or not lo.isdigit() or not hi.isdigit() or int(hi) < int(lo):
        raise ParseError("", f"--seeds expects 'a..b' with a <= b, got {text!r}")
    return range(int(lo), int(hi) + 1)


def _ratio_instance(problem: str, profile: str, seed: int):
    if problem == "lspc":
        return generate_lspc(seed)
    if problem == "prize":
        return generate_uniform(seed, penalties=True)
    return generate(profile, seed)


def _cmd_ratio(args) -> int:
    budget = Budget.from_env()
    worst: Fraction | None = None
    failures = 0
    for seed in _parse_seed_range(args.seeds):
        inst = _ratio_instance(args.problem, args.profile, seed)
        bound = None
        if args.problem == "partial":
            approx = solve_partial(inst)
            exact = oracle_partial(inst, budget)
            approx_cost, approx_sol, exact_cost = approx.cost, approx.solution, exact.cost
            bound = approx.bound_factor
            feasible_ok = approx_sol is None or verify_partial(inst, approx_sol).feasible
        elif args.problem == "prize":
            approx = solve_prize(inst)
            exact = oracle_prize(inst, budget)
            approx_cost, approx_sol, exact_cost = approx.total, approx.solution, exact.total
            feasible_ok = approx_sol is None or verify_prize(inst, approx_sol).feasible
        else:
            approx = solve_lspc(inst)
            exact = oracle_lspc(inst, budget)
            approx_cost, approx_sol, exact_cost = approx.cost, approx.solution, exact.cost
            feasible_ok = approx_sol is None or verify_lspc(inst, approx_sol).feasible
        if not feasible_ok or (is_feasible(exact_cost) and not is_feasible(approx_cost)):
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
        if bound is not None:
            row += f"\tbound={bound}"
        print(row)
        if ratio is None:
            failures += 1  # approximate cost above an exact optimum of zero
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
    gen.add_argument("--jobs", type=int, default=6)
    gen.add_argument("--resources", type=int, default=5)
    gen.add_argument("--timeslots", type=int, default=10)
    gen.add_argument("--mountains", type=int, default=2)
    gen.add_argument("--max-w", type=int, default=3)
    gen.add_argument("--max-c", type=int, default=10)
    gen.add_argument("--max-demand", type=int, default=3)
    gen.add_argument("--shorts", type=int, default=4)
    gen.add_argument("--longs", type=int, default=4)
    gen.add_argument("--k", type=int)
    gen.add_argument("--penalties", action="store_true",
                     help="attach penalties instead of k (uniform-random only)")

    sol = sub.add_parser("solve", help="solve an instance file")
    sol.add_argument("--problem", choices=("partial", "prize", "lspc", "fullcover"),
                     required=True)
    sol.add_argument("--algorithm", choices=("approx", "exact"), default="approx")
    sol.add_argument("--input", required=True)
    sol.add_argument("--output", help="solution file to write")

    ver = sub.add_parser("verify", help="check a solution file against its instance")
    ver.add_argument("--input", required=True)
    ver.add_argument("--solution", required=True)

    rat = sub.add_parser("ratio", help="compare approx vs exact over a seed range")
    rat.add_argument("--problem", choices=("partial", "prize", "lspc"), default="partial")
    rat.add_argument("--profile", choices=PROFILES[:3], default="uniform-random")
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
