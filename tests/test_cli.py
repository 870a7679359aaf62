"""CLI contract: exit codes, machine-readable lines, verify/ratio flows."""

import json
import re
import time

import pytest

from intervalcover.cli import main
from intervalcover.core import MAX_TIMESLOTS, Instance, Job, Resource
from intervalcover.generate import PROFILES, generate
from intervalcover.lspc import LspcInstance
from intervalcover.files import (
    ParseError,
    emit_instance,
    emit_lspc,
    parse_instance,
    parse_lspc,
    parse_solution,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen(tmp_path, capsys, name, *extra):
    path = tmp_path / name
    code, _, err = run(capsys, "generate", "--seed", "7", "--output", str(path), *extra)
    assert code == 0, err
    return path


def test_generate_then_solve_partial(tmp_path, capsys):
    inst = gen(tmp_path, capsys, "inst.json", "--profile", "uniform-random", "--k", "3")
    out = tmp_path / "sol.json"
    code, stdout, _ = run(capsys, "solve", "--problem", "partial",
                          "--input", str(inst), "--output", str(out))
    assert code == 0
    line = json.loads(stdout.strip().splitlines()[-1])
    assert line["status"] == "feasible"
    assert isinstance(line["cost"], int)
    problem, cost, _ = parse_solution(out.read_text())
    assert problem == "partial" and cost == line["cost"]

    code, stdout, _ = run(capsys, "verify", "--input", str(inst), "--solution", str(out))
    assert code == 0
    assert json.loads(stdout.strip())["feasible"] is True


def test_solve_k0_cost_zero(tmp_path, capsys):
    inst = gen(tmp_path, capsys, "inst.json", "--k", "0")
    code, stdout, _ = run(capsys, "solve", "--problem", "partial", "--input", str(inst))
    assert code == 0
    line = json.loads(stdout.strip())
    assert line["cost"] == 0 and line["optimal"] is True  # the empty cover is optimal


def test_solve_infeasible_fullcover_exit_2(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "version": 1, "T": 2,
        "jobs": [{"s": 1, "e": 2}],
        "resources": [{"s": 1, "e": 1, "w": 1, "c": 1}],
    }))
    code, stdout, _ = run(capsys, "solve", "--problem", "fullcover", "--input", str(path))
    assert code == 2
    assert json.loads(stdout.strip())["status"] == "infeasible"


def test_solve_exact_tags_optimal(tmp_path, capsys):
    inst = gen(tmp_path, capsys, "inst.json", "--k", "2")
    code, stdout, _ = run(capsys, "solve", "--problem", "partial",
                          "--algorithm", "exact", "--input", str(inst))
    assert code == 0
    assert json.loads(stdout.strip())["optimal"] is True


def test_approx_at_least_exact(tmp_path, capsys):
    for seed in ("3", "4", "5"):
        path = tmp_path / f"i{seed}.json"
        code, _, _ = run(capsys, "generate", "--seed", seed, "--output", str(path))
        assert code == 0
        code, out_a, _ = run(capsys, "solve", "--problem", "partial", "--input", str(path))
        code_e, out_e, _ = run(capsys, "solve", "--problem", "partial",
                               "--algorithm", "exact", "--input", str(path))
        if code == 2 or code_e == 2:
            assert code == code_e
            continue
        assert json.loads(out_a.strip())["cost"] >= json.loads(out_e.strip())["cost"]


def test_verify_detects_tampering(tmp_path, capsys):
    inst = gen(tmp_path, capsys, "inst.json", "--k", "3")
    out = tmp_path / "sol.json"
    code, _, _ = run(capsys, "solve", "--problem", "partial",
                     "--input", str(inst), "--output", str(out))
    if code == 2:
        pytest.skip("seed produced an uncoverable instance")
    doc = json.loads(out.read_text())
    if not doc["counts"]:
        pytest.skip("empty multiset cannot be tampered with")
    rid = sorted(doc["counts"])[0]
    if doc["counts"][rid] == 1:
        del doc["counts"][rid]
    else:
        doc["counts"][rid] -= 1
    out.write_text(json.dumps(doc))
    code, stdout, _ = run(capsys, "verify", "--input", str(inst), "--solution", str(out))
    assert code == 2
    line = json.loads(stdout.strip())
    dropped = json.loads(inst.read_text())["resources"][int(rid)]["c"]
    assert line["feasible"] is False
    assert line["reason"] == "capacity below demand"
    assert isinstance(line["violated_slot"], int)
    assert line["cost_recomputed"] == doc["cost"] - dropped


def test_lspc_solve_and_verify(tmp_path, capsys):
    inst = gen(tmp_path, capsys, "lspc.json", "--profile", "lspc-random")
    out = tmp_path / "sol.json"
    code, stdout, _ = run(capsys, "solve", "--problem", "lspc",
                          "--input", str(inst), "--output", str(out))
    if code == 2:
        pytest.skip("seed produced an infeasible lspc instance")
    assert code == 0
    code, stdout, _ = run(capsys, "verify", "--input", str(inst), "--solution", str(out))
    assert code == 0


def test_prize_solve(tmp_path, capsys):
    inst = gen(tmp_path, capsys, "inst.json", "--penalties")
    code, stdout, _ = run(capsys, "solve", "--problem", "prize", "--input", str(inst))
    assert code == 0
    line = json.loads(stdout.strip())
    assert line["optimal"] is True


def test_parse_error_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code, _, err = run(capsys, "solve", "--problem", "partial", "--input", str(bad))
    assert code == 1
    assert "error" in err


def test_malformed_numbers_and_keys_exit_1(tmp_path, capsys):
    inst = gen(tmp_path, capsys, "inst.json", "--k", "3")
    sol = tmp_path / "sol.json"
    base = {"version": 1, "problem": "partial", "counts": {}, "cost": 0, "covered": []}
    for text, named in [
        (json.dumps(base).replace('"cost": 0', '"cost": ' + "1" * 5000), "cost:"),
        (json.dumps(base).replace('"counts": {}', '"counts": {"3": 1, "3": 2}'), "'3'"),
    ]:
        sol.write_text(text)
        code, _, err = run(capsys, "verify", "--input", str(inst), "--solution", str(sol))
        assert code == 1
        assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("s, e, w, c", [(1, 2, 0, 1), (1, 2, 1, -1), (1, 3, 1, 1), (0, 1, 1, 1)],
                         ids=["w0", "negative_c", "past_T", "before_1"])
def test_bad_lspc_long_is_a_parse_error(tmp_path, capsys, s, e, w, c):
    doc = {"version": 1, "demands": [1, 1], "shorts": [],
           "longs": [{"s": s, "e": e, "w": w, "c": c}], "k": 1}
    with pytest.raises(ParseError, match=r"longs\[0\]"):
        parse_lspc(json.dumps(doc))
    bad = tmp_path / "lspc.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "solve", "--problem", "lspc", "--input", str(bad))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "longs[0]" in err


def test_lspc_timeline_above_the_cap_is_a_parse_error(tmp_path, capsys):
    doc = {"version": 1, "demands": [0] * (MAX_TIMESLOTS + 1), "shorts": [], "longs": [], "k": 0}
    rule = f"T must be in [1, {MAX_TIMESLOTS}], got {MAX_TIMESLOTS + 1}"
    with pytest.raises(ParseError, match=re.escape(rule)):
        parse_lspc(json.dumps(doc))
    bad = tmp_path / "lspc.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "solve", "--problem", "lspc", "--input", str(bad))
    assert (code, out, err) == (1, "", f"error: {rule}\n")


def test_penalties_rejected_outside_uniform_random(capsys):
    for profile in ("single-mountain", "mountain-range", "lspc-random"):
        code, out, err = run(capsys, "generate", "--seed", "1", "--profile", profile, "--penalties")
        assert code == 1 and out == ""
        assert "penalties" in err


def test_generate_refuses_k_beside_penalties(capsys):
    # a prize instance has no k, so asking for both is an error, not a dropped k
    code, out, err = run(capsys, "generate", "--seed", "1", "--penalties", "--k", "2")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "k" in err.split() and "penalties" in err


def test_generate_rejects_options_of_another_profile(capsys):
    code, out, err = run(capsys, "generate", "--seed", "1", "--shorts", "9", "--max-demand", "7")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "shorts" in err and "max_demand" in err


@pytest.mark.parametrize("profile, extra", [
    ("uniform-random", ("--penalties",)),
    ("single-mountain", ("--k", "2")),
    ("mountain-range", ("--mountains", "3", "--timeslots", "12")),
    ("lspc-random", ("--timeslots", "6", "--shorts", "5")),
    ("mountain-range", ("--mountains", "6")),
])
def test_generate_every_profile_round_trips(tmp_path, capsys, profile, extra):
    path = gen(tmp_path, capsys, "inst.json", "--profile", profile, *extra)
    text = path.read_text()
    if profile == "lspc-random":
        inst = parse_lspc(text)
        assert (inst.T, len(inst.shorts)) == (6, 5)
        assert emit_lspc(inst) == text
    else:
        assert emit_instance(parse_instance(text)) == text


@pytest.mark.parametrize("extra, name", [
    (("--profile", "mountain-range", "--mountains", "0"), "mountains"),
    (("--profile", "mountain-range", "--mountains", "-1"), "mountains"),
    (("--resources", "-2"), "resources"),
    (("--profile", "lspc-random", "--shorts", "-1"), "shorts"),
    (("--timeslots", "0"), "timeslots"),
    (("--jobs", "-1"), "jobs"),
    (("--max-w", "0"), "max_w"),
    (("--max-c", "-1"), "max_c"),
    (("--profile", "lspc-random", "--max-demand", "-1"), "max_demand"),
])
def test_generate_rejects_a_size_below_its_least_value(capsys, extra, name):
    code, out, err = run(capsys, "generate", "--seed", "1", *extra)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {name} must be >= ") and err.count("\n") == 1


@pytest.mark.parametrize("profile", PROFILES)
def test_generate_without_size_options_takes_the_generators_defaults(capsys, profile):
    emit = emit_lspc if profile == "lspc-random" else emit_instance
    for seed in range(5):
        code, out, err = run(capsys, "generate", "--profile", profile, "--seed", str(seed))
        assert code == 0, err
        assert out == emit(generate(profile, seed))


def test_missing_k_exit_1(tmp_path, capsys):
    inst = gen(tmp_path, capsys, "inst.json", "--penalties")
    code, _, err = run(capsys, "solve", "--problem", "partial", "--input", str(inst))
    assert code == 1


def test_ratio_partial(capsys):
    code, stdout, _ = run(capsys, "ratio", "--problem", "partial", "--seeds", "0..6")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[-1].startswith("max-ratio")
    seeds = [int(line.split("\t")[0]) for line in lines[:-1]]
    assert seeds == sorted(seeds)


def test_ratio_lspc(capsys):
    code, stdout, _ = run(capsys, "ratio", "--problem", "lspc", "--seeds", "0..3")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert len(lines) == 5 and lines[-1].startswith("max-ratio ")
    # each row carries the SLRA factor as its bound, and none exceeds it
    assert all(line.endswith("\tbound=16") for line in lines[:-1]), lines


def test_ratio_partial_stays_under_certified_bound(capsys):
    from fractions import Fraction

    code, stdout, _ = run(capsys, "ratio", "--problem", "partial", "--seeds", "0..49")
    assert code == 0
    for line in stdout.strip().splitlines()[:-1]:
        fields = dict(part.split("=", 1) for part in line.split("\t")[1:]
                      if "=" in part and not part.startswith("("))
        if "bound" not in fields or fields["ratio"] in ("-", "0/0"):
            continue
        num, _, den = fields["ratio"].partition("/")
        assert Fraction(int(num), int(den)) <= int(fields["bound"])


def test_ratio_prize_is_exact(capsys):
    code, stdout, _ = run(capsys, "ratio", "--problem", "prize", "--seeds", "0..5")
    assert code == 0
    for line in stdout.strip().splitlines()[:-1]:
        if "ratio=-" in line or "INFEASIBLE" in line:
            continue
        assert "ratio=1/1" in line or "ratio=0/0" in line


def test_ratio_names_an_infeasible_optimum_in_its_failure_line(capsys, monkeypatch):
    # an invalid approximate answer next to an infeasible optimum prints
    # the optimum as INFEASIBLE, not as the float behind it
    from intervalcover import cli
    from intervalcover.core import INFEASIBLE, PartialSolution, SolveResult
    from intervalcover.pipeline import PartialSolveResult

    monkeypatch.setattr(cli, "solve_partial",
                        lambda inst: PartialSolveResult(0, PartialSolution({}, frozenset()), 1, 384))
    monkeypatch.setattr(cli, "oracle_partial", lambda inst: SolveResult(INFEASIBLE, None))
    code, stdout, _ = run(capsys, "ratio", "--problem", "partial", "--seeds", "0..0")
    assert code == 1
    assert stdout == "0\tapprox=INFEASIBLE-OR-INVALID\texact=INFEASIBLE\nmax-ratio -\n"


def test_ratio_fails_when_the_oracle_misses_a_verified_solution(capsys, monkeypatch):
    from intervalcover import cli
    from intervalcover.core import INFEASIBLE, SolveResult

    code, stdout, _ = run(capsys, "ratio", "--problem", "partial", "--seeds", "0..1")
    assert code == 0
    costs = [line.split("\t")[1] for line in stdout.splitlines()[:-1]]
    assert all(c.startswith("approx=") and c[len("approx="):].isdigit() for c in costs)

    monkeypatch.setattr(cli, "oracle_partial", lambda inst: SolveResult(INFEASIBLE, None))
    code, stdout, _ = run(capsys, "ratio", "--problem", "partial", "--seeds", "0..1")
    assert code == 1
    assert stdout == "".join(f"{seed}\t{cost}\texact=INFEASIBLE-BUT-APPROX-VALID\n"
                             for seed, cost in enumerate(costs)) + "max-ratio -\n"


def test_ratio_fails_when_the_approximation_beats_the_optimum(capsys, monkeypatch):
    # a verified answer cheaper than the oracle's optimum refutes the oracle
    from dataclasses import replace

    from intervalcover import cli

    oracle = cli.oracle_partial
    monkeypatch.setattr(cli, "oracle_partial",
                        lambda inst: replace(oracle(inst), cost=oracle(inst).cost + 1))
    code, stdout, _ = run(capsys, "ratio", "--problem", "partial", "--seeds", "1..1")
    assert code == 1
    assert stdout == ("1\tapprox=1\texact=2\tratio=1/2\t(0.500000)\tbound=8\n"
                      "max-ratio 1/2 (0.500000)\n")


def test_ratio_fails_above_the_certified_factor(capsys, monkeypatch):
    # paying every penalty is a valid prize solution, but the reduction
    # certifies factor 1, so any seed where it is dearer than the optimum fails
    from intervalcover import cli
    from intervalcover.core import PartialSolution, PrizeSolveResult

    monkeypatch.setattr(cli, "solve_prize", lambda inst: PrizeSolveResult(
        sum(j.penalty for j in inst.jobs), PartialSolution({}, frozenset())))
    code, stdout, _ = run(capsys, "ratio", "--problem", "prize", "--seeds", "0..5")
    assert code == 1
    rows = stdout.splitlines()[:-1]
    above = [row for row in rows if row.endswith("\tABOVE-FACTOR")]
    assert above and all("ratio=1/1" not in row for row in above)


def test_ratio_fails_an_lspc_row_above_the_slra_factor(capsys, monkeypatch):
    # seed 25 costs 18; an oracle claiming an optimum of 18 // 17 = 1 puts
    # the row above the SLRA factor of 16
    from dataclasses import replace

    from intervalcover import cli

    oracle = cli.oracle_lspc
    monkeypatch.setattr(cli, "oracle_lspc",
                        lambda inst: replace(oracle(inst), cost=oracle(inst).cost // 17))
    code, stdout, _ = run(capsys, "ratio", "--problem", "lspc", "--seeds", "25..25")
    assert code == 1
    assert stdout == ("25\tapprox=18\texact=1\tratio=18/1\t(18.000000)\tbound=16\tABOVE-FACTOR\n"
                      "max-ratio 18/1 (18.000000)\n")


def test_ratio_rejects_an_approximate_cost_its_solution_does_not_have(capsys, monkeypatch):
    from dataclasses import replace

    from intervalcover import cli

    solve = cli.solve_partial
    monkeypatch.setattr(cli, "solve_partial",
                        lambda inst: replace(solve(inst), cost=solve(inst).cost - 1))
    code, stdout, _ = run(capsys, "ratio", "--problem", "partial", "--seeds", "0..3")
    assert code == 1
    assert [line.split("\t")[1] for line in stdout.splitlines()[:-1]] == \
        ["approx=INFEASIBLE-OR-INVALID"] * 4


@pytest.mark.parametrize("problem", ["prize", "lspc"])
def test_ratio_profile_is_only_for_partial(capsys, problem):
    code, out, err = run(capsys, "ratio", "--problem", problem, "--profile", "uniform-random",
                         "--seeds", "0..0")
    assert code == 1 and out == ""
    assert "--profile is only supported with --problem partial" in err


def test_ratio_bad_seed_range(capsys):
    code, _, err = run(capsys, "ratio", "--seeds", "5..1")
    assert code == 1


def test_verify_fullcover(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "version": 1, "T": 3,
        "jobs": [{"s": 1, "e": 2}, {"s": 2, "e": 3}],
        "resources": [{"s": 1, "e": 3, "w": 2, "c": 3}, {"s": 1, "e": 3, "w": 1, "c": 5}],
    }))
    out = tmp_path / "sol.json"
    code, _, _ = run(capsys, "solve", "--problem", "fullcover",
                     "--input", str(inst), "--output", str(out))
    assert code == 0
    code, stdout, _ = run(capsys, "verify", "--input", str(inst), "--solution", str(out))
    assert code == 0
    assert stdout == '{"cost_recomputed": 3, "feasible": true, "problem": "fullcover"}\n'

    doc = json.loads(out.read_text())
    assert doc["counts"] == {"0": 1} and doc["covered"] == [0, 1]
    dropped_job = tmp_path / "dropped_job.json"
    dropped_job.write_text(json.dumps(dict(doc, covered=[0])))
    code, stdout, _ = run(capsys, "verify", "--input", str(inst), "--solution", str(dropped_job))
    assert code == 2
    line = json.loads(stdout)
    assert line["feasible"] is False and line["reason"] == "covers 1 jobs, needs 2"

    dropped_resource = tmp_path / "dropped_resource.json"
    dropped_resource.write_text(json.dumps(dict(doc, counts={})))
    code, stdout, _ = run(capsys, "verify", "--input", str(inst),
                          "--solution", str(dropped_resource))
    assert code == 2
    line = json.loads(stdout)
    assert line["feasible"] is False
    assert line["reason"] == "capacity below demand" and line["violated_slot"] == 1


@pytest.mark.parametrize("problem, extra", [
    ("partial", ("--k", "3")),
    ("prize", ("--penalties",)),
    ("lspc", ("--profile", "lspc-random")),
    ("fullcover", ()),
])
def test_solve_output_then_verify_round_trip(tmp_path, capsys, problem, extra):
    inst = gen(tmp_path, capsys, "inst.json", *extra)
    out = tmp_path / "sol.json"
    code, stdout, _ = run(capsys, "solve", "--problem", problem,
                          "--input", str(inst), "--output", str(out))
    assert code == 0
    cost = json.loads(stdout)["cost"]
    code, stdout, _ = run(capsys, "verify", "--input", str(inst), "--solution", str(out))
    assert code == 0
    line = json.loads(stdout)
    assert line["problem"] == problem and line["feasible"] is True
    assert line["cost_recomputed"] == cost


# 17 one-slot jobs under a resource dearer than their penalty touch no gap
# and are free, 2^17 sets, one job above what MAX_CANDIDATES allows; the
# three in the gap at slot 2 are not counted
_FREE_ABOVE_THE_CAP = Instance(2, tuple(Job(i, 1, 1, 1) for i in range(17))
                               + tuple(Job(i, 2, 2, 1) for i in range(17, 20)),
                               (Resource(0, 1, 1, 1, 2),))


@pytest.mark.parametrize("problem, algorithm, extra, counted", [
    ("partial", "exact", Instance(1, tuple(Job(i, 1, 1) for i in range(20)),
                                  (Resource(0, 1, 1, 1, 1),), 9),
     "167960 9-subsets of 20 jobs touching no gap"),
    ("prize", "exact", _FREE_ABOVE_THE_CAP, "131072 subsets of 17 jobs touching no gap"),
    ("lspc", "exact", None, "100000000 (coverage profile, short picks) pairs"),
    ("prize", "approx", _FREE_ABOVE_THE_CAP, "131072 sets of 17 free jobs"),
], ids=["partial-exact", "prize-exact", "lspc-exact", "prize-approx"])
def test_solve_refuses_over_a_cap(tmp_path, capsys, problem, algorithm, extra, counted):
    inst = tmp_path / "inst.json"
    if extra is None:
        inst.write_text(json.dumps({"version": 1, "demands": [9] * 8, "shorts": [],
                                    "longs": [{"s": 1, "e": 8, "w": 9, "c": 1}], "k": 1}))
    else:
        inst.write_text(emit_instance(extra))
    code, out, err = run(capsys, "solve", "--problem", problem, "--algorithm", algorithm,
                         "--input", str(inst))
    assert code == 1 and out == ""
    assert err == f"error: {counted} exceed the enumeration cap MAX_CANDIDATES=100000\n"


def test_solve_answers_a_full_cover_deeper_than_the_recursion_limit(tmp_path, capsys):
    # 1200 one-slot jobs over 1200 one-slot resources: a search of one
    # level per resource, more levels than Python's default recursion limit
    T = 1200
    inst = tmp_path / "inst.json"
    inst.write_text(emit_instance(Instance(T, tuple(Job(i, i + 1, i + 1) for i in range(T)),
                                           tuple(Resource(i, i + 1, i + 1, 1, 1)
                                                 for i in range(T)))))
    sol = tmp_path / "sol.json"
    code, out, err = run(capsys, "solve", "--problem", "fullcover", "--input", str(inst),
                         "--output", str(sol))
    assert code == 0 and err == ""
    line = json.loads(out)
    assert line["cost"] == T and line["optimal"] is True
    code, out, _ = run(capsys, "verify", "--input", str(inst), "--solution", str(sol))
    assert code == 0
    assert out == f'{{"cost_recomputed": {T}, "feasible": true, "problem": "fullcover"}}\n'


def test_exact_lspc_walks_a_long_timeline(tmp_path, capsys):
    # one coverage profile over 2000 slots, enumerated without a frame per slot
    inst = tmp_path / "inst.json"
    inst.write_text(emit_lspc(LspcInstance(2000, (0,) * 2000, (), (), 0)))
    start = time.perf_counter()
    code, out, err = run(capsys, "solve", "--problem", "lspc", "--algorithm", "exact",
                         "--input", str(inst))
    assert time.perf_counter() - start < 1
    assert code == 0 and json.loads(out)["cost"] == 0, err


def test_prize_without_penalties_has_one_rule(tmp_path, capsys):
    # the solvers, the oracle, the verifier and the CLI refuse a job
    # without a penalty with the same words; the CLI reports the solver's
    from intervalcover.core import PartialSolution, verify_prize
    from intervalcover.oracle import oracle_prize
    from intervalcover.pipeline import solve_prize

    rule = "every job needs a penalty for prize collecting"
    path = gen(tmp_path, capsys, "inst.json", "--profile", "uniform-random", "--k", "2")
    inst = parse_instance(path.read_text())
    for call in (solve_prize, oracle_prize,
                 lambda inst: verify_prize(inst, PartialSolution({}, frozenset()))):
        with pytest.raises(ValueError, match=rule):
            call(inst)
    code, _, err = run(capsys, "solve", "--problem", "prize", "--input", str(path))
    assert code == 1 and err == f"error: {rule}\n"


def test_partial_without_k_has_one_rule(tmp_path, capsys):
    # the solvers, the oracle, the verifier and the CLI's solve and verify
    # refuse a partial instance without k with the same words
    from intervalcover.core import PartialSolution, verify_partial
    from intervalcover.files import emit_solution
    from intervalcover.oracle import oracle_partial
    from intervalcover.pipeline import solve_partial

    rule = "instance has no partiality parameter k"
    path = gen(tmp_path, capsys, "inst.json", "--profile", "uniform-random", "--penalties")
    inst = parse_instance(path.read_text())
    assert inst.k is None
    empty = PartialSolution({}, frozenset())
    for call in (solve_partial, oracle_partial, lambda inst: verify_partial(inst, empty)):
        with pytest.raises(ValueError, match=rule):
            call(inst)
    sol = tmp_path / "sol.json"
    sol.write_text(emit_solution("partial", empty, 0))
    for argv in (("solve", "--problem", "partial", "--algorithm", "approx"),
                 ("solve", "--problem", "partial", "--algorithm", "exact"),
                 ("verify", "--solution", str(sol))):
        code, out, err = run(capsys, *argv, "--input", str(path))
        assert (code, out, err) == (1, "", f"error: {rule}\n"), argv
