"""CLI contract: exit codes, machine-readable lines, verify/ratio flows."""

import json

import pytest

from intervalcover.cli import main
from intervalcover.files import parse_solution


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
    doc = parse_solution(out.read_text())
    assert doc.problem == "partial" and doc.cost == line["cost"]

    code, stdout, _ = run(capsys, "verify", "--input", str(inst), "--solution", str(out))
    assert code == 0
    assert json.loads(stdout.strip())["feasible"] is True


def test_solve_k0_cost_zero(tmp_path, capsys):
    inst = gen(tmp_path, capsys, "inst.json", "--k", "0")
    code, stdout, _ = run(capsys, "solve", "--problem", "partial", "--input", str(inst))
    assert code == 0
    assert json.loads(stdout.strip())["cost"] == 0


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


def test_penalties_rejected_outside_uniform_random(capsys):
    for profile in ("single-mountain", "mountain-range", "lspc-random"):
        code, out, err = run(capsys, "generate", "--seed", "1", "--profile", profile, "--penalties")
        assert code == 1 and out == ""
        assert "--penalties is only supported with uniform-random" in err


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
    monkeypatch.setattr(cli, "oracle_partial", lambda inst, budget: SolveResult(INFEASIBLE, None))
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

    monkeypatch.setattr(cli, "oracle_partial", lambda inst, budget: SolveResult(INFEASIBLE, None))
    code, stdout, _ = run(capsys, "ratio", "--problem", "partial", "--seeds", "0..1")
    assert code == 1
    assert stdout == "".join(f"{seed}\t{cost}\texact=INFEASIBLE-BUT-APPROX-VALID\n"
                             for seed, cost in enumerate(costs)) + "max-ratio -\n"


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
