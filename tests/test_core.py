"""Profile arithmetic, cost sentinel, and verifier behaviour."""

import ast
import copy
import pickle
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import intervalcover
from intervalcover.core import (
    INFEASIBLE,
    MAX_CANDIDATES,
    BudgetExceeded,
    Instance,
    Job,
    PartialSolution,
    Report,
    Resource,
    check_candidates,
    covers,
    is_feasible,
    job_profile,
    make_instance,
    multiset_cost,
    multiset_profile,
    verify_partial,
    verify_prize,
)
from intervalcover.fullcover import CoverPlan, full_cover
from intervalcover.lspc import LspcInstance, LspcSolver
from intervalcover.mountains import candidate_exclusions, single_mountain_solve
from intervalcover.oracle import oracle_partial
from intervalcover.pipeline import solve_partial


def _naive_job_profile(jobs, T):
    # independent recount: one loop per slot, no difference array
    return tuple(sum(1 for j in jobs if j.s <= t <= j.e) for t in range(1, T + 1))


def _random_jobs(rnd, n, T):
    out = []
    for i in range(n):
        s = rnd.randint(1, T)
        e = rnd.randint(s, T)
        out.append(Job(i, s, e))
    return out


def test_infeasible_sentinel_arithmetic():
    assert INFEASIBLE + 5 == INFEASIBLE
    assert 5 + INFEASIBLE == INFEASIBLE
    assert min(3, INFEASIBLE) == 3
    assert min(INFEASIBLE, 3) == 3
    assert INFEASIBLE > 10**18
    assert not is_feasible(INFEASIBLE)
    assert is_feasible(0)


@pytest.mark.parametrize("clone", [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_copied_infeasible_results_stay_infeasible(clone):
    # both jobs span slot 2, a gap with no resource, so no solver can
    # cover them; they form a mountain, as single_mountain_solve needs
    inst = make_instance(2, [(1, 2), (2, 2)], [(1, 1, 1, 1)], k=2)
    plan = CoverPlan(inst.resources, inst.T)
    results = {
        "solve_partial": solve_partial(inst),
        "full_cover": full_cover(plan.segment_demand(job_profile(inst.jobs, inst.T)), plan),
        "LspcSolver": LspcSolver(LspcInstance(1, (2,), (), (), 1)).solve(),
        "single_mountain_solve": single_mountain_solve(candidate_exclusions(inst.jobs, plan)[2],
                                                       plan),
        "oracle_partial": oracle_partial(inst),
    }
    for name, res in results.items():
        assert not is_feasible(res.cost), name
        assert not is_feasible(clone(res).cost), name
    assert not clone(results["full_cover"]).feasible


def test_job_profile_empty():
    assert job_profile([], 3) == (0, 0, 0)


def test_job_profile_two_jobs():
    jobs = [Job(0, 1, 2), Job(1, 2, 3)]
    assert job_profile(jobs, 3) == (1, 2, 1)


def test_job_profile_matches_independent_recount():
    rnd = random.Random("core-profile")
    for _ in range(30):
        T = rnd.randint(1, 25)
        jobs = _random_jobs(rnd, 20, T)
        assert job_profile(jobs, T) == _naive_job_profile(jobs, T)


def test_multiset_profile_empty():
    assert multiset_profile({}, (), 2) == (0, 0)


def test_multiset_profile_counts_copies():
    res = (Resource(0, 1, 2, 3, 1),)
    assert multiset_profile({0: 2}, res, 2) == (6, 6)


def test_multiset_profile_matches_copy_expansion():
    rnd = random.Random("core-multiset")
    for _ in range(30):
        T = rnd.randint(1, 15)
        m = rnd.randint(1, 6)
        res = []
        for i in range(m):
            s = rnd.randint(1, T)
            e = rnd.randint(s, T)
            res.append(Resource(i, s, e, rnd.randint(1, 4), rnd.randint(0, 9)))
        counts = {i: rnd.randint(1, 3) for i in range(m) if rnd.random() < 0.7}
        # expand into individual copies and sum per slot
        expected = [0] * T
        for rid, n in counts.items():
            for _ in range(n):
                for t in range(res[rid].s - 1, res[rid].e):
                    expected[t] += res[rid].w
        assert multiset_profile(counts, res, T) == tuple(expected)


def test_multiset_profile_rejects_unknown_id():
    with pytest.raises(ValueError):
        multiset_profile({7: 1}, (Resource(0, 1, 1, 1, 1),), 1)


def test_covers_basic():
    assert covers((1, 2), (1, 2))
    assert not covers((2, 1), (1, 2))
    with pytest.raises(ValueError):
        covers((1,), (1, 2))


def test_covers_matches_elementwise_scan():
    rnd = random.Random("core-covers")
    for _ in range(50):
        T = rnd.randint(1, 10)
        p1 = tuple(rnd.randint(0, 4) for _ in range(T))
        p2 = tuple(rnd.randint(0, 4) for _ in range(T))
        expected = True
        for a, b in zip(p1, p2):
            if a < b:
                expected = False
        assert covers(p1, p2) == expected


@given(st.data())
def test_job_profile_monotone_in_job_set(data):
    T = data.draw(st.integers(1, 12))
    n = data.draw(st.integers(0, 8))
    jobs = []
    for i in range(n):
        s = data.draw(st.integers(1, T))
        e = data.draw(st.integers(s, T))
        jobs.append(Job(i, s, e))
    cut = data.draw(st.integers(0, n))
    sub, full = jobs[:cut], jobs
    psub, pfull = job_profile(sub, T), job_profile(full, T)
    assert covers(pfull, psub)


@given(st.lists(st.integers(0, 5), min_size=1, max_size=8))
def test_covers_reflexive(profile):
    assert covers(profile, profile)


@given(st.data())
def test_covers_partial_order(data):
    T = data.draw(st.integers(1, 6))
    ps = [tuple(data.draw(st.integers(0, 3)) for _ in range(T)) for _ in range(3)]
    p1, p2, p3 = ps
    if covers(p1, p2) and covers(p2, p1):
        assert p1 == p2
    if covers(p1, p2) and covers(p2, p3):
        assert covers(p1, p3)


def test_multiset_profile_additive():
    rnd = random.Random("core-additive")
    for _ in range(20):
        T = rnd.randint(1, 10)
        res = []
        for i in range(5):
            s = rnd.randint(1, T)
            e = rnd.randint(s, T)
            res.append(Resource(i, s, e, rnd.randint(1, 3), 1))
        c1 = {i: rnd.randint(1, 2) for i in range(5) if rnd.random() < 0.5}
        c2 = {i: rnd.randint(1, 2) for i in range(5) if rnd.random() < 0.5}
        union = dict(c1)
        for i, n in c2.items():
            union[i] = union.get(i, 0) + n
        merged = multiset_profile(union, res, T) if union else (0,) * T
        p1 = multiset_profile(c1, res, T) if c1 else (0,) * T
        p2 = multiset_profile(c2, res, T) if c2 else (0,) * T
        assert merged == tuple(a + b for a, b in zip(p1, p2))


def test_verify_partial_empty_solution():
    inst = make_instance(3, [(1, 2)], [(1, 3, 1, 4)], k=0)
    rep = verify_partial(inst, PartialSolution({}, frozenset()))
    assert rep.feasible and rep.cost == 0


def test_verify_partial_reports_violated_slot():
    inst = make_instance(3, [(1, 3)], [(1, 2, 1, 4)], k=1)
    rep = verify_partial(inst, PartialSolution({0: 1}, frozenset({0})))
    assert not rep.feasible
    assert rep.violated_slot == 3


def test_verify_partial_dangling_id():
    inst = make_instance(2, [(1, 1)], [(1, 2, 1, 1)], k=1)
    rep = verify_partial(inst, PartialSolution({5: 1}, frozenset({0})))
    assert not rep.feasible
    assert "unknown resource" in rep.reason


def test_verify_partial_agrees_with_direct_rederivation():
    rnd = random.Random("core-verify")
    for _ in range(40):
        T = rnd.randint(2, 8)
        jobs = _random_jobs(rnd, rnd.randint(1, 5), T)
        res = []
        for i in range(rnd.randint(1, 4)):
            s = rnd.randint(1, T)
            e = rnd.randint(s, T)
            res.append(Resource(i, s, e, rnd.randint(1, 3), rnd.randint(0, 5)))
        k = rnd.randint(0, len(jobs))
        inst = Instance(T, tuple(jobs), tuple(res), k)
        covered = frozenset(j.id for j in jobs if rnd.random() < 0.6)
        counts = {r.id: rnd.randint(1, 2) for r in res if rnd.random() < 0.6}
        sol = PartialSolution(counts, covered)
        rep = verify_partial(inst, sol)
        # from scratch, using only the definitions
        ok = len(covered) >= k
        for t in range(1, T + 1):
            demand = sum(1 for j in jobs if j.id in covered and j.s <= t <= j.e)
            cap = sum(n * res[rid].w for rid, n in counts.items()
                      if res[rid].s <= t <= res[rid].e)
            if cap < demand:
                ok = False
        assert rep.feasible == ok
        assert rep.cost == sum(n * res[rid].c for rid, n in counts.items())


def test_verify_prize_totals():
    inst = make_instance(2, [(1, 2, 5), (2, 2, 3)], [(1, 2, 2, 4)])
    nothing = verify_prize(inst, PartialSolution({}, frozenset()))
    assert nothing.feasible and nothing.total == 8
    everything = verify_prize(inst, PartialSolution({0: 1}, frozenset({0, 1})))
    assert everything.feasible and everything.total == 4


def test_verify_prize_matches_recompute_by_definition():
    rnd = random.Random("core-prize")
    for _ in range(40):
        T = rnd.randint(2, 8)
        jobs = []
        for i in range(rnd.randint(1, 5)):
            s = rnd.randint(1, T)
            e = rnd.randint(s, T)
            jobs.append(Job(i, s, e, rnd.randint(0, 6)))
        res = [Resource(0, 1, T, rnd.randint(1, 4), rnd.randint(0, 5))]
        inst = Instance(T, tuple(jobs), tuple(res))
        covered = frozenset(j.id for j in jobs if rnd.random() < 0.5)
        counts = {0: rnd.randint(1, 3)} if rnd.random() < 0.8 else {}
        rep = verify_prize(inst, PartialSolution(counts, covered))
        expected = sum(n * res[rid].c for rid, n in counts.items()) \
            + sum(j.penalty for j in jobs if j.id not in covered)
        assert rep.total == expected


# T=3; jobs [1,2], [2,3], [3,3] with penalties 4, 5, 6; resources [1,3]
# (w=1, c=2) and [2,3] (w=1, c=3). Both resources once, jobs 0 and 1
# covered, is a valid partial solution for k=2 and a valid prize solution.
_VERIFY_INST = make_instance(3, [(1, 2, 4), (2, 3, 5), (3, 3, 6)],
                             [(1, 3, 1, 2), (2, 3, 1, 3)], k=2)
_VERIFY_SOL = PartialSolution({0: 1, 1: 1}, frozenset({0, 1}))

# each case breaks the valid solution one way: (counts, covered, reason)
_STRUCTURE_BREAKS = [
    ({0: 1, 1: 0}, {0, 1}, "resource 1 has non-positive copy count 0"),
    ({0: 1, 1: -2}, {0, 1}, "resource 1 has non-positive copy count -2"),
    ({0: 1, 1: 1, 9: 1}, {0, 1}, "unknown resource id 9"),
    ({0: 1, 1: 1}, {0, 1, 7}, "unknown job id 7"),
]
_SHORT_AT_2 = ({0: 1}, {0, 1})  # one copy of [1,3] for two jobs at slot 2


@pytest.mark.parametrize("counts, covered, want", [
    *((c, cv, Report(False, INFEASIBLE, reason=r)) for c, cv, r in _STRUCTURE_BREAKS),
    ({0: 1, 1: 1}, {0}, Report(False, 5, reason="covers 1 jobs, needs 2")),
    (*_SHORT_AT_2, Report(False, 2, reason="capacity below demand", violated_slot=2)),
])
def test_verify_partial_rejections(counts, covered, want):
    valid = verify_partial(_VERIFY_INST, _VERIFY_SOL)
    assert valid == Report(True, 5) and valid.total == 5  # partial coverage has no penalty
    report = verify_partial(_VERIFY_INST, PartialSolution(counts, frozenset(covered)))
    assert report == want and report.total == want.cost


@pytest.mark.parametrize("counts, covered, want", [
    *((c, cv, Report(False, INFEASIBLE, reason=r)) for c, cv, r in _STRUCTURE_BREAKS),
    (*_SHORT_AT_2, Report(False, 2, reason="capacity below demand", violated_slot=2,
                          penalty=6)),
])
def test_verify_prize_rejections(counts, covered, want):
    valid = verify_prize(_VERIFY_INST, _VERIFY_SOL)
    assert valid == Report(True, 5, penalty=6) and valid.total == 11
    report = verify_prize(_VERIFY_INST, PartialSolution(counts, frozenset(covered)))
    assert report == want and report.total == want.cost + want.penalty


def test_verifiers_refuse_instances_without_their_parameter():
    with pytest.raises(ValueError, match="no partiality parameter k"):
        verify_partial(replace(_VERIFY_INST, k=None), _VERIFY_SOL)
    jobs = (_VERIFY_INST.jobs[0], replace(_VERIFY_INST.jobs[1], penalty=None),
            _VERIFY_INST.jobs[2])
    with pytest.raises(ValueError, match="every job needs a penalty"):
        verify_prize(replace(_VERIFY_INST, jobs=jobs), _VERIFY_SOL)


def test_instance_validation():
    with pytest.raises(ValueError):
        make_instance(3, [(2, 1)], [])
    with pytest.raises(ValueError):
        make_instance(3, [(1, 4)], [])
    with pytest.raises(ValueError):
        make_instance(3, [(1, 2)], [(1, 3, 0, 1)])
    with pytest.raises(ValueError):
        make_instance(3, [(1, 2)], [], k=2)
    with pytest.raises(ValueError):
        Instance(0, (), ())
    # ids must equal positions, one rule for jobs and resources
    with pytest.raises(ValueError, match=r"jobs\[1\] has id 2, expected dense id 1"):
        Instance(3, (Job(0, 1, 1), Job(2, 1, 1)), ())
    with pytest.raises(ValueError, match=r"resources\[0\] has id 1, expected dense id 0"):
        Instance(3, (), (Resource(1, 1, 3, 1, 1),))


def test_candidate_cap_refuses_above_it_only():
    check_candidates(MAX_CANDIDATES, "sets")
    with pytest.raises(BudgetExceeded,
                       match=r"^100001 sets exceed the enumeration cap MAX_CANDIDATES=100000$"):
        check_candidates(MAX_CANDIDATES + 1, "sets")
    # a count past Python's digit limit for printing ints is shown by its power of 2
    with pytest.raises(BudgetExceeded, match=r"^over 2\^20000 sets exceed"):
        check_candidates(1 << 20000, "sets")


def test_multiset_cost_exact():
    res = (Resource(0, 1, 1, 1, 3), Resource(1, 1, 1, 1, 10))
    assert multiset_cost({0: 2, 1: 1}, res) == 16


def test_only_cli_imports_sys():
    # solvers must not touch interpreter-global state such as the recursion limit
    src = Path(__file__).resolve().parent.parent / "src" / "intervalcover"
    files = sorted(p for p in src.glob("*.py") if p.name != "cli.py")
    assert files
    found = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name == "sys" or name.startswith("sys.") for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_no_module_reads_the_environment():
    # caps and defaults are constants in the source, so a run does not
    # depend on variables set in the shell that started it
    src = Path(__file__).resolve().parent.parent / "src" / "intervalcover"
    files = sorted(src.glob("*.py"))
    assert files
    found = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                reads = isinstance(node.value, ast.Name) and node.value.id == "os"
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads = any(alias.name in ("environ", "getenv") for alias in node.names)
            else:
                continue
            if reads:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_infeasible_is_compared_by_value():
    # INFEASIBLE is a float; a copied or unpickled cost is equal to it but
    # not the same object, so an identity check would read it as feasible
    src = Path(__file__).resolve().parent.parent / "src" / "intervalcover"
    files = sorted(src.glob("*.py"))
    assert files

    def names_infeasible(node):
        return (isinstance(node, ast.Name) and node.id == "INFEASIBLE"
                or isinstance(node, ast.Attribute) and node.attr == "INFEASIBLE")

    found = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, lhs, rhs in zip(node.ops, operands, operands[1:]):
                if isinstance(op, (ast.Is, ast.IsNot)) and (names_infeasible(lhs) or names_infeasible(rhs)):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def _package_modules(exclude=()):
    src = Path(__file__).resolve().parent.parent / "src" / "intervalcover"
    files = sorted(p for p in src.glob("*.py") if p.name not in exclude)
    assert files
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in files]


def test_every_import_is_read():
    # __init__ re-exports its imports through __all__
    found = []
    for path, tree in _package_modules(exclude=("__init__.py",)):
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]
    assert not found, found



ROOT_API = {
    "INFEASIBLE", "BudgetExceeded", "Instance", "Job", "PartialSolution",
    "PrizeSolveResult", "Resource", "SolveResult", "is_feasible", "make_instance",
    "verify_partial", "verify_prize", "verify_lspc",
    "CoverPlan", "FullCoverResult", "full_cover",
    "LspcInstance", "LspcResult", "LspcSolution", "LspcSolver", "ShortResource",
    "oracle_lspc", "oracle_partial", "oracle_prize",
    "RANGE_FACTOR", "PartialSolveResult", "solve_partial", "solve_prize",
}


def test_root_exports_exactly_what_it_imports():
    # the layers' internals (mountains, reductions) are imported from their modules
    [tree] = [tree for path, tree in _package_modules() if path.name == "__init__.py"]
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(intervalcover.__all__) == sorted(imported) == sorted(ROOT_API)

def test_package_imports_only_stdlib():
    found = []
    for path, tree in _package_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "intervalcover" and top not in sys.stdlib_module_names:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, found
