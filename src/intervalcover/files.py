"""JSON file formats for instances and solutions.

All three formats carry ``"version": 1`` and reject unknown fields, so
golden files stay stable. Parse errors name the offending field path
(``jobs[3].e``); JSON syntax errors keep their line/column positions.
Emission is byte-deterministic: sorted keys, fixed separators, trailing
newline.

A solution file maps to the problem it answers, its reported cost and
the solver's own type: ``LspcSolution`` for lspc, ``PartialSolution``
for the other problems.
"""

from __future__ import annotations

import json

from .core import Instance, Job, PartialSolution, Resource
from .lspc import LspcInstance, LspcSolution, ShortResource

FORMAT_VERSION = 1

PROBLEMS = ("partial", "prize", "lspc", "fullcover")


class ParseError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


def _require_keys(obj: dict, path: str, required: dict, optional: dict = {}) -> None:
    if not isinstance(obj, dict):
        raise ParseError(path, f"expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in required and key not in optional:
            raise ParseError(path, f"unknown field {key!r}")
    for key in required:
        if key not in obj:
            raise ParseError(path, f"missing field {key!r}")


class _HugeInt:
    """A JSON integer with more digits than ``int()`` converts."""

    __slots__ = ("digits",)

    def __init__(self, digits: str):
        self.digits = digits

    def __repr__(self):
        return f"<integer of {len(self.digits)} digits>"


def _parse_int(digits: str) -> int | _HugeInt:
    try:
        return int(digits)
    except ValueError:  # the interpreter's integer string conversion limit
        return _HugeInt(digits)


def _unique_keys(pairs: list) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError("", f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _as_int(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, _HugeInt):
        raise ParseError(path, f"integer of {len(value.digits)} digits is too long")
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ParseError(path, f"must be >= {minimum}, got {value}")
    return value


def _as_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ParseError(path, f"expected an array, got {type(value).__name__}")
    return value


def _as_interval(item: dict, path: str, T: int) -> tuple[int, int]:
    s = _as_int(item["s"], f"{path}.s", minimum=1)
    e = _as_int(item["e"], f"{path}.e", minimum=1)
    if e < s:
        raise ParseError(f"{path}.e", f"end {e} before start {s}")
    if e > T:
        raise ParseError(f"{path}.e", f"end {e} beyond T={T}")
    return s, e


def _parse_resource(item: dict, path: str, i: int, T: int) -> Resource:
    _require_keys(item, path, {"s": 1, "e": 1, "w": 1, "c": 1})
    s, e = _as_interval(item, path, T)
    w = _as_int(item["w"], f"{path}.w", minimum=1)
    c = _as_int(item["c"], f"{path}.c", minimum=0)
    return Resource(i, s, e, w, c)


def _check_version(obj: dict, path: str = "") -> None:
    if obj.get("version") != FORMAT_VERSION:
        raise ParseError(path or "version", f"expected version {FORMAT_VERSION}")


def _loads(text: str) -> dict:
    try:
        return json.loads(text, parse_int=_parse_int, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError("", f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise ParseError("", "invalid JSON: nested too deeply")


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def parse_instance(text: str) -> Instance:
    doc = _loads(text)
    _require_keys(doc, "", {"version": 1, "T": 1, "jobs": 1, "resources": 1}, {"k": 1})
    _check_version(doc)
    T = _as_int(doc["T"], "T", minimum=1)
    jobs = []
    for i, item in enumerate(_as_list(doc["jobs"], "jobs")):
        path = f"jobs[{i}]"
        _require_keys(item, path, {"s": 1, "e": 1}, {"penalty": 1})
        s, e = _as_interval(item, path, T)
        penalty = None
        if "penalty" in item:
            penalty = _as_int(item["penalty"], f"{path}.penalty", minimum=0)
        jobs.append(Job(i, s, e, penalty))
    resources = [_parse_resource(item, f"resources[{i}]", i, T)
                 for i, item in enumerate(_as_list(doc["resources"], "resources"))]
    k = None
    if "k" in doc:
        k = _as_int(doc["k"], "k", minimum=0)
        if k > len(jobs):
            raise ParseError("k", f"k={k} exceeds the {len(jobs)} jobs")
    try:
        return Instance(T, tuple(jobs), tuple(resources), k)
    except ValueError as exc:
        raise ParseError("", str(exc))


def emit_instance(inst: Instance) -> str:
    jobs = []
    for j in inst.jobs:
        item = {"s": j.s, "e": j.e}
        if j.penalty is not None:
            item["penalty"] = j.penalty
        jobs.append(item)
    doc = {
        "version": FORMAT_VERSION,
        "T": inst.T,
        "jobs": jobs,
        "resources": [{"s": r.s, "e": r.e, "w": r.w, "c": r.c} for r in inst.resources],
    }
    if inst.k is not None:
        doc["k"] = inst.k
    return _dumps(doc)


def parse_lspc(text: str) -> LspcInstance:
    doc = _loads(text)
    _require_keys(doc, "", {"version": 1, "demands": 1, "shorts": 1, "longs": 1, "k": 1})
    _check_version(doc)
    if not _as_list(doc["demands"], "demands"):
        raise ParseError("demands", "expected a non-empty array")
    demands = tuple(_as_int(v, f"demands[{i}]", minimum=0) for i, v in enumerate(doc["demands"]))
    T = len(demands)
    shorts = []
    for i, item in enumerate(_as_list(doc["shorts"], "shorts")):
        path = f"shorts[{i}]"
        _require_keys(item, path, {"t": 1, "w": 1, "c": 1})
        t = _as_int(item["t"], f"{path}.t", minimum=1)
        if t > T:
            raise ParseError(f"{path}.t", f"slot {t} beyond T={T}")
        shorts.append(ShortResource(i, t, _as_int(item["w"], f"{path}.w", minimum=1),
                                    _as_int(item["c"], f"{path}.c", minimum=0)))
    longs = [_parse_resource(item, f"longs[{i}]", i, T)
             for i, item in enumerate(_as_list(doc["longs"], "longs"))]
    k = _as_int(doc["k"], "k", minimum=0)
    try:
        return LspcInstance(T, demands, tuple(shorts), tuple(longs), k)
    except ValueError as exc:
        raise ParseError("", str(exc))


def emit_lspc(inst: LspcInstance) -> str:
    doc = {
        "version": FORMAT_VERSION,
        "demands": list(inst.d),
        "shorts": [{"t": s.t, "w": s.w, "c": s.c} for s in inst.shorts],
        "longs": [{"s": r.s, "e": r.e, "w": r.w, "c": r.c} for r in inst.longs],
        "k": inst.k,
    }
    return _dumps(doc)


def parse_solution(text: str) -> tuple[str, int, PartialSolution | LspcSolution]:
    """(problem, reported cost, solver-typed solution) of a solution file."""
    doc = _loads(text)
    _require_keys(doc, "", {"version": 1, "problem": 1, "counts": 1, "cost": 1},
                  {"covered": 1, "short_picks": 1, "coverage": 1})
    _check_version(doc)
    problem = doc["problem"]
    if problem not in PROBLEMS:
        raise ParseError("problem", f"unknown problem {problem!r}")
    counts = {}
    if not isinstance(doc["counts"], dict):
        raise ParseError("counts", "expected an object")
    for key, val in doc["counts"].items():
        path = f"counts.{key}"
        rid = _parse_int(key) if key.isascii() and key.isdigit() else None
        if isinstance(rid, _HugeInt):
            raise ParseError(path, f"resource id of {len(key)} digits is too long")
        if rid is None or key != str(rid):
            raise ParseError(path, "resource ids are non-negative integers")
        counts[rid] = _as_int(val, path, minimum=1)
    cost = _as_int(doc["cost"], "cost", minimum=0)
    if problem == "lspc":
        for field in ("short_picks", "coverage"):
            if field not in doc:
                raise ParseError(field, "required for lspc solutions")
        if "covered" in doc:
            raise ParseError("covered", "not allowed for lspc solutions")
        short_picks = frozenset(_as_int(v, f"short_picks[{i}]", minimum=0)
                                for i, v in enumerate(_as_list(doc["short_picks"], "short_picks")))
        coverage = tuple(_as_int(v, f"coverage[{i}]", minimum=0)
                         for i, v in enumerate(_as_list(doc["coverage"], "coverage")))
        return problem, cost, LspcSolution(counts, short_picks, coverage)
    if "short_picks" in doc or "coverage" in doc:
        raise ParseError("", "short_picks/coverage are only for lspc solutions")
    if "covered" not in doc:
        raise ParseError("covered", "required")
    covered = frozenset(_as_int(v, f"covered[{i}]", minimum=0)
                        for i, v in enumerate(_as_list(doc["covered"], "covered")))
    return problem, cost, PartialSolution(counts, covered)


def emit_solution(problem: str, solution: PartialSolution | LspcSolution, cost: int) -> str:
    doc = {"version": FORMAT_VERSION, "problem": problem, "cost": cost}
    if problem == "lspc":
        counts = solution.long_counts
        doc["short_picks"] = sorted(solution.short_picks)
        doc["coverage"] = list(solution.coverage)
    else:
        counts = solution.counts
        doc["covered"] = sorted(solution.covered)
    doc["counts"] = {str(k): v for k, v in sorted(counts.items())}
    return _dumps(doc)
