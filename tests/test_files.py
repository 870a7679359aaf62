"""File formats: round trips, rejection diagnostics, generator determinism."""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from intervalcover.core import EMPTY_SOLUTION, PartialSolution
from intervalcover.files import (
    ParseError,
    emit_instance,
    emit_lspc,
    emit_solution,
    parse_instance,
    parse_lspc,
    parse_solution,
)
from intervalcover.generate import (
    generate,
    generate_lspc,
    generate_single_mountain,
    generate_uniform,
)
from intervalcover.lspc import LspcSolution
from intervalcover.mountains import decompose, verify_mountain_range

MINIMAL = """
{
  "version": 1,
  "T": 1,
  "jobs": [{"s": 1, "e": 1}],
  "resources": [{"s": 1, "e": 1, "w": 1, "c": 0}]
}
"""


def test_minimal_instance_parses():
    inst = parse_instance(MINIMAL)
    assert inst.T == 1 and len(inst.jobs) == 1 and inst.k is None


def test_reversed_interval_rejected_with_path():
    doc = json.loads(MINIMAL)
    doc["jobs"][0] = {"s": 2, "e": 1}
    doc["T"] = 2
    with pytest.raises(ParseError) as err:
        parse_instance(json.dumps(doc))
    assert err.value.path == "jobs[0].e"


def test_unknown_field_rejected():
    doc = json.loads(MINIMAL)
    doc["flavor"] = "salted"
    with pytest.raises(ParseError) as err:
        parse_instance(json.dumps(doc))
    assert "flavor" in str(err.value)


def test_version_checked():
    doc = json.loads(MINIMAL)
    doc["version"] = 2
    with pytest.raises(ParseError):
        parse_instance(json.dumps(doc))


def test_interval_beyond_T_rejected():
    doc = json.loads(MINIMAL)
    doc["resources"][0]["e"] = 9
    with pytest.raises(ParseError) as err:
        parse_instance(json.dumps(doc))
    assert err.value.path == "resources[0].e"


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_instance("{\n  'bad'\n}")
    assert "line" in str(err.value)


def test_instance_roundtrip_random():
    for seed in range(50):
        inst = generate_uniform(seed, jobs=5, resources=4)
        assert parse_instance(emit_instance(inst)) == inst
    for seed in range(25):
        inst = generate_uniform(seed, jobs=5, resources=4, penalties=True)
        assert parse_instance(emit_instance(inst)) == inst


def test_lspc_roundtrip_random():
    for seed in range(25):
        inst = generate_lspc(seed)
        assert parse_lspc(emit_lspc(inst)) == inst


_EMPTY_SOLUTION_TEXT = emit_solution("partial", EMPTY_SOLUTION, 0)


def test_solution_roundtrip():
    for problem in ("partial", "prize", "fullcover"):
        sol = PartialSolution({0: 2, 3: 1}, frozenset({0, 2}))
        assert parse_solution(emit_solution(problem, sol, 12)) == (problem, 12, sol)
    lspc_sol = LspcSolution({1: 2}, frozenset({0}), (1, 0, 2))
    assert parse_solution(emit_solution("lspc", lspc_sol, 9)) == ("lspc", 9, lspc_sol)


def test_solution_rejects_mixed_fields():
    doc = json.loads(_EMPTY_SOLUTION_TEXT)
    doc["coverage"] = [0]
    with pytest.raises(ParseError):
        parse_solution(json.dumps(doc))


def test_generate_deterministic_bytes():
    a = emit_instance(generate("uniform-random", 42))
    b = emit_instance(generate("uniform-random", 42))
    assert a == b
    la = emit_lspc(generate_lspc(42))
    lb = emit_lspc(generate_lspc(42))
    assert la == lb


def test_generate_single_mountain_is_one_mountain():
    for seed in range(30):
        inst = generate_single_mountain(seed)
        d = decompose(inst.jobs)
        for rng in d.ranges:
            assert verify_mountain_range(rng, inst.jobs)
        common = set(range(1, inst.T + 1))
        for j in inst.jobs:
            common &= set(range(j.s, j.e + 1))
        assert common  # a shared peak exists


def test_generate_zero_jobs():
    inst = generate_uniform(3, jobs=0, k=0)
    text = emit_instance(inst)
    assert parse_instance(text) == inst


def test_deep_nesting_is_a_parse_error():
    text = "[" * 200_000
    for parse in (parse_instance, parse_lspc, parse_solution):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse(text)


@pytest.mark.parametrize("key", ["٣", "03"])
def test_solution_ids_must_be_canonical_decimal(key):
    doc = json.loads(_EMPTY_SOLUTION_TEXT)
    doc["counts"] = {key: 1}
    with pytest.raises(ParseError) as err:
        parse_solution(json.dumps(doc))
    assert err.value.path == f"counts.{key}"


def test_solution_id_spelled_twice_is_rejected():
    doc = json.loads(_EMPTY_SOLUTION_TEXT)
    doc["counts"] = {"3": 1, "03": 2}
    with pytest.raises(ParseError) as err:
        parse_solution(json.dumps(doc))
    assert err.value.path == "counts.03"


_HUGE = "1" * 5000  # beyond the interpreter's default 4300-digit int() limit


def test_oversized_integer_is_a_parse_error():
    cases = [
        (parse_instance, MINIMAL.replace('"T": 1', f'"T": {_HUGE}'), "T"),
        (parse_lspc, emit_lspc(generate_lspc(1)).replace('"k": ', f'"k": {_HUGE}'), "k"),
        (parse_solution, _EMPTY_SOLUTION_TEXT.replace('"cost": 0', f'"cost": {_HUGE}'), "cost"),
        (parse_solution, _EMPTY_SOLUTION_TEXT
         .replace('"counts": {}', f'"counts": {{"{_HUGE}": 1}}'), f"counts.{_HUGE}"),
    ]
    for parse, text, path in cases:
        with pytest.raises(ParseError, match="digits is too long") as err:
            parse(text)
        assert err.value.path == path


def test_duplicate_keys_are_a_parse_error():
    cases = [
        (parse_instance, MINIMAL.replace('"T": 1', '"T": 1, "T": 2'), "'T'"),
        (parse_lspc, emit_lspc(generate_lspc(1)).replace('"k": ', '"k": 0, "k": '), "'k'"),
        (parse_solution, _EMPTY_SOLUTION_TEXT
         .replace('"counts": {}', '"counts": {"3": 1, "3": 2}'), "'3'"),
    ]
    for parse, text, key in cases:
        with pytest.raises(ParseError, match=f"duplicate key {key}"):
            parse(text)


_EMITTED = [
    emit_instance(generate_uniform(1, k=3)),
    emit_instance(generate_uniform(2, penalties=True)),
    emit_lspc(generate_lspc(3)),
    emit_solution("partial", PartialSolution({0: 2, 3: 1}, frozenset({0, 2})), 17),
    emit_solution("lspc", LspcSolution({1: 1}, frozenset({0}), (1, 0, 2)), 5),
]
_HUGE_MARK = "@huge-int@"  # spliced into the text as _HUGE, which json.dumps cannot write
_KEYS = st.one_of(st.text(max_size=4), st.just(_HUGE), st.sampled_from(
    ["version", "T", "k", "jobs", "s", "e", "w", "c", "t", "penalty", "demands", "shorts",
     "longs", "problem", "counts", "cost", "covered", "short_picks", "coverage", "3", "03"]))
_VALUES = st.one_of(
    st.integers(min_value=-3, max_value=12), st.integers(), st.just(_HUGE_MARK), st.floats(),
    st.text(max_size=6), st.none(), st.booleans(),
    st.lists(st.integers(min_value=-1, max_value=5), max_size=3),
    st.dictionaries(_KEYS, st.integers(min_value=-1, max_value=5), max_size=2))
_STOP_AT_ROOT = st.integers(min_value=0, max_value=9).map(lambda v: v == 0)


@settings(derandomize=True, max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(_EMITTED), st.data())
def test_mutated_documents_raise_only_parse_error(text, data):
    holder = [json.loads(text)]  # lets a mutation replace the whole document
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        # walk down to a random container; about one walk in ten stops
        # above the document and replaces all of it
        node = holder
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            inner = [key for key in keys if isinstance(node[key], (dict, list))]
            if not inner or data.draw(_STOP_AT_ROOT if node is holder else st.booleans()):
                break
            node = node[data.draw(st.sampled_from(inner))]
        op = "replace" if node is holder else data.draw(st.sampled_from(["drop", "extra", "replace"]))
        if op == "extra" or not keys:
            if isinstance(node, dict):
                node[data.draw(_KEYS)] = data.draw(_VALUES)
            else:
                node.append(data.draw(_VALUES))
        elif op == "drop":
            del node[data.draw(st.sampled_from(keys))]
        else:
            node[data.draw(st.sampled_from(keys))] = data.draw(_VALUES)
    mutated = json.dumps(holder[0]).replace(f'"{_HUGE_MARK}"', _HUGE)
    for parse in (parse_instance, parse_lspc, parse_solution):
        try:
            parse(mutated)
        except ParseError:
            pass
