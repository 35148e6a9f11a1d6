import hashlib
import inspect
import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    abstract_instance,
    blue_ids,
    blue_members,
    element,
    geometric_instance,
    point,
    red_ids,
    red_members,
    set_ids,
    with_random_weights,
)
from rbsc import cli, generators, kernel, model
from rbsc.errors import ParseError, SemanticError, UnknownSetId
from rbsc.model import (
    ABSTRACT,
    BLUE,
    RED,
    Element,
    Instance,
    TraceEntry,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
    validate,
    verify,
)


def tiny_two_line_instance():
    # L0 = {b0, r1, b2} on y=x, L1 = {b0, b3} on y=0
    return geometric_instance(
        [(0, 0, BLUE), (1, 1, RED), (2, 2, BLUE), (1, 0, BLUE)],
        [{0, 1, 2}, {0, 3}],
        2,
        1,
    )


def test_validate_non_collinear_set():
    inst = geometric_instance(
        [(0, 0, BLUE), (1, 0, BLUE), (0, 1, RED)], [{0, 1, 2}], 1, 1
    )
    rep = validate(inst)
    assert any("not collinear" in v for v in rep.violations)


def test_validate_non_maximal_set():
    inst = geometric_instance(
        [(0, 0, BLUE), (1, 1, BLUE), (2, 2, RED)], [{0, 1}], 1, 1
    )
    rep = validate(inst)
    assert any("not maximal" in v and "element 2" in v for v in rep.violations)


def test_validate_linear_system_warning():
    inst = abstract_instance("BBBB", [{0, 1, 2}, {1, 2, 3}], 2, 0)
    rep = validate(inst)
    assert rep.ok  # warning, not violation
    assert not rep.linear_system
    assert any("linear" in w for w in rep.warnings)


@st.composite
def overlapping_families(draw):
    """Sets over at most 7 elements under scattered ids, with repeated sets
    and a member pair held by several sets."""
    family = draw(st.lists(st.frozensets(st.integers(0, 6), max_size=5), max_size=8))
    if family:
        family += [draw(st.sampled_from(family)) for _ in range(draw(st.integers(0, 3)))]
    family += [
        frozenset({0, 1}) | draw(st.frozensets(st.integers(2, 6), max_size=3))
        for _ in range(draw(st.integers(0, 4)))
    ]
    family = draw(st.permutations(family))
    sids = draw(st.lists(st.integers(0, 50), min_size=len(family), max_size=len(family), unique=True))
    return Instance(
        tuple(Element(i, BLUE if i % 2 else RED) for i in range(7)),
        tuple(zip(sids, family)),
        None,
        0,
        ABSTRACT,
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(inst=overlapping_families())
def test_overlaps_match_pairwise_reference(inst):
    want = tuple(
        (a, b)
        for (a, ma), (b, mb) in combinations(inst.family, 2)
        if len(ma & mb) >= 2
    )
    assert inst.overlaps == want
    assert model.is_linear_system(inst) == (not want)


def test_validate_dangling_and_mode_mismatch():
    inst = Instance((Element(0, BLUE),), ((0, frozenset({0, 7})),), 1, 0, ABSTRACT)
    rep = validate(inst)
    assert any("missing element 7" in v for v in rep.violations)
    geo = Instance((Element(0, BLUE, point(0, 0)),), (), 1, 0, ABSTRACT)
    assert any("abstract" in v for v in validate(geo).violations)


def test_verify_examples():
    inst = tiny_two_line_instance()
    all_sets = verify(inst, {0, 1})
    assert all_sets.feasible and all_sets.red_covered == 1 and all_sets.blue_covered == 3
    only_first = verify(inst, {0})
    assert not only_first.feasible and only_first.blue_covered == 2
    empty_blue = abstract_instance("RR", [{0}], 3, 0)
    sol = verify(empty_blue, set())
    assert sol.feasible and sol.red_covered == 0
    with pytest.raises(UnknownSetId):
        verify(inst, {5})


def test_verify_counts_red_once_and_sums_weights():
    inst = abstract_instance("BRB", [{0, 1}, {1, 2}], 2, 9, weights={1: 5})
    sol = verify(inst, {0, 1})
    assert sol.red_covered == 5 and sol.feasible


def test_certify_returns_verify_or_raises():
    inst = tiny_two_line_instance()
    assert model.certify(inst, [0, 1]) == verify(inst, {0, 1})
    assert verify(inst, {0}).shortfalls == ("blue elements uncovered",)
    with pytest.raises(AssertionError, match="fails verification"):
        model.certify(inst, {0})


def test_verify_is_pinned():
    """verify's numbers on three seeded subfamilies per instance, weighted too, and an unknown id."""
    records = []
    for name, profile in sorted(cli.PROFILES.items()):
        for seed in range(100):
            inst = generators.gen_random(seed, profile)
            rng = random.Random(seed)
            for variant in (inst, with_random_weights(inst, seed)):
                for _ in range(3):
                    chosen = [sid for sid in set_ids(variant) if rng.random() < 0.4]
                    sol = verify(variant, chosen)
                    records.append(
                        f"{name} {seed} {sorted(sol.chosen)} {sol.blue_covered} "
                        f"{sol.red_covered} {sol.feasible} {sol.shortfalls}"
                    )
                unknown = max(set_ids(variant), default=-1) + 1
                with pytest.raises(UnknownSetId) as err:
                    verify(variant, [*set_ids(variant)[:1], unknown])
                records.append(f"{name} {seed} {err.value}")
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == "f00df50da29890a7295508117d2c425d7f4f8429b956da5e115476b23c0b4d41"


def test_only_verify_builds_a_solution():
    src = Path(model.__file__).resolve().parent
    lines = [line for path in src.glob("*.py") for line in path.read_text().splitlines()]
    assert sum("Solution(" in line for line in lines) == 1
    assert "Solution(" in inspect.getsource(model.verify)


def test_index_sums_red_weights_over_a_mask():
    weights = {1: 2, 3: 5}
    inst = abstract_instance("BRBRR", [{0, 1}, {2, 3, 4}], 2, 9, weights=weights)
    unit = abstract_instance("BRBRR", [{0, 1}, {2, 3, 4}], 2, 9)
    for mask in range(8):
        reds = [eid for i, eid in enumerate((1, 3, 4)) if mask >> i & 1]
        assert inst.index.red_weight(mask) == sum(weights.get(e, 1) for e in reds)
        assert unit.index.red_weight(mask) == len(reds)
    ix = inst.index
    assert [ix.red_weight(split.red_mask) for split in ix.sets.values()] == [2, 6]


def test_weight_on_blue_rejected():
    with pytest.raises(ValueError):
        Element(0, BLUE, None, 2)


def test_roundtrip_tiny():
    inst = tiny_two_line_instance()
    text = serialize_instance(inst)
    assert parse_instance(text) == inst
    assert serialize_instance(parse_instance(text)) == text


def test_parse_unbounded_budget():
    text = "rbsc 1\nmode abstract\nbudget_lines inf\nbudget_red 2\npoint 0 B\nset 0 : 0\n"
    inst = parse_instance(text)
    assert inst.budget_lines is None
    assert serialize_instance(inst) == text


def test_parse_weight_on_blue_is_semantic_error():
    text = "rbsc 1\nmode abstract\nbudget_lines 1\nbudget_red 0\npoint 0 B w=2\n"
    with pytest.raises(SemanticError):
        parse_instance(text)


def test_parse_accepts_ascii_digits_only():
    # str.isdigit() holds for '²' and '٣'; int() rejects the first and reads the second as 3
    with pytest.raises(ParseError) as err:
        parse_instance("rbsc 1\nmode abstract\nbudget_lines ²\nbudget_red 0\n")
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        parse_instance("rbsc 1\nmode abstract\nbudget_lines 1\nbudget_red ٣\n")
    assert err.value.line == 4
    with pytest.raises(SemanticError) as err:
        parse_instance(
            "rbsc 1\nmode abstract\nbudget_lines 1\nbudget_red 1\npoint 0 B\npoint 1 R w=²\n"
        )
    assert err.value.line == 6
    with pytest.raises(SemanticError) as err:  # int() reads '٣/1' as 3 and '1_0/1' as 10
        parse_instance("rbsc 1\nmode geometric\nbudget_lines 1\nbudget_red 0\npoint 0 B ٣/1 1_0/1\n")
    assert err.value.line == 5


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_instance("rbsc 1\nmode geometric\nbudget_lines x\nbudget_red 0\n")
    assert err.value.line == 3
    with pytest.raises(SemanticError) as err:
        parse_instance(
            "rbsc 1\nmode abstract\nbudget_lines 1\nbudget_red 0\npoint 0 B\nset 0 : 1\n"
        )
    assert err.value.line == 6
    with pytest.raises(SemanticError):
        parse_instance(
            "rbsc 1\nmode abstract\nbudget_lines 1\nbudget_red 0\npoint 0 B 1/2 1/2\n"
        )
    with pytest.raises(SemanticError):  # bad rational: zero denominator
        parse_instance(
            "rbsc 1\nmode geometric\nbudget_lines 1\nbudget_red 0\npoint 0 B 1/0 2/1\n"
        )


def test_comments_and_blanks_ignored():
    text = (
        "# header comment\nrbsc 1\nmode abstract\n\nbudget_lines 2\nbudget_red 1\n"
        "point 0 B  # trailing\npoint 1 R\nset 0 : 0 1\n"
    )
    inst = parse_instance(text)
    assert inst.num_blue == 1 and inst.num_red == 1


def test_roundtrip_random_corpus():
    profiles = [
        generators.RandomProfile(),
        generators.RandomProfile(mode=ABSTRACT),
        generators.RandomProfile(unbounded_lines=True),
        generators.RandomProfile(mode=ABSTRACT, structure="max-one-red", linear=False),
    ]
    count = 0
    for pi, profile in enumerate(profiles):
        for seed in range(250):
            inst = generators.gen_random(10_000 * pi + seed, profile)
            text = serialize_instance(inst)
            again = parse_instance(text)
            assert again == inst
            assert serialize_instance(again) == text
            count += 1
    assert count == 1000


def test_solution_file_roundtrip():
    inst = tiny_two_line_instance()
    sol = verify(inst, {0, 1})
    text = serialize_solution(sol)
    claim = parse_solution(text)
    assert claim.decision and claim.chosen == {0, 1}
    assert claim.red_covered == 1 and claim.blue_covered == 3
    assert parse_solution(serialize_solution(None)).decision is False
    with pytest.raises(ParseError):
        parse_solution("solution maybe\n")


def test_weighted_roundtrip():
    inst = abstract_instance("BR", [{0, 1}], 1, 5, weights={1: 3})
    text = serialize_instance(inst)
    assert "w=3" in text
    assert parse_instance(text) == inst


def test_cleanup_removes_empty_and_duplicate_sets():
    inst = abstract_instance("BB", [{0}, set(), {0}, {0, 1}], 4, 0)
    entry = model.cleanup(inst)
    assert entry is not None and entry.removed_sets == (1, 2)
    cleaned, forced = model.apply_trace_entry(inst, entry)
    assert [sid for sid, _ in cleaned.family] == [0, 3] and not forced
    assert model.cleanup(cleaned) is None


def test_deleting_elements_switches_to_abstract():
    inst = tiny_two_line_instance()
    reduced, _ = model.apply_trace_entry(inst, TraceEntry("drop", removed_elements=(1,)))
    assert reduced.mode == ABSTRACT
    assert all(el.point is None for el in reduced.elements)
    assert reduced.members(0) == frozenset({0, 2})
    assert model.apply_trace_entry(inst, TraceEntry("drop", removed_elements=()))[0] == inst


def test_trace_replay_and_format():
    inst = abstract_instance("BRB", [{0, 1}, {2}], 3, 2)
    entries = [
        TraceEntry("delete_red_only", removed_sets=(0,)),
        TraceEntry("force_big_blue", forced_sets=(1,), removed_elements=(2,), delta_lines=-1),
    ]
    replayed, forced = model.replay_trace(inst, entries)
    assert forced == {1}
    assert replayed.num_sets == 0 and replayed.budget_lines == 2
    text = model.format_trace(entries)
    assert "delete_red_only" in text and "forced sets 1" in text


def _pairwise_overlaps(instance):
    """The O(ell^2) definition: set pairs sharing two or more elements."""
    return tuple(
        (a, b)
        for (a, ma), (b, mb) in combinations(instance.family, 2)
        if len(ma & mb) >= 2
    )


def _index_corpus():
    geometric = generators.RandomProfile()
    non_linear = generators.RandomProfile(mode=ABSTRACT, structure="max-one-red", linear=False)
    cases = []
    for seed in range(60):
        cases.append(generators.gen_random(20_000 + seed, geometric))
        cases.append(generators.gen_random(21_000 + seed, non_linear))
        reduced = kernel.kernelize_ell(generators.gen_random(22_000 + seed, geometric))
        if not reduced.is_no:
            cases.append(reduced.instance)
    return cases


def test_index_matches_independent_split():
    cases = _index_corpus()
    assert any(inst.mode == model.GEOMETRIC for inst in cases)
    assert any(_pairwise_overlaps(inst) for inst in cases)
    assert any(inst.is_weighted() for inst in cases)
    for inst in cases:
        ix = inst.index
        assert ix is inst.index
        color = {e.eid: element(inst, e.eid).color for e in inst.elements}
        weight = {e.eid: element(inst, e.eid).weight for e in inst.elements}
        blues = sorted(eid for eid, c in color.items() if c == BLUE)
        reds = sorted(eid for eid, c in color.items() if c == RED)
        assert ix.blues == tuple(blues) and ix.reds == tuple(reds)
        assert blue_ids(inst) == set(blues) and red_ids(inst) == set(reds)
        assert inst.num_blue == len(blues) and inst.num_red == len(reds)
        assert inst.is_weighted() == any(w != 1 for w in weight.values())
        assert list(ix.sets) == set_ids(inst)
        for sid, mem in inst.family:
            blue = {e for e in mem if color[e] == BLUE}
            red = {e for e in mem if color[e] == RED}
            split = ix.sets[sid]
            assert split._fields == ("blue_mask", "red_mask")
            assert blue == blue_members(inst, sid) and red == red_members(inst, sid)
            assert ix.red_weight(split.red_mask) == sum(weight[e] for e in red)
            assert split.blue_mask == sum(1 << blues.index(e) for e in blue)
            assert split.red_mask == sum(1 << reds.index(e) for e in red)
        overlaps = _pairwise_overlaps(inst)
        assert inst.overlaps == overlaps
        assert model.is_linear_system(inst) == (not overlaps)
        assert validate(inst).linear_system == (not overlaps)
        assert len(validate(inst).warnings) == len(overlaps)


def test_index_skips_dangling_members_and_is_rebuilt_on_replace():
    inst = Instance(
        (Element(0, BLUE), Element(1, RED, None, 3)),
        ((0, frozenset({0, 1, 7})),),
        1,
        3,
        ABSTRACT,
    )
    split = inst.index.sets[0]
    assert split == (1, 1) and inst.index.red_weight(split.red_mask) == 3
    assert verify(inst, {0}).feasible
    reduced, _ = model.apply_trace_entry(inst, TraceEntry("drop", removed_elements=(1,)))
    assert reduced.index is not inst.index
    assert reduced.index.sets[0] == (1, 0) and not reduced.is_weighted()


def test_readme_library_use_runs_as_written():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
