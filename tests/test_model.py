from itertools import combinations

import pytest

from conftest import abstract_instance, geometric_instance
from rbsc import generators, kernel, model
from rbsc.errors import ParseError, SemanticError, UnknownSetId
from rbsc.geometry import PlanePoint
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


def test_validate_dangling_and_mode_mismatch():
    inst = Instance((Element(0, BLUE),), ((0, frozenset({0, 7})),), 1, 0, ABSTRACT)
    rep = validate(inst)
    assert any("missing element 7" in v for v in rep.violations)
    geo = Instance((Element(0, BLUE, PlanePoint.of(0, 0)),), (), 1, 0, ABSTRACT)
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
        color = {e.eid: inst.element(e.eid).color for e in inst.elements}
        weight = {e.eid: inst.element(e.eid).weight for e in inst.elements}
        blues = sorted(eid for eid, c in color.items() if c == BLUE)
        reds = sorted(eid for eid, c in color.items() if c == RED)
        assert ix.blues == tuple(blues) and ix.reds == tuple(reds)
        assert inst.blue_ids == set(blues) and inst.red_ids == set(reds)
        assert inst.num_blue == len(blues) and inst.num_red == len(reds)
        assert inst.is_weighted() == any(w != 1 for w in weight.values())
        assert list(ix.sets) == inst.set_ids
        for sid, mem in inst.family:
            blue = {e for e in mem if color[e] == BLUE}
            red = {e for e in mem if color[e] == RED}
            split = ix.sets[sid]
            assert split.blue == blue == inst.blue_members(sid)
            assert split.red == red == inst.red_members(sid)
            assert split.red_weight == sum(weight[e] for e in red)
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
    assert split.blue == {0} and split.red == {1} and split.red_weight == 3
    assert verify(inst, {0}).feasible
    reduced, _ = model.apply_trace_entry(inst, TraceEntry("drop", removed_elements=(1,)))
    assert reduced.index is not inst.index
    assert reduced.index.sets[0].red == frozenset() and not reduced.is_weighted()
