import hashlib
import random
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import abstract_instance, element, set_ids
from rbsc import cli, generators, kernel, model, oracle
from rbsc.errors import BoundedBudget, NotLinearSystem
from rbsc.model import ABSTRACT, RED


def _applied(entry, inst):
    """The instance and forced sets a rule's entry leads to."""
    assert entry is not None and entry.rule != "no_certificate"
    return model.apply_trace_entry(inst, entry)


def test_delete_red_only_examples():
    inst = abstract_instance("RRB", [{0, 1}, {2}], 3, 2)
    reduced, forced = _applied(kernel.rule_delete_red_only(inst), inst)
    assert set_ids(reduced) == [1] and not forced
    assert kernel.rule_delete_red_only(reduced) is None


def test_delete_heavy_red_examples():
    inst = abstract_instance("RRB", [{0, 1, 2}], 3, 1)
    reduced, _ = _applied(kernel.rule_delete_heavy_red(inst), inst)
    assert reduced.num_sets == 0
    zero = abstract_instance("RB", [{0, 1}], 3, 0)
    assert _applied(kernel.rule_delete_heavy_red(zero), zero)[0].num_sets == 0


def test_heavy_red_uses_weights():
    inst = abstract_instance("RB", [{0, 1}], 3, 2, weights={0: 3})
    assert kernel.rule_delete_heavy_red(inst) is not None


def test_force_big_blue_example():
    inst = abstract_instance("BBRB", [{0, 1, 2}, {0, 3}], 1, 2)
    red, forced = _applied(kernel.rule_force_big_blue(inst), inst)
    assert forced == {0}
    assert red.budget_lines == 0 and red.budget_red == 1
    assert red.family == ((1, frozenset({3})),)
    assert red.mode == ABSTRACT
    calm = abstract_instance("BBB", [{0, 1}, {1, 2}], 2, 0)
    assert kernel.rule_force_big_blue(calm) is None


def test_force_big_blue_requires_linear_system():
    inst = abstract_instance("BBB", [{0, 1, 2}, {1, 2}], 1, 0)
    with pytest.raises(NotLinearSystem):
        kernel.rule_force_big_blue(inst)


def test_force_big_blue_checks_linearity_only_to_force():
    # sets 0 and 1 share two blues, but no set holds more than budget_lines blues
    inst = abstract_instance("BBB", [{0, 1, 2}, {1, 2}], 3, 0)
    assert kernel.rule_force_big_blue(inst) is None


def test_kernelize_checks_linearity_once_when_nothing_is_forced(monkeypatch):
    calls = []
    is_linear = model.is_linear_system

    def counted(inst):
        calls.append(inst)
        return is_linear(inst)

    monkeypatch.setattr(model, "is_linear_system", counted)
    # set 2 holds no blue: the deletion fires, a second pass finds nothing
    inst = abstract_instance("BBR", [{0}, {1}, {2}], 2, 0)
    res = kernel.kernelize_kl_kr(inst)
    assert [e.rule for e in res.trace] == ["delete_red_only"]
    assert calls == [inst]


def test_force_big_blue_needs_only_the_targets_blues_apart():
    # sets 1 and 2 share two elements, but no other set holds two blues of set 0
    inst = abstract_instance("BBBBRR", [{0, 1, 2}, {3, 4}, {3, 4, 5}], 2, 1)
    entry = kernel.rule_force_big_blue(inst)
    assert entry.rule == "force_big_blue" and entry.forced_sets == (0,)
    assert entry.removed_elements == (0, 1, 2) and entry.delta_red == 0
    with pytest.raises(NotLinearSystem):
        kernel.kernelize_kl_kr(inst)


def test_kernelize_checks_linearity_once_when_forcing(monkeypatch):
    calls = []
    is_linear = model.is_linear_system

    def counted(inst):
        calls.append(inst)
        return is_linear(inst)

    monkeypatch.setattr(model, "is_linear_system", counted)
    inst = abstract_instance("BBBBB", [{0, 1, 2}, {3, 4}], 2, 0)
    res = kernel.kernelize_kl_kr(inst)
    assert [e.rule for e in res.trace] == ["force_big_blue", "force_big_blue"]
    assert res.forced == {0, 1}
    assert calls == [inst]


NON_LINEAR = generators.RandomProfile(mode=ABSTRACT, linear=False)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_force_big_blue_entries_keep_the_brute_force_decision(seed):
    inst = generators.gen_random(seed, NON_LINEAR)
    try:
        entry = kernel.rule_force_big_blue(inst)
    except NotLinearSystem:
        return  # another set holds two of the target's blues
    if entry is None:
        return
    before = oracle.brute_force_solve(inst) is not None
    if entry.rule == "no_certificate":
        assert not before
    else:
        assert entry.rule == "force_big_blue"
        after = oracle.brute_force_solve(model.apply_trace_entry(inst, entry)[0]) is not None
        assert after == before


def test_kernel_result_reads_forced_sets_and_no_reason_from_its_trace():
    trace = [
        model.TraceEntry("force_big_blue", forced_sets=(3,)),
        model.TraceEntry("take_blue_only", forced_sets=(1, 4)),
        model.TraceEntry("no_certificate", note="budget exhausted while forcing set 5"),
    ]
    res = kernel.KernelResult(None, trace)
    assert res.forced == {1, 3, 4} and res.no_reason == "budget exhausted while forcing set 5"
    kept = kernel.KernelResult(abstract_instance("B", [{0}], 1, 0), trace[:2])
    assert kept.forced == {1, 3, 4} and kept.no_reason is None


def test_force_big_blue_budget_exhaustion_is_no():
    inst = abstract_instance("BBR", [{0, 1, 2}], 0, 5)
    entry = kernel.rule_force_big_blue(inst)
    assert entry.rule == "no_certificate" and entry.note == "budget exhausted while forcing set 0"


def test_take_blue_only_examples():
    inst = abstract_instance("BBR", [{0, 1}, {1, 2}], None, 1)
    reduced, forced = _applied(kernel.rule_take_blue_only(inst), inst)
    assert forced == {0}
    assert reduced.family == ((1, frozenset({2})),)
    with pytest.raises(BoundedBudget):
        kernel.rule_take_blue_only(abstract_instance("B", [{0}], 2, 0))
    none = abstract_instance("BR", [{0, 1}], None, 1)
    assert kernel.rule_take_blue_only(none) is None


def test_kernelize_kl_kr_no_when_too_many_blues():
    # 5 blues on disjoint singleton sets, budget_lines 2 -> 5 > 4 = kl^2
    inst = abstract_instance("BBBBB", [{0}, {1}, {2}, {3}, {4}], 2, 0)
    res = kernel.kernelize_kl_kr(inst)
    assert res.is_no and "blue elements remain" in res.no_reason


def test_kernelize_kl_kr_no_when_blue_uncoverable():
    inst = abstract_instance("BB", [{0}], 2, 0)
    res = kernel.kernelize_kl_kr(inst)
    assert res.is_no and "no set" in res.no_reason


def test_kernelize_fixed_point_identity():
    inst = abstract_instance("BRB", [{0, 1}, {2}], 2, 1)
    res = kernel.kernelize_kl_kr(inst)
    assert not res.is_no
    again = kernel.kernelize_kl_kr(res.instance)
    assert again.instance == res.instance and not again.trace and not again.forced


def test_kernelize_ell_merges_exclusive_reds():
    inst = abstract_instance("BRRR", [{0, 1, 2, 3}], 1, 3)
    res = kernel.kernelize_ell(inst)
    assert not res.is_no
    red = res.instance
    reds = sorted(e.eid for e in red.elements if e.color == RED)
    assert reds == [1] and element(red, 1).weight == 3

    # a set vanishing can strand reds, which then merge into the survivor
    inst2 = abstract_instance("BRRRR", [{0, 1, 2, 3, 4}, {4}], 2, 4)
    res2 = kernel.kernelize_ell(inst2)
    survivor = res2.instance
    reds2 = sorted(e.eid for e in survivor.elements if e.color == RED)
    assert reds2 == [1] and element(survivor, 1).weight == 4
    assert survivor.num_blue == 1


def test_kernelize_ell_keeps_shared_reds_unit_weight():
    inst = abstract_instance("BRB", [{0, 1}, {1, 2}], 2, 1)
    res = kernel.kernelize_ell(inst)
    red = res.instance
    assert element(red, 1).weight == 1
    assert red.num_red == 1


def test_kernelize_ell_caps_budget_at_family_size():
    inst = abstract_instance("BBBB", [{0, 1}, {2, 3}], 100, 0)
    res = kernel.kernelize_ell(inst)
    assert not res.is_no
    assert res.instance.budget_lines <= res.instance.num_sets
    ell = res.instance.num_sets
    assert res.instance.num_blue <= ell * ell


def test_kernelize_kl_r_dedupes_singletons():
    inst = abstract_instance("B", [{0}, {0}, {0}], 2, 0)
    res = kernel.kernelize_kl_r(inst)
    assert [sid for sid, _ in res.instance.family] == [0]


def _corpus(total, base_seed, **kwargs):
    profile = generators.RandomProfile(**kwargs)
    return [generators.gen_random(base_seed + s, profile) for s in range(total)]


@pytest.mark.parametrize(
    "pipeline", [kernel.kernelize_kl_kr, kernel.kernelize_ell, kernel.kernelize_kl_r]
)
def test_pipeline_safety_on_random_corpus(pipeline):
    insts = _corpus(60, 500) + _corpus(60, 900, mode=ABSTRACT, blue_chance=(2, 3))
    for inst in insts:
        before = oracle.brute_force_solve(inst) is not None
        res = pipeline(inst)
        after = (not res.is_no) and oracle.brute_force_solve(res.instance) is not None
        assert before == after
        if not res.is_no:
            # composing forced sets with a kernel witness must satisfy the original
            sub = oracle.brute_force_solve(res.instance)
            if sub is not None:
                combined = model.verify(inst, res.forced | sub.chosen)
                assert combined.feasible


@pytest.mark.parametrize(
    "pipeline", [kernel.kernelize_kl_kr, kernel.kernelize_ell, kernel.kernelize_kl_r]
)
def test_pipeline_idempotent_and_monotone(pipeline):
    for inst in _corpus(80, 1700, blue_chance=(2, 3)):
        res = pipeline(inst)
        if res.is_no:
            continue
        red = res.instance
        assert red.num_sets <= inst.num_sets
        assert red.num_blue <= inst.num_blue
        assert red.num_red <= inst.num_red
        assert red.budget_lines <= (inst.budget_lines if inst.budget_lines is not None else red.budget_lines)
        assert red.budget_red <= inst.budget_red
        again = pipeline(red)
        assert not again.is_no and again.instance == red


def test_pipeline_preserves_linear_system():
    for inst in _corpus(80, 2500, mode=ABSTRACT):
        assert model.is_linear_system(inst)
        res = kernel.kernelize_kl_kr(inst)
        if not res.is_no:
            assert model.is_linear_system(res.instance)


def test_trace_replay_reproduces_kernel():
    for pipeline in (kernel.kernelize_kl_kr, kernel.kernelize_ell, kernel.kernelize_kl_r):
        for inst in _corpus(50, 3100) + _corpus(30, 3600, mode=ABSTRACT):
            res = pipeline(inst)
            if res.is_no:
                continue
            replayed, forced = model.replay_trace(inst, res.trace)
            assert replayed == res.instance
            assert forced == res.forced


def test_pipeline_safety_on_weighted_inputs():
    import random

    from rbsc.model import Element, Instance

    for seed in range(60):
        base = generators.gen_random(seed, generators.RandomProfile(blue_chance=(2, 3)))
        rng = random.Random(seed)
        elements = tuple(
            Element(e.eid, e.color, e.point, rng.randint(2, 4) if e.color == RED and rng.random() < 0.5 else e.weight)
            for e in base.elements
        )
        inst = Instance(elements, base.family, base.budget_lines, base.budget_red, base.mode)
        before = oracle.brute_force_solve(inst) is not None
        for pipeline in (kernel.kernelize_kl_kr, kernel.kernelize_ell, kernel.kernelize_kl_r):
            res = pipeline(inst)
            after = (not res.is_no) and oracle.brute_force_solve(res.instance) is not None
            assert before == after


def test_kernelize_requires_finite_budget():
    inst = abstract_instance("B", [{0}], None, 0)
    for pipeline in (kernel.kernelize_kl_kr, kernel.kernelize_ell, kernel.kernelize_kl_r):
        with pytest.raises(BoundedBudget):
            pipeline(inst)


PIN_PROFILES = {
    "default": cli.PROFILES["default"],
    "abstract": cli.PROFILES["abstract"],
    "geometric-blue-2-3": generators.RandomProfile(blue_chance=(2, 3)),
}


def _handmade(seed: int) -> model.Instance:
    """A linear abstract instance rich in empty sets and singletons, red or
    blue, often repeated: the duplicates the generators never emit."""
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    colors = "".join(rng.choice("BR") for _ in range(n))
    sets: list[set[int]] = []
    for _ in range(rng.randint(1, 8)):
        size = rng.choice((0, 1, 1, 1, 2, 3))
        mem = set(rng.sample(range(n), min(size, n)))
        if all(len(mem & other) <= 1 for other in sets):
            sets.append(mem)
    return abstract_instance(colors, sets, rng.randint(1, 4), rng.randint(0, 3))


@cache
def _pin_corpus(profile: str) -> tuple[model.Instance, ...]:
    if profile == "handmade":
        return tuple(_handmade(seed) for seed in range(300))
    return tuple(generators.gen_random(seed, PIN_PROFILES[profile]) for seed in range(200))


def _kernel_record(res: kernel.KernelResult) -> str:
    kern = "" if res.is_no else model.serialize_instance(res.instance)
    forced = ",".join(map(str, sorted(res.forced)))
    return "\n--\n".join((model.format_trace(res.trace), kern, forced, str(res.no_reason)))


PINNED_KERNELS = {
    ("ell", "abstract"): "a059496b47bcb859374ab168f55bd7175ec45755b0abdb53bc1cfdcbf54c2204",
    ("kl-kr", "abstract"): "fa18df13b3a3909ddb0ea64e894daa07b3673f305cbaf06791ad830ed0601414",
    ("kl-r", "abstract"): "fa18df13b3a3909ddb0ea64e894daa07b3673f305cbaf06791ad830ed0601414",
    ("ell", "default"): "ee9d6d763bf95c014a5ec17e359708da2d895064b69fe7c027743fc35c7ee744",
    ("kl-kr", "default"): "99fea01de4a55d1126347b3b5a79c2ac4cedcbca34d8705770ead3cc749d6ddf",
    ("kl-r", "default"): "99fea01de4a55d1126347b3b5a79c2ac4cedcbca34d8705770ead3cc749d6ddf",
    ("ell", "geometric-blue-2-3"): "3a68bbcaaccd299e75a83b4359cf0a16b17868b6f9b304e7f52ec7871bb425b0",
    ("kl-kr", "geometric-blue-2-3"): "4cd6221178ab366ceca53cdef046c6824b49d426431076b0c910331eca47dcd8",
    ("kl-r", "geometric-blue-2-3"): "4cd6221178ab366ceca53cdef046c6824b49d426431076b0c910331eca47dcd8",
    ("ell", "handmade"): "3e7c4a5fc8eeb0ac2043886b462a1bdeda957491ba745fe51d2db0ead0247f39",
    ("kl-kr", "handmade"): "b102c751bb4821605ddf56bd73da011441b717d13c82883e6831acac6eab917f",
    ("kl-r", "handmade"): "159da48527919799ba0348e713b24a5f4e84387f2a1cf57e71760131972944c4",
}


@pytest.mark.parametrize("param", sorted(cli.PIPELINES))
@pytest.mark.parametrize("profile", [*sorted(PIN_PROFILES), "handmade"])
def test_kernel_output_is_pinned(param, profile):
    """Trace text, kernel file, forced sets and NO reason of each corpus, hashed."""
    pipeline = cli.PIPELINES[param]
    records = "\n==\n".join(_kernel_record(pipeline(inst)) for inst in _pin_corpus(profile))
    assert hashlib.sha256(records.encode()).hexdigest() == PINNED_KERNELS[param, profile]


def test_every_trace_entry_changes_the_instance():
    """Rules report an edit only when it changes the instance, so the rule loop ends."""
    handmade = (
        abstract_instance("B", [{0}, {0}, {0}], 2, 0),
        abstract_instance("BRRRR", [{0, 1, 2, 3, 4}, {4}], 2, 4),
    )
    corpus = [inst for profile in sorted(PIN_PROFILES) for inst in _pin_corpus(profile)]
    rules = set()
    for inst in corpus + list(handmade):
        for pipeline in cli.PIPELINES.values():
            cur = inst
            for entry in pipeline(inst).trace:
                rules.add(entry.rule)
                if entry.rule == "no_certificate":
                    break
                nxt, _ = model.apply_trace_entry(cur, entry)
                assert nxt != cur, entry
                cur = nxt
    assert rules == {
        "cap_budget_lines",
        "cleanup",
        "dedupe_singletons",
        "delete_heavy_red",
        "delete_red_only",
        "drop_isolated_reds",
        "force_big_blue",
        "merge_exclusive_red",
        "no_certificate",
    }
