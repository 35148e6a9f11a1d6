import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import abstract_instance, brute_min_family_size
from rbsc import dp, generators, model, oracle
from rbsc.errors import PreconditionViolated, RedDegreeExceeded, TooManyBlues
from rbsc.model import ABSTRACT, BLUE, RED, Element, Instance


def test_examples():
    single = abstract_instance("B", [{0}], 1, 0)
    sol = dp.dp_solve(single)
    assert sol is not None and sol.chosen == {0}

    shared = abstract_instance("BBR", [{0, 2}, {1, 2}, {1}], 5, 1)
    tabs = dp.compute_tables(shared)
    full = 0b11
    assert tabs.t[1][full] == 2
    assert tabs.t[0][full] == tabs.infinity
    assert dp.dp_solve(model.with_budgets(shared, budget_red=0)) is None
    got = dp.dp_solve(shared)
    assert got is not None and len(got.chosen) == 2


def test_preconditions():
    with pytest.raises(RedDegreeExceeded):
        dp.dp_solve(abstract_instance("BRR", [{0, 1, 2}], 1, 2))
    with pytest.raises(PreconditionViolated):
        dp.dp_solve(abstract_instance("B", [{0}], None, 0))
    with pytest.raises(PreconditionViolated):
        dp.dp_solve(abstract_instance("BR", [{0, 1}], 1, 5, weights={1: 2}))
    wide = Instance(
        tuple(Element(i, BLUE) for i in range(25)),
        tuple((i, frozenset({i})) for i in range(25)),
        25,
        0,
        ABSTRACT,
    )
    with pytest.raises(TooManyBlues):
        dp.dp_solve(wide)


def _full_tabulation(instance):
    """Independent bottom-up computation of the per-red cover table."""
    blues = sorted(instance.blue_ids)
    bit = {eid: 1 << i for i, eid in enumerate(blues)}
    inf = instance.num_sets + 1
    reds = sorted(
        {
            e
            for _, mem in instance.family
            for e in mem
            if instance.color_of(e) == RED
        }
    )
    table = {}
    for red in [None, *reds]:
        usable = []
        for sid, mem in instance.family:
            rs = {e for e in mem if instance.color_of(e) == RED}
            if rs <= ({red} if red is not None else set()):
                bm = 0
                for e in mem:
                    if instance.color_of(e) == BLUE:
                        bm |= bit[e]
                usable.append(bm)
        for mask in range(1 << len(blues)):
            if mask == 0:
                table[(0, red)] = 0
                continue
            best = inf
            for bm in usable:
                if bm & mask:
                    best = min(best, table[(mask & ~bm, red)] + 1)
            table[(mask, red)] = min(best, inf)
    return blues, reds, inf, table


def test_tables_match_full_tabulation():
    profile = generators.RandomProfile(
        structure="max-one-red", mode=ABSTRACT, linear=False, max_points=8, max_sets=8
    )
    for seed in range(60):
        inst = generators.gen_random(seed, profile)
        tabs = dp.compute_tables(inst)
        blues, reds, inf, reference = _full_tabulation(inst)
        assert tabs.blues == tuple(blues) and tabs.reds == tuple(reds)
        for (mask, red), value in reference.items():
            assert tabs.w[(mask, red)] == value


def test_w_none_equals_red_free_cover_size():
    profile = generators.RandomProfile(
        structure="max-one-red", mode=ABSTRACT, linear=False, max_points=8, max_sets=8
    )
    for seed in range(40):
        inst = generators.gen_random(3000 + seed, profile)
        tabs = dp.compute_tables(inst)
        full = (1 << len(tabs.blues)) - 1
        # red-free cover oracle: drop every set containing a red element
        redfree = [
            (sid, mem)
            for sid, mem in inst.family
            if not any(inst.color_of(e) == RED for e in mem)
        ]
        stripped = Instance(
            inst.elements, tuple(redfree), None, inst.budget_red, ABSTRACT
        )
        expect = brute_min_family_size(
            model.with_budgets(stripped, budget_red=0)
        )
        got = tabs.w[(full, None)]
        assert (expect is None and got >= tabs.infinity) or expect == got


def test_table_monotonicity():
    profile = generators.RandomProfile(
        structure="max-one-red", mode=ABSTRACT, linear=False, max_points=9, max_sets=9
    )
    for seed in range(40):
        inst = generators.gen_random(4000 + seed, profile)
        tabs = dp.compute_tables(inst)
        full = (1 << len(tabs.blues)) - 1
        for j in range(1, len(tabs.t)):
            for mask in range(full + 1):
                assert tabs.t[j][mask] <= tabs.t[j - 1][mask]
        for mask in range(full + 1):
            sub = mask & (mask - 1)
            for j in range(len(tabs.t)):
                assert tabs.t[j][sub] <= tabs.t[j][mask]


def test_enormous_red_budget_terminates():
    # layers stabilize long before an astronomically large budget is exhausted
    profile = generators.RandomProfile(
        structure="max-one-red", mode=ABSTRACT, linear=False, max_points=10, max_sets=10
    )
    for seed in range(20):
        inst = model.with_budgets(generators.gen_random(seed, profile), budget_red=10**9)
        sol = dp.dp_solve(inst)
        expected = brute_min_family_size(model.with_budgets(inst, budget_red=inst.num_red))
        assert (sol is None) == (expected is None)
        if sol is not None:
            assert len(sol.chosen) == expected


DIFFERENTIAL_PROFILES = {
    "abstract": generators.RandomProfile(
        structure="max-one-red", mode=ABSTRACT, linear=False, max_points=10,
        max_sets=12, max_budget_lines=6, max_budget_red=4,
    ),
    "geometric": generators.RandomProfile(structure="max-one-red", max_budget_lines=5),
}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(sorted(DIFFERENTIAL_PROFILES)))
def test_oracle_equivalence_and_witness_size(seed, kind):
    inst = generators.gen_random(seed, DIFFERENTIAL_PROFILES[kind])
    sol = dp.dp_solve(inst)
    best = brute_min_family_size(inst)
    assert (sol is None) == (best is None)
    if sol is not None:
        assert len(sol.chosen) == best
        assert model.verify(inst, sol.chosen).feasible


def test_tied_covers_pick_smallest_set_red_and_submask():
    # blues 0, 1; reds 2, 3.  Within one red and two lines, five families
    # are optimal: {0, 2}, {0, 3}, {1, 3}, {2, 4} and {3, 4}.  The witness
    # takes the smallest submask ({0}, not both blues), then red 2 over
    # red 3, then set 0 over set 4; set 3 is the only red-free cover of blue 1.
    inst = abstract_instance("BBRR", [{0, 2}, {0, 3}, {1, 2}, {1}, {0, 2}], 2, 1)
    sol = dp.dp_solve(inst)
    assert sol is not None and sol.chosen == {0, 3}
