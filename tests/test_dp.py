import hashlib
import time
import tracemalloc
from dataclasses import dataclass, replace
from functools import reduce
from itertools import combinations
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import abstract_instance, blue_ids, brute_min_family_size
from rbsc import cli, dp, generators, model, oracle
from rbsc.errors import PreconditionViolated, RbscError, RedDegreeExceeded, TooManyBlues
from rbsc.model import ABSTRACT, BLUE, RED, Element, Instance


@dataclass
class DpTables:
    blues: tuple[int, ...]
    reds: tuple[int, ...]
    infinity: int
    w: dict[tuple[int, int | None], int]
    t: list[list[int]]


def decode(levels: list[int], size: int, inf: int) -> list[int]:
    """The table whose entry m is the least level holding mask m, else inf."""
    rows = [format(d, f"0{size}b")[::-1] for d in levels]
    return [next((c for c, row in enumerate(rows) if row[m] == "1"), inf) for m in range(size)]


def compute_tables(instance) -> DpTables:
    """dp's tables over every blue, implied ones too, with no bound, decoded into lists."""
    usable = dp._usable(instance)
    w, t = dp._fill(instance, usable, instance.num_blue)
    size, inf = 1 << instance.num_blue, instance.num_sets + 1
    flat = {
        (mask, red): value
        for red, levels in w.items()
        for mask, value in enumerate(decode(levels, size, inf))
    }
    reds = tuple(red for red in usable if red is not None)
    return DpTables(
        instance.index.blues, reds, inf, flat, [decode(levels, size, inf) for levels in t]
    )


def test_examples():
    single = abstract_instance("B", [{0}], 1, 0)
    sol = dp.dp_solve(single)
    assert sol is not None and sol.chosen == {0}

    shared = abstract_instance("BBR", [{0, 2}, {1, 2}, {1}], 5, 1)
    tabs = compute_tables(shared)
    full = 0b11
    assert tabs.t[1][full] == 2
    assert tabs.t[0][full] == tabs.infinity
    assert dp.dp_solve(replace(shared, budget_red=0)) is None
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
    blues = sorted(blue_ids(instance))
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
        tabs = compute_tables(inst)
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
        tabs = compute_tables(inst)
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
        expect = brute_min_family_size(replace(stripped, budget_red=0))
        got = tabs.w[(full, None)]
        assert (expect is None and got >= tabs.infinity) or expect == got


def test_table_monotonicity():
    profile = generators.RandomProfile(
        structure="max-one-red", mode=ABSTRACT, linear=False, max_points=9, max_sets=9
    )
    for seed in range(40):
        inst = generators.gen_random(4000 + seed, profile)
        tabs = compute_tables(inst)
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
        inst = replace(generators.gen_random(seed, profile), budget_red=10**9)
        sol = dp.dp_solve(inst)
        expected = brute_min_family_size(replace(inst, budget_red=inst.num_red))
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


@st.composite
def implied_blue_instances(draw):
    """Random one-red-per-set families in which many blues are implied.

    After drawing the sets, a few steps either copy blue i into every set
    holding blue j (so each set holding j holds i) or give blue i exactly
    blue j's sets (equal columns).
    """
    b = draw(st.integers(1, 7))
    r = draw(st.integers(0, 3))
    drawn = draw(
        st.lists(
            st.tuples(st.sets(st.integers(0, b - 1)), st.sampled_from([None, *range(b, b + r)])),
            min_size=1,
            max_size=8,
        )
    )
    members = [blues for blues, _ in drawn]
    reds = [red for _, red in drawn]
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, b - 1)), draw(st.integers(0, b - 1))
        equal = draw(st.booleans())
        for mem in members:
            if j in mem:
                mem.add(i)
            elif equal:
                mem.discard(i)
    family = [mem | ({red} if red is not None else set()) for mem, red in zip(members, reds)]
    return abstract_instance(
        "B" * b + "R" * r, family, draw(st.integers(0, b)), draw(st.integers(0, r + 1))
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(inst=implied_blue_instances())
def test_implied_blues_match_brute_force(inst):
    sol = dp.dp_solve(inst)
    best = brute_min_family_size(inst)
    assert (sol is None) == (best is None)
    if sol is not None:
        assert len(sol.chosen) == best
        assert model.verify(inst, sol.chosen).feasible


def test_small_families_exhaustively():
    # Every family of at most 3 distinct nonempty sets over blues 0..2 and
    # reds 3, 4, each set holding at most one red, at every line budget 0..3
    # and red budget 0..2.  Equal and nested blue columns are common at this
    # size.
    sets = [
        frozenset(blues) | red
        for size in range(4)
        for blues in combinations(range(3), size)
        for red in (frozenset(), {3}, {4})
    ][1:]
    for count in range(4):
        for family in combinations(sets, count):
            for budget_red in range(3):
                base = abstract_instance("BBBRR", family, None, budget_red)
                best = brute_min_family_size(base)
                for budget_lines in range(4):
                    inst = replace(base, budget_lines=budget_lines)
                    sol = dp.dp_solve(inst)
                    expect = best if best is not None and best <= budget_lines else None
                    assert (sol is None) == (expect is None)
                    if sol is not None:
                        assert len(sol.chosen) == expect
                        assert model.verify(inst, sol.chosen).feasible


def test_tied_covers_pick_smallest_set_red_and_submask():
    # blues 0, 1; reds 2, 3.  Within one red and two lines, five families
    # are optimal: {0, 2}, {0, 3}, {1, 3}, {2, 4} and {3, 4}.  The witness
    # takes the smallest submask ({0}, not both blues), then red 2 over
    # red 3, then set 0 over set 4; set 3 is the only red-free cover of blue 1.
    inst = abstract_instance("BBRR", [{0, 2}, {0, 3}, {1, 2}, {1}, {0, 2}], 2, 1)
    sol = dp.dp_solve(inst)
    assert sol is not None and sol.chosen == {0, 3}


def _watch_fill(monkeypatch):
    """Record the blue count and the red keys of every _fill call."""
    calls = []
    fill = dp._fill

    def watched(instance, usable, b, bound=None):
        calls.append((b, list(usable)))
        return fill(instance, usable, b, bound)

    monkeypatch.setattr(dp, "_fill", watched)
    return calls


def test_tables_run_over_the_blues_that_decide(monkeypatch):
    # Every set holding blue 0 holds blues 1..15 too, so covering blue 0
    # covers them all: the tables run over one blue.
    rest = set(range(1, 16))
    sets = [{0, *rest, 16}, {0, *rest, 17}, set(range(1, 9)), {9, 10, 11, 17}, rest]
    calls = _watch_fill(monkeypatch)
    for budget_lines in range(3):
        for budget_red in range(3):
            inst = abstract_instance("B" * 16 + "RR", sets, budget_lines, budget_red)
            sol = dp.dp_solve(inst)
            best = brute_min_family_size(inst)
            assert (sol is None) == (best is None)
            if sol is not None:
                assert len(sol.chosen) == best and model.verify(inst, sol.chosen).feasible
    assert calls and all(b == 1 for b, _ in calls)


def test_no_red_budget_fills_only_the_red_free_table(monkeypatch):
    calls = _watch_fill(monkeypatch)
    inst = abstract_instance("BBBRR", [{0, 3}, {1, 4}, {0, 1}, {2}, {1, 2, 3}], 3, 0)
    sol = dp.dp_solve(inst)
    assert sol is not None and sol.chosen == {2, 3}
    assert calls == [(3, [None])]
    dp.dp_solve(replace(inst, budget_red=1))
    assert calls[-1] == (3, [None, 3, 4])


def test_equal_columns_keep_the_smaller_blue(monkeypatch):
    # Blues 1 and 2 lie in the same sets; blue 0 lies in other ones.
    inst = abstract_instance("BBBR", [{0}, {1, 2}, {0, 1, 2, 3}], 2, 0)
    kept, usable = dp._drop_implied_blues(inst, {None: [(0, 0b001), (1, 0b110)]})
    assert kept == [0, 1] and usable == {None: [(0, 0b01), (1, 0b10)]}
    calls = _watch_fill(monkeypatch)
    sol = dp.dp_solve(inst)
    assert sol is not None and sol.chosen == {0, 1}
    assert calls == [(2, [None])]


def test_tie_break_numbers_only_the_kept_blues():
    # Blue 1 is implied: its sets, 1 and 2, include set 2, the only holder
    # of blue 2.  Within one red and two lines, {0, 2} and {1, 2} are
    # optimal.  The layer gives blue 2 to set 2 (red 3), and the red-free
    # rest is blue 0 alone, which set 0, the smallest holder, covers.
    # Numbering every blue would leave blues 0 and 1, covered by set 1.
    inst = abstract_instance("BBBR", [{0}, {0, 1}, {1, 2, 3}], 2, 1)
    sol = dp.dp_solve(inst)
    assert sol is not None and sol.chosen == {0, 2}


def _reference_layers(instance):
    """The disjoint-submask layer loop over independently tabulated covers.

    t[j][m] is the least v[sub] + t[j - 1][m minus sub] over all submasks
    sub of m, walking every (mask, submask) pair; layers stop once stationary.
    """
    blues, reds, _, table = _full_tabulation(instance)
    masks = range(1 << len(blues))
    v = [min(table[(m, red)] for red in [None, *reds]) for m in masks]
    t = [[table[(m, None)] for m in masks]]
    for _ in range(instance.budget_red):
        prev = t[-1]
        cur = prev[:]
        for m in masks:
            best = prev[m]
            sub = m
            while sub:
                val = v[sub] + prev[m ^ sub]
                if val < best:
                    best = val
                sub = (sub - 1) & m
            cur[m] = best
        if cur == prev:
            break
        t.append(cur)
    return t


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    b=st.integers(1, 4),
    raw=st.lists(st.integers(0, 5), min_size=16, max_size=16),
    masks=st.lists(st.integers(0, 15), max_size=3),
)
def test_grow_matches_the_cover_product_with_its_seed(b, raw, masks):
    # A monotone seed table, 5 standing for no cover, whose levels may repeat
    # (a layer's OR over reds can), grown by up to three masks: entry m is
    # the least seed[B] plus the masks covering A, over all A | B == m.
    size, inf = 1 << b, 99
    masks = [m % size for m in masks]
    seed = [0] + [max(raw[s] for s in range(1, size) if s & m == s) for m in range(1, size)]
    seed = [x if x < 5 else inf for x in seed]
    top = max(x for x in seed if x < inf)
    levels = [sum(1 << m for m in range(size) if seed[m] <= c) for c in range(top + 1)]
    covers = [
        min((k for k in range(len(masks) + 1) for pick in combinations(masks, k)
             if a & ~reduce(or_, pick, 0) == 0), default=inf)
        for a in range(size)
    ]
    product = [
        min(covers[a] + seed[m & ~a | c] for a in range(size) if a & m == a
            for c in range(size) if c & a == c)
        for m in range(size)
    ]
    grown = dp._grow(levels, masks, dp._holding(b))
    least = [next((c for c, d in enumerate(grown) if d >> m & 1), None) for m in range(size)]
    assert least == [x if x < inf else None for x in product]


LAYER_PROFILE = generators.RandomProfile(
    structure="max-one-red", mode=ABSTRACT, linear=False, min_points=7,
    max_points=11, max_sets=14, max_budget_red=5, blue_chance=(2, 3),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_cover_product_layers_match_reference(seed):
    inst = generators.gen_random(seed, LAYER_PROFILE)
    assert compute_tables(inst).t == _reference_layers(inst)


def test_cover_product_layers_on_tie_saturated_instance():
    # Every blue in a red-free set and in a one-red set: every mask has a
    # one-set cover with the red and one without it, so every table ties.
    blues = range(11)
    inst = abstract_instance("B" * 11 + "R", [set(blues), {*blues, 11}], 2, 5)
    tabs = compute_tables(inst)
    assert tabs.t == _reference_layers(inst)
    assert tabs.t[0][(1 << 11) - 1] == 1
    sol = dp.dp_solve(inst)
    assert sol is not None and sol.chosen == {0}


def test_tables_match_full_tabulation_on_deep_covers():
    # Mostly single blues, so covers run deep: the full mask needs 9 sets
    # under red 10 in the first family.  Both families repeat a blue mask
    # and nest one inside another, and their last blues lie in no red-free
    # set, so the red-free table holds the sentinel.
    deep = [
        {0}, {1}, {2}, {3}, {3}, {4}, {4, 5}, {5}, {6}, {7}, {8}, {9, 10}, {8, 9, 11}, {2, 11},
    ]
    deeper = [
        *({i} for i in range(10)), {0, 1}, {0, 1}, {2, 3, 4}, {3, 4},
        {10, 12}, {9, 10, 12}, {11, 13}, {10, 11, 14},
    ]
    instances = [
        abstract_instance("B" * 10 + "RR", deep, 10, 1),
        abstract_instance("B" * 10 + "RR", deep, 10, 2),
        abstract_instance("B" * 12 + "RRR", deeper, 12, 1),
        abstract_instance("B" * 12 + "RRR", deeper[:-1], 12, 2),
    ]
    for inst in instances:
        tabs = compute_tables(inst)
        blues, reds, inf, reference = _full_tabulation(inst)
        full = (1 << len(blues)) - 1
        assert tabs.w == reference
        assert tabs.t == _reference_layers(inst)
        assert reference[(full, None)] == inf
    assert compute_tables(instances[0]).w[((1 << 10) - 1, 10)] == 9


def _set_cover_chain(n, k):
    """A cycle of n two-element sets, at most k of them, as a lines instance.

    The cycle needs ceil(n / 2) sets.  As lines, each set is a red and each
    of its elements a one-blue line through that red, so a cover takes n
    lines.
    """
    sets = tuple(frozenset({u, u % n + 1}) for u in range(1, n + 1))
    return generators.gen_setcover_lines(generators.SetCoverInstance(n, sets, k))


@pytest.mark.parametrize("n", [8, 10])
def test_set_cover_chain_layers_match_reference(n):
    # Many reds and no red-free set: the layers run five or six deep.
    inst = _set_cover_chain(n, -(-n // 2))
    t = compute_tables(inst).t
    assert t == _reference_layers(inst) and len(t) >= 5


@pytest.mark.parametrize("n", [8, 12, 16])
def test_set_cover_chains_through_dp(n):
    need = -(-n // 2)
    yes = _set_cover_chain(n, need)
    sol = dp.dp_solve(yes)
    assert sol is not None and len(sol.chosen) == n
    assert model.verify(yes, sol.chosen).feasible
    no = _set_cover_chain(n, need - 1)
    assert dp.dp_solve(no) is None


def test_set_cover_chain_no_searches_no_layer(monkeypatch):
    # The n = 16 chain needs 8 sets and a red layer per set.  At budget 7
    # the layers are filled and no submask search reads them; the YES at
    # budget 8 reads them backwards for its submask search.
    def no_search(*args):
        raise AssertionError("a layer was searched")

    monkeypatch.setattr(dp, "_reverse", no_search)
    assert dp.dp_solve(_set_cover_chain(16, 7)) is None
    monkeypatch.undo()
    sol = dp.dp_solve(_set_cover_chain(16, 8))
    assert sol is not None
    assert sorted(sol.chosen) == [0, 1, 4, 5, 8, 9, 12, 13, 16, 17, 20, 21, 24, 25, 28, 29]


def _watch_grow(monkeypatch):
    """Record the level count of every _grow result."""
    grown = []
    grow = dp._grow

    def watched(*args):
        levels = grow(*args)
        grown.append(len(levels))
        return levels

    monkeypatch.setattr(dp, "_grow", watched)
    return grown


def test_deep_chain_levels_stay_within_one_per_blue(monkeypatch):
    # One-blue sets in a chain: a cover uses nearly every set, so two layers
    # sum to about twice the sentinel.  Every grown table, layers included,
    # keeps at most b + 1 levels, one per entry from 0 to b.
    b = 10
    sets = [{i} for i in range(b - 2)] + [{b - 2, b}, {b - 1, b + 1}]
    inst = abstract_instance("B" * b + "RR", sets, b, 2)
    grown = _watch_grow(monkeypatch)
    sol = dp.dp_solve(inst)
    assert sol is not None and len(sol.chosen) == b
    # Three cover tables, then layer 2 grows layer 1 once per red.
    assert len(grown) == 5 and max(grown) <= b + 1


def _agrees_with_brute_force(inst, sol):
    best = brute_min_family_size(inst)
    assert (sol is None) == (best is None)
    if sol is not None:
        assert len(sol.chosen) == best and model.verify(inst, sol.chosen).feasible


def _watch_layers(monkeypatch):
    """Record the red keys of w and the decoded layers of every _fill result."""
    results = []
    fill = dp._fill

    def watched(instance, usable, b, bound=None):
        w, t = fill(instance, usable, b, bound)
        inf = instance.num_sets + 1
        results.append((list(w), [decode(levels, 1 << b, inf) for levels in t]))
        return w, t

    monkeypatch.setattr(dp, "_fill", watched)
    return results


def test_one_red_budget_grows_only_the_cover_tables(monkeypatch):
    # Layer 1 is v, the OR of the cover tables: nothing beyond them is grown.
    grown = _watch_grow(monkeypatch)
    results = _watch_layers(monkeypatch)
    for seed in range(60):
        inst = generators.gen_random(seed, DIFFERENTIAL_PROFILES["abstract"])
        inst = replace(inst, budget_red=1)
        _agrees_with_brute_force(inst, dp.dp_solve(inst))
    assert any(len(t) == 2 for _, t in results)
    assert len(grown) == sum(len(reds) for reds, _ in results)


def test_red_free_cover_at_the_packing_bound_fills_no_red_table(monkeypatch):
    # Blues 0 and 2 share no set, so no cover has fewer than 2 sets, and the
    # red-free sets 0 and 1 cover every blue.
    inst = abstract_instance("BBBR", [{0, 1}, {2}, {1, 2, 3}], 2, 1)
    assert dp._packing([0b011, 0b100, 0b110], 3) == 2
    results = _watch_layers(monkeypatch)
    sol = dp.dp_solve(inst)
    assert sol is not None and sol.chosen == {0, 1}
    _agrees_with_brute_force(inst, sol)
    [(reds, t)] = results
    assert reds == [None] and len(t) == 1 and t[0][-1] == 2


def test_layers_stop_at_the_packing_bound(monkeypatch):
    # Blues 0 and 2 share no set, so no cover has fewer than 2 sets.  Red
    # budget 3 allows three layers; sets 0 and 1 pay for reds 4 and 5 and
    # reach the bound at layer 2.  Each of the four cover tables grows once,
    # then layer 2 grows layer 1 once per red.
    sets = [{0, 1, 4}, {2, 3, 5}, {0}, {1}, {2}, {3}, {0, 6}]
    inst = abstract_instance("BBBBRRR", sets, 2, 3)
    grown = _watch_grow(monkeypatch)
    results = _watch_layers(monkeypatch)
    sol = dp.dp_solve(inst)
    assert sol is not None and sol.chosen == {0, 1}
    _agrees_with_brute_force(inst, sol)
    [(_, t)] = results
    assert [layer[-1] for layer in t] == [4, 3, 2]
    assert len(grown) == 7
    grown.clear()  # without the bound, layer 3 is grown too and found stationary
    assert compute_tables(inst).t == t and len(grown) == 10


def test_no_table_without_lines_or_with_an_uncovered_blue(monkeypatch):
    def no_table(*args):
        raise AssertionError("a table was built")

    no_lines = abstract_instance("B" * 16 + "R", [set(range(16)), {0, 16}], 0, 1)
    uncovered = abstract_instance("BBBR", [{0, 3}, {1}], 5, 1)
    empty = dp.dp_solve(abstract_instance("R", [{0}], 0, 0))  # no blue: nothing to cover
    assert empty is not None and empty.chosen == set()
    filled = [compute_tables(no_lines), compute_tables(uncovered)]
    assert filled[0].t[0][(1 << 16) - 1] == 1
    assert filled[1].t[-1][0b111] == filled[1].infinity
    monkeypatch.setattr(dp, "_fill", no_table)
    assert dp.dp_solve(no_lines) is None
    assert dp.dp_solve(uncovered) is None
    with pytest.raises(RedDegreeExceeded):  # the preconditions still come first
        dp.dp_solve(abstract_instance("BRR", [{0, 1, 2}], 0, 2))


def test_guard_refuses_just_over_the_limit_without_allocating():
    blues = 18
    sets = [{b} for b in range(blues)]
    while True:
        under = abstract_instance("B" * blues, sets, blues, 0)
        sets.append({len(sets) % blues, (len(sets) + 1) % blues})
        over = abstract_instance("B" * blues, sets, blues, 0)
        if not dp.fits(over):
            break
    assert dp.fits(under)
    assert cli._pick_auto(under, False) == "dp"
    assert cli._pick_auto(over, False) != "dp"
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(TooManyBlues) as refused:
            dp.dp_solve(over)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5 and peak < 1 << 20
    assert str(dp.table_bytes(over)) in str(refused.value)
    assert str(dp.MAX_TABLE_BYTES) in str(refused.value)


def _own_reds(b):
    """b singleton sets, each a red paying for one blue: every layer is filled."""
    sets = tuple(frozenset({u}) for u in range(1, b + 1))
    return generators.gen_setcover_lines(generators.SetCoverInstance(b, sets, b))


@pytest.mark.parametrize(
    "make",
    [lambda: _own_reds(14), lambda: _own_reds(16), lambda: _set_cover_chain(16, 8)],
    ids=["own-reds-14", "own-reds-16", "chain-16"],
)
def test_peak_stays_under_the_table_estimate(make):
    inst = make()
    tracemalloc.start()
    try:
        sol = dp.dp_solve(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol is not None and sol.red_covered == inst.budget_red
    assert peak < dp.table_bytes(inst)


PINNED_PROFILES = {
    "default": cli.PROFILES["default"],  # many sets hold two reds: errors
    "max-one-red": cli.PROFILES["max-one-red"],
    "wide": generators.RandomProfile(
        structure="max-one-red", mode=ABSTRACT, linear=False, min_points=13, max_points=19,
        min_sets=16, max_sets=24, max_budget_lines=8, max_budget_red=5, blue_chance=(2, 3),
    ),
}


def _outcome(inst) -> str:
    try:
        sol = dp.dp_solve(inst)
    except RbscError as exc:
        return f"error {type(exc).__name__}: {exc}"
    return "no" if sol is None else "yes " + " ".join(map(str, sorted(sol.chosen)))


@pytest.mark.parametrize(
    "name, digest",
    [
        ("default", "de68662afc8097319b8852b8c6e49aba3b07facc6aed7d0fe8225d558a3e2f05"),
        ("max-one-red", "f7192eda6ab3055a89a819578d7c5bb62c8a30fd4c4e970371f38b1a29761c7b"),
        ("wide", "0b3a344a3be46d846958bd25fb8ae5011f6bf7e6fefc04b83fe7db99ba75c251"),
    ],
)
def test_decisions_witnesses_and_errors_are_pinned(name, digest):
    # One line per seed: the decision with the sorted witness, or the error
    # type and text.  Any change to what dp_solve returns changes the digest.
    lines = "".join(
        _outcome(generators.gen_random(seed, PINNED_PROFILES[name])) + "\n" for seed in range(300)
    )
    assert hashlib.sha256(lines.encode()).hexdigest() == digest


@st.composite
def apart_blue_instances(draw):
    """Families with k blues no two of which share a set, plus extra sets.

    Blues 0..k-1 are the apart ones; each has one or two sets of its own,
    which may also hold extra blues and a red.  Some apart blues lie only
    in sets with a red.  Further sets hold extra blues alone.  The line
    budget is k - 1, k or k + 1, so the packing count of k decides or
    nearly decides the instance.
    """
    k = draw(st.integers(1, 4))
    extra = list(range(k, k + draw(st.integers(0, 3))))
    reds = list(range(k + len(extra), k + len(extra) + draw(st.integers(0, 2))))
    some_extra = st.sets(st.sampled_from(extra)) if extra else st.just(set())
    sets = []
    for blue in range(k):
        only_red = bool(reds) and draw(st.booleans())
        for _ in range(draw(st.integers(1, 2))):
            red = draw(st.sampled_from(reds if only_red else [None, *reds]))
            sets.append({blue, *draw(some_extra)} | ({red} - {None}))
    for _ in range(draw(st.integers(0, 3)) if extra else 0):
        red = draw(st.sampled_from([None, *reds]))
        sets.append(draw(st.sets(st.sampled_from(extra), min_size=1)) | ({red} - {None}))
    colors = "B" * (k + len(extra)) + "R" * len(reds)
    budget_lines = k + draw(st.integers(-1, 1))
    return abstract_instance(colors, sets, budget_lines, draw(st.integers(0, 2)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(inst=apart_blue_instances())
def test_apart_blues_match_brute_force(inst):
    sol = dp.dp_solve(inst)
    best = brute_min_family_size(inst)
    assert (sol is None) == (best is None)
    if sol is not None:
        assert len(sol.chosen) == best
        assert model.verify(inst, sol.chosen).feasible


def _no_table(*args):
    raise AssertionError("a table was built")


def test_more_blues_pairwise_apart_than_lines_fill_no_table(monkeypatch):
    # Blues 0..k-1 share no set with each other; blue k lies in all k sets,
    # one of which holds red k + 1.  k lines cover them, k - 1 cannot.
    k = 5
    sets = [{i, k} for i in range(k)]
    sets[0].add(k + 1)
    inst = abstract_instance("B" * (k + 1) + "R", sets, k, 1)
    calls = _watch_fill(monkeypatch)
    sol = dp.dp_solve(inst)
    assert sol is not None and sol.chosen == set(range(k)) and calls
    monkeypatch.setattr(dp, "_fill", _no_table)
    assert dp.dp_solve(replace(inst, budget_lines=k - 1)) is None


def test_no_red_budget_counts_only_red_free_sets(monkeypatch):
    # Blue 0 lies only in set 0, which holds red 2.
    inst = abstract_instance("BBR", [{0, 2}, {1}, {1, 2}], 5, 1)
    calls = _watch_fill(monkeypatch)
    sol = dp.dp_solve(inst)
    assert sol is not None and sol.chosen == {0, 1} and calls
    monkeypatch.setattr(dp, "_fill", _no_table)
    assert dp.dp_solve(replace(inst, budget_red=0)) is None


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(inst=st.one_of(implied_blue_instances(), apart_blue_instances()))
def test_packing_never_exceeds_the_smallest_cover(inst):
    # Only the sets usable at the red budget count, as in dp_solve.
    sets = inst.index.sets.values()
    masks = [split.blue_mask for split in sets if inst.budget_red or not split.red_mask]
    best = brute_min_family_size(replace(inst, budget_lines=None))
    if best is not None:
        assert dp._packing(masks, inst.num_blue) <= best
