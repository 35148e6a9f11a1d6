import hashlib
import random
from dataclasses import replace
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    abstract_instance,
    blue_ids,
    blue_members,
    geometric_instance,
    intersection_graph,
    red_members,
    set_ids,
)
from good_tuples import GoodTuple, check_conforming, enumerate_good_tuples
from rbsc import cli, fpt, generators, model, oracle
from rbsc.errors import DegreeExceeded, PreconditionViolated, RbscError
from rbsc.fpt import SolveStats
from rbsc.model import BLUE, RED


def solve_one_blue_special(instance, *, stats=None):
    """Decide an instance in which every set covers exactly one blue element.

    fpt's search runs on the instance as given, without the kernel, so the
    family need not be a linear set system.  A blue in no set is a NO, and
    more blues than the line budget cut the tree at its root.
    """
    fpt._require_unweighted(instance)
    fpt._require_finite_budget(instance)
    for sid, (bm, _) in instance.index.sets.items():
        if bm.bit_count() != 1:
            raise PreconditionViolated(
                f"set {sid} has {bm.bit_count()} blue elements; exactly one is required"
            )
    fam = fpt._search(instance, stats)
    return None if fam is None else model.certify(instance, fam)


def one_blue_pair_instance(budget_red=1):
    # b0=(0,0), b1=(3,1), r2=(1,1); L0={b0,r2} on y=x, L1={b1,r2} on y=1
    return geometric_instance(
        [(0, 0, BLUE), (3, 1, BLUE), (1, 1, RED)], [{0, 2}, {1, 2}], 2, budget_red
    )


# ---------------------------------------------------------------------------
# good tuple enumeration


def _stars_and_bars(total, parts):
    # independent composition enumeration for cross-checking
    for dividers in combinations(range(total + parts - 1), parts - 1):
        prev, comp = -1, []
        for d in dividers:
            comp.append(d - prev - 1)
            prev = d
        comp.append(total + parts - 1 - prev - 1)
        yield tuple(comp)


def _independent_tuples(blues, budget_lines, budget_red):
    """Label-vector construction, deduplicated; order-free reference set."""
    out = set()
    b = len(blues)
    if b == 0 or b > budget_lines:
        return out
    for labels in product(range(b), repeat=b):
        groups = {}
        for x, lab in zip(blues, labels):
            groups.setdefault(lab, []).append(x)
        s = len(groups)
        if s > min(budget_lines, b):
            continue
        blocks = tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=min))
        for orderings in product(*[permutations(block) for block in blocks]):
            for p in range(budget_red + 1):
                for comp in _stars_and_bars(p, s):
                    out.add((b, p, s, blocks, orderings, comp))
    return out


def test_enumeration_examples():
    only = list(enumerate_good_tuples([0], 1, 0))
    assert len(only) == 1
    t = only[0]
    assert t.part_count == 1 and t.orderings == ((0,),) and t.red_budgets == (0,)

    three = list(enumerate_good_tuples([0, 1], 2, 0))
    assert len(three) == 3
    assert [t.part_count for t in three] == [1, 1, 2]
    assert three[0].orderings == ((0, 1),) and three[1].orderings == ((1, 0),)
    assert three[2].red_budgets == (0, 0)


@pytest.mark.parametrize(
    "blues,budget_lines,budget_red",
    [([0, 1], 2, 1), ([0, 1, 2], 3, 2), ([0, 1, 2], 2, 1), ([3, 5, 8, 9], 4, 1)],
)
def test_enumeration_matches_independent_generator(blues, budget_lines, budget_red):
    got = [
        (t.blue_count, t.red_total, t.part_count, t.blocks, t.orderings, t.red_budgets)
        for t in enumerate_good_tuples(blues, budget_lines, budget_red)
    ]
    assert len(got) == len(set(got))  # produced exactly once
    assert set(got) == _independent_tuples(tuple(sorted(blues)), budget_lines, budget_red)


def test_enumeration_order_is_deterministic():
    a = list(enumerate_good_tuples([0, 1, 2], 3, 1))
    b = list(enumerate_good_tuples([0, 1, 2], 3, 1))
    assert a == b
    parts = [t.part_count for t in a]
    assert parts == sorted(parts)


def test_good_tuple_invariants_enforced():
    with pytest.raises(ValueError):
        GoodTuple(2, 0, 1, ((0,),), ((0,),), (0,))  # blocks miss a blue
    with pytest.raises(ValueError):
        GoodTuple(2, 1, 2, ((0,), (1,)), ((0,), (1,)), (0, 0))  # budgets sum wrong
    with pytest.raises(ValueError):
        GoodTuple(2, 0, 2, ((1,), (0,)), ((1,), (0,)), (0, 0))  # non-canonical order


# ---------------------------------------------------------------------------
# conformity search


def test_check_conforming_examples():
    inst = one_blue_pair_instance()
    good = GoodTuple(2, 1, 1, ((0, 1),), ((0, 1),), (1,))
    assert check_conforming(inst, good) == (0, 1)
    broke = GoodTuple(2, 0, 1, ((0, 1),), ((0, 1),), (0,))
    assert check_conforming(inst, broke) is None
    # first blue of a block on no set
    lonely = geometric_instance(
        [(0, 0, BLUE), (5, 7, BLUE), (1, 1, RED)], [{0, 2}], 2, 1
    )
    tup = GoodTuple(2, 1, 2, ((0,), (1,)), ((0,), (1,)), (1, 0))
    assert check_conforming(lonely, tup) is None


def test_check_conforming_rejects_multi_blue_sets():
    inst = abstract_instance("BB", [{0, 1}], 2, 0)
    with pytest.raises(PreconditionViolated):
        check_conforming(inst, GoodTuple(2, 0, 1, ((0, 1),), ((0, 1),), (0,)))


def test_conformity_block_coverage_property():
    rng = random.Random(4242)
    profile = generators.RandomProfile(structure="one-blue", blue_chance=(2, 3))
    checked = 0
    for seed in range(200):
        inst = generators.gen_random(seed, profile)
        if inst.budget_lines is None or inst.num_blue > inst.budget_lines:
            continue
        tuples = list(enumerate_good_tuples(sorted(blue_ids(inst)), inst.budget_lines, inst.budget_red))
        rng.shuffle(tuples)
        for tup in tuples[:10]:
            fam = check_conforming(inst, tup)
            if fam is None:
                continue
            checked += 1
            # per block: the sets found cover exactly the block's blues
            for ordering in tup.orderings:
                block_sets = [
                    sid for sid in fam
                    if next(iter(blue_members(inst, sid))) in set(ordering)
                ]
                blues_hit = {next(iter(blue_members(inst, sid))) for sid in block_sets}
                assert blues_hit == set(ordering)
            reds = set()
            for sid in fam:
                reds |= red_members(inst, sid)
            assert len(reds) <= tup.red_total  # sharing may only lower the count
            # prefix connectivity within each block under the chosen ordering
            graph = intersection_graph(inst, fam)
            for ordering in tup.orderings:
                by_blue = {next(iter(blue_members(inst, sid))): sid for sid in fam}
                prefix = []
                for blue in ordering:
                    sid = by_blue[blue]
                    if prefix:
                        assert any(sid in graph[q] for q in prefix)
                    prefix.append(sid)
    assert checked > 50


# ---------------------------------------------------------------------------
# solvers


def test_solve_one_blue_examples():
    yes = solve_one_blue_special(one_blue_pair_instance(1))
    assert yes is not None and yes.chosen == {0, 1}
    assert solve_one_blue_special(one_blue_pair_instance(0)) is None
    crowded = geometric_instance(
        [(0, 0, BLUE), (3, 1, BLUE), (0, 5, BLUE), (1, 1, RED)],
        [{0, 3}, {1, 3}, {2, 3}],
        2,
        1,
    )
    assert solve_one_blue_special(crowded) is None  # three blues, budget two


def _one_blue_states(inst):
    """Distinct (blue set, red union) pairs of connected one-set-per-blue families within k_r."""
    if inst.num_blue > inst.budget_lines:
        return set()
    by_blue = {}
    for sid in set_ids(inst):
        (blue,) = blue_members(inst, sid)
        by_blue.setdefault(blue, []).append(sid)
    states = set()
    blues = sorted(by_blue)
    for size in range(1, len(blues) + 1):
        for subset in combinations(blues, size):
            for fam in product(*(by_blue[x] for x in subset)):
                reds = frozenset().union(*(red_members(inst, sid) for sid in fam))
                if len(reds) > inst.budget_red:
                    continue
                graph = intersection_graph(inst, fam)
                seen, frontier = {fam[0]}, [fam[0]]
                while frontier:
                    for nb in graph[frontier.pop()]:
                        if nb not in seen:
                            seen.add(nb)
                            frontier.append(nb)
                if len(seen) == len(fam):
                    states.add((frozenset(subset), reds))
    return states


def test_solve_one_blue_matches_literal_stream():
    profile = generators.RandomProfile(structure="one-blue", blue_chance=(2, 3), max_budget_red=4)
    yes = 0
    for seed in range(150):
        inst = generators.gen_random(seed, profile)
        stats = SolveStats()
        sol = solve_one_blue_special(inst, stats=stats)
        literal = None
        if inst.num_blue <= inst.budget_lines:
            for tup in enumerate_good_tuples(
                sorted(blue_ids(inst)), inst.budget_lines, inst.budget_red
            ):
                literal = check_conforming(inst, tup)
                if literal is not None:
                    break
        assert (sol is None) == (literal is None)
        if sol is not None:
            yes += 1
            assert model.verify(inst, sol.chosen).feasible
            assert sol.red_covered == oracle.brute_force_solve(inst).red_covered
        assert stats.tuples == len(_one_blue_states(inst))
    assert yes > 30


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), max_budget_red=st.integers(0, 6))
def test_one_blue_solvers_match_brute_force(seed, max_budget_red):
    profile = generators.RandomProfile(
        structure="one-blue", blue_chance=(2, 3), max_budget_red=max_budget_red
    )
    inst = generators.gen_random(seed, profile)
    expected = oracle.brute_force_solve(inst)
    for solver in (solve_one_blue_special, fpt.solve_kl_kr):
        got = solver(inst)
        assert (got is None) == (expected is None), solver.__name__
        if got is not None:
            assert model.verify(inst, got.chosen).feasible
            assert got.red_covered == expected.red_covered, solver.__name__


def test_one_blue_nine_blue_no_stays_small():
    # 9 blues, three sets each holding 1-2 of 11 reds, k_l = 9, k_r = 2: a NO on which
    # the ordered set partitions of the blues (A000262: 4,596,553 at b = 9) took ~25 s
    rng = random.Random(0)
    b, reds = 9, range(9, 20)
    family = []
    for blue in range(b):
        own = []
        while len(own) < 3:
            picked = frozenset(rng.sample(reds, rng.randint(1, 2)))
            if not any(picked & other for other in own) and not any(
                len((picked | {blue}) & other) >= 2 for other in family
            ):
                own.append(picked)
                family.append(picked | {blue})
    inst = abstract_instance("B" * b + "R" * len(reds), family, b, 2)
    assert model.is_linear_system(inst)
    stats = SolveStats()
    assert solve_one_blue_special(inst, stats=stats) is None
    # every state is a (blue mask, red set of size <= 2) pair: 2^9 * (1 + 11 + 55) at most
    assert 0 < stats.tuples <= 2**b * 67


def test_solve_kl_kr_examples():
    inst = geometric_instance(
        [(0, 0, BLUE), (1, 1, RED), (2, 2, BLUE), (1, 0, BLUE)],
        [{0, 1, 2}, {0, 3}],
        2,
        1,
    )
    sol = fpt.solve_kl_kr(inst)
    assert sol is not None and sol.chosen == {0, 1}
    empty = abstract_instance("RR", [{0, 1}], 1, 0)
    degenerate = fpt.solve_kl_kr(empty)
    assert degenerate is not None and degenerate.chosen == frozenset()


def test_solve_kl_kr_requires_finite_budget_and_unit_weights():
    with pytest.raises(PreconditionViolated):
        fpt.solve_kl_kr(abstract_instance("B", [{0}], None, 0))
    with pytest.raises(PreconditionViolated):
        fpt.solve_kl_kr(abstract_instance("BR", [{0, 1}], 1, 4, weights={1: 3}))


def test_solve_kl_kr_oracle_equivalence_quick():
    profile = generators.RandomProfile(blue_chance=(2, 3))
    for seed in range(150):
        inst = generators.gen_random(7000 + seed, profile)
        expected = oracle.brute_force_solve(inst)
        got = fpt.solve_kl_kr(inst)
        assert (expected is None) == (got is None)
        if got is not None:
            assert got.feasible and model.verify(inst, got.chosen).feasible


def test_branch_bound_after_kernelization():
    profile = generators.RandomProfile(blue_chance=(2, 3))
    from rbsc import kernel as kern

    for seed in range(120):
        inst = generators.gen_random(8000 + seed, profile)
        res = kern.kernelize_kl_kr(inst)
        if res.is_no:
            continue
        red = res.instance
        k_l = red.budget_lines
        multi = [
            sid
            for sid, mem in red.family
            if sum(1 for e in mem if red.color_of(e) == BLUE) >= 2
        ]
        assert len(multi) <= k_l**4


def test_solve_bounded_red_examples():
    inst = one_blue_pair_instance(100)
    sol = fpt.solve_bounded_red(inst, 1)
    assert sol is not None
    with pytest.raises(DegreeExceeded):
        fpt.solve_bounded_red(abstract_instance("BRR", [{0, 1, 2}], 1, 2), 1)
    # d = 0 means no red may ever be covered
    redfree = abstract_instance("BR", [{0}], 2, 5)
    assert fpt.solve_bounded_red(redfree, 0) is not None
    blocked = abstract_instance("BR", [{0, 1}], 2, 5)
    assert fpt.solve_bounded_red(blocked, 1).red_covered <= 5


def test_solve_bounded_red_matches_plain_solver():
    profile = generators.RandomProfile(blue_chance=(2, 3), max_budget_red=5)
    for seed in range(120):
        inst = generators.gen_random(9000 + seed, profile)
        d = max(
            (sum(1 for e in mem if inst.color_of(e) == RED) for _, mem in inst.family),
            default=0,
        )
        a = fpt.solve_bounded_red(inst, d)
        b = fpt.solve_kl_kr(inst)
        assert (a is None) == (b is None)


def test_red_budget_cap_at_d_times_budget_lines_changes_no_search():
    # each set holds at most d reds, so no node within the line budget covers more than
    # d * budget_lines reds: capping the red budget there moves no witness and no counter
    profile = generators.RandomProfile(blue_chance=(2, 3), max_budget_red=5)
    for seed in range(120):
        inst = generators.gen_random(9000 + seed, profile)
        d = max((split.red_mask.bit_count() for split in inst.index.sets.values()), default=0)
        capped = replace(inst, budget_red=min(inst.budget_red, d * inst.budget_lines))
        runs = []
        for case in (capped, inst):
            stats = SolveStats()
            sol = fpt.solve_kl_kr(case, stats=stats)
            runs.append((sol and sol.chosen, stats.branches, stats.pruned, stats.tuples))
        assert runs[0] == runs[1], seed
        sol = fpt.solve_bounded_red(inst, d)
        assert (sol and sol.chosen) == runs[1][0], seed

def test_solve_kl_kr_counts_tree_nodes():
    # no multi-blue set: the root marks blue 0, its child marks blue 1, the leaf runs the core
    for solver in (fpt.solve_kl_kr, solve_one_blue_special):
        stats = SolveStats()
        assert solver(one_blue_pair_instance(), stats=stats) is not None
        assert (stats.branches, stats.pruned) == (3, 0), solver.__name__
    # blue 1 lies in no set: the tree stops there and the one-blue search never runs
    stats = SolveStats()
    assert solve_one_blue_special(abstract_instance("BBR", [{0, 2}], 2, 1), stats=stats) is None
    assert (stats.branches, stats.pruned, stats.tuples) == (2, 0, 0)
    # kernel drops the red set {0, 1, 3}; root picks {0, 2}, its child picks {1, 2}, a leaf
    stats = SolveStats()
    sol = fpt.solve_kl_kr(abstract_instance("BBBR", [{0, 1, 3}, {1, 2}, {0, 2}], 2, 0), stats=stats)
    assert sol is not None and sol.chosen == {1, 2}
    assert (stats.branches, stats.pruned) == (3, 0)
    # a triangle of two-blue sets, one red each, red budget 1 (the kernel drops set 3):
    # root, A, A+B cut, A+C cut, B (A is excluded there), B+C cut
    stats = SolveStats()
    triangle = abstract_instance("BBBRRRRR", [{0, 1, 3}, {0, 2, 4}, {1, 2, 5}, {0, 6, 7}], 2, 1)
    assert fpt.solve_kl_kr(triangle, stats=stats) is None
    assert (stats.branches, stats.pruned) == (6, 3)


def test_one_blue_core_ties_go_to_the_largest_block():
    # sets 0 and 1 share red 2, set 2 holds blue 0 alone: the block {blue 0, blue 1}
    # costs one red, and so do the blocks {blue 0} (set 2) and {blue 1} (set 1)
    inst = abstract_instance("BBR", [{0, 2}, {1, 2}, {0}], 2, 1)
    for solver in (fpt.solve_kl_kr, solve_one_blue_special):
        stats = SolveStats()
        sol = solver(inst, stats=stats)
        assert sol is not None and sol.chosen == {0, 1}, solver.__name__
        assert (stats.branches, stats.pruned, stats.tuples) == (3, 0, 4), solver.__name__


def test_one_blue_core_ties_go_to_the_largest_block_where_blocks_outnumber_submasks():
    # blues 0..5, reds 6..14.  The cheapest partition takes {0, 2, 4, 5} (sets 0..3,
    # red 8) and leaves {1, 3}.  Six blocks have lowest blue 1: {1}, {1, 2}, {1, 3},
    # {1, 4}, {1, 5} and {1, 4, 5} (set 4 shares red 6 with sets 8, 9 and 10; sets 5
    # and 7 share red 10), so the tie below is at a lowest blue held by six blocks.
    # The block {1, 3} (sets 5 and 7, reds 9 and 10) ties with {1} + {3} (sets 4
    # and 6).
    sets = [{0, 8}, {2, 8}, {4, 8}, {5, 8}, {1, 6}, {1, 9, 10}, {3, 7}, {3, 10}]
    sets += [{2, 6, 11, 12}, {4, 6, 13}, {5, 6, 14}]
    inst = abstract_instance("B" * 6 + "R" * 9, sets, 6, 3)
    for solver in (fpt.solve_kl_kr, solve_one_blue_special):
        stats = SolveStats()
        sol = solver(inst, stats=stats)
        assert sol is not None and sol.chosen == {0, 1, 2, 3, 5, 7}, solver.__name__
        assert (stats.branches, stats.pruned, stats.tuples) == (7, 0, 28), solver.__name__


def test_solve_kl_kr_leaf_pays_only_fresh_reds():
    # the two-blue set {0, 1} pays for red 3; the leaf's one-blue set {2, 3} adds no red,
    # so the budget of 1 holds: the leaf core sees the state (blue 2, no red)
    stats = SolveStats()
    sol = fpt.solve_kl_kr(abstract_instance("BBBR", [{0, 1, 3}, {2, 3}], 2, 1), stats=stats)
    assert sol is not None and sol.chosen == {0, 1} and sol.red_covered == 1
    assert (stats.branches, stats.pruned, stats.tuples) == (3, 0, 1)


def test_solve_two_blue_never_marks_a_blue_without_one_blue_sets():
    # four disjoint pairs, one red each, red budget 3: the root takes the pairs one by
    # one, the fifth node is cut by the red bound, and no blue can be marked
    colors = "B" * 8 + "R" * 4
    inst = abstract_instance(colors, [{2 * i, 2 * i + 1, 8 + i} for i in range(4)], 7, 3)
    stats = SolveStats()
    assert fpt.solve_two_blue_special(inst, stats=stats) is None
    assert (stats.branches, stats.pruned, stats.tuples) == (5, 1, 0)


@pytest.mark.parametrize("n", [12, 16, 20, 30, 40])
def test_set_cover_chains_reach_the_one_blue_core(n):
    # a cycle of n two-element sets needs ceil(n / 2) of them.  As lines, each set is a
    # red and each of its elements a one-blue line through that red, so the one-blue core
    # decides the chain on n blues, its only blocks single blues and the pairs of one set
    sets = tuple(frozenset({u, u % n + 1}) for u in range(1, n + 1))
    need = -(-n // 2)
    yes = generators.gen_setcover_lines(generators.SetCoverInstance(n, sets, need))
    sol = fpt.solve_kl_kr(yes)
    assert sol is not None and model.verify(yes, sol.chosen).feasible
    no = generators.gen_setcover_lines(generators.SetCoverInstance(n, sets, need - 1))
    assert fpt.solve_kl_kr(no) is None


def test_random_set_covers_decide_through_the_one_blue_core():
    # n elements and n/2..n sets, each holding an element with chance 1/4, plus a singleton
    # for every element no set holds.  Most reductions have more lines than brute force's
    # guard, so the source problem's own enumeration is the ground truth, at the least
    # cover budget and one below
    rng = random.Random(5)
    over_guard = 0
    for _ in range(100):
        n = rng.randint(10, 16)
        drawn = [
            {e for e in range(1, n + 1) if rng.random() < 0.25}
            for _ in range(rng.randint(n // 2, n))
        ]
        sets = [s for s in drawn if s]
        sets += [{e} for e in range(1, n + 1) if not any(e in s for s in sets)]
        least = next(
            k
            for k in range(1, len(sets) + 1)
            if generators.setcover_decide(generators.SetCoverInstance(n, tuple(sets), k))
        )
        for k in (least, least - 1):
            sc = generators.SetCoverInstance(n, tuple(sets), k)
            inst = generators.gen_setcover_lines(sc)
            sol = fpt.solve_kl_kr(inst)
            assert (sol is not None) == generators.setcover_decide(sc) == (k == least), (n, k)
            assert sol is None or model.verify(inst, sol.chosen).feasible
        over_guard += inst.num_sets > oracle.SUBSET_GUARD
    assert over_guard > 50


def test_clique_reductions_decide_through_the_one_blue_core():
    # k classes of 3 vertices, each class pair joined by a random perfect matching, so
    # the graph is (k - 1)-regular; planted, vertex 0 of every class is matched across
    # all pairs.  Both reductions leave one-blue instances whose core sees most of the
    # 2^b blue masks as blocks
    rng = random.Random(1)
    for k, planted in product((4, 5), (False, True)):
        classes = tuple(tuple(range(3 * c, 3 * c + 3)) for c in range(k))
        edges = set()
        for a, b in combinations(classes, 2):
            perm = [0, *rng.sample((1, 2), 2)] if planted else rng.sample(range(3), 3)
            edges.update(zip(a, (b[i] for i in perm)))
        graph = generators.MulticoloredGraph(classes, frozenset(edges))
        clique = generators.has_multicolored_clique(graph)
        assert clique or not planted
        for inst in (generators.gen_mcc_setsystem(graph), generators.gen_mcc_lines(graph, k - 1)):
            sol = fpt.solve_kl_kr(inst)
            assert (sol is not None) == clique, (k, planted)
            assert sol is None or model.verify(inst, sol.chosen).feasible


def test_solve_kl_kr_geo_cliff_stays_small():
    # 18 grid points, k_l = 5 and 69 multi-blue sets after kernelization: enumerating
    # every subfamily up to size k_l visited 12,157,824 of them for this NO
    profile = generators.RandomProfile(
        min_points=18, max_points=18, max_sets=1000, max_budget_lines=5, max_budget_red=6
    )
    inst = generators.gen_random(160, profile)
    stats = SolveStats()
    assert fpt.solve_kl_kr(inst, stats=stats) is None
    assert 0 < stats.pruned < stats.branches <= 50_000


DENSE_GEO_PROFILES = {
    structure: generators.RandomProfile(
        min_points=12,
        max_points=16,
        min_sets=10,
        max_sets=25,
        max_budget_lines=5,
        max_budget_red=8,
        blue_chance=(2, 5),
        structure=structure,
    )
    for structure in ("any", "two-blue")
}


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), structure=st.sampled_from(sorted(DENSE_GEO_PROFILES)))
def test_multi_blue_search_matches_brute_force(seed, structure):
    inst = generators.gen_random(seed, DENSE_GEO_PROFILES[structure])
    expected = oracle.brute_force_solve(inst)
    d = max(split.red_mask.bit_count() for split in inst.index.sets.values())
    solvers = {
        "solve_kl_kr": fpt.solve_kl_kr,
        "solve_bounded_red": lambda inst: fpt.solve_bounded_red(inst, d),
    }
    if all(split.blue_mask.bit_count() != 1 for split in inst.index.sets.values()):
        solvers["solve_two_blue_special"] = fpt.solve_two_blue_special
    for name, solver in solvers.items():
        got = solver(inst)
        assert (got is None) == (expected is None), name
        if got is not None:
            assert model.verify(inst, got.chosen).feasible


def test_solve_two_blue_examples():
    triple = geometric_instance(
        [(0, 0, BLUE), (1, 1, BLUE), (2, 2, BLUE)], [{0, 1, 2}], 1, 0
    )
    assert fpt.solve_two_blue_special(triple) is not None
    disjoint = geometric_instance(
        [(0, 0, BLUE), (1, 1, BLUE), (5, 0, BLUE), (5, 1, BLUE)],
        [{0, 1}, {2, 3}],
        1,
        0,
    )
    assert fpt.solve_two_blue_special(disjoint) is None
    with pytest.raises(PreconditionViolated):
        fpt.solve_two_blue_special(abstract_instance("BR", [{0, 1}], 1, 1))


def test_solve_rbsc_two_red_examples():
    redfree = abstract_instance("BB", [{0}, {1}], None, 0)
    sol = fpt.solve_rbsc_kr_two_red(redfree)
    assert sol is not None and sol.chosen == {0, 1}
    heavy = abstract_instance("BRRR", [{0, 1, 2, 3}], None, 2)
    assert fpt.solve_rbsc_kr_two_red(heavy) is None
    with pytest.raises(PreconditionViolated):
        fpt.solve_rbsc_kr_two_red(abstract_instance("BR", [{0, 1}], None, 1))
    with pytest.raises(PreconditionViolated):
        fpt.solve_rbsc_kr_two_red(abstract_instance("BRR", [{0, 1, 2}], 3, 1))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_rbsc_two_red_matches_brute_force(seed):
    inst = generators.gen_random(seed, cli.PROFILES["two-red"])
    expected = oracle.brute_force_solve(inst)
    got = fpt.solve_rbsc_kr_two_red(inst)
    assert (got is None) == (expected is None)
    if got is not None:
        assert model.verify(inst, got.chosen).feasible


def test_one_blue_family_structure():
    # every returned family covers each blue with exactly one set and each
    # intersection-graph component admits a prefix-connected ordering
    profile = generators.RandomProfile(structure="one-blue", blue_chance=(2, 3))
    found = 0
    for seed in range(200):
        inst = generators.gen_random(seed, profile)
        sol = solve_one_blue_special(inst)
        if sol is None:
            continue
        found += 1
        assert len(sol.chosen) == inst.num_blue
        graph = intersection_graph(inst, sol.chosen)
        blocks = {}
        remaining = set(sol.chosen)
        while remaining:
            start = min(remaining)
            comp = {start}
            frontier = [start]
            while frontier:
                cur = frontier.pop()
                for nb in graph[cur]:
                    if nb in remaining and nb not in comp:
                        comp.add(nb)
                        frontier.append(nb)
            remaining -= comp
            blocks[start] = comp
        union = set()
        for comp in blocks.values():
            blues = {next(iter(blue_members(inst, sid))) for sid in comp}
            assert len(blues) == len(comp)
            union |= blues
        assert union == blue_ids(inst)
    assert found > 30


def _outcome(solver, inst) -> str:
    stats = SolveStats()
    try:
        sol = solver(inst, stats=stats)
    except RbscError as exc:
        head = f"error {type(exc).__name__}: {exc}"
    else:
        head = "no" if sol is None else "yes " + " ".join(map(str, sorted(sol.chosen)))
    return f"{head} | {stats.branches} {stats.pruned} {stats.tuples}"


SOLVERS = {"solve_kl_kr": fpt.solve_kl_kr, "solve_one_blue_special": solve_one_blue_special}


@pytest.mark.parametrize(
    "solver, profile, digest",
    [
        ("solve_kl_kr", "default", "d9e6a256ae58d9afc3799e9683dc8e198410f9fe19ec0f30a544e8b7c8cf1a49"),
        ("solve_kl_kr", "one-blue", "e45c1f4d71c435b363df301daada22d3516f814c36c772217a1a4119719a063c"),
        ("solve_kl_kr", "two-blue", "602ff087de1d0035a94630e1bd19bd9f8361e432602bf44404262e9af06f5012"),
        (
            "solve_one_blue_special",
            "one-blue",
            "1a78821d04a9d22d0c341e500a39250985ebd1bc370af63d49194c5287e5441a",
        ),
    ],
)
def test_decisions_witnesses_and_counters_are_pinned(solver, profile, digest):
    # One line per seed: the decision with the sorted witness, or the error type
    # and text, then branches, pruned and tuples.  Any change to what the solver
    # returns, to its tie-breaks or to the work it counts changes the digest.
    lines = "".join(
        _outcome(SOLVERS[solver], generators.gen_random(seed, cli.PROFILES[profile])) + "\n"
        for seed in range(300)
    )
    assert hashlib.sha256(lines.encode()).hexdigest() == digest
