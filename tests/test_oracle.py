import hashlib
from dataclasses import replace

import pytest

from conftest import abstract_instance, geometric_instance, with_random_weights
from rbsc import cli, generators, model, oracle
from rbsc.errors import BoundedBudget, RbscError, TooLarge
from rbsc.model import ABSTRACT, BLUE, RED, Element, Instance


def test_examples():
    empty = abstract_instance("R", [{0}], 2, 0)
    sol = oracle.brute_force_solve(empty)
    assert sol is not None and sol.chosen == frozenset()

    single = abstract_instance("BR", [{0, 1}], 1, 0)
    assert oracle.brute_force_solve(single) is None

    pair = geometric_instance(
        [(0, 0, BLUE), (1, 1, RED), (2, 2, BLUE), (1, 0, BLUE)],
        [{0, 1, 2}, {0, 3}],
        2,
        1,
    )
    sol = oracle.brute_force_solve(pair)
    assert sol is not None and sol.red_covered == 1 and len(sol.chosen) == 2


def test_optimum_is_red_then_size_lexicographic():
    # covering with one set costs two reds; covering with two sets costs one
    inst = abstract_instance(
        "BBRR", [{0, 1, 2, 3}, {0, 2}, {1, 2}], 3, 5
    )
    sol = oracle.brute_force_solve(inst)
    assert sol.red_covered == 1 and sol.chosen == {1, 2}


def test_guard():
    big = Instance(
        tuple(Element(i, BLUE) for i in range(1)),
        tuple((i, frozenset({0})) for i in range(26)),
        1,
        0,
        ABSTRACT,
    )
    with pytest.raises(TooLarge):
        oracle.brute_force_solve(big)
    assert oracle.brute_force_solve(big, force=True) is not None


def test_weighted_budget_respected():
    inst = abstract_instance("BR", [{0, 1}], 1, 4, weights={1: 5})
    assert oracle.brute_force_solve(inst) is None
    assert oracle.brute_force_solve(replace(inst, budget_red=5)) is not None


def test_red_subsets_examples():
    redfree = abstract_instance("BB", [{0}, {1}], None, 0)
    sol = oracle.solve_rbsc_by_red_subsets(redfree)
    assert sol is not None and sol.red_covered == 0

    blocked = abstract_instance("BR", [{0, 1}], None, 0)
    assert oracle.solve_rbsc_by_red_subsets(blocked) is None

    with pytest.raises(BoundedBudget):
        oracle.solve_rbsc_by_red_subsets(abstract_instance("B", [{0}], 1, 0))


def test_red_subsets_guard():
    colors = "B" + "R" * 26
    inst = abstract_instance(colors, [{0}], None, 0)
    with pytest.raises(TooLarge):
        oracle.solve_rbsc_by_red_subsets(inst)
    assert oracle.solve_rbsc_by_red_subsets(inst, force=True) is not None


def test_oracles_agree_on_unbounded_instances():
    profiles = [
        generators.RandomProfile(unbounded_lines=True),
        generators.RandomProfile(unbounded_lines=True, mode=ABSTRACT, blue_chance=(2, 3)),
    ]
    for pi, profile in enumerate(profiles):
        for seed in range(120):
            inst = generators.gen_random(11_000 * (pi + 1) + seed, profile)
            a = oracle.brute_force_solve(inst)
            b = oracle.solve_rbsc_by_red_subsets(inst)
            assert (a is None) == (b is None)
            if b is not None:
                assert model.verify(inst, b.chosen).feasible


def _outcome(solver, inst) -> str:
    try:
        sol = solver(inst)
    except RbscError as exc:
        return f"{type(exc).__name__}: {exc}"
    if sol is None:
        return "no"
    return f"yes {sorted(sol.chosen)} {sol.blue_covered} {sol.red_covered} {sol.feasible} {sol.shortfalls}"


def test_oracle_outcomes_are_pinned():
    """Decision, witness, Solution numbers or error of both oracles on every profile, hashed."""
    records = []
    for name, profile in sorted(cli.PROFILES.items()):
        for seed in range(200):
            inst = generators.gen_random(seed, profile)
            for variant in (inst, with_random_weights(inst, seed)):
                for solver in (oracle.brute_force_solve, oracle.solve_rbsc_by_red_subsets):
                    records.append(f"{name} {seed} {_outcome(solver, variant)}")
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == "54d1e27df8cb134e915ae5512aabadad274a2cf14a32aea436e25079bca98767"
