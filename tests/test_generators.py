import hashlib
import random
from itertools import combinations

import pytest

from rbsc import cli, generators as gen, model, oracle
from rbsc.errors import FilterUnsatisfiable, GeometryAuditError, NotRegular, ParseError
from rbsc.model import ABSTRACT, BLUE, GEOMETRIC, RED


def k222():
    classes = ((1, 2), (3, 4), (5, 6))
    edges = {
        (u, v)
        for i in range(3)
        for j in range(i + 1, 3)
        for u in classes[i]
        for v in classes[j]
    }
    return gen.MulticoloredGraph(classes, frozenset(edges))


def tripartite_hexagon():
    # 6-cycle, classes of opposite vertices: 2-regular and triangle-free
    return gen.MulticoloredGraph(
        ((1, 4), (2, 5), (3, 6)),
        frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)}),
    )


def test_setcover_lines_examples():
    sc = gen.SetCoverInstance(2, (frozenset({1, 2}),), 1)
    inst = gen.gen_setcover_lines(sc)
    assert (inst.num_blue, inst.num_red, inst.num_sets) == (2, 1, 2)
    assert inst.budget_lines == 2 and inst.budget_red == 1
    assert model.validate(inst).ok
    assert oracle.brute_force_solve(inst) is not None

    hollow = gen.SetCoverInstance(1, (frozenset(),), 1)
    assert not gen.setcover_decide(hollow)
    assert oracle.brute_force_solve(gen.gen_setcover_lines(hollow)) is None


def test_setcover_lines_all_lines_have_two_points():
    rng = random.Random(33)
    for _ in range(30):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        sets = tuple(
            frozenset(e for e in range(1, n + 1) if rng.random() < 0.5)
            for _ in range(m)
        )
        sc = gen.SetCoverInstance(n, sets, rng.randint(1, 3))
        inst = gen.gen_setcover_lines(sc)
        assert model.validate(inst).ok
        assert all(len(mem) == 2 for _, mem in inst.family)


def test_setcover_iff_small_corpus():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = rng.randint(1, 4)
        sets = tuple(
            frozenset(e for e in range(1, n + 1) if rng.random() < 0.55)
            for _ in range(m)
        )
        sc = gen.SetCoverInstance(n, sets, rng.randint(1, 3))
        inst = gen.gen_setcover_lines(sc)
        assert gen.setcover_decide(sc) == (oracle.brute_force_solve(inst) is not None)


def test_setcover_uniqred_examples():
    sc = gen.SetCoverInstance(2, (frozenset({1, 2}),), 1)
    inst = gen.gen_setcover_uniqred_lines(sc)
    assert inst.budget_lines is None and inst.budget_red == 3
    assert model.validate(inst).ok
    assert oracle.brute_force_solve(inst) is not None
    for _, mem in inst.family:
        blues = sum(1 for e in mem if inst.color_of(e) == BLUE)
        reds = sum(1 for e in mem if inst.color_of(e) == RED)
        assert (blues, reds) == (1, 2)
    # each added red lies on exactly one line
    base_reds = sc.universe_size + len(sc.sets)
    for el in inst.elements:
        if el.color == RED and el.eid >= base_reds:
            holders = [sid for sid, mem in inst.family if el.eid in mem]
            assert len(holders) == 1


def test_setcover_uniqred_iff_small_corpus():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = rng.randint(1, 4)
        sets = tuple(
            frozenset(e for e in range(1, n + 1) if rng.random() < 0.55)
            for _ in range(m)
        )
        sc = gen.SetCoverInstance(n, sets, rng.randint(1, 3))
        inst = gen.gen_setcover_uniqred_lines(sc)
        assert gen.setcover_decide(sc) == (oracle.brute_force_solve(inst) is not None)


def test_mcc_lines_k222():
    g = k222()
    assert g.regular_degree() == 4 and gen.has_multicolored_clique(g)
    inst = gen.gen_mcc_lines(g, 4)
    assert inst.num_blue == 6 and inst.budget_lines == 6 and inst.budget_red == 21
    assert inst.num_red == 2 * len(g.edges) + 6
    assert model.validate(inst).ok
    for _, mem in inst.family:
        assert sum(1 for e in mem if inst.color_of(e) == RED) == 5
    assert oracle.brute_force_solve(inst) is not None


def test_mcc_lines_triangle_free_is_no():
    g = tripartite_hexagon()
    assert g.regular_degree() == 2 and not gen.has_multicolored_clique(g)
    inst = gen.gen_mcc_lines(g, 2)
    assert inst.budget_lines == 6 and inst.budget_red == 9
    assert model.validate(inst).ok
    assert oracle.brute_force_solve(inst) is None


def test_mcc_lines_rejects_irregular():
    broken = gen.MulticoloredGraph(((1,), (2,), (3,)), frozenset({(1, 2), (2, 3)}))
    with pytest.raises(NotRegular):
        gen.gen_mcc_lines(broken, 1)


def test_mcc_lines_audit_refuses_coincident_crossings(monkeypatch):
    intersect, crossings = gen.intersect, []

    def second_repeats_first(a, b):
        crossings.append(intersect(a, b))
        return crossings[0] if len(crossings) == 2 else crossings[-1]

    monkeypatch.setattr(gen, "intersect", second_repeats_first)
    with pytest.raises(GeometryAuditError):
        gen.gen_mcc_lines(k222(), 4)


def test_mcc_setsystem_examples():
    tri = gen.MulticoloredGraph(((1,), (2,), (3,)), frozenset({(1, 2), (2, 3), (1, 3)}))
    inst = gen.gen_mcc_setsystem(tri)
    assert inst.budget_lines == 3 and inst.budget_red == 3
    assert oracle.brute_force_solve(inst) is not None
    path = gen.MulticoloredGraph(((1,), (2,), (3,)), frozenset({(1, 2), (2, 3)}))
    assert oracle.brute_force_solve(gen.gen_mcc_setsystem(path)) is None


def test_mcc_setsystem_iff_sampled():
    rng = random.Random(4)
    classes = ((1, 2), (3, 4), (5, 6))
    pairs = [
        (u, v)
        for i in range(3)
        for j in range(i + 1, 3)
        for u in classes[i]
        for v in classes[j]
    ]
    for _ in range(80):
        edges = frozenset(e for e in pairs if rng.random() < 0.55)
        g = gen.MulticoloredGraph(classes, edges)
        inst = gen.gen_mcc_setsystem(g)
        assert gen.has_multicolored_clique(g) == (
            oracle.brute_force_solve(inst) is not None
        )


def test_graph_validation():
    with pytest.raises(ValueError):
        gen.MulticoloredGraph(((1, 2),), frozenset({(1, 2)}))  # intra-class edge
    with pytest.raises(ValueError):
        gen.MulticoloredGraph(((1,), (1,)), frozenset())  # duplicate vertex
    with pytest.raises(ValueError):
        gen.MulticoloredGraph(((1,), ()), frozenset())  # empty class


def test_random_determinism():
    for profile in (gen.RandomProfile(), gen.RandomProfile(mode=ABSTRACT)):
        a = gen.gen_random(42, profile)
        b = gen.gen_random(42, profile)
        assert a == b
        assert model.serialize_instance(a) == model.serialize_instance(b)


def test_random_structural_filters():
    cases = {
        "one-blue": lambda nb, nr: nb == 1,
        "two-blue": lambda nb, nr: nb == 0 or nb >= 2,
        "max-one-red": lambda nb, nr: nr <= 1,
        "two-red": lambda nb, nr: nr == 0 or nr >= 2,
    }
    for structure, ok in cases.items():
        for mode in (GEOMETRIC, ABSTRACT):
            profile = gen.RandomProfile(mode=mode, structure=structure, linear=False)
            for seed in range(30):
                inst = gen.gen_random(seed, profile)
                for sid, mem in inst.family:
                    nb = sum(1 for e in mem if inst.color_of(e) == BLUE)
                    nr = len(mem) - nb
                    assert ok(nb, nr), (structure, mode, seed, sid)


def test_random_outputs_validate():
    profiles = [
        gen.RandomProfile(),
        gen.RandomProfile(mode=ABSTRACT),
        gen.RandomProfile(unbounded_lines=True, structure="two-red"),
        gen.RandomProfile(mode=ABSTRACT, structure="max-one-red", linear=False),
    ]
    for pi, profile in enumerate(profiles):
        for seed in range(40):
            inst = gen.gen_random(20_000 * (pi + 1) + seed, profile)
            rep = model.validate(inst)
            assert rep.ok, rep.violations
            if profile.linear and profile.mode == ABSTRACT:
                assert rep.linear_system


def test_random_unsatisfiable_profile():
    impossible = gen.RandomProfile(min_sets=50, max_sets=50, max_points=4, attempts=5)
    with pytest.raises(FilterUnsatisfiable):
        gen.gen_random(0, impossible)


def test_source_format_roundtrips():
    sc = gen.SetCoverInstance(4, (frozenset({1, 2}), frozenset({3})), 2)
    assert gen.parse_setcover(gen.serialize_setcover(sc)) == sc
    g = k222()
    assert gen.parse_mcgraph(gen.serialize_mcgraph(g)) == g
    with pytest.raises(ParseError):
        gen.parse_setcover("nope\n")
    with pytest.raises(ParseError):
        gen.parse_mcgraph("mcgraph 1\nvertex 1 1\n")


@pytest.mark.parametrize(
    "parse, text, line",
    [
        (gen.parse_setcover, "setcover 1\nn x\nk 1\n", 2),
        (gen.parse_setcover, "setcover 1\nn 2\nk -1\n", 3),
        (gen.parse_setcover, "setcover 1\nn 2\nk 1\nset ٣ : 0\n", 4),
        (gen.parse_setcover, "setcover 1\nn 2\nk 1\nset 0 : 0 1_0\n", 4),
        (gen.parse_mcgraph, "mcgraph 1\nclasses two\n", 2),
        (gen.parse_mcgraph, "mcgraph 1\nclasses 2\nvertex 1 ²\n", 3),
        (gen.parse_mcgraph, "mcgraph 1\nclasses 2\nvertex +1 1\n", 3),
        (gen.parse_mcgraph, "mcgraph 1\nclasses 2\nvertex 1 1\nvertex 2 2\nedge 1 x\n", 5),
        # valid syntax, inconsistent content: SemanticError, a ParseError
        (gen.parse_setcover, "setcover 1\nn 0\nk 0\n", 2),
        (gen.parse_setcover, "setcover 1\nn 2\nk 1\n", 2),
        (gen.parse_setcover, "setcover 1\nn 2\nk 1\nset 0 : 1 2\nset 1 : 3\n", 5),
        (gen.parse_setcover, "setcover 1\nset 0 : 0 1\nn 2\nk 1\n", 2),
        (gen.parse_mcgraph, "mcgraph 1\nclasses 2\nvertex 1 1\nvertex 1 2\n", 4),
        (gen.parse_mcgraph, "mcgraph 1\nclasses 2\nvertex 1 1\nvertex 1 1\n", 4),
        (gen.parse_mcgraph, "mcgraph 1\nclasses 2\nvertex 1 1\n", 2),
        (gen.parse_mcgraph, "mcgraph 1\nclasses 2\nedge 1 2\nvertex 1 1\nvertex 2 1\nvertex 3 2\n", 3),
        (gen.parse_mcgraph, "mcgraph 1\nclasses 2\nvertex 1 1\nvertex 2 2\nedge 2 2\n", 5),
        (gen.parse_mcgraph, "mcgraph 1\nclasses 2\nvertex 1 1\nvertex 2 2\nedge 1 9\n", 5),
    ],
)
def test_source_format_bad_integer_names_its_line(parse, text, line):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == line


def _digest(inst):
    return hashlib.sha256(model.serialize_instance(inst).encode()).hexdigest()


def _seeded_mcgraph(seed):
    """k classes of m vertices; every class pair complete, empty or a perfect
    matching; about 1 in 4 graphs with edges loses one and is no longer regular."""
    rng = random.Random(seed)
    k, m = rng.randint(1, 5), rng.randint(1, 3)
    classes = tuple(tuple(m * c + a + 1 for a in range(m)) for c in range(k))
    kind = rng.choice(("complete", "empty", "matching", "matching"))
    edges = set()
    for i, j in combinations(range(k), 2):
        if kind == "complete":
            edges |= {(u, v) for u in classes[i] for v in classes[j]}
        elif kind == "matching":
            edges |= set(zip(classes[i], rng.sample(classes[j], m)))
    d = {"complete": (k - 1) * m, "empty": 0, "matching": k - 1}[kind]
    if edges and rng.randrange(4) == 0:
        edges.remove(rng.choice(sorted(edges)))
    return gen.MulticoloredGraph(classes, frozenset(edges)), d


def _mcc_lines_record(seed):
    try:
        return model.serialize_instance(gen.gen_mcc_lines(*_seeded_mcgraph(seed)))
    except NotRegular as exc:
        return f"{type(exc).__name__}: {exc}"


def test_generator_output_is_pinned():
    # 4 classes of 3 vertices; class pair (i, j) matched by a -> (a + i + j) mod 3
    classes = tuple(tuple(3 * c + a + 1 for a in range(3)) for c in range(4))
    edges = frozenset(
        (classes[i][a], classes[j][(a + i + j) % 3])
        for i in range(4)
        for j in range(i + 1, 4)
        for a in range(3)
    )
    assert _digest(gen.gen_mcc_lines(gen.MulticoloredGraph(classes, edges), 3)) == (
        "78fec432fe74be41af454748b9ced1a7e885f150d95bee8f6f684e1a1c86e518"
    )
    records = "\n==\n".join(_mcc_lines_record(seed) for seed in range(30))
    assert hashlib.sha256(records.encode()).hexdigest() == (
        "b83c99cad97ff28903bef6638e0813d155b4a2f7c3be97069c8e99a094a00626"
    )
    sets = ({1, 2, 3}, {3, 4}, {4, 5, 6, 7}, {1, 7}, {2, 5})
    sc = gen.SetCoverInstance(7, tuple(map(frozenset, sets)), 3)
    assert _digest(gen.gen_setcover_uniqred_lines(sc)) == (
        "77dabf97fc94e49c2eccfbe21107ab918de49562b4099d7e821467185bd9044e"
    )
    pinned = {
        3: "72ad0a66b5c2aab1cb10095169f2e198ac467a16f045c758b6cecca20f5e07f2",
        17: "0d1f3933f6cc65b0e113323c96b1b6f8b1bf7a7223512a178436a103c1537dcd",
        2024: "58dc69872fb3be5e32a48ee6f2445aa94963a7e77e225110661a61cd00215070",
    }
    for seed, digest in pinned.items():
        assert _digest(gen.gen_random(seed, cli.PROFILES["default"])) == digest, seed


# The benchmark's geo-lines shape: every maximal line through 18 grid points.
EIGHTEEN_POINTS = gen.RandomProfile(
    min_points=18, max_points=18, max_sets=1000, max_budget_lines=5, max_budget_red=6
)


def _random_record(seed, profile):
    try:
        inst = gen.gen_random(seed, profile)
    except FilterUnsatisfiable as exc:
        return f"{type(exc).__name__}: {exc}"
    rep = model.validate(inst)
    return model.serialize_instance(inst) + repr((rep.violations, rep.warnings, rep.linear_system))


def test_random_output_is_pinned_for_every_profile():
    profiles = {**cli.PROFILES, "eighteen-points": EIGHTEEN_POINTS}
    digest = hashlib.sha256()
    for name, profile in profiles.items():
        for seed in range(150):
            digest.update(f"{name} {seed}\n{_random_record(seed, profile)}\n".encode())
    assert digest.hexdigest() == (
        "354bd893e3ce8a9ac3574ac14486a69feffe5b4780d8e7b3052dc9e22b0d1260"
    )
