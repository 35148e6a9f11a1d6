import csv

import pytest

from conftest import abstract_instance
from rbsc import cli, generators, model


def write_instance(tmp_path, inst, name="case.rbsc"):
    path = tmp_path / name
    path.write_text(model.serialize_instance(inst))
    return path


def tiny_yes():
    return abstract_instance("BRB", [{0, 1}, {2}], 2, 1)


def test_solve_exit_codes_and_solution_file(tmp_path, capsys):
    path = write_instance(tmp_path, tiny_yes())
    rc = cli.main(["solve", str(path), "--algo", "brute"])
    out = capsys.readouterr().out
    assert rc == 0 and "decision yes" in out
    claim = model.parse_solution((tmp_path / "case.rbsc.solution").read_text())
    assert claim.decision and model.verify(tiny_yes(), claim.chosen).feasible

    hard = abstract_instance("BR", [{0, 1}], 1, 0)
    path2 = write_instance(tmp_path, hard, "no.rbsc")
    rc = cli.main(["solve", str(path2), "--algo", "brute"])
    assert rc == 1
    assert model.parse_solution((tmp_path / "no.rbsc.solution").read_text()).decision is False


def test_solve_fpt_prints_tree_counters(tmp_path, capsys):
    # kernel drops the red set {0, 1, 3}; the tree visits 3 nodes and cuts none
    inst = abstract_instance("BBBR", [{0, 1, 3}, {1, 2}, {0, 2}], 2, 0)
    path = write_instance(tmp_path, inst)
    assert cli.main(["solve", str(path), "--algo", "fpt"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "branches 3" in lines and "pruned 0" in lines and "tuples 0" in lines


def test_solve_rejects_algorithm_precondition(tmp_path, capsys):
    inst = abstract_instance("BRR", [{0, 1, 2}], 2, 2)
    path = write_instance(tmp_path, inst)
    rc = cli.main(["solve", str(path), "--algo", "dp"])
    assert rc == 2
    assert "RedDegreeExceeded" in capsys.readouterr().err


def test_solve_parse_failure_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.rbsc"
    bad.write_text("rbsc 2\n")
    assert cli.main(["solve", str(bad)]) == 2


def assert_error_exit(capsys, argv, error_type):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"error {error_type}:" in err and "Traceback" not in err


def test_solve_non_utf8_file_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "latin1.rbsc"
    bad.write_bytes(b"rbsc 1\nmode abstract\n# \xff\xfe\n")
    assert_error_exit(capsys, ["solve", str(bad)], "UnicodeDecodeError")


def test_solve_out_into_missing_directory_is_exit_2(tmp_path, capsys):
    path = write_instance(tmp_path, tiny_yes())
    out = tmp_path / "missing" / "case.solution"
    assert_error_exit(capsys, ["solve", str(path), "--out", str(out)], "FileNotFoundError")


def test_generate_setcover_bad_integer_is_exit_2(tmp_path, capsys):
    src = tmp_path / "bad.sc"
    src.write_text("setcover 1\nn x\nk 1\nset 0 : 0\n")
    argv = ["generate", "setcover", "--input", str(src), "--out", str(tmp_path / "o.rbsc")]
    assert_error_exit(capsys, argv, "ParseError")


def test_generate_mcgraph_bad_integer_is_exit_2(tmp_path, capsys):
    src = tmp_path / "bad.mcgraph"
    src.write_text("mcgraph 1\nclasses 2\nvertex 1 1\nvertex 2 2\nedge 1 x\n")
    argv = ["generate", "mcc-sets", "--graph", str(src), "--out", str(tmp_path / "o.rbsc")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "error ParseError: line 5:" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "kind, text, line",
    [
        ("setcover", "setcover 1\nn 0\nk 0\n", 2),
        ("setcover", "setcover 1\nn 2\nk 1\n", 2),
        ("setcover", "setcover 1\nn 2\nk 1\nset 0 : 1 2\nset 1 : 3\n", 5),
        ("mcc-sets", "mcgraph 1\nclasses 2\nvertex 1 1\nvertex 1 2\n", 4),
        ("mcc-sets", "mcgraph 1\nclasses 2\nvertex 1 1\n", 2),
        ("mcc-sets", "mcgraph 1\nclasses 2\nvertex 1 1\nvertex 2 1\nvertex 3 2\nedge 1 2\n", 6),
        ("mcc-sets", "mcgraph 1\nclasses 2\nvertex 1 1\nvertex 2 2\nedge 1 9\n", 5),
    ],
)
def test_generate_inconsistent_source_is_exit_2(tmp_path, capsys, kind, text, line):
    src = tmp_path / "bad.src"
    src.write_text(text)
    flag = "--input" if kind == "setcover" else "--graph"
    argv = ["generate", kind, flag, str(src), "--out", str(tmp_path / "o.rbsc")]
    assert_error_exit(capsys, argv, f"SemanticError: line {line}")


def test_solve_superscript_digit_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "sup.rbsc"
    bad.write_text("rbsc 1\nmode abstract\nbudget_lines ²\nbudget_red 0\npoint 0 B\nset 0 : 0\n")
    assert_error_exit(capsys, ["solve", str(bad)], "ParseError")


def test_auto_matches_brute_across_corpus(tmp_path):
    profiles = [
        generators.RandomProfile(),
        generators.RandomProfile(mode=model.ABSTRACT, structure="max-one-red", linear=False),
        generators.RandomProfile(unbounded_lines=True),
        generators.RandomProfile(unbounded_lines=True, structure="two-red"),
    ]
    i = 0
    for profile in profiles:
        for seed in range(15):
            inst = generators.gen_random(31_000 + seed, profile)
            path = write_instance(tmp_path, inst, f"auto{i}.rbsc")
            i += 1
            a = cli.main(["solve", str(path), "--algo", "auto", "--out", str(path) + ".a"])
            b = cli.main(["solve", str(path), "--algo", "brute", "--out", str(path) + ".b"])
            assert a == b


@pytest.mark.parametrize("budget_red", [2, 3])
def test_auto_sends_weighted_ell_kernel_to_brute(tmp_path, capsys, budget_red):
    # the ell kernel merges set 0's exclusive reds 2 and 3 into red 2 of weight 2
    path = write_instance(tmp_path, abstract_instance("BBRRR", [{0, 2, 3}, {1, 4}], 2, budget_red))
    assert cli.main(["kernelize", str(path), "--param", "ell"]) == 0
    kernel = model.parse_instance((tmp_path / "case.rbsc.kernel").read_text())
    assert kernel.is_weighted()
    capsys.readouterr()
    rc = cli.main(["solve", str(tmp_path / "case.rbsc.kernel"), "--algo", "auto"])
    assert "algo brute" in capsys.readouterr().out.splitlines()
    assert rc == cli.main(["solve", str(path), "--algo", "brute"]) == (0 if budget_red == 3 else 1)


def test_auto_sends_non_linear_input_to_brute(tmp_path, capsys):
    # sets 0 and 1 share three elements, and set 0 holds two reds, so neither dp nor fpt applies
    path = write_instance(tmp_path, abstract_instance("BBRR", [{0, 1, 2, 3}, {0, 1, 2}], 1, 1))
    assert cli.main(["solve", str(path), "--algo", "auto"]) == 0
    assert "algo brute" in capsys.readouterr().out.splitlines()


def test_auto_sends_non_linear_unbounded_input_past_rbsc_two_red(tmp_path, capsys):
    # no set holds exactly one red, but all three share both reds: rbsc-two-red needs a linear system
    inst = abstract_instance("BBBRR", [{0, 3, 4}, {1, 3, 4}, {2, 3, 4}], None, 2)
    path = write_instance(tmp_path, inst)
    assert cli.main(["solve", str(path), "--algo", "auto"]) == 0
    assert "algo red-subsets" in capsys.readouterr().out.splitlines()


def test_kernelize_command(tmp_path, capsys):
    inst = abstract_instance("BBBBB", [{0}, {1}, {2}, {3}, {4}], 2, 0)
    path = write_instance(tmp_path, inst)
    rc = cli.main(["kernelize", str(path), "--param", "kl-kr"])
    out = capsys.readouterr().out
    assert rc == 1 and "decision no" in out
    assert (tmp_path / "case.rbsc.trace").exists()

    ok = abstract_instance("BRB", [{0, 1}, {2}], 2, 1)
    path2 = write_instance(tmp_path, ok, "ok.rbsc")
    rc = cli.main(["kernelize", str(path2), "--param", "ell"])
    assert rc == 0
    kern = model.parse_instance((tmp_path / "ok.rbsc.kernel").read_text())
    # kernelizing the kernel changes nothing
    out2 = tmp_path / "twice.kernel"
    rc = cli.main(["kernelize", str(tmp_path / "ok.rbsc.kernel"), "--param", "ell", "--out", str(out2)])
    assert rc == 0
    assert model.parse_instance(out2.read_text()) == kern


def test_kernelize_writes_the_pipeline_trace_and_kernel(tmp_path, capsys):
    for seed in range(20):
        inst = generators.gen_random(seed, cli.PROFILES["abstract"])
        path = write_instance(tmp_path, inst, f"k{seed}.rbsc")
        for param, pipeline in cli.PIPELINES.items():
            kern, trace = tmp_path / f"k{seed}.{param}.kernel", tmp_path / f"k{seed}.{param}.trace"
            rc = cli.main(["kernelize", str(path), "--param", param, "--out", str(kern), "--trace", str(trace)])
            res = pipeline(inst)
            assert rc == (1 if res.is_no else 0)
            assert trace.read_text() == model.format_trace(res.trace)
            if res.is_no:
                assert not kern.exists()
                assert f"decision no ({res.no_reason})" in capsys.readouterr().out
            else:
                assert kern.read_text() == model.serialize_instance(res.instance)
                assert f"forced {len(res.forced)}" in capsys.readouterr().out


def test_generate_roundtrip_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a.rbsc", tmp_path / "b.rbsc"
    assert cli.main(["generate", "random", "--seed", "7", "--profile", "one-blue", "--out", str(out1)]) == 0
    assert cli.main(["generate", "random", "--seed", "7", "--profile", "one-blue", "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    inst = model.parse_instance(out1.read_text())
    assert all(
        sum(1 for e in mem if inst.color_of(e) == model.BLUE) == 1
        for _, mem in inst.family
    )


def test_generate_mcc_lines_from_graph_file(tmp_path, capsys):
    g = generators.MulticoloredGraph(
        ((1, 2), (3, 4), (5, 6)),
        frozenset(
            (u, v)
            for i, us in enumerate([(1, 2), (3, 4), (5, 6)])
            for j, vs in enumerate([(1, 2), (3, 4), (5, 6)])
            if i < j
            for u in us
            for v in vs
        ),
    )
    gpath = tmp_path / "k222.mcgraph"
    gpath.write_text(generators.serialize_mcgraph(g))
    rc = cli.main(["generate", "mcc-lines", "--graph", str(gpath), "--out", str(tmp_path / "k222.rbsc")])
    out = capsys.readouterr().out
    assert rc == 0 and "blue 6" in out
    inst = model.parse_instance((tmp_path / "k222.rbsc").read_text())
    assert inst.num_blue == 6


def _complete_multipartite(classes, size):
    groups = [tuple(range(c * size + 1, (c + 1) * size + 1)) for c in range(classes)]
    edges = frozenset(
        (u, v) for i, us in enumerate(groups) for vs in groups[i + 1 :] for u in us for v in vs
    )
    return generators.MulticoloredGraph(tuple(groups), edges)


@pytest.mark.parametrize("kind", ["setcover", "setcover-uniqred", "mcc-lines", "mcc-sets", "random"])
def test_generate_validates_its_output_once(tmp_path, monkeypatch, kind):
    # gen_mcc_lines validates through its own import of validate.
    calls = []
    validate = model.validate

    def counted(inst):
        calls.append(inst)
        return validate(inst)

    monkeypatch.setattr(model, "validate", counted)
    monkeypatch.setattr(generators, "validate", counted)
    sc = tmp_path / "cover.setcover"
    cover = generators.SetCoverInstance(3, (frozenset({1, 2}), frozenset({3})), 2)
    sc.write_text(generators.serialize_setcover(cover))
    graph = tmp_path / "k222.mcgraph"
    graph.write_text(generators.serialize_mcgraph(_complete_multipartite(3, 2)))
    source = {
        "setcover": ["--input", str(sc)],
        "setcover-uniqred": ["--input", str(sc)],
        "mcc-lines": ["--graph", str(graph)],
        "mcc-sets": ["--graph", str(graph)],
        "random": [],
    }
    argv = ["generate", kind, *source[kind], "--out", str(tmp_path / "out.rbsc")]
    assert cli.main(argv) == 0
    assert len(calls) == 1


def test_generate_setcover_from_file(tmp_path):
    sc = generators.SetCoverInstance(3, (frozenset({1, 2}), frozenset({3})), 2)
    spath = tmp_path / "cover.setcover"
    spath.write_text(generators.serialize_setcover(sc))
    rc = cli.main(["generate", "setcover", "--input", str(spath), "--out", str(tmp_path / "cover.rbsc")])
    assert rc == 0
    inst = model.parse_instance((tmp_path / "cover.rbsc").read_text())
    assert generators.setcover_decide(sc) == (
        cli.main(["solve", str(tmp_path / "cover.rbsc"), "--algo", "brute"]) == 0
    )


def test_verify_command(tmp_path, capsys):
    inst = tiny_yes()
    path = write_instance(tmp_path, inst)
    sol = model.verify(inst, {0, 1})
    good = tmp_path / "good.solution"
    good.write_text(model.serialize_solution(sol))
    assert cli.main(["verify", str(path), str(good)]) == 0

    over = abstract_instance("BRB", [{0, 1}, {2}], 2, 0)
    path2 = write_instance(tmp_path, over, "tight.rbsc")
    bad = tmp_path / "bad.solution"
    bad.write_text("solution yes\nset 0\nset 1\nred 1\nblue 2\n")
    rc = cli.main(["verify", str(path2), str(bad)])
    assert rc == 1
    assert "red budget exceeded" in capsys.readouterr().out

    unknown = tmp_path / "unknown.solution"
    unknown.write_text("solution yes\nset 9\nred 0\nblue 0\n")
    assert cli.main(["verify", str(path), str(unknown)]) == 2


@pytest.mark.parametrize(
    "budget_lines, budget_red, chosen, reasons",
    [
        (2, 1, [0], "blue elements uncovered"),
        (1, 1, [0, 1], "line budget exceeded"),
        (0, 0, [0], "blue elements uncovered; red budget exceeded; line budget exceeded"),
    ],
)
def test_verify_prints_each_shortfall(tmp_path, capsys, budget_lines, budget_red, chosen, reasons):
    path = write_instance(tmp_path, abstract_instance("BRB", [{0, 1}, {2}], budget_lines, budget_red))
    claim = tmp_path / "claim.solution"
    claim.write_text("solution yes\n" + "".join(f"set {sid}\n" for sid in chosen))
    assert cli.main(["verify", str(path), str(claim)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == f"feasible no ({reasons})"


def test_bench_command(tmp_path, capsys):
    for seed in range(6):
        inst = generators.gen_random(41_000 + seed, generators.RandomProfile())
        write_instance(tmp_path, inst, f"bench{seed}.rbsc")
    csv_path = tmp_path / "bench.csv"
    rc = cli.main(["bench", str(tmp_path), "--algos", "auto,brute,fpt", "--csv", str(csv_path)])
    out = capsys.readouterr().out
    assert rc == 0 and "disagreements 0" in out
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 18
    assert list(rows[0]) == ["instance", "algo", "decision", "millis", "branches", "tuples"]
    again = tmp_path / "again.csv"
    assert cli.main(["bench", str(tmp_path), "--algos", "auto,brute,fpt", "--csv", str(again)]) == 0
    strip = lambda text: [
        [row["instance"], row["algo"], row["decision"]] for row in csv.DictReader(open(text))
    ]
    assert strip(csv_path) == strip(again)


def test_bench_records_an_undecodable_file_and_goes_on(tmp_path, capsys):
    write_instance(tmp_path, tiny_yes(), "good.rbsc")
    (tmp_path / "latin1.rbsc").write_bytes("rbsc 1\n# caf\xe9\n".encode("latin-1"))
    csv_path = tmp_path / "bench.csv"
    assert cli.main(["bench", str(tmp_path), "--algos", "auto", "--csv", str(csv_path)]) == 0
    assert "instances 2 runs 2 errors 1" in capsys.readouterr().out
    with open(csv_path) as fh:
        decisions = {row["instance"]: row["decision"] for row in csv.DictReader(fh)}
    assert decisions == {"good.rbsc": "yes", "latin1.rbsc": "error:UnicodeDecodeError"}


def test_bench_records_an_unreadable_file_and_goes_on(tmp_path, capsys):
    write_instance(tmp_path, tiny_yes(), "good.rbsc")
    (tmp_path / "x.rbsc").mkdir()
    csv_path = tmp_path / "bench.csv"
    assert cli.main(["bench", str(tmp_path), "--algos", "auto", "--csv", str(csv_path)]) == 0
    assert "instances 2 runs 2 errors 1" in capsys.readouterr().out
    with open(csv_path) as fh:
        decisions = {row["instance"]: row["decision"] for row in csv.DictReader(fh)}
    assert decisions == {"good.rbsc": "yes", "x.rbsc": "error:IsADirectoryError"}


def test_bench_rejects_empty_algorithm_list(tmp_path, capsys):
    write_instance(tmp_path, tiny_yes())
    csv_path = tmp_path / "empty.csv"
    assert cli.main(["bench", str(tmp_path), "--algos", ",", "--csv", str(csv_path)]) == 2
    assert capsys.readouterr().err == "error: no algorithms given\n"
    assert not csv_path.exists()
