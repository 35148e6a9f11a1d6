import csv
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import abstract_instance, with_random_weights
from rbsc import cli, dp, fpt, generators, model, oracle


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


@pytest.mark.parametrize(
    "argv",
    [["solve", "--out"], ["kernelize", "--param", "kl-kr", "--trace"]],
    ids=["solve", "kernelize"],
)
def test_output_onto_a_directory_is_exit_2_and_leaves_no_temporary(tmp_path, capsys, argv):
    path = write_instance(tmp_path, tiny_yes())
    outdir = tmp_path / "outdir"
    outdir.mkdir()
    command, *flags = argv
    assert_error_exit(capsys, [command, str(path), *flags, str(outdir)], "IsADirectoryError")
    assert not (tmp_path / "outdir.tmp").exists()


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


@pytest.mark.parametrize(
    "algo, module, name",
    [
        ("fpt", fpt, "solve_kl_kr"),
        ("brute", oracle, "brute_force_solve"),
        ("dp", dp, "dp_solve"),
        ("red-subsets", oracle, "solve_rbsc_by_red_subsets"),
        ("two-blue", fpt, "solve_two_blue_special"),
        ("rbsc-two-red", fpt, "solve_rbsc_kr_two_red"),
    ],
)
def test_solve_looks_each_solver_up_on_its_module(tmp_path, monkeypatch, algo, module, name):
    # bench/tracing.py wraps the solvers on their modules and counts what cli calls
    calls = []

    def stub(inst, **kwargs):
        calls.append(kwargs)

    monkeypatch.setattr(module, name, stub)
    path = write_instance(tmp_path, tiny_yes())
    assert cli.main(["solve", str(path), "--algo", algo]) == 1
    assert len(calls) == 1


@pytest.mark.parametrize(
    "algo, inst",
    [
        ("brute", abstract_instance("BRB", [{0, 1}, {2}], 2, 1)),
        ("red-subsets", abstract_instance("BRBR", [{0, 1}, {2}, {2, 3}], None, 2, weights={1: 2})),
    ],
)
def test_oracle_yes_passes_model_certify(tmp_path, monkeypatch, algo, inst):
    certified = []
    certify = model.certify

    def counted(instance, chosen):
        sol = certify(instance, chosen)
        certified.append(sol)
        return sol

    monkeypatch.setattr(model, "certify", counted)
    path = write_instance(tmp_path, inst)
    assert cli.main(["solve", str(path), "--algo", algo]) == 0
    claim = model.parse_solution((tmp_path / "case.rbsc.solution").read_text())
    assert [sol.chosen for sol in certified] == [claim.chosen]


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


def test_solve_output_is_pinned(tmp_path, capsys):
    """Exit code, stdout without time_ms, stderr and solution file of every algorithm, hashed."""
    cases = [
        generators.gen_random(seed, profile)
        for _, profile in sorted(cli.PROFILES.items())
        for seed in range(4)
    ]
    cases += [with_random_weights(cases[4 * i], i) for i in range(2)]
    records = []
    for i, inst in enumerate(cases):
        path = write_instance(tmp_path, inst, f"pin{i}.rbsc")
        for algo in cli.ALGOS:
            out = tmp_path / f"pin{i}.{algo}.solution"
            rc = cli.main(["solve", str(path), "--algo", algo, "--out", str(out)])
            captured = capsys.readouterr()
            stdout = [line for line in captured.out.splitlines() if not line.startswith("time_ms ")]
            solution = out.read_text() if out.exists() else "(none)"
            text = "\n".join((str(rc), *stdout, captured.err, solution))
            records.append(text.replace(str(tmp_path), "<dir>"))
    digest = hashlib.sha256("\n==\n".join(records).encode()).hexdigest()
    assert digest == "29ad38692a449324e505b92bc75262a4d221b6468b5e48cfef22bdf21f3d60f7"


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


@pytest.mark.parametrize("n", [4, 16])
def test_kernelize_keeps_the_decision_at_the_least_feasible_budgets(tmp_path, capsys, n):
    # A cycle of n two-element sets needs ceil(n / 2) of them.  As lines,
    # each set is a red and each element a line through it, so at that
    # budget the red budget is tight: a kernel with one red too few turns
    # the YES into a NO.  One set fewer is a NO.
    sets = tuple(frozenset({u, u % n + 1}) for u in range(1, n + 1))
    need = -(-n // 2)
    for k, decision in ((need, 0), (need - 1, 1)):
        cover, path = tmp_path / f"c{n}k{k}.sc", tmp_path / f"c{n}k{k}.rbsc"
        cover.write_text(generators.serialize_setcover(generators.SetCoverInstance(n, sets, k)))
        assert cli.main(["generate", "setcover", "--input", str(cover), "--out", str(path)]) == 0
        assert cli.main(["solve", str(path)]) == decision
        for param in cli.PIPELINES:
            kern = tmp_path / f"c{n}k{k}.{param}.kernel"
            rc = cli.main(["kernelize", str(path), "--param", param, "--out", str(kern)])
            if rc == 1:
                assert decision == 1
            else:
                assert rc == 0 and cli.main(["solve", str(kern)]) == decision


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
    calls = []
    validate = model.validate

    def counted(inst):
        calls.append(inst)
        return validate(inst)

    monkeypatch.setattr(model, "validate", counted)
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


def test_generate_mcc_lines_audit_goes_through_model_validate(tmp_path, monkeypatch):
    """A wrapper on model.validate alone sees gen_mcc_lines audit the instance it writes."""
    seen = []
    validate = model.validate

    def counted(inst):
        seen.append(inst)
        return validate(inst)

    monkeypatch.setattr(model, "validate", counted)
    graph = tmp_path / "k222.mcgraph"
    graph.write_text(generators.serialize_mcgraph(_complete_multipartite(3, 2)))
    out = tmp_path / "k222.rbsc"
    assert cli.main(["generate", "mcc-lines", "--graph", str(graph), "--out", str(out)]) == 0
    assert len(seen) == 1 and model.serialize_instance(seen[0]) == out.read_text()


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


def test_module_entry_point_round_trip(tmp_path):
    """python -m rbsc.cli generates, solves and verifies a YES and a NO, and exits 2 on a missing file."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}

    def rbsc(*args) -> int:
        argv = [sys.executable, "-m", "rbsc.cli", *map(str, args)]
        return subprocess.run(argv, env=env, capture_output=True).returncode

    for seed, code in ((2, 0), (4, 1)):
        inst, sol = tmp_path / f"r{seed}.rbsc", tmp_path / f"r{seed}.solution"
        assert rbsc("generate", "random", "--seed", seed, "--out", inst) == 0
        assert rbsc("solve", inst, "--out", sol) == code
        assert rbsc("verify", inst, sol) == code
    assert rbsc("solve", tmp_path / "missing.rbsc") == 2


def test_bench_reports_a_disagreement_with_exit_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(cli.SOLVERS, "brute", (lambda inst, force, stats: None, False))
    write_instance(tmp_path, tiny_yes())
    csv_path = tmp_path / "bench.csv"
    assert cli.main(["bench", str(tmp_path), "--algos", "fpt,brute", "--csv", str(csv_path)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "DISAGREEMENT on: case.rbsc"
    with open(csv_path) as fh:
        assert {row["algo"]: row["decision"] for row in csv.DictReader(fh)} == {"fpt": "yes", "brute": "no"}


def test_bench_on_a_directory_without_instances_is_exit_2(tmp_path, capsys):
    (tmp_path / "notes.txt").write_text("no instances here\n")
    csv_path = tmp_path / "bench.csv"
    assert cli.main(["bench", str(tmp_path), "--csv", str(csv_path)]) == 2
    assert capsys.readouterr().err == f"error: no *.rbsc files in {tmp_path}\n"
    assert not csv_path.exists()


def test_bench_rejects_an_unknown_algorithm(tmp_path, capsys):
    write_instance(tmp_path, tiny_yes())
    csv_path = tmp_path / "bench.csv"
    assert cli.main(["bench", str(tmp_path), "--algos", "auto,nope", "--csv", str(csv_path)]) == 2
    assert capsys.readouterr().err == "error: unknown algorithm 'nope'\n"
    assert not csv_path.exists()


def test_verify_a_no_claim_is_exit_1(tmp_path, capsys):
    path = write_instance(tmp_path, tiny_yes())
    claim = tmp_path / "no.solution"
    claim.write_text("solution no\n")
    assert cli.main(["verify", str(path), str(claim)]) == 1
    assert capsys.readouterr().out == "solution file claims no; nothing to verify\n"


@pytest.mark.parametrize(
    "kind, message",
    [
        ("setcover", "--input <setcover file> required"),
        ("setcover-uniqred", "--input <setcover file> required"),
        ("mcc-lines", "--graph <mcgraph file> required"),
        ("mcc-sets", "--graph <mcgraph file> required"),
    ],
)
def test_generate_without_its_source_file_is_exit_2(tmp_path, capsys, kind, message):
    out = tmp_path / "out.rbsc"
    assert cli.main(["generate", kind, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_generate_mcc_lines_on_an_irregular_graph_is_exit_2(tmp_path, capsys):
    graph = tmp_path / "path.mcgraph"
    graph.write_text("mcgraph 1\nclasses 3\nvertex 1 1\nvertex 2 2\nvertex 3 3\nedge 1 2\nedge 2 3\n")
    out = tmp_path / "path.rbsc"
    assert cli.main(["generate", "mcc-lines", "--graph", str(graph), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error NotRegular: graph is not regular\n"
    assert not out.exists()


def test_auto_sends_unbounded_input_past_the_red_subset_guard_to_brute(tmp_path, capsys):
    # set 0 holds one red, so rbsc-two-red is out, and 26 reds exceed red-subsets' guard
    reds = oracle.SUBSET_GUARD + 1
    inst = abstract_instance("B" + "R" * reds, [{0, 1}, set(range(2, reds + 1))], None, 1)
    path = write_instance(tmp_path, inst)
    assert cli.main(["solve", str(path), "--algo", "auto"]) == 0
    assert "algo brute" in capsys.readouterr().out.splitlines()
