import subprocess
import sys

import pytest

from steinercycles import make_family, parse_digraph, parse_witness, \
    serialize_digraph, verify_packing
from steinercycles.cli import main
from steinercycles.packing import CyclePacking

K4_TEXT = "n 4\n" + "".join(
    f"a {u} {v}\n" for u in range(4) for v in range(4) if u != v
)


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.digraph"
    path.write_text(K4_TEXT)
    return str(path)


def test_solve_writes_witness(k4_file, capsys):
    assert main(["solve", "--graph", k4_file, "--S", "0,1"]) == 0
    out = capsys.readouterr().out
    value, cycles = parse_witness(out)
    assert value == 3 and len(cycles) == 3
    packing = CyclePacking(parse_digraph(K4_TEXT), frozenset({0, 1}), cycles)
    assert verify_packing(packing)


def test_solve_budget_exit_code(k4_file, capsys):
    assert main(["solve", "--graph", k4_file, "--S", "0,1",
                 "--budget", "2"]) == 3
    captured = capsys.readouterr()
    assert "node budget exhausted" in captured.err
    value, _ = parse_witness(captured.out)
    assert value <= 3


def test_solve_budget_reports_the_deepest_packing(tmp_path, capsys):
    # The decision at the degree bound runs out of budget holding four
    # cycles of K6, and those are the lower bound printed.
    k6 = tmp_path / "k6.digraph"
    k6.write_text(serialize_digraph(make_family("complete:6")))
    assert main(["solve", "--graph", str(k6), "--S", "0,1,2,3,4,5",
                 "--budget", "100"]) == 3
    captured = capsys.readouterr()
    assert "node budget exhausted" in captured.err
    value, cycles = parse_witness(captured.out)
    assert value == 4 and len(cycles) == 4
    packing = CyclePacking(make_family("complete:6"), frozenset(range(6)),
                           cycles)
    assert verify_packing(packing)


def test_budget_zero_answers_with_an_empty_witness(k4_file, capsys):
    # No search node is allowed, so both commands print the empty packing
    # as an uncertified lower bound.
    assert main(["solve", "--graph", k4_file, "--S", "0,1",
                 "--budget", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "lambda 0\n"
    assert "node budget exhausted" in captured.err
    assert main(["lambda-k", "--graph", k4_file, "--k", "2",
                 "--budget", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "k 2\nS: 0,1\nlambda 0\n"
    assert "not certified" in captured.err


@pytest.mark.parametrize("terminals", ["0,,1,", "0,1,", ",0,1", ""])
def test_solve_refuses_an_empty_terminal_item(terminals, k4_file, capsys):
    # Dropping the empty items would answer for {0, 1}, a set nobody gave.
    assert main(["solve", "--graph", k4_file, "--S", terminals]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad terminal list" in captured.err


@pytest.mark.parametrize("argv", [
    ["solve", "--graph", "{k4}", "--S", "0,1"],
    ["lambda-k", "--graph", "{k4}", "--k", "2"],
    ["decompose", "--graph", "{k5}"],
    ["harness", "--family", "symmetric", "--count", "1"],
], ids=["solve", "lambda-k", "decompose", "harness"])
def test_negative_budget_is_usage_error(argv, k4_file, tmp_path, capsys):
    # A negative budget is refused before any work, also where no search
    # node would be needed (K5 is decomposed by construction).
    k5 = tmp_path / "k5.digraph"
    k5.write_text(serialize_digraph(make_family("complete:5")))
    argv = [a.format(k4=k4_file, k5=k5) for a in argv]
    assert main(argv + ["--budget", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "node budget must be nonnegative" in captured.err


def test_oversized_vertex_count_is_usage_error(tmp_path, capsys):
    # A count above sys.maxsize fits no per-vertex list, so parsing refuses
    # it; nothing is allocated.
    graph = tmp_path / "huge.digraph"
    graph.write_text(f"n {10 ** 20}\n")
    net = tmp_path / "huge.flow"
    net.write_text(f"n {10 ** 20}\na 0 1 1\nsource 0\nsink 1\n")
    for argv in (["solve", "--graph", str(graph), "--S", "0,1"],
                 ["flow-decompose", "--network", str(net)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "vertex count" in captured.err


def test_instance_too_large_for_memory_is_usage_error(tmp_path, capsys):
    # sys.maxsize parses, but a list of that many entries is refused with
    # MemoryError before anything is allocated.
    graph = tmp_path / "huge.digraph"
    graph.write_text(f"n {sys.maxsize}\na 0 1\na 1 0\n")
    for argv in (["solve", "--graph", str(graph), "--S", "0,1"],
                 ["lambda-k", "--graph", str(graph), "--k", "2"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: instance too large for this machine\n"


@pytest.mark.parametrize("n", [0, 1])
def test_lambda_k_below_two_vertices_is_usage_error(tmp_path, capsys, n):
    # No k is in range, so lambda-k refuses as solve does, not with an
    # empty range of k.
    graph = tmp_path / "tiny.digraph"
    graph.write_text(f"n {n}\n")
    assert main(["lambda-k", "--graph", str(graph), "--k", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: a terminal set needs at least two vertices\n"


def test_lambda_k_output(k4_file, capsys):
    assert main(["lambda-k", "--graph", k4_file, "--k", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k 3"
    assert lines[1].startswith("S: ")
    assert lines[2] == "lambda 2"
    assert len([ln for ln in lines if ln.startswith("cycle: ")]) == 2


def test_lambda_k_complete_solves_first_set(k4_file, tmp_path, capsys):
    assert main(["lambda-k", "--graph", k4_file, "--k", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "S: 0,1"
    assert lines[2] == "lambda 3"
    k6 = tmp_path / "k6.digraph"
    k6.write_text(serialize_digraph(make_family("complete:6")))
    assert main(["lambda-k", "--graph", str(k6), "--k", "4"]) == 0
    assert capsys.readouterr().out == (
        "k 4\n"
        "S: 0,1,2,3\n"
        "lambda 5\n"
        "cycle: 0 1 2 3 0\n"
        "cycle: 0 2 1 4 3 5 0\n"
        "cycle: 0 3 4 1 5 2 0\n"
        "cycle: 0 4 2 5 3 1 0\n"
        "cycle: 0 5 1 3 2 4 0\n")


def test_deep_searches_answer(tmp_path, capsys):
    # A 1,500-vertex directed ring with every vertex a terminal needs a
    # cycle search 1,500 vertices deep, and 1,200 parallel arcs each way
    # between two vertices a packing search 1,200 cycles deep; both are
    # past the interpreter's default recursion limit.
    n = 1500
    ring = tmp_path / "ring.digraph"
    ring.write_text(f"n {n}\n" + "".join(f"a {v} {(v + 1) % n}\n"
                                          for v in range(n)))
    every = ",".join(str(v) for v in range(n))
    assert main(["solve", "--graph", str(ring), "--S", every]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "lambda 1", "cycle: " + " ".join(map(str, range(n))) + " 0"]
    assert captured.err == ""
    pair = tmp_path / "pair.digraph"
    pair.write_text("n 2\n" + "a 0 1\na 1 0\n" * 1200)
    assert main(["solve", "--graph", str(pair), "--S", "0,1"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "lambda 1200\n" + "cycle: 0 1 0\n" * 1200
    assert captured.err == ""


def test_formula_table(capsys):
    assert main(["formula", "--family", "complete:6"]) == 0
    out = capsys.readouterr().out
    assert out == "2\t5\n3\t5\n4\t5\n5\t4\n6\t4\n"


def test_formula_single_k(capsys):
    assert main(["formula", "--family", "bipartite:2,3", "--k", "2"]) == 0
    assert capsys.readouterr().out == "2\t2\n"


def test_formula_bad_family(capsys):
    assert main(["formula", "--family", "ring:5"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("family", ["complete:0", "complete:1",
                                    "multipartite:0x3"])
def test_formula_empty_family_is_usage_error(family, capsys):
    # no terminal set exists, so an empty table would read as an answer
    assert main(["formula", "--family", family]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("family", ["multipartite:3x1", "bipartite:1,3"])
def test_formula_refuses_what_make_family_refuses(family, capsys):
    # formula and make_family share one spec rule: a table no solver run
    # could back is a usage error, not a table of zeros
    with pytest.raises(ValueError):
        make_family(family)
    assert main(["formula", "--family", family]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_gadget_eulerian(tmp_path, capsys):
    path = tmp_path / "two-arcs.digraph"
    path.write_text("n 4\na 0 1\na 2 3\n")
    assert main(["gadget", "eulerian", "--graph", str(path),
                 "--terminals", "0,1,2,3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "L: 2"
    assert any(ln.startswith("S: ") for ln in lines)
    assert any(ln.startswith("role ") and ln.endswith("x_1") for ln in lines)


@pytest.mark.parametrize("terminals, message", [
    ("0,1,,3", "bad terminal roles"), ("0,1,2", "expected exactly s1,t1,s2,t2"),
    ("0,1,2,3,0", "expected exactly s1,t1,s2,t2")])
def test_gadget_refuses_bad_terminal_roles(terminals, message, tmp_path,
                                           capsys):
    path = tmp_path / "two-arcs.digraph"
    path.write_text("n 4\na 0 1\na 2 3\n")
    assert main(["gadget", "eulerian", "--graph", str(path),
                 "--terminals", terminals]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_gadget_planar_needs_demands(tmp_path, capsys):
    path = tmp_path / "grid.digraph"
    path.write_text("n 4\na 0 1\na 1 3\na 0 2\na 2 3\n")
    assert main(["gadget", "planar", "--graph", str(path),
                 "--terminals", "0,3,1,2"]) == 2
    assert "needs --d1 and --d2" in capsys.readouterr().err
    assert main(["gadget", "planar", "--graph", str(path),
                 "--terminals", "0,3,1,2", "--d1", "1", "--d2", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "L: 2"


def test_gadget_replacement(tmp_path, capsys):
    path = tmp_path / "c4.digraph"
    path.write_text("n 4\na 0 1\na 1 2\na 2 3\na 3 0\n")
    assert main(["gadget", "replacement", "--graph", str(path),
                 "--ell", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "L: 2"
    assert lines[-2] == "S: 0,1,2,3"
    assert main(["gadget", "replacement", "--graph", str(path)]) == 2


def test_decompose(tmp_path, capsys):
    path = tmp_path / "k5.digraph"
    path.write_text("n 5\n" + "".join(
        f"a {u} {v}\n" for u in range(5) for v in range(5) if u != v))
    assert main(["decompose", "--graph", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "status: decomposed"
    assert len([ln for ln in lines if ln.startswith("cycle: ")]) == 4


def test_decompose_failed_construction_exits_four(tmp_path, capsys,
                                                  monkeypatch):
    # An odd complete digraph is decomposed by construction; a construction
    # that fails its own check is an internal error, and stdout stays empty.
    import steinercycles.families as families_module
    monkeypatch.setattr(families_module, "_odd_complete_cycles",
                        lambda n: ((0, 1, 0),))
    path = tmp_path / "k5.digraph"
    path.write_text("n 5\n" + "".join(
        f"a {u} {v}\n" for u in range(5) for v in range(5) if u != v))
    assert main(["decompose", "--graph", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: RuntimeError")


def test_decompose_invalid_search_result_exits_four(tmp_path, capsys,
                                                   monkeypatch):
    # A decomposition found by the search passes the same check as the
    # construction: a packing whose last cycle skips a vertex raises.
    import dataclasses

    import steinercycles.families as families_module
    found = families_module.packing_exists

    def broken(*args):
        res = found(*args)
        *cycles, last = res.packing.cycles
        packing = dataclasses.replace(
            res.packing, cycles=(*cycles, last[:1] + last[2:]))
        return dataclasses.replace(res, packing=packing)

    monkeypatch.setattr(families_module, "packing_exists", broken)
    d = make_family("multipartite:2x3")
    with pytest.raises(RuntimeError):
        families_module.hamiltonian_decomposition(d)
    path = tmp_path / "k222.digraph"
    path.write_text(serialize_digraph(d))
    assert main(["decompose", "--graph", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: RuntimeError")


def test_decompose_exhausted(k4_file, capsys):
    assert main(["decompose", "--graph", k4_file]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "status: exhausted"


def test_decompose_budget_exit(tmp_path, capsys):
    path = tmp_path / "k6.digraph"
    path.write_text("n 6\n" + "".join(
        f"a {u} {v}\n" for u in range(6) for v in range(6) if u != v))
    assert main(["decompose", "--graph", str(path), "--budget", "3"]) == 3
    assert capsys.readouterr().out.splitlines()[0] == "status: budget"


def test_flow_decompose(tmp_path, capsys):
    path = tmp_path / "net.flow"
    path.write_text("n 4\na 0 1 2\na 1 2 2\na 2 3 2\nsource 0\nsink 3\n")
    assert main(["flow-decompose", "--network", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == "path 2: 0 1 2 3\n"


def test_verify_valid_and_invalid(k4_file, tmp_path, capsys):
    good = tmp_path / "good.witness"
    good.write_text("lambda 2\ncycle: 0 1 2 0\ncycle: 0 2 1 0\n")
    assert main(["verify", "--graph", k4_file, "--witness", str(good),
                 "--S", "0,1,2"]) == 0
    assert capsys.readouterr().out == "valid: lambda 2, 2 cycles\n"

    short = tmp_path / "short.witness"
    short.write_text("lambda 3\ncycle: 0 1 2 0\ncycle: 0 2 1 0\n")
    assert main(["verify", "--graph", k4_file, "--witness", str(short),
                 "--S", "0,1,2"]) == 1
    assert "claims 3 cycles but lists 2" in capsys.readouterr().out

    overlap = tmp_path / "overlap.witness"
    overlap.write_text("lambda 2\ncycle: 0 1 2 0\ncycle: 0 1 3 0\n")
    assert main(["verify", "--graph", k4_file, "--witness", str(overlap),
                 "--S", "0,1"]) == 1
    assert "not a disjoint Steiner cycle packing" in capsys.readouterr().out


@pytest.mark.parametrize("first", ["lambdax 2", "lambda_is 2"])
def test_verify_refuses_a_misspelled_lambda_line(first, k4_file, tmp_path, capsys):
    bad = tmp_path / "bad.witness"
    bad.write_text(f"{first}\ncycle: 0 1 2 0\ncycle: 0 2 1 0\n")
    assert main(["verify", "--graph", k4_file, "--witness", str(bad),
                 "--S", "0,1,2"]) == 2
    assert "unknown witness line" in capsys.readouterr().err


def test_harness_replacement_small(capsys):
    assert main(["harness", "--family", "replacement", "--count", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "agreement 5/5"
    assert len(lines) == 6
    for ln in lines[:-1]:
        inst, oracle, solver, agree = ln.split("\t")
        assert inst.startswith("replacement-")
        assert oracle in ("yes", "no") and solver in ("yes", "no")
        assert agree == "yes"


@pytest.mark.parametrize("count", ["-1", "0"])
def test_harness_count_below_one_is_usage_error(count, capsys):
    # `agreement 0/0` with exit 0 would read as full agreement
    assert main(["harness", "--family", "planar", "--count", count]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_harness_is_deterministic(capsys):
    argv = ["harness", "--family", "symmetric", "--count", "6"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert main(argv + ["--seed", "99"]) == 0
    assert capsys.readouterr().out != first


def test_harness_eulerian_disagreement_exits_one(monkeypatch, capsys):
    assert main(["harness", "--family", "eulerian", "--count", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "agreement 5/5"
    assert lines[4] == "eulerian-004\tno\tno\tyes"

    # a wrong oracle verdict on the fifth instance must surface as exit 1
    import steinercycles.harness as harness_module
    from steinercycles.oracles import OracleAnswer

    real = harness_module.weak_two_linkage
    calls = []

    def flipped_on_fifth(*args):
        calls.append(args)
        answer = real(*args)
        if len(calls) == 5:
            return OracleAnswer(not answer.decision)
        return answer

    monkeypatch.setattr(harness_module, "weak_two_linkage", flipped_on_fifth)
    assert main(["harness", "--family", "eulerian", "--count", "5"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "agreement 4/5"
    assert lines[4] == "eulerian-004\tyes\tno\tno"


def test_missing_file_is_a_clean_error(capsys):
    assert main(["solve", "--graph", "/no/such/file", "--S", "0,1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "steinercycles.cli", "formula",
         "--family", "complete:4"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == "2\t3\n3\t2\n4\t2\n"
