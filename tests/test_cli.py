import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import xormpe
from xormpe.benchgen import ChainSpec, gen_chain
from xormpe.cli import main
from xormpe.diagram import DiagramManager
from xormpe.executor import Observer, count, solve
from xormpe.formula import format_formula, parse_formula
from xormpe.oracle import verify_checkpoints
from xormpe.planner import Heuristic, heuristic_order, plan

from conftest import MIXED6_TEXT, injected_fault, recursion_limit

UNIT_TEXT = "p cnf 1 1\n1 0\nw -1 10\nw 1 100\n"


@pytest.fixture
def unit_file(tmp_path):
    path = tmp_path / "unit.xcnf"
    path.write_text(UNIT_TEXT)
    return str(path)


@pytest.fixture
def mixed6_file(tmp_path):
    path = tmp_path / "mixed6.xcnf"
    path.write_text(MIXED6_TEXT)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_machine_grammar(capsys, unit_file):
    code, out, _ = run(capsys, ["solve", unit_file, "--format", "machine"])
    assert code == 0
    assert out == "s MAXIMUM 100\nv 1 0\n"


def test_solve_human_output(capsys, unit_file):
    code, out, _ = run(capsys, ["solve", unit_file])
    assert code == 0
    lines = out.splitlines()
    assert sum(l.startswith("s ") for l in lines) == 1
    assert sum(l.startswith("v ") for l in lines) == 1
    assert any(l.startswith("c width ") for l in lines)
    assert any(l.startswith("c exec-seconds ") for l in lines)
    assert "s MAXIMUM 100" in lines
    assert "v 1 0" in lines


def test_solve_log10_mode(capsys, unit_file):
    code, out, _ = run(capsys, ["solve", unit_file, "--mode", "log10",
                                "--format", "machine"])
    assert code == 0
    assert out.splitlines()[0] == "s MAXIMUM 2"


def test_solve_linear_overflow_exits_3(capsys, tmp_path):
    # the README example in the default linear mode overflows to inf
    path = tmp_path / "chain_n300_k20_s7.xcnf"
    path.write_text(format_formula(*gen_chain(ChainSpec(300, 20, 7))))
    code, out, err = run(capsys, ["solve", str(path)])
    assert code == 3
    assert not any(l.startswith(("s ", "v ")) for l in out.splitlines())
    assert "--mode log10" in err


def test_solve_linear_underflow_exits_3(capsys, tmp_path):
    # 400 free variables weighted 0.01/0.02: the optimum 10^-679.6 underflows
    path = tmp_path / "tiny.xcnf"
    path.write_text("p cnf 400 0\n" + "".join(
        f"w {v} 0.01\nw -{v} 0.02\n" for v in range(1, 401)))
    code, out, err = run(capsys, ["solve", str(path)])
    assert code == 3
    assert not any(l.startswith(("s ", "v ")) for l in out.splitlines())
    assert "--mode log10" in err


def test_solve_missing_file(capsys):
    code, _, err = run(capsys, ["solve", "/nonexistent/file.xcnf"])
    assert code == 2
    assert "cannot read" in err


def test_solve_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.xcnf"
    bad.write_text("p cnf 1 1\n1 0\nw 1 -2\n")
    code, _, err = run(capsys, ["solve", str(bad)])
    assert code == 2
    assert "negative weight" in err


@pytest.mark.parametrize("mode", ["log10", "linear"])
def test_solve_refuses_a_nonzero_weight_that_reads_as_zero(capsys, tmp_path, mode):
    # the optimum is 10^-400, which a double cannot hold: no answer beats a wrong one
    path = tmp_path / "tiny.xcnf"
    path.write_text("p cnf 1 1\n1 0\nw 1 1e-400\n")
    code, out, err = run(capsys, ["solve", str(path), "--mode", mode])
    assert (code, out) == (2, "")
    assert "line 3" in err and "'1e-400'" in err


def test_solve_unsatisfiable_flagged(capsys, tmp_path):
    path = tmp_path / "unsat.xcnf"
    path.write_text("p cnf 1 2\n1 0\n-1 0\n")
    code, out, _ = run(capsys, ["solve", str(path)])
    assert code == 0
    assert "c no model attains nonzero weight" in out.splitlines()
    assert "s MAXIMUM 0" in out


def test_solve_verify_flag(capsys, mixed6_file):
    code, out, _ = run(capsys, ["solve", mixed6_file, "--verify"])
    assert code == 0
    assert "s MAXIMUM 1" in out


def test_solve_verify_refuses_a_faulty_valuation(capsys, unit_file):
    # the checkpoint suite runs before the solve: its failure is exit 1, no answer
    with injected_fault("skip_weight_join"):
        code, out, err = run(capsys, ["solve", unit_file, "--verify"])
    assert code == 1
    assert "checkpoint project-condition failed" in err
    assert not any(l.startswith(("s ", "v ")) for l in out.splitlines())


def test_solve_verify_respects_limit(capsys, tmp_path):
    # no clauses: the tree's one internal node projects all 21 variables
    path = tmp_path / "big.xcnf"
    path.write_text("p cnf 21 0\n")
    code, _, err = run(capsys, ["solve", str(path), "--verify"])
    assert code == 3
    assert "verification limit" in err


def test_solve_raises_the_recursion_limit_for_a_wide_node(capsys, tmp_path):
    # the library refuses a 1,200-variable node at limit 1,000; the command
    # line owns its process, so it raises the limit to fit the tree it planned
    literals = " ".join(map(str, range(1, 1201)))
    path = tmp_path / "wide.xcnf"
    path.write_text(f"p cnf 1200 1\n{literals} 0\n")
    with recursion_limit(1000):
        code, out, _ = run(capsys, ["solve", str(path), "--plan-heuristic", "lex",
                                    "--format", "machine"])
        assert sys.getrecursionlimit() == 2 * 1200 + 200
    assert code == 0
    assert out == f"s MAXIMUM 1\nv {literals} 0\n"


class _Sizes(Observer):
    """The size of every diagram seen at exit, child_joined and projected."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def exit(self, node, f):
        self.sizes.append(self.manager.size(f))

    def child_joined(self, node, h, previous, joined):
        self.sizes.append(self.manager.size(joined))

    def projected(self, node, var, h, previous, result, sign):
        self.sizes.append(self.manager.size(result))


def test_solve_dot_export(capsys, tmp_path, mixed6_file):
    # --dot renders the largest diagram a leaf, join or projection builds
    dot_path = tmp_path / "diagram.dot"
    code, _, _ = run(capsys, ["solve", mixed6_file, "--dot", str(dot_path)])
    assert code == 0
    dot = dot_path.read_text()
    assert dot.startswith("digraph")
    formula, weights = parse_formula(MIXED6_TEXT)
    sizes = _Sizes()
    solve(formula, weights, plan(formula, heuristic_order(formula, Heuristic.MIN_FILL)),
          observer=sizes)
    node_lines = [line for line in dot.splitlines() if "[shape=" in line]
    assert len(node_lines) == max(sizes.sizes) > 1


def test_only_dot_walks_diagram_sizes(capsys, tmp_path, mixed6_file, monkeypatch):
    # a solve joins and projects and measures nothing: the reachability walk
    # behind DiagramManager.size runs for --dot alone
    class Walked(Exception):
        pass

    def size(manager, f):
        raise Walked

    monkeypatch.setattr(DiagramManager, "size", size)
    formula, weights = parse_formula(MIXED6_TEXT)
    tree = plan(formula, heuristic_order(formula, Heuristic.MIN_FILL))
    for mode in ("linear", "log10"):
        solve(formula, weights, tree, mode=mode)
    count(formula, weights, tree)
    assert verify_checkpoints(formula, weights, tree) is None
    code, _, _ = run(capsys, ["solve", mixed6_file, "--verify"])
    assert code == 0
    with pytest.raises(Walked):
        main(["solve", mixed6_file, "--dot", str(tmp_path / "diagram.dot")])


def test_plan_reports_width(capsys, mixed6_file, tmp_path):
    out_path = tmp_path / "tree.jt"
    code, out, _ = run(capsys, ["plan", mixed6_file, "--plan-heuristic", "min-degree",
                                "--out", str(out_path)])
    assert code == 0
    assert out.splitlines()[0].startswith("c width ")
    text = out_path.read_text()
    assert text.startswith("p jt 6 5 ")


def test_plan_out_writes_before_it_reports(capsys, tmp_path, unit_file):
    code, out, err = run(capsys, ["plan", unit_file, "--out", str(tmp_path / "no" / "tree.jt")])
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_plan_stdout(capsys, unit_file):
    code, out, _ = run(capsys, ["plan", unit_file])
    assert code == 0
    assert "p jt 1 1 " in out


def test_plan_empty_formula(capsys, tmp_path):
    path = tmp_path / "empty.xcnf"
    path.write_text("p cnf 0 0\n")
    code, out, _ = run(capsys, ["plan", str(path)])
    assert code == 0
    assert "c width 0" in out


def test_gen_chain_writes_conventional_name(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, ["gen", "chain", "--n", "30", "--k", "4",
                                "--seed", "9"])
    assert code == 0
    assert "c wrote chain_n30_k4_s9.xcnf" in out
    formula, weights = parse_formula((tmp_path / "chain_n30_k4_s9.xcnf").read_text())
    assert formula.var_count == 30
    assert len(formula.clauses) == 27


@pytest.mark.parametrize("module", ["xormpe", "xormpe.cli"])
def test_module_form_runs_the_cli(tmp_path, unit_file, module):
    env = {**os.environ, "PYTHONPATH": str(Path(xormpe.__file__).resolve().parent.parent)}

    def run_module(*args):
        return subprocess.run([sys.executable, "-m", module, *args], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=60)

    generated = run_module("gen", "chain", "--n", "5", "--k", "2", "--out", "c.xcnf")
    assert generated.returncode == 0
    assert (tmp_path / "c.xcnf").exists()
    solved = run_module("solve", "c.xcnf")
    assert solved.returncode == 0
    assert "s MAXIMUM" in solved.stdout
    machine = run_module("solve", unit_file, "--format", "machine")
    assert machine.returncode == 0, machine.stderr
    assert machine.stdout == "s MAXIMUM 100\nv 1 0\n"


NUMPY_FREE_SCRIPT = """
import sys

import xormpe, xormpe.cli

main = xormpe.cli.main
assert main(["gen", "chain", "--n", "8", "--k", "3", "--out", "c.xcnf"]) == 0
for argv in (["solve", "c.xcnf"], ["plan", "c.xcnf"], ["export-wcnf", "c.xcnf"]):
    assert main(argv) == 0, argv
assert "numpy" not in sys.modules, "the solver path loaded numpy"

names = ["brute_solve", "verify_checkpoints", "OracleResult", "CheckpointFailure"]
resolved = [getattr(xormpe, name) for name in names]
assert "numpy" in sys.modules
assert resolved == [getattr(xormpe.oracle, name) for name in names]
namespace = {}
exec("from xormpe import *", namespace)
assert set(xormpe.__all__) <= set(namespace)
try:
    xormpe.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown attribute resolved")
"""


def test_solver_path_loads_no_numpy(tmp_path):
    # only the enumeration oracle loads numpy; this process has loaded it
    # already, so a fresh interpreter runs the commands
    env = {**os.environ, "PYTHONPATH": str(Path(xormpe.__file__).resolve().parent.parent)}
    run = subprocess.run([sys.executable, "-c", NUMPY_FREE_SCRIPT], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr


def test_gen_chain_require_sat(capsys, tmp_path):
    out_path = tmp_path / "sat.xcnf"
    code, out, _ = run(capsys, ["gen", "chain", "--n", "12", "--k", "3",
                                "--seed", "0", "--require-sat",
                                "--out", str(out_path)])
    assert code == 0
    formula, weights = parse_formula(out_path.read_text())
    from xormpe.oracle import brute_solve
    assert brute_solve(formula, weights).maximum > 0


def test_gen_random_require_sat_gives_up_with_exit_3(capsys, tmp_path):
    # 30 unit clauses over one variable: both polarities appear in every seed
    code, out, err = run(capsys, ["gen", "random", "--n", "1", "--m", "30",
                                  "--max-len", "1", "--xor-prob", "0",
                                  "--require-sat", "--out", str(tmp_path / "unsat.xcnf")])
    assert code == 3
    assert "no satisfiable instance found in 1000 seeds from 0" in err
    assert not (tmp_path / "unsat.xcnf").exists()


def test_gen_random(capsys, tmp_path):
    out_path = tmp_path / "rand.xcnf"
    code, _, _ = run(capsys, ["gen", "random", "--n", "6", "--m", "8",
                              "--max-len", "3", "--xor-prob", "0.5",
                              "--seed", "1", "--out", str(out_path)])
    assert code == 0
    formula, _ = parse_formula(out_path.read_text())
    assert formula.var_count == 6
    assert len(formula.clauses) == 8


@pytest.mark.parametrize("argv", [
    ["chain", "--n", "5", "--k", "9"],
    ["random", "--n", "3", "--m", "2", "--max-len", "5"],
    ["random", "--n", "3", "--m", "2", "--max-len", "2", "--xor-prob", "2"],
], ids=["chain-k", "random-max-len", "random-xor-prob"])
def test_gen_out_of_range_is_a_usage_error(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, ["gen", *argv])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_zero_variable_answer_line(capsys, tmp_path, command):
    path = tmp_path / "empty.xcnf"
    path.write_text("p cnf 0 0\n")
    code, out, _ = run(capsys, [command, str(path)])
    assert code == 0
    assert out.endswith("s MAXIMUM 1\nv 0\n")


def test_oracle_output(capsys, unit_file):
    code, out, _ = run(capsys, ["oracle", unit_file])
    assert code == 0
    assert out == "c WMC 100\ns MAXIMUM 100\nv 1 0\n"


@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_machine_format_is_one_s_line_then_one_v_line(capsys, mixed6_file, command):
    # the machine grammar has no c line: neither solve's stats nor the oracle's WMC
    code, out, _ = run(capsys, [command, mixed6_file, "--format", "machine"])
    assert code == 0
    assert re.fullmatch(r"s MAXIMUM \S+\nv( -?[1-9]\d*)* 0\n", out), out


def test_oracle_prints_a_zero_maximum_unsigned(capsys, tmp_path):
    path = tmp_path / "zero.xcnf"
    path.write_text("p cnf 1 1\n1 0\nw 1 -0\n")
    code, out, _ = run(capsys, ["oracle", str(path), "--format", "machine"])
    assert code == 0
    assert out.splitlines()[0] == "s MAXIMUM 0"


def test_oracle_guard(capsys, tmp_path):
    path = tmp_path / "big.xcnf"
    path.write_text("p cnf 21 0\n")
    code, _, err = run(capsys, ["oracle", str(path)])
    assert code == 3
    assert "oracle limit" in err


def test_export_wcnf(capsys, tmp_path, unit_file):
    out_path = tmp_path / "inst.wcnf"
    code, out, _ = run(capsys, ["export-wcnf", unit_file, "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("p wcnf 1 3 ")
    code, out, _ = run(capsys, ["export-wcnf", unit_file])
    assert "p wcnf" in out


def test_export_wcnf_refuses_double_zero(capsys, tmp_path):
    path = tmp_path / "zz.xcnf"
    path.write_text("p cnf 1 1\n1 0\nw 1 0\nw -1 0\n")
    code, _, err = run(capsys, ["export-wcnf", str(path)])
    assert code == 2
    assert "zero" in err


@pytest.mark.parametrize("scale", ["0", "-10"])
def test_export_wcnf_refuses_a_scale_below_one(capsys, unit_file, scale):
    code, out, err = run(capsys, ["export-wcnf", unit_file, "--wcnf-scale", scale])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "integer >= 1" in err


def test_solve_and_oracle_agree(capsys, mixed6_file):
    code, solver_out, _ = run(capsys, ["solve", mixed6_file, "--format", "machine"])
    assert code == 0
    code, oracle_out, _ = run(capsys, ["oracle", mixed6_file])
    assert code == 0
    solver_s = [l for l in solver_out.splitlines() if l.startswith("s ")][0]
    oracle_s = [l for l in oracle_out.splitlines() if l.startswith("s ")][0]
    assert solver_s == oracle_s


def test_solve_and_oracle_agree_randomized(capsys, tmp_path):
    from xormpe.benchgen import gen_random
    from xormpe.formula import format_formula
    from xormpe.oracle import brute_solve

    for seed in range(12):
        formula, weights = gen_random(5 + seed % 6, 6, 3, 0.5, 8800 + seed)
        path = tmp_path / f"inst{seed}.xcnf"
        path.write_text(format_formula(formula, weights))
        code, solver_out, _ = run(capsys, ["solve", str(path), "--format", "machine"])
        assert code == 0
        code, oracle_out, _ = run(capsys, ["oracle", str(path)])
        assert code == 0
        solver_s = [l for l in solver_out.splitlines() if l.startswith("s ")][0]
        oracle_s = [l for l in oracle_out.splitlines() if l.startswith("s ")][0]
        assert solver_s == oracle_s
        v_line = [l for l in solver_out.splitlines() if l.startswith("v ")][0]
        lits = [int(t) for t in v_line.split()[1:-1]]
        assignment = {abs(l): l > 0 for l in lits}
        assert brute_solve(formula, weights).is_maximizer(assignment)


@pytest.mark.parametrize("command", ["solve", "plan", "oracle", "export-wcnf"])
def test_non_utf8_instance_is_an_input_error(capsys, tmp_path, command):
    path = tmp_path / "latin1.xcnf"
    path.write_bytes("c café\np cnf 1 1\n1 0\n".encode("latin-1"))
    code, out, err = run(capsys, [command, str(path)])
    assert code == 2
    assert out == ""
    assert err == "error: line 1: not UTF-8 text\n"


# linear weight products out of double range: inf, a zero maximum that
# falsifies the clause, and inf times 0 (NaN)
OUT_OF_RANGE_TEXTS = {
    "overflow": "p cnf 2 1\n1 2 0\nw 1 1e200\nw 2 1e200\n",
    "underflow": "p cnf 2 1\n1 2 0\n" + "".join(
        f"w {lit} 1e-200\n" for lit in (1, -1, 2, -2)),
    "nan": "p cnf 2 1\n-1 -2 0\nw 1 1e200\nw 2 1e200\n",
}


@pytest.mark.parametrize("name", OUT_OF_RANGE_TEXTS)
@pytest.mark.parametrize("argv", [["oracle"], ["oracle", "--format", "machine"]],
                         ids=["oracle", "oracle-machine"])
def test_oracle_refuses_products_out_of_double_range(capsys, tmp_path, name, argv):
    path = tmp_path / f"{name}.xcnf"
    path.write_text(OUT_OF_RANGE_TEXTS[name])
    code, out, err = run(capsys, [*argv, str(path)])
    assert code == 3
    assert not any(l.startswith(("s ", "v ")) for l in out.splitlines())
    assert "double range" in err
    assert "--mode log10" not in err


@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_oracle_answers_where_every_product_fits(capsys, tmp_path, command):
    # the largest product, 1e300 * 1e8, and the sum of all four fit in double range
    path = tmp_path / "bound.xcnf"
    path.write_text("p cnf 2 1\n1 2 0\nw 1 1e300\nw 2 1e8\n")
    code, out, _ = run(capsys, [command, str(path), "--format", "machine"])
    assert code == 0
    assert out == "s MAXIMUM 1e+308\nv 1 2 0\n"


def test_oracle_refuses_only_the_count_it_reports(capsys, tmp_path):
    # the maximum fits and the sum of its two points does not; the machine
    # format reports no WMC
    path = tmp_path / "sum.xcnf"
    path.write_text("p cnf 1 0\nw 1 1e308\nw -1 1e308\n")
    code, out, _ = run(capsys, ["oracle", str(path), "--format", "machine"])
    assert (code, out) == (0, "s MAXIMUM 1e+308\nv -1 0\n")
    code, out, err = run(capsys, ["oracle", str(path)])
    assert (code, out) == (3, "")
    assert "double range" in err


@pytest.mark.parametrize("name", OUT_OF_RANGE_TEXTS)
def test_log10_verify_answers_where_linear_products_leave_double_range(capsys, tmp_path,
                                                                      name):
    # the verifier tabulates in the solve's own value domain
    path = tmp_path / f"{name}.xcnf"
    path.write_text(OUT_OF_RANGE_TEXTS[name])
    argv = ["solve", "--mode", "log10", "--format", "machine", str(path)]
    code, verified, _ = run(capsys, [*argv, "--verify"])
    assert code == 0
    assert verified == run(capsys, argv)[1]
    assert verified.startswith("s MAXIMUM ")


def test_oracle_lists_no_maximizers(capsys, mixed6_file, monkeypatch):
    from xormpe.oracle import OracleResult

    def refuse(self):
        raise AssertionError("the oracle command listed every maximizer")

    monkeypatch.setattr(OracleResult, "maximizers", property(refuse))
    code, out, _ = run(capsys, ["oracle", mixed6_file])
    assert code == 0
    assert "v 1 -2 -3 -4 5 -6 0" in out.splitlines()  # min(maximizers), as before


def test_solve_human_output_counts_the_forced_literals(capsys, tmp_path):
    path = tmp_path / "units.xcnf"
    path.write_text("p cnf 3 2\n1 0\nx 1 2 3 0\n")
    code, out, _ = run(capsys, ["solve", str(path)])
    assert code == 0
    lines = out.splitlines()
    peak = next(i for i, line in enumerate(lines) if line.startswith("c peak-nodes "))
    assert lines[peak + 1] == "c forced 1"
    code, out, _ = run(capsys, ["solve", str(path), "--format", "machine"])
    assert not any(line.startswith("c ") for line in out.splitlines())


CONFLICT_TEXT = "p cnf 3 3\n1 0\n-1 2 0\nx 1 2 0\n"
FORCED_TEXT = ("p cnf 4 4\n1 0\nx 1 2 0\n2 3 0\nx 3 4 0\n"
               "w 1 0.1\nw -1 10\nw 2 10\nw -2 0.1\nw 3 0.1\nw -3 10\nw 4 10\nw -4 0.1\n")


@pytest.mark.parametrize("verify", [[], ["--verify"]])
@pytest.mark.parametrize("mode", ["linear", "log10"])
def test_solve_answers_a_propagation_conflict_and_a_forced_assignment(capsys, tmp_path,
                                                                      mode, verify):
    # units and two-literal implications force every variable of the second
    # file against its weights' preference; in the first they clash
    conflict, forced = tmp_path / "conflict.xcnf", tmp_path / "forced.xcnf"
    conflict.write_text(CONFLICT_TEXT)
    forced.write_text(FORCED_TEXT)
    argv = ["--mode", mode, *verify, "--format", "machine"]
    code, out, _ = run(capsys, ["solve", str(conflict), *argv])
    assert code == 0
    assert out.splitlines()[0] == ("s MAXIMUM 0" if mode == "linear" else "s MAXIMUM -inf")
    code, out, _ = run(capsys, ["solve", str(forced), *argv])
    assert code == 0
    assert out == ("s MAXIMUM 0.0001" if mode == "linear" else "s MAXIMUM -4") + "\nv 1 -2 3 -4 0\n"
