import os
import subprocess
import sys
from pathlib import Path

import pytest

import xormpe
from xormpe.benchgen import ChainSpec, gen_chain
from xormpe.cli import main
from xormpe.formula import format_formula, parse_formula

from conftest import MIXED6_TEXT

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


def test_solve_verify_respects_limit(capsys, tmp_path):
    lines = ["p cnf 17 1", "1 0"]
    path = tmp_path / "big.xcnf"
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, ["solve", str(path), "--verify"])
    assert code == 3
    assert "verification limit" in err


def test_solve_dot_export(capsys, tmp_path, mixed6_file):
    dot_path = tmp_path / "diagram.dot"
    code, _, _ = run(capsys, ["solve", mixed6_file, "--dot", str(dot_path)])
    assert code == 0
    assert dot_path.read_text().startswith("digraph")


def test_plan_reports_width(capsys, mixed6_file, tmp_path):
    out_path = tmp_path / "tree.jt"
    code, out, _ = run(capsys, ["plan", mixed6_file, "--plan-heuristic", "min-degree",
                                "--out", str(out_path)])
    assert code == 0
    assert out.splitlines()[0].startswith("c width ")
    text = out_path.read_text()
    assert text.startswith("p jt 6 5 ")


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
def test_module_form_runs_the_cli(tmp_path, module):
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


def test_gen_chain_require_sat(capsys, tmp_path):
    out_path = tmp_path / "sat.xcnf"
    code, out, _ = run(capsys, ["gen", "chain", "--n", "12", "--k", "3",
                                "--seed", "0", "--require-sat",
                                "--out", str(out_path)])
    assert code == 0
    formula, weights = parse_formula(out_path.read_text())
    from xormpe.oracle import brute_solve
    assert brute_solve(formula, weights).maximum > 0


def test_gen_random(capsys, tmp_path):
    out_path = tmp_path / "rand.xcnf"
    code, _, _ = run(capsys, ["gen", "random", "--n", "6", "--m", "8",
                              "--max-len", "3", "--xor-prob", "0.5",
                              "--seed", "1", "--out", str(out_path)])
    assert code == 0
    formula, _ = parse_formula(out_path.read_text())
    assert formula.var_count == 6
    assert len(formula.clauses) == 8


def test_oracle_output(capsys, unit_file):
    code, out, _ = run(capsys, ["oracle", unit_file])
    assert code == 0
    lines = out.splitlines()
    assert "c WMC 100" in lines
    assert "s MAXIMUM 100" in lines
    assert "v 1 0" in lines
    assert sum(l.startswith("s ") for l in lines) == 1
    assert sum(l.startswith("v ") for l in lines) == 1


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
