"""Command-line interface.

Subcommands: solve, plan, gen (chain | random), oracle, export-wcnf. Exit
codes: 0 success, 1 internal invariant failure, 2 usage or I/O error, 3
resource guard exceeded (for solve, also a linear-mode value that overflows
or underflows double range).

Successful solve and oracle runs print a stable machine grammar: exactly one
`s MAXIMUM <value>` line and one `v <literals> 0` line; the human format adds
`c`-prefixed detail lines in front.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import benchgen, executor, oracle, planner, wcnf
from .errors import GuardError, InternalError
from .formula import ParseError, format_formula, parse_formula


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xormpe",
        description="Exact maximum-weight assignment and weighted model "
                    "counting for XOR-CNF instances.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_heuristic(p):
        p.add_argument("--plan-heuristic", default="min-fill",
                       choices=[h.value for h in planner.Heuristic],
                       help="elimination-order heuristic (default: min-fill)")

    p_solve = sub.add_parser("solve", help="compute the maximum and a maximizer")
    p_solve.add_argument("input", help="instance file")
    add_heuristic(p_solve)
    p_solve.add_argument("--mode", default="linear", choices=["linear", "log10"],
                         help="value domain; log10 keeps huge products finite")
    p_solve.add_argument("--format", default="human", choices=["human", "machine"])
    p_solve.add_argument("--verify", action="store_true",
                         help="run the enumeration-backed checkpoint suite first "
                              "(small instances only)")
    p_solve.add_argument("--dot", metavar="PATH",
                         help="write the largest intermediate diagram as Graphviz dot")

    p_plan = sub.add_parser("plan", help="build and print a project-join tree")
    p_plan.add_argument("input", help="instance file")
    add_heuristic(p_plan)
    p_plan.add_argument("--out", metavar="PATH", help="write the tree here")

    p_gen = sub.add_parser("gen", help="generate a random instance")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)
    p_chain = gen_sub.add_parser("chain", help="sliding-window instance")
    p_chain.add_argument("--n", type=int, required=True)
    p_chain.add_argument("--k", type=int, required=True)
    p_chain.add_argument("--seed", type=int, default=0)
    p_chain.add_argument("--out", metavar="PATH")
    p_chain.add_argument("--require-sat", action="store_true",
                         help="advance the seed until the instance is satisfiable")
    p_random = gen_sub.add_parser("random", help="uniform random clauses")
    p_random.add_argument("--n", type=int, required=True)
    p_random.add_argument("--m", type=int, required=True)
    p_random.add_argument("--max-len", type=int, required=True)
    p_random.add_argument("--xor-prob", type=float, default=0.5)
    p_random.add_argument("--seed", type=int, default=0)
    p_random.add_argument("--out", metavar="PATH")
    p_random.add_argument("--require-sat", action="store_true")

    p_oracle = sub.add_parser("oracle",
                              help="exhaustive-enumeration reference answer")
    p_oracle.add_argument("input", help="instance file")
    p_oracle.add_argument("--format", default="human", choices=["human", "machine"])

    p_export = sub.add_parser("export-wcnf",
                              help="reduce to weighted partial MaxSAT")
    p_export.add_argument("input", help="instance file")
    p_export.add_argument("--wcnf-scale", type=int, default=wcnf.DEFAULT_SCALE,
                          help="integer scale for log soft weights")
    p_export.add_argument("--out", metavar="PATH")
    return parser


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read_instance(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror or exc}", 2) from exc
    return parse_formula(text)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _emit_answer(maximum: float, literals: list[int]) -> None:
    print(f"s MAXIMUM {_fmt(maximum)}")
    print("v " + " ".join(str(l) for l in literals) + " 0")


def cmd_solve(args) -> int:
    formula, weights = _read_instance(args.input)
    heuristic = planner.Heuristic(args.plan_heuristic)
    plan_start = time.perf_counter()
    order = planner.heuristic_order(formula, heuristic)
    tree = planner.plan(formula, order)
    plan_time = time.perf_counter() - plan_start

    if args.verify:
        failure = executor.verify_checkpoints(formula, weights, tree)
        if failure is not None:
            return _fail(f"checkpoint {failure.checkpoint} failed: {failure.message}", 1)

    result = executor.solve(formula, weights, tree, mode=args.mode,
                            want_dot=bool(args.dot))

    if args.dot:
        dot = result.stats.largest_dot or "digraph add {\n}\n"
        Path(args.dot).write_text(dot, encoding="utf-8")

    if args.format == "human":
        print(f"c width {result.stats.width}")
        print(f"c peak-nodes {result.stats.peak_nodes}")
        print(f"c plan-seconds {plan_time:.3f}")
        print(f"c exec-seconds {result.stats.exec_seconds:.3f}")
        print(f"c mode {result.mode}")
        if result.no_model:
            print("c no model attains nonzero weight")
    _emit_answer(result.maximum, result.maximizer_literals())
    return 0


def cmd_plan(args) -> int:
    formula, _ = _read_instance(args.input)
    heuristic = planner.Heuristic(args.plan_heuristic)
    order = planner.heuristic_order(formula, heuristic)
    tree = planner.plan(formula, order)
    violation = planner.validate(tree, formula)
    if violation is not None:
        raise InternalError(f"planned tree is invalid: {violation.message}")
    text = tree.to_jt_text()
    print(f"c width {tree.width()}")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_gen(args) -> int:
    attempts = 1000 if args.require_sat else 1
    seed = args.seed
    for attempt in range(attempts):
        if args.family == "chain":
            spec = benchgen.ChainSpec(args.n, args.k, seed + attempt)
            formula, weights = benchgen.gen_chain(spec)
            default_name = benchgen.chain_filename(spec)
        else:
            formula, weights = benchgen.gen_random(
                args.n, args.m, args.max_len, args.xor_prob, seed + attempt)
            default_name = f"rand_n{args.n}_m{args.m}_s{seed + attempt}.xcnf"
        if not args.require_sat or _is_satisfiable(formula, weights):
            path = Path(args.out) if args.out else Path(default_name)
            path.write_text(format_formula(formula, weights), encoding="utf-8")
            print(f"c wrote {path}")
            return 0
    raise GuardError(f"no satisfiable instance found in {attempts} seeds from {seed}")


def _is_satisfiable(formula, weights) -> bool:
    order = planner.heuristic_order(formula, planner.Heuristic.MIN_FILL)
    tree = planner.plan(formula, order)
    result = executor.solve(formula, weights, tree, mode="log10")
    return not result.no_model


def cmd_oracle(args) -> int:
    formula, weights = _read_instance(args.input)
    answer = oracle.brute_solve(formula, weights)
    print(f"c WMC {_fmt(answer.wmc)}")
    witness = min(answer.maximizers) if formula.var_count else ()
    _emit_answer(answer.maximum, list(witness))
    return 0


def cmd_export_wcnf(args) -> int:
    formula, weights = _read_instance(args.input)
    export = wcnf.export_wcnf(formula, weights, scale=args.wcnf_scale)
    text = wcnf.format_wcnf(export)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"c wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "plan": cmd_plan,
    "gen": cmd_gen,
    "oracle": cmd_oracle,
    "export-wcnf": cmd_export_wcnf,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _CliError as exc:
        return _fail(str(exc), exc.code)
    except ParseError as exc:
        return _fail(str(exc), 2)
    except wcnf.ExportError as exc:
        return _fail(str(exc), 2)
    except OSError as exc:
        return _fail(str(exc), 2)
    except GuardError as exc:
        return _fail(str(exc), 3)
    except InternalError as exc:
        return _fail(str(exc), 1)


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
