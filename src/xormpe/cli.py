"""Command-line interface.

Subcommands: solve, plan, gen (chain | random), oracle, export-wcnf. Exit
codes: 0 success, 1 internal invariant failure, 2 usage, I/O or input error
(including a file that is not UTF-8), 3 resource guard exceeded (for solve
and oracle, also a linear-mode value out of double range).

Successful solve and oracle runs print a stable machine grammar: exactly one
`s MAXIMUM <value>` line and one `v <literals> 0` line; the human format adds
`c`-prefixed detail lines in front.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import benchgen, executor, planner, wcnf
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
                         help="first rerun the solve, checking each tree node's step "
                              "on a dense table (trees of width 20 at most)")
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
    """A usage or I/O error; exit 2."""


def _read_instance(path: str):
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror or exc}") from exc
    return parse_formula(data)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _emit_answer(fmt: str, details: list[str], maximum: float, literals: list[int]) -> None:
    if fmt == "human":
        for detail in details:
            print(f"c {detail}")
    print(f"s MAXIMUM {_fmt(maximum)}")
    print(" ".join(["v", *map(str, literals), "0"]))


class _LargestDiagram(executor.Observer):
    """Keeps the first largest diagram of a solve, for --dot: every leaf,
    join and projection reaches `exit`, `child_joined` or `projected`, and
    the root always reaches `exit`, so a diagram is always kept."""

    largest = None
    _size = 0

    def _keep(self, f) -> None:
        size = self.manager.size(f)
        if size > self._size:
            self._size, self.largest = size, f

    def child_joined(self, node, h, previous, joined) -> None:
        self._keep(joined)

    def projected(self, node, var, h, previous, result, sign) -> None:
        self._keep(result)

    def exit(self, node, f) -> None:
        self._keep(f)


def _plan(formula, heuristic):
    """A tree planned by `heuristic`, the recursion limit raised to fit it (never
    lowered): kernels recurse a frame per variable of a node, and this is our process."""
    tree = planner.plan(formula, planner.heuristic_order(formula, heuristic))
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 2 * tree.width() + 200))
    return tree


def cmd_solve(args) -> int:
    formula, weights = _read_instance(args.input)
    plan_start = time.perf_counter()
    tree = _plan(formula, args.plan_heuristic)
    plan_time = time.perf_counter() - plan_start

    if args.verify:
        from .oracle import verify_checkpoints  # loads numpy
        failure = verify_checkpoints(formula, weights, tree, mode=args.mode)
        if failure is not None:
            return _fail(f"checkpoint {failure.checkpoint} failed: {failure.message}", 1)

    observer = _LargestDiagram() if args.dot else None
    result = executor.solve(formula, weights, tree, mode=args.mode, observer=observer)

    if args.dot:
        Path(args.dot).write_text(observer.manager.to_dot(observer.largest),
                                  encoding="utf-8")

    stats = result.stats
    details = [f"width {stats.width}", f"peak-nodes {stats.peak_nodes}", f"forced {stats.forced}",
               f"plan-seconds {plan_time:.3f}", f"exec-seconds {stats.exec_seconds:.3f}",
               f"mode {result.mode}"]
    if result.no_model:
        details.append("no model attains nonzero weight")
    _emit_answer(args.format, details, result.maximum, result.maximizer_literals())
    return 0


def cmd_plan(args) -> int:
    formula, _ = _read_instance(args.input)
    order = planner.heuristic_order(formula, args.plan_heuristic)
    tree = planner.plan(formula, order)
    violation = planner.validate(tree, formula)
    if violation is not None:
        raise InternalError(f"planned tree is invalid: {violation.message}")
    text, width = tree.to_jt_text(), f"c width {tree.width()}\n"
    if args.out:  # the file first, as every writer does: no report of a failed write
        Path(args.out).write_text(text, encoding="utf-8")
        sys.stdout.write(width)
    else:
        sys.stdout.write(width + text)
    return 0


def cmd_gen(args) -> int:
    attempts = 1000 if args.require_sat else 1
    seed = args.seed
    for attempt in range(attempts):
        try:
            if args.family == "chain":
                spec = benchgen.ChainSpec(args.n, args.k, seed + attempt)
                formula, weights = benchgen.gen_chain(spec)
                default_name = benchgen.chain_filename(spec)
            else:
                formula, weights = benchgen.gen_random(
                    args.n, args.m, args.max_len, args.xor_prob, seed + attempt)
                default_name = f"rand_n{args.n}_m{args.m}_s{seed + attempt}.xcnf"
        except ValueError as exc:  # arguments out of the generator's range
            raise _CliError(str(exc)) from exc
        if not args.require_sat or _is_satisfiable(formula, weights):
            path = Path(args.out) if args.out else Path(default_name)
            path.write_text(format_formula(formula, weights), encoding="utf-8")
            print(f"c wrote {path}")
            return 0
    raise GuardError(f"no satisfiable instance found in {attempts} seeds from {seed}")


def _is_satisfiable(formula, weights) -> bool:
    tree = _plan(formula, planner.Heuristic.MIN_FILL)
    result = executor.solve(formula, weights, tree, mode="log10")
    return not result.no_model


def cmd_oracle(args) -> int:
    from .oracle import brute_solve  # loads numpy
    formula, weights = _read_instance(args.input)
    answer = brute_solve(formula, weights)
    details = [f"WMC {_fmt(answer.wmc)}"] if args.format == "human" else []
    _emit_answer(args.format, details, answer.maximum, list(answer.witness()))
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
    except (_CliError, ParseError, wcnf.ExportError, OSError) as exc:
        return _fail(str(exc), 2)
    except GuardError as exc:
        return _fail(str(exc), 3)
    except InternalError as exc:
        return _fail(str(exc), 1)


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
