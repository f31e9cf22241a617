"""XOR-CNF formulas with per-literal weights, and their text format.

File format (UTF-8, line oriented; a line ends at LF, CR LF or a lone CR):

    c <comment>                 ignored
    p cnf <var_count> <clause_count>
    1 -2 0                      disjunctive clause (DIMACS)
    x 2 -4 0                    xor clause (x2 XOR not-x4)
    w <lit> <weight>            weight of a literal; a positive lit sets the
                                weight of assigning the variable 1, a negative
                                lit the weight of assigning 0

Exactly one header, before any clause. Weight lines may appear anywhere after
the header; the last occurrence of a literal wins, and unlisted literals weigh
1. Weights are nonnegative base-10 decimals; zero is allowed.

The constructors (`Literal`, `Clause`, `WeightFunction`) decide what is valid;
the parser re-raises a line's `ValueError` as a `ParseError` with its number.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping


class ParseError(Exception):
    """Malformed instance text; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _check_index(value: int, low: int = 1, what: str = "variable index") -> int:
    # a variable index's one rule; a bool is an int that would print as "True"
    if isinstance(value, int) and not isinstance(value, bool) and value >= low:
        return value
    raise ValueError(f"{what} must be an integer >= {low}, got {value!r}")


class ClauseKind(enum.Enum):
    DISJUNCTION = "or"
    XOR = "xor"


@dataclass(frozen=True, slots=True)
class Literal:
    var: int
    positive: bool

    def __post_init__(self):
        _check_index(self.var)

    def to_int(self) -> int:
        return self.var if self.positive else -self.var

    @staticmethod
    def from_int(lit: int) -> "Literal":
        if lit == 0:
            raise ValueError("literal 0 is reserved as the clause terminator")
        # -lit, not abs(lit): abs(True) is the int 1, which the check would pass
        return Literal(lit if lit > 0 else -lit, lit > 0)


@dataclass(frozen=True, slots=True)
class Clause:
    kind: ClauseKind
    literals: tuple[Literal, ...]

    def __post_init__(self):
        if not self.literals:
            raise ValueError("empty clause")
        seen = set()
        for lit in self.literals:
            if lit.var in seen:
                raise ValueError(f"duplicate variable {lit.var} in clause")
            seen.add(lit.var)

    @property
    def variables(self) -> frozenset[int]:
        return frozenset(lit.var for lit in self.literals)


@dataclass
class Formula:
    """An XOR-CNF formula over variables 1..var_count.

    A formula without clauses is legal and denotes the constant-true function
    over the declared variables. Variables declared in the header but absent
    from every clause still count as formula variables.
    """

    var_count: int
    clauses: list[Clause]

    def __post_init__(self):
        _check_index(self.var_count, 0, "variable count")
        for i, clause in enumerate(self.clauses):
            for lit in clause.literals:
                if lit.var > self.var_count:
                    raise ValueError(
                        f"clause {i}: variable {lit.var} exceeds declared count "
                        f"{self.var_count}"
                    )

    @property
    def variables(self) -> range:
        return range(1, self.var_count + 1)


def _check_weight(value: float) -> float:
    try:
        value = float(value)
    except OverflowError:  # an int beyond double range
        value = math.inf if value > 0 else -math.inf
    if 0.0 <= value < math.inf:  # a weight's one rule, wherever it enters; NaN fails it
        return value or 0.0  # -0.0 is falsy: a zero weight is +0.0
    raise ValueError(f"negative weight {value}" if value < 0 else f"infinite or NaN weight {value}")


class WeightFunction:
    """Per-variable weights for the two polarities.

    Unlisted variables weigh (1, 1); explicitly listed variables are tracked
    so printing reproduces exactly the listed set.
    """

    def __init__(self, pairs: Mapping[int, tuple[float, float]] | None = None):
        self._pairs: dict[int, tuple[float, float]] = {}
        if pairs:
            for var, (w_neg, w_pos) in pairs.items():
                self._pairs[_check_index(var)] = (_check_weight(w_neg), _check_weight(w_pos))

    def set_literal(self, lit: int, weight: float) -> None:
        """Set the weight of one literal (positive lit: the 1-polarity)."""
        if not isinstance(lit, int) or isinstance(lit, bool) or lit == 0:
            raise ValueError(f"literal {lit!r} is not a nonzero integer")
        weight = _check_weight(weight)
        var = abs(lit)
        w_neg, w_pos = self._pairs.get(var, (1.0, 1.0))
        self._pairs[var] = (w_neg, weight) if lit > 0 else (weight, w_pos)

    def pair(self, var: int) -> tuple[float, float]:
        return self._pairs.get(var, (1.0, 1.0))

    def weight(self, var: int, value: bool) -> float:
        w_neg, w_pos = self.pair(var)
        return w_pos if value else w_neg

    def listed(self) -> list[tuple[int, float, float]]:
        """Explicitly listed variables, sorted by index."""
        return [(v, *self._pairs[v]) for v in sorted(self._pairs)]

    def __eq__(self, other) -> bool:
        return isinstance(other, WeightFunction) and self._pairs == other._pairs

    def __repr__(self) -> str:
        return f"WeightFunction({self._pairs!r})"


Assignment = Mapping[int, bool]


def parse_formula(source) -> tuple[Formula, WeightFunction]:
    """Parse instance text into a formula and its weight function.

    Accepts a str, bytes, or a file-like object. Raises ParseError, with the
    line number when the fault is on one line, on malformed input. Undecodable
    text gets a line number from bytes or a binary handle, not a text handle.
    The clauses share one `Literal` object per distinct literal.
    """
    if hasattr(source, "read"):
        try:
            source = source.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not {exc.encoding} text") from exc
    if isinstance(source, (bytes, bytearray)):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            # a sentinel stands in for the first bad byte; its line is the last
            # (bytes.splitlines, unlike str's, breaks at LF, CR LF and CR only)
            line = len((source[:exc.start] + b"?").splitlines())
            raise ParseError("not UTF-8 text", line) from exc

    var_count: int | None = None
    declared_clauses = 0
    clauses: list[Clause] = []
    weights = WeightFunction()
    literals: dict[int, Literal] = {}

    # str.splitlines would also break at form feeds, U+0085, U+2028 and others
    lines = source.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens or tokens[0] == "c":
            continue
        try:
            if tokens[0] == "p":
                if var_count is not None:
                    raise ValueError("duplicate 'p cnf' header")
                if len(tokens) != 4 or tokens[1] != "cnf":
                    raise ValueError(f"malformed header {raw!r}")
                var_count = _number(int, tokens[2])
                declared_clauses = _number(int, tokens[3])
                if var_count < 0 or declared_clauses < 0:
                    raise ValueError("malformed header: negative count")
            elif var_count is None:
                raise ValueError("clause or weight line before 'p cnf' header")
            elif tokens[0] == "w":
                _parse_weight_line(tokens, weights, var_count)
            else:
                clauses.append(_parse_clause_line(tokens, var_count, literals))
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc

    if var_count is None:
        raise ParseError("missing 'p cnf' header")
    if len(clauses) != declared_clauses:
        raise ParseError(
            f"header declares {declared_clauses} clauses, found {len(clauses)}"
        )
    return Formula(var_count, clauses), weights


def _number(parse, token: str):
    # int and float also take "1_0" and non-ASCII digits such as "\u0663"
    if token.isascii() and "_" not in token:
        try:
            return parse(token)
        except ValueError:
            pass
    raise ValueError(f"non-numeric token {token!r}")


def _literal(token: str, var_count: int) -> int:
    lit = _number(int, token)
    if abs(lit) > var_count:
        raise ValueError(f"literal {lit} out of range")
    return lit


def _parse_weight_line(tokens, weights, var_count):
    if len(tokens) < 3:
        raise ValueError("malformed weight line")
    lit, weight = _literal(tokens[1], var_count), _number(float, tokens[2])
    if weight == 0.0 and any(c in "123456789" for c in tokens[2].lower().partition("e")[0]):
        raise ValueError(f"weight {tokens[2]!r} is nonzero but reads as 0.0 below double range")
    weights.set_literal(lit, weight)
    if tokens[3:] not in ([], ["0"]):
        raise ValueError("malformed weight line")


def _parse_clause_line(tokens, var_count, literals: dict[int, Literal]) -> Clause:
    kind = ClauseKind.XOR if tokens[0] == "x" else ClauseKind.DISJUNCTION
    if kind is ClauseKind.XOR:
        tokens = tokens[1:]
    if not tokens or tokens[-1] != "0":
        raise ValueError("clause not terminated by 0")
    clause = []
    for token in tokens[:-1]:
        lit = _literal(token, var_count)
        shared = literals.get(lit)
        if shared is None:
            shared = literals[lit] = Literal.from_int(lit)
        clause.append(shared)
    return Clause(kind, tuple(clause))


def format_formula(formula: Formula, weights: WeightFunction) -> str:
    """Print an instance; clauses in input order, weights sorted by variable
    then polarity (negative first). Reparsing yields an equal instance, so
    a weight on a variable the formula does not declare raises ValueError."""
    lines = [f"p cnf {formula.var_count} {len(formula.clauses)}"]
    for clause in formula.clauses:
        body = " ".join(str(lit.to_int()) for lit in clause.literals)
        prefix = "x " if clause.kind is ClauseKind.XOR else ""
        lines.append(f"{prefix}{body} 0")
    for var, w_neg, w_pos in weights.listed():
        if var > formula.var_count:
            raise ValueError(f"weight on variable {var} beyond {formula.var_count} variables")
        lines.append(f"w {-var} {w_neg!r}")
        lines.append(f"w {var} {w_pos!r}")
    return "\n".join(lines) + "\n"


def evaluate_clause(clause: Clause, assignment: Assignment) -> bool:
    """Truth value of one clause; raises KeyError on an unbound variable."""
    if clause.kind is ClauseKind.DISJUNCTION:
        for lit in clause.literals:
            if assignment[lit.var] == lit.positive:
                return True
        return False
    odd = False
    for lit in clause.literals:
        odd ^= assignment[lit.var] == lit.positive
    return odd


def evaluate_formula(formula: Formula, assignment: Assignment) -> bool:
    return all(evaluate_clause(c, assignment) for c in formula.clauses)


def evaluate_weight(weights: WeightFunction, assignment: Assignment) -> float:
    """Product of the chosen-polarity weights over all assigned variables,
    kept as a mantissa and a binary exponent (`math.frexp`), so no partial
    product leaves double range: where none would, it equals the running
    product bit for bit; a product beyond range is inf or rounds to 0.0."""
    mantissa, exponent = 1.0, 0
    for var in sorted(assignment):
        m, e = math.frexp(weights.weight(var, assignment[var]))
        mantissa, shift = math.frexp(mantissa * m)
        exponent += e + shift
    try:
        return math.ldexp(mantissa, exponent)
    except OverflowError:
        return math.inf
