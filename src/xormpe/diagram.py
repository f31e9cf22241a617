"""Reduced ordered algebraic decision diagrams over real terminals.

One manager owns every node it creates. Nodes are deduplicated through a
unique table and the low==high reduction rule, so within a single manager two
functions are pointwise equal exactly when they share a root node id.
Terminals are deduplicated by exact bit equality; no epsilon merging.

The manager has two value domains:

  * linear: join multiplies terminals, the algebra unit is 1 and zero is 0;
  * log10:  terminals hold log10 of the linear values, join adds them, the
            unit is 0.0 and zero is -inf. Additive operations (pointwise sum)
            are unavailable in this domain.

The variable order is fixed at construction; there is no dynamic reordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .formula import Assignment, Clause, ClauseKind

_NEG_INF = float("-inf")


class Function:
    """Handle to one diagram node, viewed as a pseudo-Boolean function."""

    __slots__ = ("manager", "node")

    def __init__(self, manager: "DiagramManager", node: int):
        self.manager = manager
        self.node = node

    @property
    def support(self) -> frozenset[int]:
        """Variables appearing on some root-to-terminal path."""
        return self.manager.support(self)

    def is_constant(self) -> bool:
        return self.manager.is_terminal(self.node)

    def constant_value(self) -> float:
        return self.manager.evaluate(self, {})

    def evaluate(self, assignment: Assignment) -> float:
        return self.manager.evaluate(self, assignment)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Function)
            and self.manager is other.manager
            and self.node == other.node
        )

    def __hash__(self) -> int:
        return hash((id(self.manager), self.node))

    def __repr__(self) -> str:
        if self.is_constant():
            return f"Function({self.constant_value()!r})"
        return f"Function(node={self.node}, support={sorted(self.support)})"


@dataclass(frozen=True)
class DerivativeSign:
    """Which polarity of a variable maximizes a function, per co-assignment.

    The condition is a 0/1-valued diagram over the rest of the function's
    variables: 1 where assigning the variable 1 is at least as good as 0.
    """

    var: int
    condition: Function

    def choose(self, assignment: Assignment) -> bool:
        return self.condition.evaluate(assignment) == 1.0


class DiagramManager:
    """Shared node store, unique table, and operation cache for one solve.

    Not thread-safe; confine a manager and its functions to one thread. The
    operation cache is unbounded and lives as long as the manager.
    """

    def __init__(self, var_order: Sequence[int], log_mode: bool = False):
        order = [int(v) for v in var_order]
        if len(set(order)) != len(order) or any(v < 1 for v in order):
            raise ValueError("variable order must be a permutation of positive indices")
        self._order = order
        self._level_of = {v: i for i, v in enumerate(order)}
        self._terminal_level = len(order)
        self.log_mode = log_mode

        # parallel node arrays; terminals have level == _terminal_level
        self._level: list[int] = []
        self._low: list[int] = []
        self._high: list[int] = []
        self._value: list[float | None] = []

        self._unique: dict[tuple[int, int, int], int] = {}
        self._terminals: dict[float, int] = {}
        self._cache: dict[tuple, int] = {}
        self._support_cache: dict[int, frozenset[int]] = {}

        self._one = self._terminal(0.0 if log_mode else 1.0)
        self._zero = self._terminal(_NEG_INF if log_mode else 0.0)

    # ------------------------------------------------------------------ nodes

    @property
    def var_order(self) -> list[int]:
        return list(self._order)

    def is_terminal(self, node: int) -> bool:
        return self._level[node] == self._terminal_level

    def _terminal(self, value: float) -> int:
        node = self._terminals.get(value)
        if node is None:
            node = len(self._level)
            self._level.append(self._terminal_level)
            self._low.append(-1)
            self._high.append(-1)
            self._value.append(value)
            self._terminals[value] = node
        return node

    def _mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        node = self._unique.get(key)
        if node is None:
            node = len(self._level)
            self._level.append(level)
            self._low.append(low)
            self._high.append(high)
            self._value.append(None)
            self._unique[key] = node
        return node

    def _wrap(self, node: int) -> Function:
        return Function(self, node)

    def _root(self, f: Function) -> int:
        if f.manager is not self:
            raise ValueError("function belongs to a different manager")
        return f.node

    # ------------------------------------------------------------ constructors

    def constant(self, value: float) -> Function:
        """Terminal with the given raw value (in the manager's value domain)."""
        return self._wrap(self._terminal(float(value)))

    def one(self) -> Function:
        """Unit of the join algebra (1 linear, 0.0 in log10)."""
        return self._wrap(self._one)

    def zero(self) -> Function:
        """Annihilator of the join algebra (0 linear, -inf in log10)."""
        return self._wrap(self._zero)

    def literal_weight(self, var: int, w_neg: float, w_pos: float) -> Function:
        """Single-variable weight function; takes linear-domain weights."""
        if w_neg < 0 or w_pos < 0:
            raise ValueError(f"negative weight for variable {var}")
        if self.log_mode:
            w_neg = math.log10(w_neg) if w_neg > 0 else _NEG_INF
            w_pos = math.log10(w_pos) if w_pos > 0 else _NEG_INF
        level = self._level_of[var]
        return self._wrap(self._mk(level, self._terminal(float(w_neg)), self._terminal(float(w_pos))))

    def from_clause(self, clause: Clause) -> Function:
        """0/1 indicator of the clause (also in log10 mode: -inf/0)."""
        true_t, false_t = self._one, self._zero
        by_depth = sorted(clause.literals, key=lambda lit: self._level_of[lit.var])
        if clause.kind is ClauseKind.DISJUNCTION:
            node = false_t
            for lit in reversed(by_depth):
                level = self._level_of[lit.var]
                if lit.positive:
                    node = self._mk(level, node, true_t)
                else:
                    node = self._mk(level, true_t, node)
            return self._wrap(node)
        # xor: track both parities of the suffix, deepest literal first
        even, odd = false_t, true_t
        for lit in reversed(by_depth):
            level = self._level_of[lit.var]
            if lit.positive:
                even, odd = self._mk(level, even, odd), self._mk(level, odd, even)
            else:
                even, odd = self._mk(level, odd, even), self._mk(level, even, odd)
        return self._wrap(even)

    # ------------------------------------------------------------ combinators

    def _apply(self, tag, fn, a, b, commutative, identity=None, annihilator=None,
               idempotent=False):
        cache = self._cache
        level, low, high, value = self._level, self._low, self._high, self._value
        terminal_level = self._terminal_level
        mk = self._mk
        terminal = self._terminal

        def rec(u: int, v: int) -> int:
            if identity is not None:
                if u == identity:
                    return v
                if v == identity:
                    return u
            if annihilator is not None and (u == annihilator or v == annihilator):
                return annihilator
            if idempotent and u == v:
                return u
            if commutative and u > v:
                u, v = v, u
            key = (tag, u, v)
            result = cache.get(key)
            if result is not None:
                return result
            lu, lv = level[u], level[v]
            if lu == terminal_level and lv == terminal_level:
                result = terminal(fn(value[u], value[v]))
            else:
                top = lu if lu < lv else lv
                if lu == top:
                    u0, u1 = low[u], high[u]
                else:
                    u0 = u1 = u
                if lv == top:
                    v0, v1 = low[v], high[v]
                else:
                    v0 = v1 = v
                result = mk(top, rec(u0, v0), rec(u1, v1))
            cache[key] = result
            return result

        return rec(a, b)

    def join(self, f: Function, g: Function) -> Function:
        """Pointwise product (sum of logs in log10 mode)."""
        a, b = self._root(f), self._root(g)
        if self.log_mode:
            node = self._apply("j", lambda x, y: x + y, a, b, True,
                               identity=self._one, annihilator=self._zero)
        else:
            node = self._apply("j", lambda x, y: x * y, a, b, True,
                               identity=self._one, annihilator=self._zero)
        return self._wrap(node)

    def additive_join(self, f: Function, g: Function) -> Function:
        """Pointwise sum; linear domain only."""
        return self._wrap(self._plus(self._root(f), self._root(g)))

    def _max(self, a: int, b: int) -> int:
        return self._apply("m", max, a, b, True, idempotent=True)

    def _plus(self, a: int, b: int) -> int:
        if self.log_mode:
            raise ValueError("additive operations are unavailable in log10 mode")
        return self._apply("a", lambda x, y: x + y, a, b, True, identity=self._zero)

    def restrict(self, f: Function, var: int, value: bool) -> Function:
        """Cofactor of f with var fixed; f itself if var is out of support."""
        root = self._root(f)
        xlev = self._level_of[var]
        return self._wrap(self._restrict_rec(root, xlev, bool(value)))

    def _restrict_rec(self, u: int, xlev: int, b: bool) -> int:
        level, low, high = self._level, self._low, self._high
        cache = self._cache
        mk = self._mk

        def rec(node: int) -> int:
            l = level[node]
            if l > xlev:
                return node
            if l == xlev:
                return high[node] if b else low[node]
            key = ("r", node, xlev, b)
            result = cache.get(key)
            if result is None:
                result = mk(l, rec(low[node]), rec(high[node]))
                cache[key] = result
            return result

        return rec(u)

    def _project(self, u: int, xlev: int, combine) -> int:
        level, low, high = self._level, self._low, self._high
        cache = self._cache
        mk = self._mk
        tag = combine.__name__

        def rec(node: int) -> int:
            l = level[node]
            if l > xlev:
                # the variable is absent below this point, but both cofactors
                # still exist and are equal: max keeps the node, sum doubles it
                return combine(node, node)
            if l == xlev:
                return combine(low[node], high[node])
            key = ("p", tag, node, xlev)
            result = cache.get(key)
            if result is None:
                result = mk(l, rec(low[node]), rec(high[node]))
                cache[key] = result
            return result

        return rec(u)

    def exists_project(self, f: Function, var: int) -> Function:
        """Pointwise max of the two cofactors; removes var from the support."""
        return self._wrap(self._project(self._root(f), self._level_of[var], self._max))

    def add_project(self, f: Function, var: int) -> Function:
        """Pointwise sum of the two cofactors; linear domain only."""
        return self._wrap(self._project(self._root(f), self._level_of[var], self._plus))

    def exists_project_all(self, f: Function, variables: Iterable[int]) -> Function:
        for var in sorted(variables, key=lambda v: -self._level_of[v]):
            f = self.exists_project(f, var)
        return f

    def add_project_all(self, f: Function, variables: Iterable[int]) -> Function:
        for var in sorted(variables, key=lambda v: -self._level_of[v]):
            f = self.add_project(f, var)
        return f

    def derivative_sign(self, f: Function, var: int) -> DerivativeSign:
        """Record where assigning var 1 beats assigning it 0.

        A tie counts as a win for the 1 branch so maximizers are reproducible.
        """
        root = self._root(f)
        xlev = self._level_of[var]
        hi = self._restrict_rec(root, xlev, True)
        lo = self._restrict_rec(root, xlev, False)
        node = self._apply("ge", lambda x, y: 1.0 if x >= y else 0.0, hi, lo, False)
        return DerivativeSign(var, self._wrap(node))

    # ------------------------------------------------------------- inspection

    def evaluate(self, f: Function, assignment: Assignment) -> float:
        """Follow one root-to-terminal path; every support variable must be bound."""
        node = self._root(f)
        level, low, high = self._level, self._low, self._high
        order = self._order
        terminal_level = self._terminal_level
        while level[node] != terminal_level:
            var = order[level[node]]
            try:
                bound = assignment[var]
            except KeyError:
                raise KeyError(f"variable {var} unbound during evaluation") from None
            node = high[node] if bound else low[node]
        return self._value[node]

    def support(self, f: Function) -> frozenset[int]:
        root = self._root(f)
        cached = self._support_cache.get(root)
        if cached is not None:
            return cached
        seen: set[int] = set()
        levels: set[int] = set()
        stack = [root]
        while stack:
            node = stack.pop()
            if node in seen or self.is_terminal(node):
                continue
            seen.add(node)
            levels.add(self._level[node])
            stack.append(self._low[node])
            stack.append(self._high[node])
        result = frozenset(self._order[l] for l in levels)
        self._support_cache[root] = result
        return result

    def size(self, f: Function) -> int:
        """Number of distinct nodes (terminals included) reachable from f."""
        seen = {self._root(f)}
        stack = [self._root(f)]
        while stack:
            node = stack.pop()
            if self.is_terminal(node):
                continue
            for child in (self._low[node], self._high[node]):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return len(seen)

    def node_count(self) -> int:
        return len(self._level)

    def to_dot(self, f: Function, name: str = "add") -> str:
        """Graphviz text; solid edge = variable assigned 1, dashed = 0."""
        root = self._root(f)
        lines = [f"digraph {name} {{"]
        seen = set()
        stack = [root]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if self.is_terminal(node):
                lines.append(f'  n{node} [shape=box, label="{self._value[node]:.6g}"];')
                continue
            var = self._order[self._level[node]]
            lines.append(f'  n{node} [shape=oval, label="x{var}"];')
            lines.append(f"  n{node} -> n{self._high[node]} [style=solid];")
            lines.append(f"  n{node} -> n{self._low[node]} [style=dashed];")
            stack.append(self._low[node])
            stack.append(self._high[node])
        lines.append("}")
        return "\n".join(lines) + "\n"
