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

Three pointwise kernels, built once per manager, combine two diagrams:
join, max and sum. `_project` eliminates one variable by combining its two
cofactors with the max or the sum kernel. `size` and `to_dot` share one
reachability walk, `_reachable`.

The variable order is fixed at construction; there is no dynamic reordering.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import ChainMap
from dataclasses import dataclass
from typing import Sequence

from .errors import GuardError
from .formula import Assignment, Clause, ClauseKind

_NEG_INF = float("-inf")


def _times(x: float, y: float) -> float:
    """Linear product of two terminals. Two nonzero values whose product is
    zero or subnormal have lost their value, so that raises GuardError."""
    product = x * y
    if product < sys.float_info.min and x and y:
        raise GuardError(f"linear-mode product {x!r} * {y!r} underflows double range; "
                         "use --mode log10, which keeps weight products representable")
    return product


class Function:
    """Handle to one diagram node, viewed as a pseudo-Boolean function."""

    __slots__ = ("manager", "node")

    def __init__(self, manager: "DiagramManager", node: int):
        self.manager = manager
        self.node = node

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
        return f"Function(node={self.node})"


@dataclass(frozen=True)
class DerivativeSign:
    """Which polarity of a variable maximizes a function, per co-assignment.

    `function` is the weighted product the sign was taken on; `choose` compares
    its two completions at one co-assignment and picks 1 on a tie.
    """

    var: int
    function: Function

    def choose(self, assignment: Assignment) -> bool:
        # a copy of the assignment per sign would make reconstruction quadratic
        high = self.function.evaluate(ChainMap({self.var: True}, assignment))
        low = self.function.evaluate(ChainMap({self.var: False}, assignment))
        return high >= low


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

        self._one = self._terminal(0.0 if log_mode else 1.0)
        self._zero = self._terminal(_NEG_INF if log_mode else 0.0)

        self._join = self._kernel("j", operator.add if log_mode else _times,
                                  identity=self._one, annihilator=self._zero)
        self._max = self._kernel("m", max, idempotent=True)
        self._sum = self._kernel("a", operator.add, identity=self._zero)

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

    def _kernel(self, tag, fn, identity=None, annihilator=None, idempotent=False):
        """Pointwise fn of two diagrams, as a recursive function of two nodes."""
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
            if u > v:  # every fn is commutative, so one cache key serves both orders
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

        return rec

    def join(self, f: Function, g: Function) -> Function:
        """Pointwise product (sum of logs in log10 mode); a linear product of
        nonzero values that underflows raises GuardError."""
        return self._wrap(self._join(self._root(f), self._root(g)))

    def _project(self, u: int, xlev: int, combine) -> int:
        level, low, high = self._level, self._low, self._high
        cache = self._cache
        mk = self._mk

        def rec(node: int) -> int:
            l = level[node]
            if l > xlev:
                # the variable is absent below this point, but both cofactors
                # still exist and are equal: max keeps the node, sum doubles it
                return combine(node, node)
            if l == xlev:
                return combine(low[node], high[node])
            # keyed by the kernel itself: every kernel is a closure named rec
            key = (combine, node, xlev)
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
        if self.log_mode:
            raise ValueError("additive operations are unavailable in log10 mode")
        return self._wrap(self._project(self._root(f), self._level_of[var], self._sum))

    def derivative_sign(self, f: Function, var: int) -> DerivativeSign:
        """Record where assigning var 1 beats assigning it 0.

        A tie counts as a win for the 1 branch so maximizers are reproducible.
        """
        self._root(f)  # a function of another manager raises ValueError
        return DerivativeSign(var, f)

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

    def _reachable(self, root: int) -> set[int]:
        """Every node (terminals included) reachable from root."""
        level, low, high = self._level, self._low, self._high
        terminal_level = self._terminal_level
        seen = {root}
        stack = [root]
        while stack:
            node = stack.pop()
            if level[node] == terminal_level:
                continue
            for child in (low[node], high[node]):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return seen

    def size(self, f: Function) -> int:
        """Number of distinct nodes (terminals included) reachable from f."""
        return len(self._reachable(self._root(f)))

    def node_count(self) -> int:
        return len(self._level)

    def to_dot(self, f: Function, name: str = "add") -> str:
        """Graphviz text, nodes by ascending id; solid edge = variable assigned
        1, dashed = 0."""
        lines = [f"digraph {name} {{"]
        for node in sorted(self._reachable(self._root(f))):
            if self.is_terminal(node):
                lines.append(f'  n{node} [shape=box, label="{self._value[node]:.6g}"];')
                continue
            var = self._order[self._level[node]]
            lines.append(f'  n{node} [shape=oval, label="x{var}"];')
            lines.append(f"  n{node} -> n{self._high[node]} [style=solid];")
            lines.append(f"  n{node} -> n{self._low[node]} [style=dashed];")
        lines.append("}")
        return "\n".join(lines) + "\n"
