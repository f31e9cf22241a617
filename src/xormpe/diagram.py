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

The join kernel is built once per manager. `_eliminate` projects a variable
out with its literal weights: it rebuilds the nodes above the variable and
walks its two cofactors as a pair below, emitting the max (`exists_project`)
or the sum (`add_project`) of w_neg (x) lo and w_pos (x) hi, where (x) is
`_weigh`, the join kernel's rule for two values, so no weighted product is
built. The operation cache holds one join or elimination at a time, so no key
carries a tag, variable or weight. `size` and `to_dot` share `_reachable`.

A node's level is its variable's index, so every manager orders variables by
ascending index and takes no order; every terminal is at `_LEAF_LEVEL`, below
every variable. There is no reordering.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import ChainMap
from typing import NamedTuple

from .errors import GuardError
from .formula import Assignment, Clause, ClauseKind

_NEG_INF = float("-inf")
_LEAF_LEVEL = sys.maxsize  # every terminal's level, deeper than any variable's


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


class DerivativeSign(NamedTuple):
    """Which polarity of a variable maximizes a function times the
    variable's weights (`w_neg`, `w_pos`, in the manager's value domain).

    `choose` weighs the function's two completions at one co-assignment by the
    join kernel's rules and picks 1 on a tie.
    """

    var: int
    function: Function
    w_neg: float
    w_pos: float

    def choose(self, assignment: Assignment) -> bool:
        f, weigh = self.function, self.function.manager._weigh
        # a copy of the assignment per sign would make reconstruction quadratic
        high = weigh(f.evaluate(ChainMap({self.var: True}, assignment)), self.w_pos)
        low = weigh(f.evaluate(ChainMap({self.var: False}, assignment)), self.w_neg)
        return high >= low


class DiagramManager:
    """Shared node store, unique table, and operation cache for one solve.

    Not thread-safe; confine a manager and its functions to one thread. The
    operation cache holds one join or elimination, emptied as the next starts.
    """

    def __init__(self, log_mode: bool = False):
        self.log_mode = log_mode

        # parallel node arrays; an internal node's level is its variable
        self._level: list[int] = []
        self._low: list[int] = []
        self._high: list[int] = []
        self._value: list[float | None] = []

        self._unique: dict[tuple[int, int, int], int] = {}
        self._terminals: dict[float, int] = {}
        self._cache: dict = {}  # the operation in progress: (u, v), (a, b) or node

        self._one = self._terminal(0.0 if log_mode else 1.0)
        self._zero = self._terminal(_NEG_INF if log_mode else 0.0)

        times = operator.add if log_mode else _times
        self._join = self._join_kernel(times)
        one, zero = self._value[self._one], self._value[self._zero]

        def weigh(a: float, w: float) -> float:
            """The join's product of two values by the join kernel's rules:
            the unit passes the other through, a zero gives zero (never NaN)."""
            if a == one or w == one:
                return w if a == one else a
            return zero if a == zero or w == zero else times(a, w)

        self._weigh = weigh

    # ------------------------------------------------------------------ nodes

    def is_terminal(self, node: int) -> bool:
        return self._level[node] == _LEAF_LEVEL

    def _terminal(self, value: float) -> int:
        node = self._terminals.get(value)
        if node is None:
            node = len(self._level)
            self._level.append(_LEAF_LEVEL)
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

    def _root(self, f: Function) -> int:
        if f.manager is not self:
            raise ValueError("function belongs to a different manager")
        return f.node

    # ------------------------------------------------------------ constructors

    def constant(self, value: float) -> Function:
        """Terminal with the given raw value (in the manager's value domain)."""
        return Function(self, self._terminal(float(value)))

    def one(self) -> Function:
        """Unit of the join algebra (1 linear, 0.0 in log10)."""
        return Function(self, self._one)

    def zero(self) -> Function:
        """Annihilator of the join algebra (0 linear, -inf in log10)."""
        return Function(self, self._zero)

    def _weights(self, var: int, w_neg: float, w_pos: float) -> tuple[float, float]:
        """var's linear-domain weights in the manager's value domain."""
        if var < 1:
            raise ValueError(f"variable index {var} is not positive")
        if w_neg < 0 or w_pos < 0:
            raise ValueError(f"negative weight for variable {var}")
        if self.log_mode:
            return (math.log10(w_neg) if w_neg > 0 else _NEG_INF,
                    math.log10(w_pos) if w_pos > 0 else _NEG_INF)
        return float(w_neg), float(w_pos)

    def literal_weight(self, var: int, w_neg: float, w_pos: float) -> Function:
        """Single-variable weight function; takes linear-domain weights."""
        w_neg, w_pos = self._weights(var, w_neg, w_pos)
        return Function(self, self._mk(var, self._terminal(w_neg), self._terminal(w_pos)))

    def from_clause(self, clause: Clause) -> Function:
        """0/1 indicator of the clause (also in log10 mode: -inf/0)."""
        true_t, false_t = self._one, self._zero
        deepest_first = sorted(clause.literals, key=lambda lit: lit.var, reverse=True)
        if clause.kind is ClauseKind.DISJUNCTION:
            node = false_t
            for lit in deepest_first:
                low, high = (node, true_t) if lit.positive else (true_t, node)
                node = self._mk(lit.var, low, high)
            return Function(self, node)
        # xor: track both parities of the suffix; a negative literal swaps them
        even, odd = false_t, true_t
        for lit in deepest_first:
            low, high = (even, odd) if lit.positive else (odd, even)
            even, odd = self._mk(lit.var, low, high), self._mk(lit.var, high, low)
        return Function(self, even)

    # ------------------------------------------------------------ combinators

    def _join_kernel(self, times):
        """Pointwise product of two diagrams, as a recursive function of two
        nodes: the unit passes the other operand through, a zero gives zero."""
        level, low, high, value = self._level, self._low, self._high, self._value
        cache, mk, terminal = self._cache, self._mk, self._terminal
        one, zero = self._one, self._zero

        def rec(u: int, v: int) -> int:
            if u == one:
                return v
            if v == one:
                return u
            if u == zero or v == zero:
                return zero
            if u > v:  # the product commutes, so one cache key serves both orders
                u, v = v, u
            key = (u, v)
            result = cache.get(key)
            if result is not None:
                return result
            lu, lv = level[u], level[v]
            if lu == _LEAF_LEVEL and lv == _LEAF_LEVEL:
                result = terminal(times(value[u], value[v]))
            else:
                top = lu if lu < lv else lv
                u0 = low[u] if lu == top else u
                u1 = high[u] if lu == top else u
                v0 = low[v] if lv == top else v
                v1 = high[v] if lv == top else v
                result = mk(top, rec(u0, v0), rec(u1, v1))
            cache[key] = result
            return result

        return rec

    def join(self, f: Function, g: Function) -> Function:
        """Pointwise product (sum of logs in log10 mode); a linear product of
        nonzero values that underflows raises GuardError."""
        self._cache.clear()  # first, as a join cut short by GuardError leaves entries
        return Function(self, self._join(self._root(f), self._root(g)))

    def _eliminate(self, f: Function, var: int, w_neg: float, w_pos: float,
                   combine) -> Function:
        """combine(w_neg (x) f|var=0, w_pos (x) f|var=1) pointwise in one pass
        over f, which never builds a weighted copy of either cofactor."""
        w0, w1 = self._weights(var, w_neg, w_pos)
        level, low, high, value = self._level, self._low, self._high, self._value
        cache, mk, terminal, weigh = self._cache, self._mk, self._terminal, self._weigh
        keep = combine is max and w0 == w1 == value[self._one]  # then max(a, a) is a
        cache.clear()

        def pair(a: int, b: int) -> int:
            if keep and a == b:
                return a
            key = (a, b)
            result = cache.get(key)
            if result is not None:
                return result
            la, lb = level[a], level[b]
            if la == _LEAF_LEVEL and lb == _LEAF_LEVEL:
                result = terminal(combine(weigh(value[a], w0), weigh(value[b], w1)))
            else:
                top = la if la < lb else lb
                a0 = low[a] if la == top else a
                a1 = high[a] if la == top else a
                b0 = low[b] if lb == top else b
                b1 = high[b] if lb == top else b
                result = mk(top, pair(a0, b0), pair(a1, b1))
            cache[key] = result
            return result

        def rec(node: int) -> int:
            l = level[node]
            if l > var:  # var is absent below here: both cofactors are node
                return pair(node, node)
            if l == var:
                return pair(low[node], high[node])
            result = cache.get(node)  # an int key cannot meet pair's tuples
            if result is None:
                result = mk(l, rec(low[node]), rec(high[node]))
                cache[node] = result
            return result

        return Function(self, rec(self._root(f)))

    def exists_project(self, f: Function, var: int,
                       w_neg: float = 1.0, w_pos: float = 1.0) -> Function:
        """Pointwise max of the two cofactors, each times var's linear-domain
        weight for that polarity; removes var from the support. A var that f
        does not depend on, whatever its index, gives max(w_neg, w_pos) (x) f."""
        return self._eliminate(f, var, w_neg, w_pos, max)

    def add_project(self, f: Function, var: int,
                    w_neg: float = 1.0, w_pos: float = 1.0) -> Function:
        """Pointwise sum of the two weighted cofactors; linear domain only."""
        if self.log_mode:
            raise ValueError("additive operations are unavailable in log10 mode")
        return self._eliminate(f, var, w_neg, w_pos, operator.add)

    def derivative_sign(self, f: Function, var: int,
                        w_neg: float = 1.0, w_pos: float = 1.0) -> DerivativeSign:
        """Record where assigning var 1 beats assigning it 0 in f times var's
        linear-domain weights. A tie counts as a win for the 1 branch so
        maximizers are reproducible."""
        self._root(f)  # a function of another manager raises ValueError
        return DerivativeSign(var, f, *self._weights(var, w_neg, w_pos))

    # ------------------------------------------------------------- inspection

    def evaluate(self, f: Function, assignment: Assignment) -> float:
        """Follow one root-to-terminal path; every support variable must be bound."""
        node = self._root(f)
        level, low, high = self._level, self._low, self._high
        while level[node] != _LEAF_LEVEL:
            var = level[node]
            try:
                bound = assignment[var]
            except KeyError:
                raise KeyError(f"variable {var} unbound during evaluation") from None
            node = high[node] if bound else low[node]
        return self._value[node]

    def _reachable(self, root: int) -> set[int]:
        """Every node (terminals included) reachable from root."""
        level, low, high = self._level, self._low, self._high
        seen = {root}
        stack = [root]
        while stack:
            node = stack.pop()
            if level[node] == _LEAF_LEVEL:
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

    def to_dot(self, f: Function) -> str:
        """Graphviz text, nodes by ascending id; solid edge = variable assigned
        1, dashed = 0."""
        lines = ["digraph add {"]
        for node in sorted(self._reachable(self._root(f))):
            if self.is_terminal(node):
                lines.append(f'  n{node} [shape=box, label="{self._value[node]:.6g}"];')
                continue
            lines.append(f'  n{node} [shape=oval, label="x{self._level[node]}"];')
            lines.append(f"  n{node} -> n{self._high[node]} [style=solid];")
            lines.append(f"  n{node} -> n{self._low[node]} [style=dashed];")
        lines.append("}")
        return "\n".join(lines) + "\n"
