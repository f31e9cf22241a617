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

`_eliminate` projects a variable x out with its literal weights, from one
function f or from the product f h of two (the relational product, CUDD's
`AndAbstract`): it rebuilds the pairs (u, v) of nodes above x and walks the
two cofactor sides together below, each side a product of two nodes,
emitting the max (`exists_project`) or the sum (`add_project`) of
w_neg (x) f0 h0 and w_pos (x) f1 h1 at the terminals, where (x) is `_weigh`,
the join kernel's rule for two values, so neither f h nor a weighted
cofactor is built and the values are those of joining first, bit for bit.
Where neither side is a product the walk takes one node per side.
The kernels are built per operation and hold no reference to the manager,
and the operation cache holds one join or elimination at a time, so no key
carries a tag, variable or weight. `size` and `to_dot` share `_reachable`.

A node's level is its variable's index, so every manager orders variables by
ascending index and takes no order; every terminal is at `_LEAF_LEVEL`, below
every variable. There is no reordering.
"""

from __future__ import annotations

import math
import operator
import sys
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


def _node_store(level: list, low: list, high: list, value: list,
                unique: dict, terminals: dict):
    """The manager's two node constructors over its arrays and tables:
    `terminal(value)` and `mk(level, low, high)`, each returning the node of
    that value or triple, new or not; mk applies the low == high reduction."""

    def terminal(x: float) -> int:
        node = terminals.get(x)
        if node is None:
            node = len(level)
            level.append(_LEAF_LEVEL)
            low.append(-1)
            high.append(-1)
            value.append(x)
            terminals[x] = node
        return node

    def mk(var: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (var, lo, hi)
        node = unique.get(key)
        if node is None:
            node = len(level)
            level.append(var)
            low.append(lo)
            high.append(hi)
            value.append(None)
            unique[key] = node
        return node

    return terminal, mk


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
    """Which polarity of a variable maximizes a function, times a second
    factor when one was fused into the variable's projection, times the
    variable's weights (`w_neg`, `w_pos`, in the manager's value domain).

    `choose` weighs the two completions at one co-assignment by the join
    kernel's rules and picks 1 on a tie.
    """

    var: int
    function: Function
    w_neg: float
    w_pos: float
    factor: Function | None = None

    def weighed(self, assignment: dict[int, bool]) -> tuple[float, float]:
        """The weighed product at var = 0 and at var = 1, in that order. var
        is bound in `assignment` itself for the two evaluations (a copy per
        sign would make reconstruction quadratic); the dict is left as given."""
        weigh, var = self.function.manager._weigh, self.var
        bound, old = var in assignment, assignment.get(var)
        points = []
        try:
            for value in (False, True):
                assignment[var] = value
                point = self.function.evaluate(assignment)
                if self.factor is not None:
                    point = weigh(point, self.factor.evaluate(assignment))
                points.append(point)
        finally:
            if bound:
                assignment[var] = old
            else:
                del assignment[var]
        return weigh(points[0], self.w_neg), weigh(points[1], self.w_pos)

    def choose(self, assignment: dict[int, bool]) -> bool:
        low, high = self.weighed(assignment)
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
        self._cache: dict = {}  # the operation in progress, keyed by node tuples

        # plain functions of the arrays, not bound methods, and the kernels are
        # built per operation: nothing the manager holds refers back to it, so
        # its last reference frees it without waiting for a cycle collection
        self._terminal, self._mk = _node_store(self._level, self._low, self._high,
                                               self._value, self._unique, self._terminals)
        self._one = self._terminal(0.0 if log_mode else 1.0)  # node 0, before any other
        self._zero = self._terminal(_NEG_INF if log_mode else 0.0)

        self._times = times = operator.add if log_mode else _times
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
        if not (w_neg >= 0 and w_pos >= 0):  # NaN fails both comparisons
            raise ValueError(f"negative or NaN weight for variable {var}")
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

    def join(self, f: Function, g: Function) -> Function:
        """Pointwise product (sum of logs in log10 mode); a linear product of
        nonzero values that underflows raises GuardError."""
        level, low, high, value = self._level, self._low, self._high, self._value
        cache, mk, terminal, times = self._cache, self._mk, self._terminal, self._times
        one, zero = self._one, self._zero
        cache.clear()  # first, as a join cut short by GuardError leaves entries

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

        try:
            return Function(self, rec(self._root(f), self._root(g)))
        finally:
            del rec  # rec calls itself through its cell: empty it, or the cycle outlives the join

    def _eliminate(self, f: Function, var: int, w_neg: float, w_pos: float,
                   combine, h: Function | None, signs: list | None) -> Function:
        """combine(w_neg (x) (f h)|var=0, w_pos (x) (f h)|var=1) pointwise, h
        the unit when None, in one pass over f and h that builds neither the
        product f h nor a weighted cofactor. With `signs`, var's derivative
        sign is appended first, from the same converted weights."""
        w0, w1 = self._weights(var, w_neg, w_pos)
        root, other = self._root(f), self._one if h is None else self._root(h)
        if signs is not None:
            signs.append(DerivativeSign(var, f, w0, w1, h))
        level, low, high, value = self._level, self._low, self._high, self._value
        cache, mk, terminal, weigh = self._cache, self._mk, self._terminal, self._weigh
        one, zero = self._one, self._zero
        keep = combine is max and w0 == w1 == value[one]  # then max(a, a) is a
        cache.clear()

        # Below var the walk follows the two cofactor sides together. `pair`
        # takes one node per side. `quad` takes a product a b per side, its
        # operands ordered by node id: the unit is node 0, so a product with
        # it, the single node n, is (one, n), and one with a zero is (one,
        # zero). quad's keys are 4-tuples; pair's (a, b) both sit below var
        # and rec's (u, v) do not, so no two keys of the one cache meet.

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

        def quad(a0: int, b0: int, a1: int, b1: int) -> int:
            if a0 > b0:
                a0, b0 = b0, a0
            if a0 == zero or b0 == zero:
                a0, b0 = one, zero
            if a1 > b1:
                a1, b1 = b1, a1
            if a1 == zero or b1 == zero:
                a1, b1 = one, zero
            if a0 == one and a1 == one:  # neither side is a product
                return pair(b0, b1)
            key = (a0, b0, a1, b1)
            result = cache.get(key)
            if result is not None:
                return result
            la0, lb0, la1, lb1 = level[a0], level[b0], level[a1], level[b1]
            top = la0
            if lb0 < top:
                top = lb0
            if la1 < top:
                top = la1
            if lb1 < top:
                top = lb1
            if top == _LEAF_LEVEL:
                result = terminal(combine(weigh(weigh(value[a0], value[b0]), w0),
                                          weigh(weigh(value[a1], value[b1]), w1)))
            else:
                if la0 == top:
                    a00, a01 = low[a0], high[a0]
                else:
                    a00 = a01 = a0
                if lb0 == top:
                    b00, b01 = low[b0], high[b0]
                else:
                    b00 = b01 = b0
                if la1 == top:
                    a10, a11 = low[a1], high[a1]
                else:
                    a10 = a11 = a1
                if lb1 == top:
                    b10, b11 = low[b1], high[b1]
                else:
                    b10 = b11 = b1
                result = mk(top, quad(a00, b00, a10, b10), quad(a01, b01, a11, b11))
            cache[key] = result
            return result

        def rec(u: int, v: int) -> int:
            if u > v:  # the product commutes
                u, v = v, u
            if u == zero or v == zero:
                return zero
            lu, lv = level[u], level[v]
            top = lu if lu < lv else lv
            if top > var:  # var is absent below here: both sides are u v
                return quad(u, v, u, v)
            if top == var:
                return quad(low[u] if lu == var else u, low[v] if lv == var else v,
                            high[u] if lu == var else u, high[v] if lv == var else v)
            key = (u, v)
            result = cache.get(key)
            if result is None:
                result = mk(top, rec(low[u] if lu == top else u, low[v] if lv == top else v),
                            rec(high[u] if lu == top else u, high[v] if lv == top else v))
                cache[key] = result
            return result

        try:
            return Function(self, rec(root, other))
        finally:
            del pair, quad, rec  # each calls itself through its cell, as in join

    def exists_project(self, f: Function, var: int, w_neg: float = 1.0,
                       w_pos: float = 1.0, h: Function | None = None,
                       signs: list | None = None) -> Function:
        """Pointwise max of the two cofactors of f, or of f h when h is given,
        each times var's linear-domain weight for that polarity; removes var
        from the support. A var that neither depends on, whatever its index,
        gives max(w_neg, w_pos) (x) f h. `signs`, a list, receives var's
        derivative sign (`derivative_sign(f, var, w_neg, w_pos, h)`)."""
        return self._eliminate(f, var, w_neg, w_pos, max, h, signs)

    def add_project(self, f: Function, var: int, w_neg: float = 1.0,
                    w_pos: float = 1.0, h: Function | None = None,
                    signs: list | None = None) -> Function:
        """Pointwise sum of the two weighted cofactors; linear domain only."""
        if self.log_mode:
            raise ValueError("additive operations are unavailable in log10 mode")
        return self._eliminate(f, var, w_neg, w_pos, operator.add, h, signs)

    def derivative_sign(self, f: Function, var: int, w_neg: float = 1.0,
                        w_pos: float = 1.0, h: Function | None = None) -> DerivativeSign:
        """Record where assigning var 1 beats assigning it 0 in f (times h
        when given) times var's linear-domain weights. A tie counts as a win
        for the 1 branch so maximizers are reproducible."""
        self._root(f)  # a function of another manager raises ValueError
        if h is not None:
            self._root(h)
        return DerivativeSign(var, f, *self._weights(var, w_neg, w_pos), h)

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
