"""Reduced ordered edge-valued decision diagrams with one terminal.

A function is an edge `(offset, node)`: the node's function times the
offset. Node i is one record, the tuple `_nodes[i] = (var, lo, lo_off, hi,
hi_off)`: the function whose cofactor at var = 0 is the edge (lo_off, lo)
and at var = 1 the edge (hi_off, hi). Every node is normalized so that the
larger of its two offsets is the unit, so every node's function has the unit
as its maximum and an edge's offset is its function's maximum. There is one
terminal, node 0, the unit constant; the zero function is the zero offset on
it, and no other edge carries the zero offset. One manager owns every node
it creates. Nodes are deduplicated through a unique table whose key is the
record itself, exact offsets included (as CUDD hashes its `DdNode` records),
and a node with equal edges on both sides reduces to that edge, so two
functions that differ by a constant factor share their node (EVBDD, Lai and
Sastry, DAC 1992; affine ADDs, Sanner and McAllester, IJCAI 2005). Offsets
are floats, so two computations of one function that round differently may
end on different nodes: within a manager, a shared edge means pointwise
equal functions, and equal functions share an edge up to rounding.

The manager has two value domains:

  * linear: offsets multiply, the unit is 1 and zero is 0; a node is
            normalized by dividing its offsets by the larger. A product,
            ratio or sum of nonzero offsets that leaves double range raises
            GuardError at once: an inf cannot be normalized (inf / inf is
            NaN) and a subnormal has lost its value.
  * log10:  offsets hold log10 values and add, the unit is 0.0 and zero is
            -inf; a node is normalized by subtracting the larger offset.
            Additive operations (pointwise sum) are unavailable here.

`_walk` runs the two kernels. The join multiplies two functions: it caches
node pairs and multiplies their offsets. The projection eliminates a
variable x with its literal weights, from one function f or from the
product f h of two (the relational product, CUDD's `AndAbstract`): it
rebuilds the pairs (u, v) of nodes above x and, below x, walks the two
cofactor sides together, each side a product of two nodes times an offset,
and emits the max (`exists_project`) or the sum (`add_project`) of the
sides. A side's offset carries the weight of its polarity, so neither f h
nor a weighted cofactor is built. Below x, the walk factors side 0's offset
out and keys on the four nodes and d, side 1's offset relative to side 0's:
the linear sum is c0 (A + (c1 / c0) B). The kernels are built per operation
and hold no reference to the manager, and the operation cache holds one
join or elimination at a time, so no key carries a tag, variable or weight.
`size` and `to_dot` share `_reachable`.

A node's level is its variable's index, so every manager orders variables by
ascending index and takes no order; the terminal's record is `(_LEAF_LEVEL,
-1, None, -1, None)`, below every variable. There is no reordering.
"""

from __future__ import annotations

import math
import operator
import sys
from typing import NamedTuple

from .errors import GuardError
from .formula import Assignment, Clause, ClauseKind

_NEG_INF = float("-inf")
_TERMINAL = 0  # the one terminal node, the unit constant
_LEAF_LEVEL = sys.maxsize  # the terminal's level, deeper than any variable's
_MIN, _MAX = sys.float_info.min, sys.float_info.max


def _out_of_range(what: str) -> GuardError:
    return GuardError(f"linear-mode {what} leaves double range; "
                      "use --mode log10, which keeps weight products representable")


def _times(x: float, y: float) -> float:
    """Linear product of two offsets. The unit passes the other offset
    through; any other product of nonzero offsets that is zero, subnormal or
    inf has lost its value, so that raises GuardError."""
    product = x * y
    if product < _MIN:
        if x and y and x != 1.0 and y != 1.0:
            raise _out_of_range(f"product {x!r} * {y!r}")
    elif product > _MAX:
        raise _out_of_range(f"product {x!r} * {y!r}")
    return product


def _ratio(x: float, y: float) -> float:
    """Linear ratio of two offsets, y nonzero, by `_times`'s rule."""
    ratio = x / y
    if ratio < _MIN:
        if x:
            raise _out_of_range(f"ratio {x!r} / {y!r}")
    elif ratio > _MAX:
        raise _out_of_range(f"ratio {x!r} / {y!r}")
    return ratio


def _plus(x: float, y: float) -> float:
    """Linear sum of two offsets by `_times`'s rule."""
    total = x + y
    if total > _MAX:
        raise _out_of_range(f"sum {x!r} + {y!r}")
    return total


def _node_store(log_mode: bool, nodes: list, unique: dict):
    """The manager's node constructor over its node list and unique table:
    `mk(var, c0, n0, c1, n1)` returns the edge of the function whose
    cofactors at var = 0 and var = 1 are the edges (c0, n0) and (c1, n1),
    through a node new or not; it applies the equal-edges reduction and
    normalizes the node's offsets by the larger of the two, inline in each
    value domain's arithmetic, as it is the call every kernel makes most."""

    def new(key: tuple) -> int:
        node = unique[key] = len(nodes)
        nodes.append(key)
        return node

    if log_mode:
        def mk(var: int, c0: float, n0: int, c1: float, n1: int) -> tuple[float, int]:
            if c0 >= c1:
                if c0 == c1 and n0 == n1:
                    return c0, n0
                top, key = c0, (var, n0, 0.0, n1, c1 - c0)
            else:
                top, key = c1, (var, n0, c0 - c1, n1, 0.0)
            node = unique.get(key)
            return top, new(key) if node is None else node
    else:
        def mk(var: int, c0: float, n0: int, c1: float, n1: int) -> tuple[float, int]:
            if c0 >= c1:
                if c0 == c1 and n0 == n1:
                    return c0, n0
                top, small = c0, c1
                key = (var, n0, 1.0, n1, c1 / c0)
            else:
                top, small = c1, c0
                key = (var, n0, c0 / c1, n1, 1.0)
            if small < top * _MIN and small:  # the ratio small / top would underflow
                raise _out_of_range(f"ratio {small!r} / {top!r}")
            node = unique.get(key)
            return top, new(key) if node is None else node

    return mk


class Function:
    """Handle to one diagram edge, viewed as a pseudo-Boolean function: the
    node's function times the offset."""

    __slots__ = ("manager", "offset", "node")

    def __init__(self, manager: "DiagramManager", offset: float, node: int):
        self.manager = manager
        self.offset = offset
        self.node = node

    def is_constant(self) -> bool:
        return self.node == _TERMINAL

    def constant_value(self) -> float:
        return self.manager.evaluate(self, {})

    def evaluate(self, assignment: Assignment) -> float:
        return self.manager.evaluate(self, assignment)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Function)
            and self.manager is other.manager
            and self.node == other.node
            and self.offset == other.offset
        )

    def __hash__(self) -> int:
        return hash((id(self.manager), self.offset, self.node))

    def __repr__(self) -> str:
        if self.is_constant():
            return f"Function({self.offset!r})"
        return f"Function(offset={self.offset!r}, node={self.node})"


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
        times, var = self.function.manager._times, self.var
        bound, old = var in assignment, assignment.get(var)
        points = []
        try:
            for value in (False, True):
                assignment[var] = value
                point = self.function.evaluate(assignment)
                if self.factor is not None:
                    point = times(point, self.factor.evaluate(assignment))
                points.append(point)
        finally:
            if bound:
                assignment[var] = old
            else:
                del assignment[var]
        return times(points[0], self.w_neg), times(points[1], self.w_pos)

    def choose(self, assignment: dict[int, bool]) -> bool:
        low, high = self.weighed(assignment)
        return high >= low


class DiagramManager:
    """Node records, their unique table, and the operation cache for one solve.

    Not thread-safe; confine a manager and its functions to one thread. The
    operation cache holds one join or elimination, emptied as the next starts.
    """

    def __init__(self, log_mode: bool = False):
        self.log_mode = log_mode
        self._unit, self._zero = (0.0, _NEG_INF) if log_mode else (1.0, 0.0)
        self._times = operator.add if log_mode else _times

        # node i is the record self._nodes[i], which is also its unique-table key
        self._nodes: list[tuple] = [(_LEAF_LEVEL, -1, None, -1, None)]
        self._unique: dict[tuple[int, int, float, int, float], int] = {}
        self._terminals = (_TERMINAL,)  # an edge-valued store has one
        self._cache: dict = {}  # the operation in progress, keyed by node tuples

        # a plain function of the store, not a bound method, and the kernels
        # are built per operation: nothing the manager holds refers back to
        # it, so its last reference frees it without a cycle collection
        self._mk = _node_store(log_mode, self._nodes, self._unique)

    # ------------------------------------------------------------------ nodes

    def is_terminal(self, node: int) -> bool:
        return node == _TERMINAL

    def _edge(self, f: Function) -> tuple[float, int]:
        if f.manager is not self:
            raise ValueError("function belongs to a different manager")
        return f.offset, f.node

    # ------------------------------------------------------------ constructors

    def constant(self, value: float) -> Function:
        """The constant with the given raw value (in the manager's value
        domain). A constant out of the domain is refused: inf or NaN, and in
        linear mode any negative value (log10 takes -inf, its zero)."""
        value = float(value)
        if math.isnan(value) or value == math.inf or (value < 0 and not self.log_mode):
            raise ValueError(f"constant {value} is outside the value domain")
        return Function(self, value, _TERMINAL)

    def one(self) -> Function:
        """Unit of the join algebra (1 linear, 0.0 in log10)."""
        return Function(self, self._unit, _TERMINAL)

    def zero(self) -> Function:
        """Annihilator of the join algebra (0 linear, -inf in log10)."""
        return Function(self, self._zero, _TERMINAL)

    def _weights(self, var: int, w_neg: float, w_pos: float) -> tuple[float, float]:
        """var's linear-domain weights in the manager's value domain."""
        if var < 1:
            raise ValueError(f"variable index {var} is not positive")
        if not (0 <= w_neg < math.inf and 0 <= w_pos < math.inf):  # NaN fails both
            raise ValueError(f"negative, infinite or NaN weight for variable {var}")
        if self.log_mode:
            return (math.log10(w_neg) if w_neg > 0 else _NEG_INF,
                    math.log10(w_pos) if w_pos > 0 else _NEG_INF)
        return float(w_neg), float(w_pos)

    def literal_weight(self, var: int, w_neg: float, w_pos: float) -> Function:
        """Single-variable weight function; takes linear-domain weights."""
        w_neg, w_pos = self._weights(var, w_neg, w_pos)
        return Function(self, *self._mk(var, w_neg, _TERMINAL, w_pos, _TERMINAL))

    def from_clause(self, clause: Clause) -> Function:
        """0/1 indicator of the clause (also in log10 mode: -inf/0)."""
        mk, one, zero = self._mk, self._unit, self._zero
        deepest_first = sorted(clause.literals, key=lambda lit: lit.var, reverse=True)
        if clause.kind is ClauseKind.DISJUNCTION:
            c, node = zero, _TERMINAL
            for lit in deepest_first:
                if lit.positive:
                    c, node = mk(lit.var, c, node, one, _TERMINAL)
                else:
                    c, node = mk(lit.var, one, _TERMINAL, c, node)
            return Function(self, c, node)
        # xor: track both parities of the suffix; a negative literal swaps them
        c_even, even, c_odd, odd = zero, _TERMINAL, one, _TERMINAL
        for lit in deepest_first:
            if not lit.positive:
                c_even, even, c_odd, odd = c_odd, odd, c_even, even
            (c_even, even), (c_odd, odd) = (mk(lit.var, c_even, even, c_odd, odd),
                                            mk(lit.var, c_odd, odd, c_even, even))
        return Function(self, c_even, even)

    # ------------------------------------------------------------ combinators

    def join(self, f: Function, g: Function) -> Function:
        """Pointwise product (sum of logs in log10 mode); a linear product of
        nonzero offsets out of double range raises GuardError."""
        return self._walk(self._edge(f), self._edge(g), None, self._unit, self._unit, None)

    def _walk(self, f: tuple[float, int], g: tuple[float, int], var: int | None,
              w0: float, w1: float, combine) -> Function:
        """f g when var is None; else combine(w0 (x) (f g)|var=0, w1 (x)
        (f g)|var=1) pointwise, in one pass over f and g that builds neither
        the product f g nor a weighted cofactor; (x) is the join's product."""
        (cf, u), (cg, v) = f, g
        nodes, cache, mk, times = self._nodes, self._cache, self._mk, self._times
        unit, zero = self._unit, self._zero
        ratio = operator.sub if self.log_mode else _ratio
        cache.clear()  # first, as an operation cut short by GuardError leaves entries
        if cf == zero or cg == zero or w0 == w1 == zero:
            return self.zero()
        maximum = combine is max

        # The kernels return edges. `product` multiplies two nodes. Below var,
        # `sides` emits combine(c0 a0 b0, c1 a1 b1) for two sides, each a
        # product of two nodes (the terminal for a single node) times an
        # offset: a zero side leaves the other side's product, and two equal
        # sides one product times combine(c0, c1); else it factors c0 out and
        # keys on the four nodes and d, side 1's offset relative to side 0's.
        # Above var, `rec` rebuilds the pairs of nodes. product's keys (a, b)
        # sit below var and rec's (u, v) do not, and sides' keys are longer,
        # so no two keys of the one cache meet.

        def product(a: int, b: int) -> tuple[float, int]:
            if a > b:  # the product commutes, so one cache key serves both orders
                a, b = b, a
            if a == _TERMINAL:
                return unit, b
            key = (a, b)
            result = cache.get(key)
            if result is not None:
                return result
            la, a0, ca0, a1, ca1 = nodes[a]
            lb, b0, cb0, b1, cb1 = nodes[b]
            top = la
            if la < lb:
                b0 = b1 = b
                cb0 = cb1 = unit
            elif lb < la:
                top = lb
                a0 = a1 = a
                ca0 = ca1 = unit
            c0, c1 = times(ca0, cb0), times(ca1, cb1)
            if c0 == zero:
                n0 = _TERMINAL
            else:
                m, n0 = product(a0, b0)
                c0 = times(c0, m)
            if c1 == zero:
                n1 = _TERMINAL
            else:
                m, n1 = product(a1, b1)
                c1 = times(c1, m)
            result = cache[key] = mk(top, c0, n0, c1, n1)
            return result

        def sides(a0: int, b0: int, c0: float, a1: int, b1: int,
                  c1: float) -> tuple[float, int]:
            if c0 == zero:
                if c1 == zero:
                    return zero, _TERMINAL
                m, n = product(a1, b1)
                return times(c1, m), n
            if c1 == zero:
                m, n = product(a0, b0)
                return times(c0, m), n
            if a0 > b0:
                a0, b0 = b0, a0
            if a1 > b1:
                a1, b1 = b1, a1
            if a0 == a1 and b0 == b1:
                m, n = product(a0, b0)
                return times((c0 if c0 >= c1 else c1) if maximum else combine(c0, c1), m), n
            d = ratio(c1, c0)
            key = (a0, b0, a1, b1, d)
            result = cache.get(key)
            if result is None:
                la0, a00, c00, a01, c01 = nodes[a0]
                lb0, b00, cb00, b01, cb01 = nodes[b0]
                la1, a10, ca10, a11, ca11 = nodes[a1]
                lb1, b10, cb10, b11, cb11 = nodes[b1]
                top = la0
                if lb0 < top:
                    top = lb0
                if la1 < top:
                    top = la1
                if lb1 < top:
                    top = lb1
                if la0 == top:
                    if lb0 == top:
                        c00, c01 = times(c00, cb00), times(c01, cb01)
                    else:
                        b00 = b01 = b0
                else:
                    a00 = a01 = a0
                    if lb0 == top:
                        c00, c01 = cb00, cb01
                    else:
                        b00 = b01 = b0
                        c00 = c01 = unit
                if la1 == top:
                    c10, c11 = times(d, ca10), times(d, ca11)
                else:
                    a10 = a11 = a1
                    c10 = c11 = d
                if lb1 == top:
                    c10, c11 = times(c10, cb10), times(c11, cb11)
                else:
                    b10 = b11 = b1
                m0, n0 = sides(a00, b00, c00, a10, b10, c10)
                m1, n1 = sides(a01, b01, c01, a11, b11, c11)
                result = cache[key] = mk(top, m0, n0, m1, n1)
            m, n = result
            return times(c0, m), n

        if var is not None:
            absent = (w0 if w0 >= w1 else w1) if maximum else combine(w0, w1)

        def rec(u: int, v: int) -> tuple[float, int]:
            if u > v:  # the product commutes
                u, v = v, u
            lu, u0, cu0, u1, cu1 = nodes[u]
            lv, v0, cv0, v1, cv1 = nodes[v]
            top = lu if lu < lv else lv
            if top > var:  # var is absent below here: both sides are u v
                m, n = product(u, v)
                return times(absent, m), n
            if top < var:
                result = cache.get((u, v))
                if result is not None:
                    return result
            if lu != top:
                u0 = u1 = u
                cu0 = cu1 = unit
            if lv != top:
                v0 = v1 = v
                cv0 = cv1 = unit
            c0, c1 = times(cu0, cv0), times(cu1, cv1)
            if top == var:
                return sides(u0, v0, times(w0, c0), u1, v1, times(w1, c1))
            if c0 == zero:
                n0 = _TERMINAL
            else:
                m, n0 = rec(u0, v0)
                c0 = times(c0, m)
            if c1 == zero:
                n1 = _TERMINAL
            else:
                m, n1 = rec(u1, v1)
                c1 = times(c1, m)
            result = cache[u, v] = mk(top, c0, n0, c1, n1)
            return result

        try:
            m, node = (product if var is None else rec)(u, v)
            return Function(self, times(times(cf, cg), m), node)
        finally:
            del product, sides, rec  # each calls itself through its cell

    def _eliminate(self, f: Function, var: int, w_neg: float, w_pos: float,
                   combine, h: Function | None, signs: list | None) -> Function:
        """combine(w_neg (x) (f h)|var=0, w_pos (x) (f h)|var=1) pointwise, h
        the unit when None. With `signs`, var's derivative sign is appended
        first, from the same converted weights."""
        w0, w1 = self._weights(var, w_neg, w_pos)
        edges = self._edge(f), (self._unit, _TERMINAL) if h is None else self._edge(h)
        if signs is not None:
            signs.append(DerivativeSign(var, f, w0, w1, h))
        return self._walk(*edges, var, w0, w1, combine)

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
        return self._eliminate(f, var, w_neg, w_pos, _plus, h, signs)

    def derivative_sign(self, f: Function, var: int, w_neg: float = 1.0,
                        w_pos: float = 1.0, h: Function | None = None) -> DerivativeSign:
        """Record where assigning var 1 beats assigning it 0 in f (times h
        when given) times var's linear-domain weights. A tie counts as a win
        for the 1 branch so maximizers are reproducible."""
        self._edge(f)  # a function of another manager raises ValueError
        if h is not None:
            self._edge(h)
        return DerivativeSign(var, f, *self._weights(var, w_neg, w_pos), h)

    # ------------------------------------------------------------- inspection

    def evaluate(self, f: Function, assignment: Assignment) -> float:
        """Follow one root-to-terminal path, taking in each edge's offset;
        every support variable must be bound."""
        value, node = self._edge(f)
        nodes, times = self._nodes, self._times
        while node != _TERMINAL:
            var, low, low_off, high, high_off = nodes[node]
            try:
                bound = assignment[var]
            except KeyError:
                raise KeyError(f"variable {var} unbound during evaluation") from None
            if bound:
                value, node = times(value, high_off), high
            else:
                value, node = times(value, low_off), low
        return value

    def _reachable(self, root: int) -> set[int]:
        """Every node (the terminal included) reachable from root."""
        nodes = self._nodes
        seen = {root}
        stack = [root]
        while stack:
            node = stack.pop()
            if node == _TERMINAL:
                continue
            _, low, _, high, _ = nodes[node]
            for child in (low, high):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return seen

    def size(self, f: Function) -> int:
        """Number of distinct nodes (the terminal included) reachable from f."""
        return len(self._reachable(self._edge(f)[1]))

    def node_count(self) -> int:
        return len(self._nodes)

    def to_dot(self, f: Function) -> str:
        """Graphviz text, nodes by ascending id; solid edge = variable
        assigned 1, dashed = 0, each labelled with its offset; the graph's
        label is f's offset, which multiplies (log10: adds to) the root's."""
        offset, root = self._edge(f)
        lines = ["digraph add {", f'  label="offset {offset:.6g}";']
        for node in sorted(self._reachable(root)):
            if node == _TERMINAL:
                lines.append(f'  n{node} [shape=box, label="{self._unit:.6g}"];')
                continue
            var, low, low_off, high, high_off = self._nodes[node]
            lines.append(f'  n{node} [shape=oval, label="x{var}"];')
            lines.append(f'  n{node} -> n{high} [style=solid, label="{high_off:.6g}"];')
            lines.append(f'  n{node} -> n{low} [style=dashed, label="{low_off:.6g}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
