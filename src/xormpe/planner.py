"""Project-join trees and elimination-order planning.

A project-join tree pairs every clause with a leaf and assigns each internal
node a set of variables to project away. A tree is valid when (1) it is a
tree: every node under the root reached once, leaves childless, internal nodes
childless only at the root; (2) it has one leaf per clause, each under the
root; (3) the projected sets partition the formula's variables; and (4) every
clause that mentions a projected variable sits below the node projecting it.
`validate` is the one check of all four. The width of a tree bounds how many
variables any single execution step must juggle.

Trees are built by bucket elimination over a variable order; orders come from
greedy heuristics on the primal graph (variables adjacent when they share a
clause).
"""

from __future__ import annotations

import enum
import heapq
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .formula import Formula


class Heuristic(enum.Enum):
    MIN_DEGREE = "min-degree"
    MIN_FILL = "min-fill"
    LEXICOGRAPHIC = "lex"


@dataclass(slots=True)
class PjtNode:
    """One tree node; its id says which kind. Node i below the tree's
    `clause_count` is clause i's leaf, with children `()`; any other node
    holds a list of child ids and the variables `pi` it projects. `vars` are
    the variables the node passes up."""

    children: Sequence[int]
    vars: frozenset[int]
    pi: frozenset[int] = frozenset()


class MalformedTree(ValueError):
    """Raised by `post_order`; `node` is the node at fault (the parent of a
    bad child id), or None."""

    def __init__(self, message: str, node: int | None = None):
        super().__init__(message)
        self.node = node


@dataclass
class Violation:
    kind: str  # "structure" | "gamma" | "partition" | "descendant"
    message: str
    node: int | None = None
    variable: int | None = None
    clause: int | None = None


class ProjectJoinTree:
    """Arena-backed rooted tree; leaves are created up front, leaf i for
    clause i (ids 0..m-1). Internal nodes are appended afterwards."""

    def __init__(self, formula: Formula):
        self.var_count = formula.var_count
        self.clause_count = len(formula.clauses)
        self.nodes: list[PjtNode] = [
            PjtNode(children=(), vars=clause.variables) for clause in formula.clauses
        ]
        self.root: int | None = None

    def add_internal(self, children: Sequence[int], pi: Iterable[int]) -> int:
        pi = frozenset(pi)
        merged: set[int] = set()
        for child in children:
            merged |= self.nodes[child].vars
        node = PjtNode(children=list(children), vars=frozenset(merged - pi), pi=pi)
        self.nodes.append(node)
        return len(self.nodes) - 1

    def post_order(self) -> list[int]:
        """Ids of the nodes under the root, the root included, children
        before parents, children left to right. It holds every shape check:
        an id outside the arena, a node reached twice (shared, or on a cycle),
        a leaf with children or a childless non-root node raises `MalformedTree`."""
        nodes, root, count, leaves = self.nodes, self.root, len(self.nodes), self.clause_count
        if root is None or not 0 <= root < count:
            raise MalformedTree(f"root {root} is not a node id")
        # the reverse of a pre-order that visits children right to left
        reached = bytearray(count)
        reached[root] = 1
        order: list[int] = []
        stack = [root]
        while stack:
            index = stack.pop()
            order.append(index)
            children = nodes[index].children
            if not children:
                if index >= leaves and index != root:
                    raise MalformedTree(f"internal node {index} has no children", index)
                continue
            if index < leaves:
                raise MalformedTree(f"leaf {index} has children", index)
            for child in children:
                if not 0 <= child < count:
                    raise MalformedTree(f"node {index} has an out-of-range child", index)
                if reached[child]:
                    raise MalformedTree(f"node {child} reached again from node {index}", index)
                reached[child] = 1
            stack.extend(children)
        return order[::-1]

    def width(self) -> int:
        """Largest per-node variable count |vars ∪ pi| (a leaf's pi is
        empty). `add_internal` keeps vars and pi disjoint, so the union is
        built only for a node made otherwise."""
        best = 0
        for node in self.nodes:
            vars, pi = node.vars, node.pi
            size = len(vars) + len(pi) if vars.isdisjoint(pi) else len(vars | pi)
            best = max(best, size)
        return best

    def to_jt_text(self) -> str:
        """Serialize: leaves are implicitly 1..clause_count, internal nodes
        get one line each: `<id> <child ids...> e <projected vars...>`."""
        if self.root is None:
            raise ValueError("tree has no root")
        lines = [f"p jt {self.var_count} {self.clause_count} {len(self.nodes)}"]
        for index in range(self.clause_count, len(self.nodes)):
            node = self.nodes[index]
            parts = [str(index + 1)]
            parts += [str(child + 1) for child in node.children]
            parts.append("e")
            parts += [str(v) for v in sorted(node.pi)]
            lines.append(" ".join(parts))
        return "\n".join(lines) + "\n"


def primal_graph(formula: Formula) -> dict[int, set[int]]:
    adjacency: dict[int, set[int]] = {v: set() for v in formula.variables}
    for clause in formula.clauses:
        variables = clause.variables
        for u in variables:
            adjacency[u] |= variables
    for u, neighbors in adjacency.items():
        neighbors.discard(u)
    return adjacency


def heuristic_order(formula: Formula, heuristic: Heuristic | str) -> list[int]:
    """Greedy elimination order on the primal graph: repeatedly eliminate the
    vertex of least cost (degree, or number of missing edges among its
    neighbours), ties broken toward the smallest variable index. `heuristic`
    is a `Heuristic` or its value; anything else raises ValueError.

    Costs live in a dict and the minimum comes off a lazy heap of (cost, var)
    entries; an entry whose cost is out of date is skipped. `_cost` runs once
    per vertex, with no set work for a variable of at most one clause, whose
    neighbours are a clique (min-fill cost 0). Each elimination then applies
    its exact changes, so orders match a rescan of every vertex at every
    step. Eliminating `chosen` with neighbours N drops it from each u in N,
    which loses one degree, or for min-fill the |N(u) - N| pairs (chosen, w)
    it was missing, |N(u)| - |N| + 1 if N is a clique. Then each fill edge
    (a, b), with C = N(a) & N(b) before it, gives a and b one degree each, or
    for min-fill |N(a)| - |C| and |N(b)| - |C| new missing pairs, and closes
    one pair of each c in C. Each touched vertex goes back on the heap.
    """
    heuristic = Heuristic(heuristic)
    if heuristic is Heuristic.LEXICOGRAPHIC:
        return list(formula.variables)
    fill = heuristic is Heuristic.MIN_FILL
    adjacency = primal_graph(formula)
    clauses = Counter(lit.var for clause in formula.clauses for lit in clause.literals)
    costs = {v: _cost(adjacency, v, heuristic, clauses[v] < 2) for v in adjacency}
    heap = [(cost, v) for v, cost in costs.items()]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        cost, chosen = heapq.heappop(heap)
        if costs.get(chosen) != cost:
            continue
        del costs[chosen]
        order.append(chosen)
        neighbors = adjacency.pop(chosen)
        touched = set(neighbors)
        for u in neighbors:
            adjacency[u].discard(chosen)
            if fill and not cost:  # N is a clique: u already sees N - {u}
                costs[u] -= len(adjacency[u]) - len(neighbors) + 1
            else:
                costs[u] -= len(adjacency[u] - neighbors) if fill else 1
        # a min-fill cost of 0: the neighbours are a clique already, no fill
        for u in () if fill and not cost else neighbors:
            for v in neighbors - adjacency[u]:
                if u < v:
                    if fill:
                        common = adjacency[u] & adjacency[v]
                        touched |= common
                        for c in common:
                            costs[c] -= 1
                        costs[u] += len(adjacency[u]) - len(common)
                        costs[v] += len(adjacency[v]) - len(common)
                    else:
                        costs[u] += 1
                        costs[v] += 1
                    adjacency[u].add(v)
                    adjacency[v].add(u)
        for v in touched:
            heapq.heappush(heap, (costs[v], v))
    return order


def _cost(adjacency: dict[int, set[int]], var: int, heuristic: Heuristic,
          clique: bool) -> int:
    """Degree, or for min-fill the number of non-adjacent neighbour pairs:
    0 when `clique` says the neighbours are pairwise adjacent, else all
    d(d-1)/2 pairs less the edges among the neighbours, each of which the
    sum of |N(var) ∩ N(u)| over u in N(var) counts twice."""
    neighbors = adjacency[var]
    d = len(neighbors)
    if heuristic is Heuristic.MIN_DEGREE:
        return d
    if clique:
        return 0
    return (d * (d - 1) - sum(len(neighbors & adjacency[u]) for u in neighbors)) // 2


def plan(formula: Formula, order: Sequence[int]) -> ProjectJoinTree:
    """Bucket elimination over integer variables (floats raise TypeError):
    each subtree waits in the bucket of its first variable in `order`; each
    nonempty bucket becomes a node projecting that variable, and the last
    bucket the root, projecting the variables whose bucket stayed empty.
    Buckets fill in ascending id order, so children lists come out sorted."""
    order = [operator.index(x) for x in order]
    if sorted(order) != list(formula.variables):
        raise ValueError("order is not a permutation of the formula variables")

    tree = ProjectJoinTree(formula)
    position = {x: i for i, x in enumerate(order)}
    rank, nodes, end = position.__getitem__, tree.nodes, len(order)
    buckets: list[list[int]] = [[] for _ in range(end + 1)]
    for node in range(tree.clause_count):
        buckets[min(map(rank, nodes[node].vars), default=end)].append(node)
    for x, bucket in zip(order, buckets):
        if bucket:
            node = tree.add_internal(bucket, {x})
            buckets[min(map(rank, nodes[node].vars), default=end)].append(node)
    unused = [x for x, bucket in zip(order, buckets) if not bucket]
    tree.root = tree.add_internal(buckets[-1], unused)
    return tree


def validate(tree: ProjectJoinTree, formula: Formula) -> Violation | None:
    """Check the tree against the formula; None when valid, else the first
    violation, one check after another: shape, one leaf per clause, the
    partition (nodes in pre-order), the descendant condition (nodes in
    pre-order, then variables, then clauses, ascending). `post_order()` is the
    one walk: its `MalformedTree` is a "structure" violation. `valuate`, and
    so `solve` and `count`, refuse a tree this refuses, with its message."""
    try:
        checked = _checked_order(tree, formula)
    except MalformedTree as exc:
        return Violation("structure", str(exc), node=exc.node)
    return checked if isinstance(checked, Violation) else None


def _checked_order(tree: ProjectJoinTree, formula: Formula) -> list[int] | Violation:
    """`validate`'s walk: the post-order, else a violation; a bad shape raises `MalformedTree`."""
    order = tree.post_order()
    # leaf i is clause i, and the post-order holds each id at most once
    nodes, m = tree.nodes, len(formula.clauses)
    if tree.clause_count != m:
        return Violation("gamma", f"tree has {tree.clause_count} leaves for {m} clauses")
    if sum(index < m for index in order) < m:
        return Violation("gamma", f"tree leaves out clause {min(set(range(m)).difference(order))}")

    projector: dict[int, int] = {}
    for index in reversed(order):
        if index < m:
            continue
        for x in nodes[index].pi:
            # a bool is an int, and 1.0 == 1, but neither is a variable index
            if not isinstance(x, int) or isinstance(x, bool) or not 1 <= x <= formula.var_count:
                return Violation("partition",
                                 f"projected variable {x!r} is not an int in 1..{formula.var_count}",
                                 node=index, variable=x)
            if x in projector:
                return Violation(
                    "partition",
                    f"tree projects variable {x} twice, at node {projector[x]} and node {index}",
                    node=index, variable=x)
            projector[x] = index
    for x in formula.variables:
        if x not in projector:
            return Violation("partition", f"variable {x} is never projected", variable=x)

    # a subtree is a run of the post-order ending at its root, and clause c's
    # leaf is node c, in the order since gamma holds: "below" is a range test.
    # Nodes in pre-order are by descending position, so the first violation
    # is the least (-position[node], x, c)
    position = [0] * len(nodes)
    first = [0] * len(nodes)
    for at, index in enumerate(order):
        children = nodes[index].children
        position[index] = at
        first[index] = first[children[0]] if children else at
    least = None
    for c, clause in enumerate(formula.clauses):
        at = position[c]
        for literal in clause.literals:
            node = projector[literal.var]
            if not first[node] <= at <= position[node]:
                fault = (-position[node], literal.var, c, node)
                if least is None or fault < least:
                    least = fault
    if least is None:
        return order
    _, x, c, node = least
    return Violation("descendant", f"clause {c} uses variable {x} but is not below node {node}",
                     node=node, variable=x, clause=c)
