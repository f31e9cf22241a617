"""Project-join trees and elimination-order planning.

A project-join tree pairs every clause with a leaf and assigns each internal
node a set of variables to project away. A tree is valid when (1) the
projected sets partition the formula's variables and (2) every clause that
mentions a projected variable sits below the node projecting it. The width of
a tree bounds how many variables any single execution step must juggle.

Trees are built by bucket elimination over a variable order; orders come from
greedy heuristics on the primal graph (variables adjacent when they share a
clause).
"""

from __future__ import annotations

import enum
import heapq
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .formula import Formula


class Heuristic(enum.Enum):
    MIN_DEGREE = "min-degree"
    MIN_FILL = "min-fill"
    LEXICOGRAPHIC = "lex"


@dataclass
class PjtNode:
    children: list[int]
    vars: frozenset[int]
    clause_index: int | None = None
    pi: frozenset[int] = frozenset()

    @property
    def is_leaf(self) -> bool:
        return self.clause_index is not None


@dataclass
class Violation:
    kind: str  # "structure" | "gamma" | "partition" | "descendant"
    message: str
    node: int | None = None
    variable: int | None = None
    clause: int | None = None


class ProjectJoinTree:
    """Arena-backed rooted tree; leaves are created up front, one per clause,
    in clause order (ids 0..m-1). Internal nodes are appended afterwards."""

    def __init__(self, formula: Formula):
        self.var_count = formula.var_count
        self.clause_count = len(formula.clauses)
        self.nodes: list[PjtNode] = [
            PjtNode(children=[], vars=clause.variables, clause_index=i)
            for i, clause in enumerate(formula.clauses)
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
        before parents, children left to right."""
        if self.root is None:
            raise ValueError("tree has no root")
        result: list[int] = []
        stack: list[tuple[int, bool]] = [(self.root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                result.append(node)
                continue
            stack.append((node, True))
            for child in reversed(self.nodes[node].children):
                stack.append((child, False))
        return result

    def width(self) -> int:
        """Largest per-node variable count: |vars| at leaves, |vars ∪ pi| at
        internal nodes."""
        best = 0
        for node in self.nodes:
            size = len(node.vars) if node.is_leaf else len(node.vars | node.pi)
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
    per vertex; each elimination then applies its exact changes, so orders
    match a rescan of every vertex at every step. Eliminating `chosen` with
    neighbours N drops it from each u in N, which loses one degree, or for
    min-fill the |N(u) - N| pairs (chosen, w) it was missing. Then each fill
    edge (a, b), with C = N(a) & N(b) before it, gives a and b one degree
    each, or for min-fill |N(a)| - |C| and |N(b)| - |C| new missing pairs, and
    closes one pair of each c in C. Each touched vertex goes back on the heap.
    """
    heuristic = Heuristic(heuristic)
    if heuristic is Heuristic.LEXICOGRAPHIC:
        return list(formula.variables)
    fill = heuristic is Heuristic.MIN_FILL
    adjacency = primal_graph(formula)
    costs = {v: _cost(adjacency, v, heuristic) for v in adjacency}
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
            costs[u] -= len(adjacency[u] - neighbors) if fill else 1
        for u in neighbors:
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


def _cost(adjacency: dict[int, set[int]], var: int, heuristic: Heuristic) -> int:
    """Degree, or for min-fill the number of non-adjacent neighbour pairs:
    all d(d-1)/2 pairs less the edges among the neighbours, each of which
    the sum of |N(var) ∩ N(u)| over u in N(var) counts twice."""
    neighbors = adjacency[var]
    d = len(neighbors)
    if heuristic is Heuristic.MIN_DEGREE:
        return d
    return (d * (d - 1) - sum(len(neighbors & adjacency[u]) for u in neighbors)) // 2


def plan(formula: Formula, order: Sequence[int]) -> ProjectJoinTree:
    """Bucket elimination over integer variables (floats raise TypeError): one
    internal node per eliminated variable, plus a final root that joins the
    leftover subtrees and carries the variables that occur in no clause."""
    order = [operator.index(x) for x in order]
    if sorted(order) != list(formula.variables):
        raise ValueError("order is not a permutation of the formula variables")

    tree = ProjectJoinTree(formula)
    active: dict[int, frozenset[int]] = {
        i: tree.nodes[i].vars for i in range(tree.clause_count)
    }
    by_var: dict[int, set[int]] = {v: set() for v in formula.variables}
    for subtree, variables in active.items():
        for v in variables:
            by_var[v].add(subtree)

    unused: list[int] = []
    for x in order:
        holders = sorted(by_var[x])
        if not holders:
            unused.append(x)
            continue
        node = tree.add_internal(holders, {x})
        for subtree in holders:
            for v in active.pop(subtree):
                by_var[v].discard(subtree)
        active[node] = tree.nodes[node].vars
        for v in active[node]:
            by_var[v].add(node)

    tree.root = tree.add_internal(sorted(active), unused)
    return tree


def validate(tree: ProjectJoinTree, formula: Formula) -> Violation | None:
    """Check the tree against the formula; None when valid, else the first
    violation found."""
    if tree.root is None or not (0 <= tree.root < len(tree.nodes)):
        return Violation("structure", "missing or out-of-range root")

    reached: list[int] = []
    seen: set[int] = set()
    stack = [tree.root]
    while stack:
        index = stack.pop()
        if index in seen:
            return Violation("structure", f"node {index} reached twice", node=index)
        seen.add(index)
        reached.append(index)
        node = tree.nodes[index]
        if node.is_leaf and node.children:
            return Violation("structure", f"leaf {index} has children", node=index)
        if not node.is_leaf and not node.children and index != tree.root:
            return Violation("structure", f"internal node {index} has no children", node=index)
        if any(not 0 <= child < len(tree.nodes) for child in node.children):
            return Violation("structure", f"node {index} has an out-of-range child", node=index)
        stack.extend(node.children)

    leaves = [i for i in reached if tree.nodes[i].is_leaf]
    clause_indices = sorted(tree.nodes[i].clause_index for i in leaves)
    if clause_indices != list(range(len(formula.clauses))):
        return Violation("gamma", "leaves do not biject the clauses")
    if len(formula.clauses) > 0 and not tree.nodes[tree.root].is_leaf \
            and not tree.nodes[tree.root].children:
        return Violation("structure", "childless root over a nonempty clause set")

    assigned: dict[int, int] = {}
    for index in reached:
        node = tree.nodes[index]
        if node.is_leaf:
            continue
        for x in node.pi:
            if x < 1 or x > formula.var_count:
                return Violation("partition", f"projected variable {x} out of range",
                                 node=index, variable=x)
            if x in assigned:
                return Violation(
                    "partition",
                    f"variable {x} projected at both node {assigned[x]} and node {index}",
                    node=index, variable=x)
            assigned[x] = index
    for x in formula.variables:
        if x not in assigned:
            return Violation("partition", f"variable {x} is never projected", variable=x)

    clauses_of_var: dict[int, list[int]] = {v: [] for v in formula.variables}
    for c, clause in enumerate(formula.clauses):
        for v in clause.variables:
            clauses_of_var[v].append(c)

    # a subtree is a run of the post-order ending at its root: "below" is a range test
    position: dict[int, int] = {}
    first: dict[int, int] = {}
    leaf_position: dict[int, int] = {}
    for at, index in enumerate(tree.post_order()):
        node = tree.nodes[index]
        position[index] = at
        first[index] = first[node.children[0]] if node.children else at
        if node.is_leaf:
            leaf_position[node.clause_index] = at
    for index in reached:
        node = tree.nodes[index]
        if node.is_leaf:
            continue
        for x in sorted(node.pi):
            for c in clauses_of_var[x]:
                if not first[index] <= leaf_position[c] <= position[index]:
                    return Violation(
                        "descendant",
                        f"clause {c} uses variable {x} but is not below node {index}",
                        node=index, variable=x, clause=c)
    return None
