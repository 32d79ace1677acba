"""Optimal solver for profiles whose ballots condition on at most one issue.

With premise scopes of size <= 1 every (voter, issue) dissatisfaction depends
on the issue's own value and at most one other issue, so the objective
decomposes into unary tables per issue and binary tables per global
dependency edge.  The minimum is then found by dynamic programming over a
nice tree decomposition of the global dependency graph: introduce nodes add
the new vertex's unary cost and its edges into the bag, forget nodes
minimize the vertex out (ties to the lowest alternative index), and join
nodes add child tables and subtract the bag-local cost that both branches
counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import (
    NiceTreeDecomposition,
    build_global_graph,
    heuristic_tree_decomposition,
    make_nice,
    verify_decomposition,
)
from .errors import (
    BudgetExceeded,
    DeltaTooLarge,
    InternalMismatch,
    InvalidDecomposition,
)
from .model import Profile, Solution, make_solution

# The tables are kept for the traceback, so their entries add up: 2^27 int64
# entries are 1 GiB.  A decomposition that needs more fails before the first
# table is allocated.
MAX_TABLE_ENTRIES = 1 << 27


@dataclass(frozen=True)
class CostModel:
    """unary[j][a] plus binary[(k, j)][a_k, a_j] dissatisfaction tables, k < j."""

    unary: tuple
    binary: dict

    def evaluate(self, outcome) -> int:
        total = sum(int(table[outcome[j]]) for j, table in enumerate(self.unary))
        total += sum(
            int(table[outcome[k], outcome[j]]) for (k, j), table in self.binary.items()
        )
        return total


def compile_cost_model(profile: Profile) -> CostModel:
    """Split the objective into unary and edge tables; requires scopes <= 1."""
    dom = profile.domain_sizes()
    unary = [np.zeros(d, dtype=np.int64) for d in dom]
    binary = {}
    for voter in profile.voters:
        for j, ballot in voter.ballots.items():
            if len(ballot.scope) > 1:
                raise DeltaTooLarge(
                    f"ballot on issue {j} conditions on {len(ballot.scope)} issues"
                )
            if not ballot.scope:
                approved = ballot.statements[()]
                for a in range(dom[j]):
                    if a not in approved:
                        unary[j][a] += 1
                continue
            (k,) = ballot.scope
            lo, hi = min(k, j), max(k, j)
            table = binary.get((lo, hi))
            if table is None:
                table = np.zeros((dom[lo], dom[hi]), dtype=np.int64)
                binary[(lo, hi)] = table
            for vk in range(dom[k]):
                approved = ballot.statements.get((vk,))
                for vj in range(dom[j]):
                    if approved is None or vj not in approved:
                        if k == lo:
                            table[vk, vj] += 1
                        else:
                            table[vj, vk] += 1
    return CostModel(tuple(unary), binary)


def _axis_shape(bag, vertex, dom):
    return tuple(dom[u] if u == vertex else 1 for u in bag)


def _edge_view(model: CostModel, bag, u, v, dom):
    """The (u, v) edge table broadcast over the bag's axes, or None.

    Bags are sorted, so the lower vertex's axis precedes the higher one and a
    plain reshape places the table correctly.
    """
    lo, hi = min(u, v), max(u, v)
    table = model.binary.get((lo, hi))
    if table is None:
        return None
    shape = [1] * len(bag)
    shape[bag.index(lo)] = table.shape[0]
    shape[bag.index(hi)] = table.shape[1]
    return table.reshape(shape)


def _bag_local_cost(model: CostModel, bag, dom):
    total = np.zeros(tuple(dom[u] for u in bag), dtype=np.int64)
    for u in bag:
        total = total + model.unary[u].reshape(_axis_shape(bag, u, dom))
    for a in range(len(bag)):
        for b in range(a + 1, len(bag)):
            view = _edge_view(model, bag, bag[a], bag[b], dom)
            if view is not None:
                total = total + view
    return total


def solve_treewidth(profile: Profile, nice: NiceTreeDecomposition = None) -> Solution:
    """Optimal outcome by dynamic programming over a nice tree decomposition.

    When ``nice`` is omitted, a min-fill heuristic decomposition of the global
    dependency graph is built and normalized.  Any valid decomposition gives
    the same cost; only the table sizes differ.  Time is
    O(#nodes * d^(width+1) * (width+1)) and memory O(#nodes * d^(width+1)),
    the tables being kept for the traceback.  Raises BudgetExceeded when the
    tables would hold more than ``MAX_TABLE_ENTRIES`` entries in total.
    """
    model = compile_cost_model(profile)
    graph = build_global_graph(profile)
    if nice is None:
        nice = make_nice(heuristic_tree_decomposition(graph))
    else:
        problem = verify_decomposition(graph, nice.to_decomposition())
        if problem is not None:
            raise InvalidDecomposition(problem)
        structure = _check_nice_structure(nice)
        if structure is not None:
            raise InvalidDecomposition(structure)

    dom = profile.domain_sizes()
    order = nice.postorder()
    entries = sum(math.prod(dom[v] for v in node.bag) for node in order)
    if entries > MAX_TABLE_ENTRIES:
        raise BudgetExceeded(
            f"dynamic program needs {entries} table entries, "
            f"limit is {MAX_TABLE_ENTRIES}"
        )
    tables = {}
    for node in order:
        if node.kind == "leaf":
            table = np.zeros((), dtype=np.int64)
        elif node.kind == "introduce":
            child = node.children[0]
            v = node.vertex
            pos = node.bag.index(v)
            table = np.expand_dims(tables[id(child)], pos) + model.unary[v].reshape(
                _axis_shape(node.bag, v, dom)
            )
            for u in node.bag:
                if u == v:
                    continue
                view = _edge_view(model, node.bag, u, v, dom)
                if view is not None:
                    table = table + view
        elif node.kind == "forget":
            child = node.children[0]
            pos = child.bag.index(node.vertex)
            table = tables[id(child)].min(axis=pos)
        else:  # join
            left, right = node.children
            table = (
                tables[id(left)]
                + tables[id(right)]
                - _bag_local_cost(model, node.bag, dom)
            )
        tables[id(node)] = table

    optimum = int(tables[id(nice.root)])

    # Walk back down, fixing each vertex at the forget node that removed it;
    # ties go to the lowest alternative index.
    assignment = {}
    stack = [(nice.root, {})]
    while stack:
        node, partial = stack.pop()
        if node.kind == "leaf":
            continue
        if node.kind == "forget":
            child = node.children[0]
            pos = child.bag.index(node.vertex)
            child_table = tables[id(child)]
            index = tuple(
                slice(None) if u == node.vertex else partial[u] for u in child.bag
            )
            value = int(np.argmin(child_table[index]))
            assignment[node.vertex] = value
            extended = dict(partial)
            extended[node.vertex] = value
            stack.append((child, extended))
        elif node.kind == "introduce":
            child = node.children[0]
            reduced = {u: partial[u] for u in child.bag}
            stack.append((child, reduced))
        else:  # join
            left, right = node.children
            stack.append((left, dict(partial)))
            stack.append((right, dict(partial)))

    outcome = tuple(assignment[j] for j in range(profile.m))
    solution = make_solution(profile, outcome, "treewidth")
    if solution.cost != optimum:
        raise InternalMismatch(
            f"dynamic program promises cost {optimum} but the outcome "
            f"re-evaluates to {solution.cost}"
        )
    return solution


def _check_nice_structure(nice: NiceTreeDecomposition):
    for node in nice.postorder():
        bag = set(node.bag)
        if node.kind == "leaf":
            if node.bag or node.children:
                return "leaf nodes must have empty bags and no children"
        elif node.kind == "introduce":
            if len(node.children) != 1:
                return "introduce nodes take exactly one child"
            child = set(node.children[0].bag)
            if node.vertex not in bag or bag - {node.vertex} != child or node.vertex in child:
                return "introduce must extend the child bag by exactly its vertex"
        elif node.kind == "forget":
            if len(node.children) != 1:
                return "forget nodes take exactly one child"
            child = set(node.children[0].bag)
            if node.vertex not in child or child - {node.vertex} != bag or node.vertex in bag:
                return "forget must shrink the child bag by exactly its vertex"
        elif node.kind == "join":
            if len(node.children) != 2:
                return "join nodes take exactly two children"
            if any(set(c.bag) != bag for c in node.children):
                return "join children must repeat the join bag"
        else:
            return f"unknown node kind {node.kind!r}"
    if nice.root.bag:
        return "root bag must be empty"
    return None
