"""Optimal solver for profiles whose ballots condition on at most one issue.

With premise scopes of size <= 1 every (voter, issue) dissatisfaction depends
on the issue's own value and at most one other issue, so the objective
decomposes into unary tables per issue and binary tables per global
dependency edge.  The minimum is then found by dynamic programming over a
nice tree decomposition of the global dependency graph, in the manner of
bucket elimination: each cost table is charged once, at the forget node of
its first vertex to leave the bag, which adds the vertex's unary table and
its edges into the rest of the bag and then minimizes the vertex out (ties to
the lowest alternative index).  Introduce nodes broadcast the child table
over the new axis without copying it, and join nodes add the child tables.
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

# Bounds the work of the dynamic program: the sum over the nice decomposition's
# bags of the product of their domain sizes.  Each table is freed once its
# parent is built, so this is work rather than memory held at once.  A
# decomposition that needs more fails before the first table is allocated.
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


def solve_treewidth(profile: Profile, nice: NiceTreeDecomposition = None) -> Solution:
    """Optimal outcome by dynamic programming over a nice tree decomposition.

    When ``nice`` is omitted, a min-fill heuristic decomposition of the global
    dependency graph is built and normalized.  Any valid decomposition gives
    the same cost; only the table sizes differ.  Time is
    O(#nodes * d^(width+1) * (width+1)).  Memory is the tables still waiting
    for their parent plus one argmin table per forget node, in the smallest
    unsigned type that holds the forgotten vertex's alternatives; the
    traceback reads only those argmins.  Raises BudgetExceeded when the bags
    would hold more than ``MAX_TABLE_ENTRIES`` table entries in total.
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
    choices = {}
    for node in order:
        if node.kind == "leaf":
            table = np.zeros((), dtype=np.int64)
        elif node.kind == "introduce":
            pos = node.bag.index(node.vertex)
            table = np.expand_dims(tables.pop(id(node.children[0])), pos)
        elif node.kind == "forget":
            child = node.children[0]
            v = node.vertex
            pos = child.bag.index(v)
            table = tables.pop(id(child)) + model.unary[v].reshape(
                _axis_shape(child.bag, v, dom)
            )
            for u in child.bag:
                if u == v:
                    continue
                view = _edge_view(model, child.bag, u, v, dom)
                if view is not None:
                    table = table + view
            choices[id(node)] = table.argmin(axis=pos).astype(
                np.min_scalar_type(dom[v] - 1)
            )
            table = table.min(axis=pos)
        else:  # join
            left, right = node.children
            table = tables.pop(id(left)) + tables.pop(id(right))
        tables[id(node)] = table

    optimum = int(tables[id(nice.root)])

    # Parents come before children in reverse postorder, and every vertex of
    # a forget node's bag is forgotten further up, so its value is known.  An
    # argmin keeps a size-1 axis for each bag vertex its table did not yet
    # depend on; that axis is indexed at 0.
    assignment = {}
    for node in reversed(order):
        if node.kind == "forget":
            choice = choices[id(node)]
            values = tuple(
                assignment[u] if n > 1 else 0 for u, n in zip(node.bag, choice.shape)
            )
            assignment[node.vertex] = int(choice[values])

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
