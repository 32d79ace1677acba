"""Optimal solver for profiles whose ballots condition on at most one issue.

With premise scopes of size <= 1 every factor table of the profile's cost
model (``_scan.compile_cost_model``, the compiler the outcome scan uses too)
spans one issue or the two ends of a global dependency edge.  The minimum is
then found by dynamic programming over a nice tree decomposition of the
global dependency graph, in the manner of bucket elimination: each factor is
charged once, at the forget node of the first of its axes to leave the bag,
which adds the factor broadcast over the child bag and then minimizes the
vertex out (ties to the lowest alternative index).  Introduce nodes
broadcast the child table over the new axis without copying it, and join
nodes add the child tables.  The bags' table entries are predicted and
checked against ``MAX_TABLE_ENTRIES`` before the factor tables are compiled.
"""

from __future__ import annotations

import math

from ._scan import compile_cost_model
from .analysis import (
    NiceTreeDecomposition,
    build_global_graph,
    heuristic_tree_decomposition,
    make_nice,
    max_in_degree,
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


def solve_treewidth(profile: Profile, nice: NiceTreeDecomposition = None) -> Solution:
    """Optimal outcome by dynamic programming over a nice tree decomposition.

    When ``nice`` is omitted, a min-fill heuristic decomposition of the global
    dependency graph is built and normalized.  Any valid decomposition gives
    the same cost; only the table sizes differ.  Time is
    O(#nodes * d^(width+1) * (width+1)).  Memory is the tables still waiting
    for their parent plus one argmin table per forget node, in the smallest
    unsigned type that holds the forgotten vertex's alternatives; the
    traceback reads only those argmins.  Raises DeltaTooLarge when a ballot
    conditions on more than one issue, and BudgetExceeded, before compiling
    any factor table, when the bags would hold more than
    ``MAX_TABLE_ENTRIES`` table entries in total.
    """
    import numpy as np

    delta = max_in_degree(profile)
    if delta > 1:
        raise DeltaTooLarge(
            f"a ballot conditions on {delta} issues; the dynamic program "
            "takes at most 1"
        )
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
    model = compile_cost_model(profile, MAX_TABLE_ENTRIES)

    # A factor's axes form an edge or a single vertex of the graph, so they
    # are all in the child bag of the forget node of the first one to leave.
    forget_rank = {
        node.vertex: rank for rank, node in enumerate(order) if node.kind == "forget"
    }
    charges = {}
    for axes, factor in model.factors:
        charges.setdefault(min(axes, key=forget_rank.__getitem__), []).append(
            (axes, factor)
        )

    tables = {}
    choices = {}
    for node in order:
        if node.kind == "leaf":
            table = np.zeros((), dtype=model.dtype)
        elif node.kind == "introduce":
            pos = node.bag.index(node.vertex)
            table = np.expand_dims(tables.pop(id(node.children[0])), pos)
        elif node.kind == "forget":
            child = node.children[0]
            v = node.vertex
            table = tables.pop(id(child))
            # Axes and bags are both ascending, so a reshape that gives the
            # factor's axes their sizes and every other bag axis size 1
            # broadcasts it over the child bag.
            for axes, factor in charges.get(v, ()):
                shape = [1] * len(child.bag)
                for u, n in zip(axes, factor.shape):
                    shape[child.bag.index(u)] = n
                table = table + factor.reshape(shape)
            pos = child.bag.index(v)
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
