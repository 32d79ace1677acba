"""Optimal solver by bucket elimination along a tree decomposition.

The minimum of the profile's cost model (``_scan.compile_cost_model``) is
found by the bucket-elimination kernel ``_scan.eliminate``, the one
``BRUTE`` runs too, along the order in which a nice tree decomposition of
the global dependency graph forgets its vertices.  Elimination is exact
along any order, so any premise scope is solved; with scopes of size <= 1,
the only ones routing sends here, every bucket's scope lies within a bag,
so the tables stay as small as the decomposition's width allows.  Among
minimizers, each issue takes the lowest alternative that minimizes its
bucket given the issues eliminated after it.  The compiler checks the
tables' entries against ``_scan.MAX_TABLE_ENTRIES`` before it allocates
any.  ``dispatch`` passes one decomposition per TREEWIDTH job: the
decompositions ``classify`` kept for its components, hung off one empty
bag, or a lone component's own.
"""

from __future__ import annotations

from ._scan import compile_cost_model, eliminate
from .analysis import (
    TreeDecomposition,
    build_global_graph,
    heuristic_tree_decomposition,
    make_nice,
    verify_decomposition,
)
from .errors import InternalMismatch, InvalidDecomposition
from .model import Profile, Solution, make_solution


def solve_treewidth(profile: Profile, decomposition: TreeDecomposition = None) -> Solution:
    """Optimal outcome by bucket elimination in the forget order of
    ``make_nice(decomposition)``.

    When ``decomposition`` is omitted, a min-fill heuristic decomposition of
    the global dependency graph is built.  Any valid decomposition gives
    the same cost; only the table sizes differ.  At delta <= 1, time is
    O(m * d^(width+1) * (width+1)).  Raises InvalidDecomposition when a
    given ``decomposition`` does not decompose the graph, and
    BudgetExceeded, before allocating any table, when the factor or the
    bucket tables would hold more than ``_scan.MAX_TABLE_ENTRIES`` entries.
    """
    graph = build_global_graph(profile)
    if decomposition is None:
        decomposition = heuristic_tree_decomposition(graph)
    else:
        problem = verify_decomposition(graph, decomposition)
        if problem is not None:
            raise InvalidDecomposition(problem)
    # A valid decomposition's nice form forgets every issue exactly once.
    nice = make_nice(decomposition)
    order = [node.vertex for node in nice.postorder() if node.kind == "forget"]
    del graph, decomposition, nice  # freed before the tables are compiled

    optimum, outcome = eliminate(compile_cost_model(profile, order), order)
    solution = make_solution(profile, outcome, "treewidth")
    if solution.cost != optimum:
        raise InternalMismatch(
            f"bucket elimination promises cost {optimum} but the outcome "
            f"re-evaluates to {solution.cost}"
        )
    return solution
