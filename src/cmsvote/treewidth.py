"""Optimal solver for profiles whose ballots condition on at most one issue.

With premise scopes of size <= 1 every factor table of the profile's cost
model (``_scan.compile_cost_model``) spans one issue or the two ends of a
global dependency edge.  The minimum is found by the bucket-elimination
kernel ``_scan.eliminate``, the one ``BRUTE`` runs too, along the order in
which a nice tree decomposition of the global dependency graph forgets its
vertices.  Along that order every bucket's scope lies within a bag, so the
tables stay as small as the decomposition's width allows; among minimizers,
each issue takes the lowest alternative that minimizes its bucket given the
issues eliminated after it.  The compiler checks the bucket tables'
entries along that order against ``_scan.MAX_TABLE_ENTRIES`` before it
allocates any table.  ``dispatch`` passes the decomposition ``classify``
kept for the component.
"""

from __future__ import annotations

from ._scan import compile_cost_model, eliminate
from .analysis import (
    TreeDecomposition,
    build_global_graph,
    heuristic_tree_decomposition,
    make_nice,
    max_in_degree,
    verify_decomposition,
)
from .errors import DeltaTooLarge, InternalMismatch, InvalidDecomposition
from .model import Profile, Solution, make_solution


def solve_treewidth(profile: Profile, decomposition: TreeDecomposition = None) -> Solution:
    """Optimal outcome by bucket elimination in the forget order of
    ``make_nice(decomposition)``.

    When ``decomposition`` is omitted, a min-fill heuristic decomposition of
    the global dependency graph is built.  Any valid decomposition gives
    the same cost; only the table sizes differ.  Time is
    O(m * d^(width+1) * (width+1)).  Raises DeltaTooLarge when a ballot
    conditions on more than one issue, InvalidDecomposition when a given
    ``decomposition`` does not decompose the graph,
    and BudgetExceeded, before allocating any table, when the factor or the
    bucket tables would hold more than ``_scan.MAX_TABLE_ENTRIES`` entries.
    """
    delta = max_in_degree(profile)
    if delta > 1:
        raise DeltaTooLarge(
            f"a ballot conditions on {delta} issues; the dynamic program "
            "takes at most 1"
        )
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

    optimum, outcome = eliminate(compile_cost_model(profile, order), order)
    solution = make_solution(profile, outcome, "treewidth")
    if solution.cost != optimum:
        raise InternalMismatch(
            f"bucket elimination promises cost {optimum} but the outcome "
            f"re-evaluates to {solution.cost}"
        )
    return solution
