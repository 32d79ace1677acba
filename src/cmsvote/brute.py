"""Optimal solver by the bucket-elimination kernel ``_scan.eliminate`` in
descending issue order, which returns the lexicographically first minimizing
outcome; routing sends it the components whose tables pass
``_scan.check_entries``.  The simple oracle the tests check every solver
against is ``tests/helpers.naive_optimum``, which enumerates outcomes.
"""

from __future__ import annotations

from . import _scan
from .errors import InternalMismatch
from .model import Profile, Solution, make_solution


def solve_brute(profile: Profile) -> Solution:
    """Minimize total dissatisfaction; among minimizers the lexicographically
    smallest assignment vector wins.  Raises BudgetExceeded, before
    allocating any table, when the factor or the bucket tables would hold
    more than ``_scan.MAX_TABLE_ENTRIES`` entries.
    """
    order = range(profile.m - 1, -1, -1)
    cost, outcome = _scan.eliminate(_scan.compile_cost_model(profile, order), order)
    solution = make_solution(profile, outcome, "brute")
    if solution.cost != cost:
        raise InternalMismatch(
            f"bucket elimination reported cost {cost} but recomputation gives "
            f"{solution.cost}"
        )
    return solution
