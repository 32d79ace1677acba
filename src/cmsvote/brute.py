"""Optimal solver for components whose outcome space fits a budget
(``analysis.BRUTE_BUDGET`` unless one is given; routing uses that bound).

It runs the bucket-elimination kernel ``_scan.eliminate`` in descending
issue order, which returns the lexicographically first minimizing outcome.
The simple oracle the tests check every solver against is
``tests/helpers.naive_optimum``, which enumerates outcomes one by one.
"""

from __future__ import annotations

from . import _scan
from .analysis import BRUTE_BUDGET
from .errors import BudgetExceeded, InternalMismatch
from .model import Profile, Solution, make_solution, outcome_space_size


def solve_brute(profile: Profile, budget: int = BRUTE_BUDGET) -> Solution:
    """Minimize total dissatisfaction over an outcome space of at most
    ``budget`` outcomes.

    Among minimizers the lexicographically smallest assignment vector wins.
    Raises BudgetExceeded when the outcome space, or the factor tables of
    the cost model, would be larger than ``budget``, and, before allocating
    any bucket table, when elimination would need more than
    ``_scan.MAX_TABLE_ENTRIES`` table entries.  With two or more
    alternatives per issue, as valid profiles have, at most twice the
    outcome space is needed, so that happens only for a budget above 2^26.
    """
    total = outcome_space_size(profile)
    if total > budget:
        raise BudgetExceeded(
            f"outcome space has {total} outcomes, budget is {budget}"
        )
    compiled = _scan.compile_cost_model(profile, budget)
    order = range(profile.m - 1, -1, -1)
    _scan.check_entries((axes for axes, _ in compiled.factors), compiled.dom, order)
    cost, outcome = _scan.eliminate(compiled, order)
    solution = make_solution(profile, outcome, "brute")
    if solution.cost != cost:
        raise InternalMismatch(
            f"bucket elimination reported cost {cost} but recomputation gives "
            f"{solution.cost}"
        )
    return solution
