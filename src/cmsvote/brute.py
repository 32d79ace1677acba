"""Exhaustive optimal solver; the correctness oracle for every other solver."""

from __future__ import annotations

from . import _scan
from .analysis import DEFAULT_BRUTE_BUDGET
from .errors import BudgetExceeded, InternalMismatch
from .model import Profile, Solution, make_solution, outcome_space_size


def solve_brute(profile: Profile, budget: int = DEFAULT_BRUTE_BUDGET) -> Solution:
    """Minimize total dissatisfaction by enumerating every outcome.

    Outcomes are scanned in mixed-radix counting order over issue indices, so
    among minimizers the lexicographically smallest assignment vector wins.
    Raises BudgetExceeded when the outcome space, or the factor tables the
    scan sums, would be larger than ``budget``.
    """
    total = outcome_space_size(profile)
    if total > budget:
        raise BudgetExceeded(
            f"outcome space has {total} outcomes, budget is {budget}"
        )
    compiled = _scan.compile_cost_model(profile, budget)
    cost, index = _scan.scan_best(compiled)
    outcome = _scan.decode_outcome(compiled, index)
    solution = make_solution(profile, outcome, "brute")
    if solution.cost != cost:
        raise InternalMismatch(
            f"scan kernel reported cost {cost} but recomputation gives {solution.cost}"
        )
    return solution
