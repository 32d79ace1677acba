"""``solve_profile`` output pinned byte for byte on the analyze golden cases.

Each tractable case's ``serialize_solution`` output is kept under
``tests/data/solve/<case>.sol``: the optimal cost, the chosen outcome (so the
tie-breaks of every route) and the per-voter dissatisfaction.  The two cases
with a component that no solver takes raise ``Intractable`` instead.  A
deliberate change to a tie-break rewrites the files from ``CASES``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from cmsvote import Intractable, SolveConfig, serialize_solution, solve_profile

from test_analyze_golden import CASES

DATA = Path(__file__).parent / "data" / "solve"

INTRACTABLE_CASES = {"covers_past_cap", "sat_intractable"}

METHODS = {
    "brute_route": "brute+majority",
    "grid3": "mincut",
    "many_components": "majority+treewidth+mincut",
    "mincut_wide": "mincut",
    "treewidth_routes": "treewidth+mincut+majority",
}


def test_every_case_is_pinned():
    assert set(METHODS) | INTRACTABLE_CASES == set(CASES)
    assert not set(METHODS) & INTRACTABLE_CASES


@pytest.mark.parametrize("case", sorted(METHODS))
def test_solve_output_is_unchanged(case):
    profile = CASES[case]()
    solution = solve_profile(profile)
    assert serialize_solution(profile, solution) == (DATA / f"{case}.sol").read_text()
    assert solution.method == METHODS[case]
    checked = solve_profile(profile, SolveConfig(cross_validate=True))
    assert (checked.outcome, checked.cost, checked.method) == (
        solution.outcome,
        solution.cost,
        solution.method,
    )


@pytest.mark.parametrize("case", sorted(INTRACTABLE_CASES))
def test_intractable_cases_still_refuse(case):
    profile = CASES[case]()
    for config in (SolveConfig(), SolveConfig(cross_validate=True)):
        with pytest.raises(Intractable):
            solve_profile(profile, config)
