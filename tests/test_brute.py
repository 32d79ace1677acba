import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmsvote import (
    BudgetExceeded,
    Profile,
    gen_random,
    solve_brute,
    total_dissatisfaction,
)
from cmsvote import _scan
from cmsvote.model import Voter, approve, make_profile

from helpers import build_p1, naive_optimum


class TestSolveBrute:
    def test_p1(self):
        solution = solve_brute(build_p1())
        assert solution.outcome == (0, 0)
        assert solution.cost == 1
        assert solution.per_voter == (1, 0)
        assert solution.method == "brute"

    def test_approve_all_profile_breaks_ties_lexicographically(self):
        profile = make_profile(
            [("A", ("0", "1", "2")), ("B", ("0", "1"))],
            [("v", []), ("w", [])],
        )
        solution = solve_brute(profile)
        assert solution.outcome == (0, 0)
        assert solution.cost == 0

    def test_budget_exceeded(self, monkeypatch):
        profile = gen_random(6, 2, d_max=3, delta_max=1, statement_density=0.5, seed=0)
        monkeypatch.setattr(_scan, "MAX_TABLE_ENTRIES", 10)
        with pytest.raises(BudgetExceeded, match="table entries, limit is 10"):
            solve_brute(profile)

    def test_deterministic(self):
        profile = gen_random(5, 4, d_max=3, delta_max=2, statement_density=0.6, seed=9)
        assert solve_brute(profile) == solve_brute(profile)

    def test_solution_invariants(self):
        profile = gen_random(4, 5, d_max=3, delta_max=2, statement_density=0.7, seed=3)
        solution = solve_brute(profile)
        assert sum(solution.per_voter) == solution.cost
        assert solution.cost == total_dissatisfaction(profile, solution.outcome)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_naive_enumeration(self, seed):
        profile = gen_random(
            4, 4, d_max=3, delta_max=2, statement_density=0.6, seed=seed
        )
        expected_cost, expected_outcome = naive_optimum(profile)
        solution = solve_brute(profile)
        assert solution.cost == expected_cost
        assert solution.outcome == expected_outcome

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_optimum_never_drops_when_a_voter_arrives(self, seed):
        profile = gen_random(
            4, 3, d_max=2, delta_max=1, statement_density=0.6, seed=seed
        )
        extra = gen_random(
            4, 1, d_max=2, delta_max=1, statement_density=0.9, seed=seed + 1
        )
        joiner = Voter("newcomer", dict(extra.voters[0].ballots))
        grown = Profile(profile.issues, profile.voters + (joiner,))
        assert solve_brute(grown).cost >= solve_brute(profile).cost

    def test_never_satisfiable_ballot_counted_everywhere(self):
        from cmsvote.model import issue_ballot

        profile = make_profile(
            [("A", ("0", "1")), ("B", ("0", "1"))],
            [("v", [issue_ballot(1, (0,), {})]), ("w", [approve(0, {1})])],
        )
        solution = solve_brute(profile)
        assert solution.cost == 1  # the empty-map ballot costs 1 no matter what
        assert solution.outcome == (1, 0)
