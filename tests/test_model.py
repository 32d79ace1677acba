import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmsvote import (
    Profile,
    approve,
    gen_random,
    is_satisfied,
    issue_ballot,
    make_profile,
    total_dissatisfaction,
    validate_profile,
    voter_dissatisfaction,
)
from cmsvote.model import Voter

from helpers import build_p1, naive_optimum


def all_outcomes(profile):
    return itertools.product(*(range(d) for d in profile.domain_sizes()))


class TestSatisfaction:
    def test_conditional_premise_match(self):
        p1 = build_p1()
        assert is_satisfied(p1, 0, 1, (1, 1)) is True

    def test_conditional_approval_miss(self):
        p1 = build_p1()
        assert is_satisfied(p1, 0, 1, (1, 0)) is False

    def test_approve_all_voter_always_satisfied(self):
        profile = make_profile(
            [("A", ("0", "1")), ("B", ("x", "y", "z"))],
            [("v", [])],
        )
        for outcome in all_outcomes(profile):
            for j in range(profile.m):
                assert is_satisfied(profile, 0, j, outcome)

    def test_absent_premise_means_dissatisfied(self):
        profile = make_profile(
            [("A", ("0", "1")), ("B", ("0", "1"))],
            [("v", [issue_ballot(1, (0,), {(1,): {1}})])],
        )
        assert not is_satisfied(profile, 0, 1, (0, 0))
        assert not is_satisfied(profile, 0, 1, (0, 1))
        assert is_satisfied(profile, 0, 1, (1, 1))

    def test_out_of_range_indices(self):
        p1 = build_p1()
        with pytest.raises(IndexError):
            is_satisfied(p1, 5, 0, (0, 0))
        with pytest.raises(IndexError):
            is_satisfied(p1, -1, 0, (0, 0))
        with pytest.raises(IndexError):
            voter_dissatisfaction(p1, 2, (0, 0))


class TestDissatisfaction:
    def test_p1_hand_evaluation(self):
        p1 = build_p1()
        assert voter_dissatisfaction(p1, 1, (1, 1)) == 2
        assert voter_dissatisfaction(p1, 0, (0, 0)) == 1
        assert total_dissatisfaction(p1, (0, 0)) == 1
        assert total_dissatisfaction(p1, (1, 1)) == 2
        # full table, evaluated by hand
        assert [total_dissatisfaction(p1, o) for o in all_outcomes(p1)] == [1, 3, 2, 2]

    def test_bounds(self):
        for seed in range(10):
            profile = gen_random(4, 3, d_max=3, delta_max=2,
                                 statement_density=0.5, seed=seed)
            for outcome in all_outcomes(profile):
                cost = total_dissatisfaction(profile, outcome)
                assert 0 <= cost <= profile.n * profile.m

    def test_approve_all_voter_adds_nothing(self):
        base = gen_random(3, 3, d_max=3, delta_max=1, statement_density=0.6, seed=5)
        extended = Profile(base.issues, base.voters + (Voter("extra", {}),))
        for outcome in all_outcomes(base):
            assert total_dissatisfaction(base, outcome) == total_dissatisfaction(
                extended, outcome
            )

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_voter_permutation_invariance(self, seed):
        profile = gen_random(3, 4, d_max=3, delta_max=2,
                             statement_density=0.5, seed=seed)
        rng = random.Random(seed)
        shuffled = list(profile.voters)
        rng.shuffle(shuffled)
        permuted = Profile(profile.issues, tuple(shuffled))
        for outcome in all_outcomes(profile):
            assert total_dissatisfaction(profile, outcome) == total_dissatisfaction(
                permuted, outcome
            )


class TestValidation:
    def test_well_formed(self):
        assert validate_profile(build_p1()) == []

    def test_self_premise(self):
        profile = make_profile(
            [("A", ("0", "1")), ("B", ("0", "1"))],
            [("v", [issue_ballot(1, (1,), {(0,): {0}})])],
        )
        codes = [v.code for v in validate_profile(profile)]
        assert "self-premise" in codes

    def test_inconsistent_scope(self):
        bad = issue_ballot(1, (0,), {(0,): {0}})
        bad.statements[(0, 1)] = frozenset({1})  # premise wider than the scope
        profile = make_profile(
            [("A", ("0", "1")), ("B", ("0", "1"))],
            [("v", [bad])],
        )
        codes = [v.code for v in validate_profile(profile)]
        assert "inconsistent-scope" in codes

    def test_empty_approval_and_small_domain(self):
        profile = make_profile(
            [("A", ("0",)), ("B", ("0", "1"))],
            [("v", [IssueBallotWithEmpty()])],
        )
        codes = [v.code for v in validate_profile(profile)]
        assert "small-domain" in codes
        assert "empty-approval" in codes

    def test_duplicate_names(self):
        profile = make_profile(
            [("A", ("0", "1")), ("A", ("0", "0"))],
            [("v", []), ("v", [])],
        )
        codes = [v.code for v in validate_profile(profile)]
        assert "dup-issue-name" in codes
        assert "dup-alt-name" in codes
        assert "dup-voter-name" in codes

    def test_violations_carry_coordinates(self):
        profile = make_profile(
            [("A", ("0", "1")), ("B", ("0", "1"))],
            [("v", []), ("w", [issue_ballot(1, (1,), {(0,): {0}})])],
        )
        violation = next(v for v in validate_profile(profile) if v.code == "self-premise")
        assert violation.voter == 1 and violation.issue == 1


def IssueBallotWithEmpty():
    ballot = issue_ballot(1, (0,), {(0,): {0}})
    ballot.statements[(1,)] = frozenset()
    return ballot


class TestCanonicalization:
    def test_explicit_approve_all_is_dropped(self):
        explicit = make_profile(
            [("A", ("0", "1"))],
            [("v", [approve(0, {0, 1})])],
        )
        implicit = make_profile([("A", ("0", "1"))], [("v", [])])
        assert explicit == implicit

    def test_duplicate_premises_merge_by_union(self):
        merged = issue_ballot(
            1, (0,), [((0,), {0}), ((0,), {1})]
        )
        assert merged.statements == {(0,): frozenset({0, 1})}

    def test_naive_optimum_matches_manual_p1(self):
        assert naive_optimum(build_p1()) == (1, (0, 0))

    def test_ballot_accessor_materializes_default(self):
        p1 = build_p1()
        ballot = p1.ballot(1, 1)  # v2's explicit approval of B=0
        assert ballot.statements[()] == frozenset({0})
        pairs = [(i.name, i.alternatives) for i in p1.issues]
        implicit = make_profile(pairs, [("v", [])]).ballot(0, 0)
        assert implicit.scope == ()
        assert implicit.statements[()] == frozenset({0, 1})


class TestCachedFacts:
    def test_ballot_index_lists_explicit_ballots_in_voter_order(self):
        p1 = build_p1()
        v1, v2 = (voter.ballots for voter in p1.voters)
        assert p1.ballots_by_issue == (
            ((0, v1[0]), (1, v2[0])),
            ((0, v1[1]), (1, v2[1])),
        )
        implicit = make_profile([("A", ("0", "1"))], [("v", [])])
        assert implicit.ballots_by_issue == ((),)

    def test_cached_facts_do_not_change_equality_or_repr(self):
        warm, cold = build_p1(), build_p1()
        assert warm.ballots_by_issue is warm.ballots_by_issue
        assert warm.domain_sizes() == (2, 2)
        assert warm == cold
        assert repr(warm) == repr(cold)
