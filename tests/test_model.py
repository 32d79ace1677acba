import copy
import itertools
import pickle
import random
from types import MappingProxyType

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
from cmsvote.model import IssueBallot, Voter, alternatives

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
        bad.statements[(0, 1)] = 0b10  # premise wider than the scope
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

    @pytest.mark.parametrize(
        "approved, code",
        [
            (0b100, "bad-alternative"),  # bit d of a binary issue
            (0b111, "bad-alternative"),
            (-1, "bad-alternative"),
            (-0b10, "bad-alternative"),
            (frozenset({0}), "bad-alternative"),
            (0, "empty-approval"),
        ],
    )
    def test_mask_out_of_domain_or_empty(self, approved, code):
        for ballot in (
            IssueBallot(1, (), {(): approved}),
            IssueBallot(1, (0,), {(0,): 0b01, (1,): approved}),
        ):
            profile = make_profile(binary_issues(2), [("v", [ballot])])
            [violation] = validate_profile(profile)
            assert (violation.code, violation.voter, violation.issue) == (code, 0, 1)

    def test_masks_in_domain_are_valid(self):
        profile = make_profile(
            [("A", ("0", "1", "2")), ("B", ("0", "1"))],
            [("v", [approve(0, 0b101), issue_ballot(1, (0,), {(2,): 0b10})])],
        )
        assert validate_profile(profile) == []

    def test_violations_carry_coordinates(self):
        profile = make_profile(
            [("A", ("0", "1")), ("B", ("0", "1"))],
            [("v", []), ("w", [issue_ballot(1, (1,), {(0,): {0}})])],
        )
        violation = next(v for v in validate_profile(profile) if v.code == "self-premise")
        assert violation.voter == 1 and violation.issue == 1


def IssueBallotWithEmpty():
    ballot = issue_ballot(1, (0,), {(0,): {0}})
    ballot.statements[(1,)] = 0
    return ballot


def binary_issues(m):
    return [(f"i{j}", ("0", "1")) for j in range(m)]


class TestMasks:
    def test_mask_and_index_forms_build_equal_ballots(self):
        assert issue_ballot(2, (0,), {(1,): 0b101}) == issue_ballot(2, (0,), {(1,): {0, 2}})
        assert issue_ballot(2, (0,), {(1,): 0b101}).statements == {(1,): 0b101}
        assert approve(0, 0b110) == approve(0, [2, 1]) == approve(0, (1, 2))

    def test_duplicate_premises_merge_masks_by_or(self):
        merged = issue_ballot(1, (0,), [((0,), 0b001), ((0,), {2}), ((1,), 0b10)])
        assert merged.statements == {(0,): 0b101, (1,): 0b10}

    def test_alternatives_lists_set_bits(self):
        assert alternatives(0) == ()
        assert alternatives(0b1) == (0,)
        assert alternatives(0b10110) == (1, 2, 4)
        assert alternatives(1 << 200) == (200,)
        with pytest.raises(ValueError):
            alternatives(-1)

    def test_satisfaction_is_a_bit_test(self):
        profile = make_profile(
            [("A", ("0", "1", "2")), ("B", ("0", "1", "2"))],
            [("v", [issue_ballot(1, (0,), {(0,): 0b101, (2,): 0b010})])],
        )
        for outcome in all_outcomes(profile):
            expected = outcome[1] in {0: {0, 2}, 2: {1}}.get(outcome[0], set())
            assert is_satisfied(profile, 0, 1, outcome) is expected


class TestReadOnlyBallots:
    def test_voter_keeps_its_own_copy(self):
        original = {0: approve(0, {1})}
        voter = Voter("v", original)
        original[1] = approve(1, {0})
        assert voter.ballots == {0: approve(0, {1})}
        assert voter == Voter("v", {0: approve(0, {1})})

    def test_profiles_pickle_and_copy(self):
        profile = gen_random(6, 5, d_max=3, delta_max=2, statement_density=0.5, seed=3)
        for clone in (pickle.loads(pickle.dumps(profile)), copy.deepcopy(profile)):
            assert clone == profile
            assert all(type(v.ballots) is MappingProxyType for v in clone.voters)

    def test_ballots_are_slotted(self):
        assert not hasattr(approve(0, {1}), "__dict__")


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
        assert merged.statements == {(0,): 0b11}

    def test_naive_optimum_matches_manual_p1(self):
        assert naive_optimum(build_p1()) == (1, (0, 0))


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
