import gc
import itertools
import random
import tracemalloc

import pytest

from cmsvote import (
    NotGroupDichotomous,
    build_network,
    compile_constraints,
    gen_grid,
    gen_random,
    is_group_dichotomous,
    max_flow_min_cut,
    parse_profile,
    serialize_profile,
    solve_brute,
    solve_mincut,
    solve_profile,
    solve_treewidth,
    total_dissatisfaction,
)
from cmsvote.mincut import TwoMonotoneConstraint
from cmsvote.model import approve, issue_ballot, make_profile

from helpers import (
    build_p1,
    exhaustive_min_violations,
    random_constraints,
    traced_peak,
    violated,
)


def parsed_sparse_profile():
    """A parsed m = n = 500 group-dichotomous profile and the bytes it holds."""
    text = serialize_profile(
        gen_random(
            500, 500, delta_max=2, statement_density=0.005, seed=1,
            group_dichotomous=True,
        )
    )
    gc.collect()
    tracemalloc.start()
    try:
        profile = parse_profile(text)
        return profile, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


class TestCompileConstraints:
    def test_p1(self):
        constraints, base = compile_constraints(build_p1())
        assert base == 0
        assert constraints == [
            ((0,), None, 1),        # v1 wants A=1
            ((0, 1), (0, 1), 1),    # v1 wants B to follow A
            (None, (0,), 1),        # v2 wants A=0
            (None, (1,), 1),        # v2 wants B=0
        ]

    def test_approve_both_makes_no_constraint(self):
        profile = make_profile(
            [("A", ("0", "1")), ("B", ("0", "1"))],
            [("v", [approve(0, {0, 1}), approve(1, {1})])],
        )
        constraints, base = compile_constraints(profile)
        assert base == 0
        assert constraints == [((1,), None, 1)]

    def test_empty_statement_map_becomes_base_cost(self):
        profile = make_profile(
            [("A", ("0", "1")), ("B", ("0", "1"))],
            [("v", [issue_ballot(1, (0,), {})])],
        )
        constraints, base = compile_constraints(profile)
        assert base == 1
        assert constraints == []

    def test_single_sided_conditionals(self):
        profile = make_profile(
            [("A", ("0", "1")), ("B", ("0", "1")), ("C", ("0", "1"))],
            [
                (
                    "v",
                    [
                        issue_ballot(1, (0,), {(0,): {0}}),
                        issue_ballot(2, (0,), {(1,): {0, 1}}),
                    ],
                )
            ],
        )
        constraints, base = compile_constraints(profile)
        assert base == 0
        assert constraints == [((0,), None, 1), (None, (0, 1), 1)]

    def test_merging_sums_weights(self):
        profile = make_profile(
            [("A", ("0", "1"))],
            [("v", [approve(0, {1})]), ("w", [approve(0, {1})])],
        )
        constraints, _ = compile_constraints(profile)
        assert constraints == [((0,), None, 2)]

    def test_rejects_non_group_dichotomous(self):
        profile = make_profile(
            [("A", ("0", "1")), ("B", ("0", "1"))],
            [("v", [issue_ballot(1, (0,), {(0,): {1}})])],
        )
        with pytest.raises(NotGroupDichotomous) as err:
            compile_constraints(profile)
        assert err.value.witness.issue == 1

    def test_rejects_non_binary(self):
        profile = make_profile(
            [("A", ("x", "y", "z"))], [("v", [approve(0, {0})])]
        )
        with pytest.raises(NotGroupDichotomous):
            compile_constraints(profile)

    def test_violations_track_dissatisfaction(self):
        for seed in range(40):
            profile = gen_random(
                5, 4, delta_max=2, statement_density=0.6,
                seed=seed, group_dichotomous=True,
            )
            constraints, base = compile_constraints(profile)
            for bits in itertools.product((0, 1), repeat=profile.m):
                cost = base + sum(
                    c.weight for c in constraints if violated(c, bits)
                )
                assert cost == total_dissatisfaction(profile, bits)


class TestNetworkGadget:
    def test_single_positive_literal(self):
        network = build_network([TwoMonotoneConstraint((0,), None, 1)], 1)
        cut, side = max_flow_min_cut(network)
        assert cut == 0
        assert network.var_base + 0 in side  # free to sit on the source side

    def test_contradictory_unit_literals(self):
        constraints = [
            TwoMonotoneConstraint((0,), None, 1),
            TwoMonotoneConstraint(None, (0,), 1),
        ]
        cut, _ = max_flow_min_cut(build_network(constraints, 1))
        assert cut == 1

    def test_p1_network(self):
        constraints, base = compile_constraints(build_p1())
        cut, side = max_flow_min_cut(build_network(constraints, 2))
        assert base + cut == 1
        assert side == frozenset({0})  # only the source: both variables at 0

    def test_chain_bottleneck(self):
        # source -> x cap 2, x -> sink cap 1; arc e's reverse is e ^ 1
        from cmsvote.mincut import FlowNetwork

        out = [[0], [3], [1, 2]]
        to = [2, 0, 1, 2]
        cap = [2, 0, 1, 0]
        network = FlowNetwork(3, 0, 1, out, to, cap, 2)
        cut, side = max_flow_min_cut(network)
        assert cut == 1
        assert side == frozenset({0, 2})
        assert cap == [2, 0, 1, 0]  # the capacities are left as they were

    def test_disconnected_source_sink(self):
        network = build_network([], 2)
        cut, side = max_flow_min_cut(network)
        assert cut == 0
        assert side == frozenset({0})

    def test_gadget_matches_exhaustive_minimum(self):
        for seed in range(60):
            rng = random.Random(seed)
            n_vars = rng.randint(1, 8)
            constraints = random_constraints(rng, n_vars, rng.randint(1, 10))
            cut, _ = max_flow_min_cut(build_network(constraints, n_vars))
            assert cut == exhaustive_min_violations(constraints, n_vars)

    def test_merging_duplicates_keeps_cut_value(self):
        rng = random.Random(11)
        constraints = random_constraints(rng, 5, 6)
        doubled = constraints + constraints
        merged = {}
        for c in doubled:
            key = (c.pos, c.neg)
            merged[key] = merged.get(key, 0) + c.weight
        merged_constraints = [
            TwoMonotoneConstraint(pos, neg, w) for (pos, neg), w in merged.items()
        ]
        cut_a, _ = max_flow_min_cut(build_network(doubled, 5))
        cut_b, _ = max_flow_min_cut(build_network(merged_constraints, 5))
        assert cut_a == cut_b


class TestSolveMincut:
    def test_p1(self):
        solution = solve_mincut(build_p1())
        assert solution.cost == 1
        assert solution.method == "mincut"

    def test_approve_all_profile(self):
        profile = make_profile(
            [("A", ("0", "1")), ("B", ("0", "1"))], [("v", []), ("w", [])]
        )
        assert solve_mincut(profile).cost == 0

    def test_grid(self):
        assert solve_mincut(gen_grid(2)).cost == 0
        assert solve_mincut(gen_grid(3)).cost == 0

    def test_oracle_equivalence_on_random_profiles(self):
        for seed in range(80):
            profile = gen_random(
                6, 5, delta_max=2, statement_density=0.5,
                seed=seed, group_dichotomous=True,
            )
            assert solve_mincut(profile).cost == solve_brute(profile).cost

    def test_outcome_reverification_built_in(self):
        profile = gen_random(
            7, 6, delta_max=3, statement_density=0.6, seed=123,
            group_dichotomous=True,
        )
        solution = solve_mincut(profile)
        assert solution.cost == total_dissatisfaction(profile, solution.outcome)

    def test_rejects_non_gd(self):
        profile = make_profile(
            [("A", ("0", "1")), ("B", ("0", "1"))],
            [("v", [issue_ballot(1, (0,), {(1,): {0}})])],
        )
        with pytest.raises(NotGroupDichotomous):
            solve_mincut(profile)

    def test_witness_matches_is_group_dichotomous(self):
        rejected = 0
        for seed in range(200):
            profile = gen_random(
                6, 5, delta_max=2, statement_density=0.6, seed=seed
            )
            ok, witness = is_group_dichotomous(profile)
            if ok:
                continue
            rejected += 1
            with pytest.raises(NotGroupDichotomous) as info:
                compile_constraints(profile)
            assert info.value.witness == witness, seed
        assert rejected > 100

    def test_empty_unconditional_approval_is_never_satisfied(self):
        # Voter v approves neither alternative of A, so v costs 1 whatever
        # the outcome; the compile must not read the empty set as "approves 0".
        profile = make_profile(
            [("A", ("0", "1")), ("B", ("0", "1"))],
            [("v", [approve(0, [])]), ("w", [issue_ballot(1, (0,), {(1,): {1}})])],
        )
        constraints, base = compile_constraints(profile)
        assert base == 1
        assert solve_brute(profile).cost == 1
        assert solve_treewidth(profile).cost == 1
        assert solve_mincut(profile).cost == 1
        solution = solve_profile(profile)
        assert (solution.cost, solution.method) == (1, "mincut")


class TestMincutMemory:
    def test_solve_peaks_below_the_parsed_profile(self):
        # The constraints are plain tuples and are freed before the flow
        # runs, so the whole solve needs less than the profile it reads.
        profile, profile_bytes = parsed_sparse_profile()
        solution, peak = traced_peak(lambda: solve_mincut(profile))
        assert solution.cost == total_dissatisfaction(profile, solution.outcome)
        assert peak <= 1.0 * profile_bytes, (peak, profile_bytes)

    def test_constraints_hold_few_bytes_each(self):
        profile, _ = parsed_sparse_profile()
        gc.collect()
        tracemalloc.start()
        try:
            constraints, _ = compile_constraints(profile)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(constraints) > 1000
        assert retained <= 320 * len(constraints), (retained, len(constraints))
