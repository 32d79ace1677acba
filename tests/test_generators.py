import hashlib
import random

import pytest

from cmsvote import (
    CnfFormula,
    ColoredGraph,
    CspInstance,
    build_global_graph,
    gen_from_2csp,
    gen_from_multicolored_clique,
    gen_from_sat,
    gen_grid,
    gen_random,
    is_group_dichotomous,
    serialize_profile,
    solve_brute,
    validate_profile,
)

from helpers import (
    cnf_satisfiable,
    csp_satisfiable,
    has_multicolored_clique,
    largest_premise_scope,
    premise_edges,
    random_cnf,
    random_colored_graph,
    random_csp,
)


class TestGenRandom:
    def test_deterministic(self):
        a = gen_random(4, 3, d_max=2, delta_max=1, statement_density=0.5, seed=7)
        b = gen_random(4, 3, d_max=2, delta_max=1, statement_density=0.5, seed=7)
        assert a == b

    def test_zero_delta_means_unconditional(self):
        profile = gen_random(5, 4, d_max=3, delta_max=0, statement_density=0.8, seed=1)
        assert largest_premise_scope(profile) == 0

    def test_group_dichotomous_flag(self):
        for seed in range(20):
            profile = gen_random(
                5, 4, delta_max=2, statement_density=0.6,
                seed=seed, group_dichotomous=True,
            )
            assert profile.domain_sizes() == (2,) * 5
            assert is_group_dichotomous(profile)[0]

    def test_outputs_validate(self):
        for seed in range(20):
            profile = gen_random(
                6, 4, d_max=4, delta_max=3, statement_density=0.5, seed=seed
            )
            assert validate_profile(profile) == []
            assert largest_premise_scope(profile) <= 3

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            gen_random(0, 3)
        with pytest.raises(ValueError):
            gen_random(3, 3, d_max=1)
        with pytest.raises(ValueError):
            gen_random(3, 3, statement_density=1.5)


class TestGenFromSat:
    def test_block_domains(self):
        cnf = CnfFormula(6, ((1, 2, 3),))
        profile = gen_from_sat(cnf, 3)
        assert profile.m == 3
        assert profile.domain_sizes() == (4, 4, 4)

    def test_unsatisfiable_formula_costs_something(self):
        cnf = CnfFormula(1, ((1,), (-1,)))
        profile = gen_from_sat(cnf, 1)
        assert solve_brute(profile).cost >= 1

    def test_satisfiable_formula_is_free(self):
        cnf = CnfFormula(2, ((1, 2),))
        profile = gen_from_sat(cnf, 2)
        assert solve_brute(profile).cost == 0

    def test_equivalence_with_direct_enumeration(self):
        for seed in range(40):
            rng = random.Random(seed)
            cnf = random_cnf(rng, rng.randint(2, 7), rng.randint(1, 8))
            m_target = rng.randint(1, cnf.num_vars)
            profile = gen_from_sat(cnf, m_target)
            assert validate_profile(profile) == []
            zero = solve_brute(profile).cost == 0
            assert zero == cnf_satisfiable(cnf)

    def test_bad_target(self):
        with pytest.raises(ValueError):
            gen_from_sat(CnfFormula(3, ((1,),)), 4)


class TestGenFromClique:
    def triangle_graph(self):
        return ColoredGraph.build(
            [("r", ("r0", "r1")), ("g", ("g0", "g1")), ("b", ("b0", "b1"))],
            [("r0", "g1"), ("g1", "b0"), ("r0", "b0")],
        )

    def test_sizes(self):
        profile = gen_from_multicolored_clique(self.triangle_graph())
        assert profile.m == 4  # k + 1
        assert profile.n == 4  # C(k, 2) + 1

    def test_structure(self):
        profile = gen_from_multicolored_clique(self.triangle_graph())
        assert validate_profile(profile) == []
        assert largest_premise_scope(profile) == 2
        for voter in range(1, profile.n):
            edges = premise_edges(profile, voter)
            assert len(edges) == 2 and {j for _, j in edges} == {0}

    def test_clique_means_free(self):
        assert solve_brute(gen_from_multicolored_clique(self.triangle_graph())).cost == 0

    def test_missing_pair_costs_something(self):
        graph = ColoredGraph.build(
            [("r", ("r0", "r1")), ("g", ("g0", "g1")), ("b", ("b0", "b1"))],
            [("g0", "b0"), ("r0", "b0")],  # no r-g edges at all
        )
        assert solve_brute(gen_from_multicolored_clique(graph)).cost >= 1

    def test_equivalence_with_direct_enumeration(self):
        for seed in range(30):
            rng = random.Random(seed)
            graph = random_colored_graph(rng, 3, rng.randint(2, 3), rng.random())
            profile = gen_from_multicolored_clique(graph)
            assert validate_profile(profile) == []
            zero = solve_brute(profile).cost == 0
            assert zero == has_multicolored_clique(graph)

    def test_single_vertex_classes_are_padded(self):
        graph = ColoredGraph.build([("r", ("r0",)), ("g", ("g0",))], [("r0", "g0")])
        profile = gen_from_multicolored_clique(graph)
        assert all(d >= 2 for d in profile.domain_sizes())
        assert solve_brute(profile).cost == 0


class TestGenFrom2Csp:
    def test_variables_in_first_occurrence_order(self):
        csp = CspInstance(
            ("a", "b"), (("u", "v", ()), ("w", "u", ()), ("v", "x", ()), ("x", "w", ()))
        )
        assert csp.variables() == ("u", "v", "w", "x")
        for seed in range(50):
            csp = random_csp(random.Random(seed), 12, 2, 20)
            reference = []
            for u, v, _ in csp.constraints:
                reference += [x for x in (u, v) if x not in reference]
            assert csp.variables() == tuple(reference)

    def test_acceptance_instances_are_unchanged(self):
        # sha256 over the serialized profiles of the criterion-5 instances:
        # any change to their issue order or ballots changes it.
        digest = hashlib.sha256()
        for seed in range(50):
            rng = random.Random(seed)
            csp = random_csp(rng, 4, rng.randint(2, 3), 3)
            digest.update(serialize_profile(gen_from_2csp(csp)).encode())
        assert digest.hexdigest() == (
            "f71ec39a73a6ec04694f6cf744cb321cc9ca9aefdb95e051764f37402fe0fedd"
        )

    def test_example_shape(self):
        csp = CspInstance(("a", "b"), (("u", "v", ((0, 1),)),))
        profile = gen_from_2csp(csp)
        assert profile.domain_sizes() == (2, 2, 4)
        assert profile.n == 1

    def test_out_star_structure(self):
        csp = CspInstance(("a", "b"), (("u", "v", ((0, 1), (1, 0))),))
        profile = gen_from_2csp(csp)
        assert largest_premise_scope(profile) == 1
        for voter in range(profile.n):
            edges = premise_edges(profile, voter)
            assert len(edges) == 2
            assert len({k for k, _ in edges}) == 1  # all leave the constraint issue

    def test_satisfiable_is_free(self):
        csp = CspInstance(("a", "b"), (("u", "v", ((0, 1),)),))
        assert solve_brute(gen_from_2csp(csp)).cost == 0

    def test_empty_allowed_set_costs_something(self):
        csp = CspInstance(("a", "b"), (("u", "v", ()),))
        assert solve_brute(gen_from_2csp(csp)).cost >= 1

    def test_conflicting_constraints_cost_something(self):
        csp = CspInstance(
            ("a", "b"),
            (("u", "v", ((0, 0),)), ("u", "v", ((1, 1),))),
        )
        assert not csp_satisfiable(csp)
        assert solve_brute(gen_from_2csp(csp)).cost >= 1

    def test_equivalence_with_direct_enumeration(self):
        for seed in range(30):
            rng = random.Random(seed)
            csp = random_csp(rng, 4, rng.randint(2, 3), 3)
            profile = gen_from_2csp(csp)
            assert validate_profile(profile) == []
            assert largest_premise_scope(profile) == 1
            zero = solve_brute(profile).cost == 0
            assert zero == csp_satisfiable(csp)


class TestGenGrid:
    def test_shape(self):
        profile = gen_grid(3)
        assert profile.m == 9
        assert len(build_global_graph(profile).edges) == 12
        assert validate_profile(profile) == []

    def test_group_dichotomous_for_any_rho(self):
        for rho in (2, 3, 4):
            assert is_group_dichotomous(gen_grid(rho))[0]

    def test_small_grid_is_free(self):
        assert solve_brute(gen_grid(2)).cost == 0

    def test_voter_graphs_are_disjoint_paths(self):
        profile = gen_grid(3)
        for voter in range(profile.n):
            edges = premise_edges(profile, voter)
            outs = [k for k, _ in edges]
            ins = [j for _, j in edges]
            # in- and out-degree at most one everywhere: unions of paths
            assert len(set(outs)) == len(outs)
            assert len(set(ins)) == len(ins)

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            gen_grid(1)
