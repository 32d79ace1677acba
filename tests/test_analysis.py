import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmsvote import (
    ColoredGraph,
    build_global_graph,
    build_voter_graph,
    classify,
    gen_from_multicolored_clique,
    gen_grid,
    gen_random,
    heuristic_tree_decomposition,
    is_group_dichotomous,
    make_nice,
    max_in_degree,
    solve_brute,
    solve_treewidth,
    verify_decomposition,
    vertex_cover_number,
)
from cmsvote.analysis import VC_REPORT_CAP, TreeDecomposition, UndirectedGraph
from cmsvote.model import approve, issue_ballot, make_profile

from helpers import (
    build_p1,
    exhaustive_vertex_cover,
    naive_vertex_cover_number,
    random_undirected_graph,
)


def triangle():
    return UndirectedGraph(3, frozenset({(0, 1), (1, 2), (0, 2)}))


def path(n):
    return UndirectedGraph(n, frozenset((i, i + 1) for i in range(n - 1)))


def star(leaves):
    return UndirectedGraph(leaves + 1, frozenset((0, t) for t in range(1, leaves + 1)))


def complete(n):
    return UndirectedGraph(n, frozenset(itertools.combinations(range(n), 2)))


def random_forest(rng, n):
    """Each vertex after the first hangs off an earlier one, or starts a tree."""
    edges = frozenset(
        (rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.8
    )
    return UndirectedGraph(n, edges)


def disjoint_union(graphs):
    """The graphs side by side, each one's vertex ids shifted past the last."""
    edges = set()
    offset = 0
    for graph in graphs:
        edges.update((u + offset, v + offset) for u, v in graph.edges)
        offset += graph.n
    return UndirectedGraph(offset, frozenset(edges))


def grid_graph(rho):
    edges = set()
    for r in range(rho):
        for c in range(rho):
            if c + 1 < rho:
                edges.add((r * rho + c, r * rho + c + 1))
            if r + 1 < rho:
                edges.add((r * rho + c, (r + 1) * rho + c))
    return UndirectedGraph(rho * rho, frozenset(edges))


class TestDependencyGraphs:
    def test_p1_voter_graph(self):
        assert build_voter_graph(build_p1(), 0).edges == frozenset({(0, 1)})

    def test_approve_all_voter_graph_empty(self):
        profile = make_profile([("A", ("0", "1")), ("B", ("0", "1"))], [("v", [])])
        assert build_voter_graph(profile, 0).edges == frozenset()

    def test_pair_voter_graph_is_in_star(self):
        graph = ColoredGraph.build(
            [("r", ("r0", "r1")), ("g", ("g0", "g1")), ("b", ("b0", "b1"))],
            [("r0", "g0"), ("g0", "b0"), ("r0", "b0")],
        )
        profile = gen_from_multicolored_clique(graph)
        for voter in range(1, profile.n):
            edges = build_voter_graph(profile, voter).edges
            assert len(edges) == 2
            assert {j for _, j in edges} == {0}  # both point at the special issue

    def test_global_graph_drops_direction_and_multiplicity(self):
        profile = make_profile(
            [("A", ("0", "1")), ("B", ("0", "1"))],
            [
                ("v", [issue_ballot(1, (0,), {(0,): {0}})]),
                ("w", [issue_ballot(0, (1,), {(0,): {0}})]),
            ],
        )
        assert build_global_graph(profile).edges == frozenset({(0, 1)})

    def test_grid_global_graph(self):
        graph = build_global_graph(gen_grid(3))
        assert graph.edges == grid_graph(3).edges

    def test_max_in_degree(self):
        assert max_in_degree(build_p1()) == 1
        unconditional = make_profile([("A", ("0", "1"))], [("v", [approve(0, {0})])])
        assert max_in_degree(unconditional) == 0
        graph = ColoredGraph.build(
            [("r", ("r0", "r1")), ("g", ("g0", "g1")), ("b", ("b0", "b1"))],
            [("r0", "g0")],
        )
        assert max_in_degree(gen_from_multicolored_clique(graph)) == 2


class TestGroupDichotomy:
    def test_p1_is_group_dichotomous(self):
        ok, witness = is_group_dichotomous(build_p1())
        assert ok and witness is None

    def test_low_premise_high_approval_rejected(self):
        profile = make_profile(
            [("A", ("0", "1")), ("B", ("0", "1"))],
            [("v", [issue_ballot(1, (0,), {(0,): {1}})])],
        )
        ok, witness = is_group_dichotomous(profile)
        assert not ok
        assert witness.voter == 0 and witness.issue == 1

    def test_mixed_premise_rejected(self):
        profile = make_profile(
            [("A", ("0", "1")), ("B", ("0", "1")), ("C", ("0", "1"))],
            [("v", [issue_ballot(2, (0, 1), {(0, 1): {0, 1}})])],
        )
        assert not is_group_dichotomous(profile)[0]

    def test_non_binary_conditional_target_rejected(self):
        profile = make_profile(
            [("A", ("0", "1")), ("B", ("x", "y", "z"))],
            [("v", [issue_ballot(1, (0,), {(0,): {0}})])],
        )
        assert not is_group_dichotomous(profile)[0]

    def test_unconditional_ballots_unrestricted(self):
        profile = make_profile(
            [("A", ("x", "y", "z"))],
            [("v", [approve(0, {1})])],
        )
        assert is_group_dichotomous(profile)[0]

    def test_statement_free_conditional_passes(self):
        profile = make_profile(
            [("A", ("0", "1")), ("B", ("0", "1"))],
            [("v", [issue_ballot(1, (0,), {})])],
        )
        assert is_group_dichotomous(profile)[0]


class TestVertexCover:
    def test_star(self):
        star = UndirectedGraph(4, frozenset({(0, 1), (0, 2), (0, 3)}))
        assert vertex_cover_number(star, 4) == 1

    def test_triangle(self):
        assert vertex_cover_number(triangle(), 3) == 2

    def test_grid(self):
        assert vertex_cover_number(grid_graph(3), 5) == 4

    def test_exceeds_bound(self):
        assert vertex_cover_number(grid_graph(3), 3) is None

    def test_matches_exhaustive_search(self):
        # None exactly when the exhaustive cover exceeds the bound, at every
        # bound; forests, several components, isolated vertices and stars.
        shapes = {
            "random": lambda rng: random_undirected_graph(
                rng, rng.randint(1, 9), rng.choice([0.2, 0.4, 0.7])
            ),
            "forest": lambda rng: random_forest(rng, rng.randint(1, 11)),
            "components": lambda rng: disjoint_union(
                [random_undirected_graph(rng, rng.randint(1, 4), 0.6) for _ in range(3)]
                + [random_forest(rng, rng.randint(1, 4))]
            ),
            "stars": lambda rng: disjoint_union(
                [star(rng.randint(0, 4)) for _ in range(rng.randint(1, 3))]
            ),
        }
        for shape, make in shapes.items():
            for seed in range(60):
                graph = make(random.Random(seed))
                expected = exhaustive_vertex_cover(graph)
                for k_max in range(graph.n + 2):
                    want = expected if expected <= k_max else None
                    assert vertex_cover_number(graph, k_max) == want, (shape, seed, k_max)

    def test_components_share_one_budget(self):
        # K8 needs 7 cover vertices and K7 needs 6: 13 in all
        for sizes in ((8, 7), (7, 8)):
            graph = disjoint_union([complete(size) for size in sizes])
            assert vertex_cover_number(graph, 12) is None
            assert vertex_cover_number(graph, 13) == 13
            assert vertex_cover_number(graph, 20) == 13
        assert vertex_cover_number(complete(8), 6) is None
        assert vertex_cover_number(complete(8), 7) == 7

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            vertex_cover_number(triangle(), -1)


class TestTreeDecomposition:
    def test_path_width_one(self):
        assert heuristic_tree_decomposition(path(5)).width == 1

    def test_triangle_width_two(self):
        assert heuristic_tree_decomposition(triangle()).width == 2

    def test_edgeless_width_zero(self):
        graph = UndirectedGraph(4, frozenset())
        td = heuristic_tree_decomposition(graph)
        assert td.width == 0
        assert verify_decomposition(graph, td) is None

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_heuristic_always_valid(self, seed):
        rng = random.Random(seed)
        graph = random_undirected_graph(rng, rng.randint(1, 12), rng.random())
        td = heuristic_tree_decomposition(graph)
        assert verify_decomposition(graph, td) is None

    def test_verify_catches_uncovered_edge(self):
        graph = path(3)
        td = TreeDecomposition((frozenset({0, 1}), frozenset({2})), ((0, 1),))
        assert verify_decomposition(graph, td) == "edge uncovered"

    def test_verify_catches_missing_vertex(self):
        graph = UndirectedGraph(3, frozenset({(0, 1)}))
        td = TreeDecomposition((frozenset({0, 1}),), ())
        assert verify_decomposition(graph, td) == "vertex uncovered"

    def test_verify_catches_broken_connectivity(self):
        graph = path(3)
        td = TreeDecomposition(
            (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})),
            ((0, 1), (1, 2)),
        )
        # vertex 0 occurs in bags 0 and 2 which are not adjacent
        assert verify_decomposition(graph, td) == "connectivity violated"

    def test_verify_catches_non_tree(self):
        graph = path(2)
        td = TreeDecomposition((frozenset({0, 1}), frozenset({0, 1})), ())
        assert verify_decomposition(graph, td) == "not a tree"


class TestMakeNice:
    def check_structure(self, nice):
        for node in nice.postorder():
            if node.kind == "leaf":
                assert node.bag == () and not node.children
            elif node.kind == "introduce":
                (child,) = node.children
                assert set(node.bag) - set(child.bag) == {node.vertex}
                assert len(node.bag) == len(child.bag) + 1
            elif node.kind == "forget":
                (child,) = node.children
                assert set(child.bag) - set(node.bag) == {node.vertex}
                assert len(node.bag) == len(child.bag) - 1
            else:
                a, b = node.children
                assert a.bag == node.bag == b.bag
        assert nice.root.bag == ()

    def test_single_bag(self):
        td = TreeDecomposition((frozenset({0, 1}),), ())
        nice = make_nice(td)
        self.check_structure(nice)
        assert nice.width == td.width

    def test_width_preserved_on_random_graphs(self):
        for seed in range(100):
            rng = random.Random(seed)
            graph = random_undirected_graph(rng, rng.randint(1, 10), rng.random())
            td = heuristic_tree_decomposition(graph)
            nice = make_nice(td)
            self.check_structure(nice)
            assert nice.width == td.width
            assert verify_decomposition(graph, nice.to_decomposition()) is None

    def test_node_count_linearish(self):
        td = heuristic_tree_decomposition(path(50))
        nice = make_nice(td)
        assert len(nice.postorder()) <= 6 * 50


class TestClassify:
    def test_p1_routes_to_mincut(self):
        report = classify(build_p1())
        assert [c.route for c in report.components] == ["MINCUT"]
        assert report.delta == 1
        assert report.group_dichotomous

    def test_clique_instance_routes_to_brute(self):
        # edge premises touch index 1, so no accidental group-dichotomy
        graph = ColoredGraph.build(
            [("r", ("r0", "r1")), ("g", ("g0", "g1")), ("b", ("b0", "b1"))],
            [("r0", "g1"), ("g1", "b0"), ("r0", "b0")],
        )
        report = classify(gen_from_multicolored_clique(graph))
        (comp,) = report.components
        assert comp.route == "BRUTE"
        assert comp.delta == 2
        assert not comp.group_dichotomous

    def test_isolated_issue_routes_to_majority(self):
        profile = make_profile(
            [("A", ("x", "y", "z"))], [("v", [approve(0, {2})])]
        )
        report = classify(profile)
        assert report.components[0].route == "MAJORITY"

    def test_delta_one_non_gd_routes_to_treewidth(self):
        profile = make_profile(
            [("A", ("0", "1")), ("B", ("0", "1"))],
            [("v", [issue_ballot(1, (0,), {(0,): {1}})])],
        )
        report = classify(profile)
        assert report.components[0].route == "TREEWIDTH"

    def test_hopeless_instance_routes_to_intractable(self):
        issues = [(f"i{j}", ("0", "1")) for j in range(40)]
        ballots = [
            issue_ballot(j, (j - 2, j - 1), {(0, 1): {1}}) for j in range(2, 40)
        ]
        profile = make_profile(issues, [("v", ballots)])
        report = classify(profile)
        assert report.components[0].route == "INTRACTABLE"

    def test_graph_fields_depend_only_on_scopes(self):
        a = make_profile(
            [("A", ("0", "1")), ("B", ("0", "1"))],
            [("v", [issue_ballot(1, (0,), {(0,): {0}})])],
        )
        b = make_profile(
            [("A", ("0", "1")), ("B", ("0", "1"))],
            [("v", [issue_ballot(1, (0,), {(1,): {0, 1}})])],
        )
        ra, rb = classify(a), classify(b)
        assert ra.delta == rb.delta
        assert ra.component_count == rb.component_count
        assert ra.heuristic_width == rb.heuristic_width
        assert [c.issues for c in ra.components] == [c.issues for c in rb.components]

    @pytest.mark.parametrize("seed", range(10))
    def test_one_pass_witness_and_delta_match_helpers(self, seed):
        profile = gen_random(
            12,
            8,
            d_max=3,
            delta_max=3,
            statement_density=0.3,
            seed=seed,
            group_dichotomous=seed % 3 == 0,
        )
        report = classify(profile)
        assert (report.group_dichotomous, report.dichotomy_witness) == (
            is_group_dichotomous(profile)
        )
        assert report.delta == max_in_degree(profile)

    def test_vertex_covers_are_computed_on_first_read(self):
        # v0 holds 13 disjoint dependency edges: a cover past the report cap
        m = 26
        issues = [(f"i{j}", ("0", "1")) for j in range(m)]
        matching = [issue_ballot(2 * t + 1, (2 * t,), {(0,): {0}}) for t in range(13)]
        profiles = [
            build_p1(),
            gen_grid(3),
            make_profile(issues, [("v0", matching), ("v1", matching[:2])]),
        ] + [
            gen_random(10, 6, delta_max=2, statement_density=0.4, seed=s)
            for s in range(4)
        ]
        for profile in profiles:
            report = classify(profile)
            assert "per_voter_vertex_cover" not in vars(report)
            direct = []
            for i in range(profile.n):
                edges = build_voter_graph(profile, i).edges
                graph = UndirectedGraph(
                    profile.m, frozenset((min(u, v), max(u, v)) for u, v in edges)
                )
                direct.append(vertex_cover_number(graph, VC_REPORT_CAP))
            assert report.per_voter_vertex_cover == tuple(direct)
        assert classify(profiles[2]).per_voter_vertex_cover == (None, 2)

    def test_covers_match_the_unsplit_search(self):
        # group-dichotomous or not, delta 1-3; 16 voters exceed the cap
        exceeding = 0
        for seed in range(100):
            rng = random.Random(seed)
            profile = gen_random(
                rng.randint(6, 36),
                rng.randint(2, 5),
                d_max=3,
                delta_max=1 + seed % 3,
                statement_density=rng.choice([0.2, 0.4, 0.7]),
                seed=seed,
                group_dichotomous=seed % 2 == 0,
            )
            expected = []
            for i in range(profile.n):
                edges = build_voter_graph(profile, i).edges
                graph = UndirectedGraph(
                    profile.m, frozenset((min(u, v), max(u, v)) for u, v in edges)
                )
                expected.append(naive_vertex_cover_number(graph, VC_REPORT_CAP))
            assert classify(profile).per_voter_vertex_cover == tuple(expected), seed
            exceeding += expected.count(None)
        assert exceeding > 0

    def test_report_equality_ignores_profile_reference(self):
        assert classify(build_p1()) == classify(build_p1())
        assert "profile" not in repr(classify(build_p1()))

    def test_report_serializations(self):
        report = classify(build_p1())
        assert "MINCUT" in report.to_text()
        kv = report.to_kv()
        assert "component.0.route MINCUT" in kv
        assert "delta 1" in kv


class TestBoundedCoverUnion:
    def test_union_of_small_cover_voters_is_solvable(self):
        # voters with out-star graphs (vertex cover <= 2 each); their union
        # stays tractable for the decomposition solver
        rng = random.Random(7)
        m = 8
        issues = [(f"i{j}", ("0", "1")) for j in range(m)]
        voters = []
        for i in range(3):
            centers = rng.sample(range(m), 2)
            ballots = []
            for center in centers:
                targets = [j for j in range(m) if j != center and rng.random() < 0.4]
                for j in targets:
                    ballots.append(
                        issue_ballot(j, (center,), {(0,): {0}, (1,): {1}})
                    )
            seen = {}
            for ballot in ballots:  # keep one ballot per target
                seen.setdefault(ballot.issue, ballot)
            voters.append((f"v{i}", list(seen.values())))
        profile = make_profile(issues, voters)

        covers = []
        for i in range(profile.n):
            direct = build_voter_graph(profile, i)
            und = UndirectedGraph(
                profile.m,
                frozenset((min(u, v), max(u, v)) for u, v in direct.edges),
            )
            covers.append(vertex_cover_number(und, 2))
        assert all(c is not None and c <= 2 for c in covers)

        graph = build_global_graph(profile)
        td = heuristic_tree_decomposition(graph)
        assert verify_decomposition(graph, td) is None
        assert td.width <= 6  # observed: small union of small-cover graphs
        assert solve_treewidth(profile).cost == solve_brute(profile).cost
