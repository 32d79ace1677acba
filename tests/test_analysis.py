import itertools
import math
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmsvote import (
    ColoredGraph,
    build_global_graph,
    classify,
    gen_from_multicolored_clique,
    gen_grid,
    gen_random,
    heuristic_tree_decomposition,
    is_group_dichotomous,
    make_nice,
    solve_brute,
    solve_profile,
    solve_treewidth,
    validate_profile,
    verify_decomposition,
    vertex_cover_number,
)
from cmsvote import _scan, analysis
from cmsvote.analysis import (
    BRUTE,
    INTRACTABLE,
    MAJORITY,
    MINCUT,
    TREEWIDTH,
    VC_REPORT_CAP,
    WIDTH_THRESHOLD,
    TreeDecomposition,
    UndirectedGraph,
    applicable_routes,
)
from cmsvote.errors import BudgetExceeded
from cmsvote.model import Issue, Profile, Voter, approve, issue_ballot, make_profile

from helpers import (
    build_p1,
    corrupt_decomposition,
    exhaustive_vertex_cover,
    largest_premise_scope,
    naive_min_fill,
    naive_restrict_profile,
    naive_verify_decomposition,
    naive_vertex_cover_number,
    plain_decomposition,
    premise_edges,
    random_undirected_graph,
    reference_components,
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


def shuffled(rng, graph):
    """The graph with its vertex ids permuted at random."""
    perm = list(range(graph.n))
    rng.shuffle(perm)
    return UndirectedGraph(
        graph.n,
        frozenset(tuple(sorted((perm[u], perm[v]))) for u, v in graph.edges),
    )


def voter_shaped_graph(rng):
    """Stars, paths, triangles, small dense parts and forests side by side,
    up to 14 vertices in all, under shuffled ids."""
    parts = [
        lambda: star(rng.randint(1, 4)),
        lambda: path(rng.randint(2, 5)),
        triangle,
        lambda: random_undirected_graph(rng, rng.randint(2, 5), 0.7),
        lambda: random_forest(rng, rng.randint(2, 6)),
    ]
    graphs = []
    while True:
        part = rng.choice(parts)()
        if sum(g.n for g in graphs) + part.n > 14:
            return shuffled(rng, disjoint_union(graphs))
        graphs.append(part)


def regular_circulant(n, half_degree):
    """Vertex i adjacent to i +- 1 .. i +- half_degree (mod n)."""
    return UndirectedGraph(
        n,
        frozenset(
            tuple(sorted((i, (i + s) % n)))
            for i in range(n)
            for s in range(1, half_degree + 1)
        ),
    )


def grid_graph(rho):
    edges = set()
    for r in range(rho):
        for c in range(rho):
            if c + 1 < rho:
                edges.add((r * rho + c, r * rho + c + 1))
            if r + 1 < rho:
                edges.add((r * rho + c, (r + 1) * rho + c))
    return UndirectedGraph(rho * rho, frozenset(edges))


def component_graphs(profile):
    """(issues, edges, delta) of each component ``classify`` reports."""
    return [(c.issues, c.edges, c.delta) for c in classify(profile).components]


class TestDependencyGraphs:
    def test_p1_voter_graph(self):
        profile = build_p1()
        assert premise_edges(profile, 0) == frozenset({(0, 1)})
        assert build_global_graph(profile).edges == frozenset({(0, 1)})
        assert component_graphs(profile) == [((0, 1), frozenset({(0, 1)}), 1)]

    def test_approve_all_voter_graph_empty(self):
        profile = make_profile([("A", ("0", "1")), ("B", ("0", "1"))], [("v", [])])
        assert premise_edges(profile, 0) == frozenset()
        assert build_global_graph(profile).edges == frozenset()
        assert component_graphs(profile) == [
            ((0,), frozenset(), 0),
            ((1,), frozenset(), 0),
        ]

    def test_pair_voter_graph_is_in_star(self):
        graph = ColoredGraph.build(
            [("r", ("r0", "r1")), ("g", ("g0", "g1")), ("b", ("b0", "b1"))],
            [("r0", "g0"), ("g0", "b0"), ("r0", "b0")],
        )
        profile = gen_from_multicolored_clique(graph)
        for voter in range(1, profile.n):
            edges = premise_edges(profile, voter)
            assert len(edges) == 2
            assert {j for _, j in edges} == {0}  # both point at the special issue
        star = frozenset({(0, 1), (0, 2), (0, 3)})
        assert build_global_graph(profile).edges == star
        assert component_graphs(profile) == [((0, 1, 2, 3), star, 2)]

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
        assert classify(build_p1()).delta == 1
        unconditional = make_profile([("A", ("0", "1"))], [("v", [approve(0, {0})])])
        assert classify(unconditional).delta == 0
        graph = ColoredGraph.build(
            [("r", ("r0", "r1")), ("g", ("g0", "g1")), ("b", ("b0", "b1"))],
            [("r0", "g0")],
        )
        assert classify(gen_from_multicolored_clique(graph)).delta == 2


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

    @pytest.mark.parametrize(
        "issues, ballot, premise, reason",
        [
            (
                3,
                issue_ballot(2, (0, 1), {(0, 0): {0}, (0, 1): {0, 1}, (1, 1): {1}}),
                (0, 1),
                "statement (0, 1) -> [0, 1] matches no allowed shape",
            ),
            (
                2,
                issue_ballot(1, (0,), {(0,): {1}, (1,): {1}}),
                (0,),
                "statement (0,) -> [1] matches no allowed shape",
            ),
            (
                2,
                issue_ballot(1, (0,), {(0,): {0, 1}, (1,): {0}}),
                (1,),
                "statement (1,) -> [0] matches no allowed shape",
            ),
            (
                2,
                issue_ballot(1, (0,), {(0,): {0}, (1,): set()}),
                (1,),
                "statement (1,) -> [] matches no allowed shape",
            ),
            (
                None,
                issue_ballot(1, (0,), {(0,): {0}}),
                None,
                "conditional ballot on non-binary issue (3 alternatives)",
            ),
        ],
        ids=["mixed-premise", "one-under-zeros", "zero-under-ones", "empty", "non-binary"],
    )
    def test_witness_names_the_first_failing_statement(self, issues, ballot, premise, reason):
        if issues is None:
            names = [("A", ("0", "1")), ("B", ("x", "y", "z"))]
        else:
            names = [(f"I{j}", ("0", "1")) for j in range(issues)]
        profile = make_profile(names, [("u", [approve(0, {0})]), ("v", [ballot])])
        ok, witness = is_group_dichotomous(profile)
        assert not ok
        assert (witness.voter, witness.issue) == (1, ballot.issue)
        assert (witness.premise, witness.reason) == (premise, reason)
        assert classify(profile).dichotomy_witness == witness

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
        # bound; forests, several components, isolated vertices, stars, and
        # up to 14 vertices of small parts as a voter's graph has them.
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
            "voter-shaped": voter_shaped_graph,
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

    def test_indexed_verify_matches_bag_scan(self):
        verdicts = {}
        for seed in range(4000):
            rng = random.Random(seed)
            n = rng.randint(1, 10)
            graph = random_undirected_graph(rng, n, rng.random())
            td = heuristic_tree_decomposition(graph)
            if rng.random() < 0.5:
                td = plain_decomposition(make_nice(td))
            for _ in range(rng.randrange(3)):
                td = corrupt_decomposition(rng, td, n)
            verdict = verify_decomposition(graph, td)
            assert verdict == naive_verify_decomposition(graph, td), seed
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
        assert set(verdicts) == {
            None,
            "no bags",
            "not a tree",
            "vertex uncovered",
            "edge uncovered",
            "connectivity violated",
        }, verdicts


class TestMinFill:
    CAPS = (None, 1, 2, 3, 8)

    def test_matches_the_recounting_reference(self):
        # (bags, order, position) identical at every cap: sparse and dense
        # random graphs, then the global graphs of gen_grid profiles.
        graphs = []
        for seed in range(300):
            rng = random.Random(seed)
            graphs.append(random_undirected_graph(rng, rng.randint(1, 20), rng.random()))
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.randint(8, 16)
            graphs.append(random_undirected_graph(rng, n, rng.uniform(0.7, 0.95)))
        graphs += [build_global_graph(gen_grid(rho)) for rho in range(2, 7)]
        gave_up = 0
        for graph in graphs:
            for cap in self.CAPS:
                result = analysis._min_fill_run(graph, cap)
                assert result == naive_min_fill(graph, cap), (graph, cap)
                gave_up += result is None
        assert gave_up > 0

    def test_minimum_degree_past_the_cap_gives_up(self):
        # K10 and a 10-regular graph: every vertex has 10 or 9 neighbours
        for graph in (complete(10), regular_circulant(21, 5)):
            assert analysis._min_fill_run(graph, 8) is None
            assert naive_min_fill(graph, 8) is None
        bags, _, _ = analysis._min_fill_run(complete(10), 9)
        assert max(map(len, bags)) == 10

    def test_width_past_the_cap_gives_up_above_the_degree_bound(self):
        # K10 with a pendant vertex (minimum degree 1) and a 6 x 6 grid
        # (minimum degree 2): the degree bound passes, the width does not
        pendant = UndirectedGraph(11, complete(10).edges | {(9, 10)})
        for graph, cap in ((pendant, 8), (grid_graph(6), 3)):
            assert analysis._min_fill_run(graph, cap) is None
            assert naive_min_fill(graph, cap) is None
            assert analysis._min_fill_run(graph, None) == naive_min_fill(graph, None)


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
        assert plain_decomposition(nice).width == td.width

    def test_width_preserved_on_random_graphs(self):
        for seed in range(100):
            rng = random.Random(seed)
            graph = random_undirected_graph(rng, rng.randint(1, 10), rng.random())
            td = heuristic_tree_decomposition(graph)
            nice = make_nice(td)
            self.check_structure(nice)
            plain = plain_decomposition(nice)
            assert plain.width == td.width
            assert verify_decomposition(graph, plain) is None

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
        # One 54-issue component whose descending elimination needs over
        # 1.7e8 table entries.
        profile = gen_random(60, 3, d_max=3, delta_max=2, statement_density=0.3, seed=2)
        report = classify(profile)
        assert [c.route for c in report.components if len(c.issues) > 1] == [
            "INTRACTABLE"
        ]

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
        assert report.delta == largest_premise_scope(profile)

    def test_component_facts_match_a_reference(self):
        # 300 seeded profiles, delta 0-3, every third group-dichotomous; the
        # sparse ones leave issues isolated.  Components and edges come from
        # networkx, the other facts from each issue's ballots.
        def dichotomous_shape(ballot, dom):
            return dom[ballot.issue] == 2 and all(
                set(premise) == {0} and approved in (0b01, 0b11)
                or set(premise) == {1} and approved in (0b10, 0b11)
                for premise, approved in ballot.statements.items()
            )

        deltas = set()
        isolated = gd_parts = other_parts = 0
        for seed in range(300):
            rng = random.Random(seed)
            profile = gen_random(
                rng.randint(4, 30),
                rng.randint(1, 8),
                d_max=rng.randint(2, 4),
                delta_max=seed % 4,
                statement_density=rng.choice([0.05, 0.15, 0.3, 0.5]),
                seed=seed,
                group_dichotomous=seed % 3 == 0,
            )
            dom = profile.domain_sizes()
            on_issue = [[] for _ in range(profile.m)]
            for voter in profile.voters:
                for ballot in voter.ballots.values():
                    on_issue[ballot.issue].append(ballot)
            delta = [max((len(b.scope) for b in bs), default=0) for bs in on_issue]
            gd_ok = [
                all(dichotomous_shape(b, dom) for b in bs if b.scope) for bs in on_issue
            ]

            report = classify(profile)
            assert [(c.issues, c.edges) for c in report.components] == (
                reference_components(profile)
            ), seed
            for c in report.components:
                assert c.delta == max(delta[j] for j in c.issues), seed
                assert c.all_binary == all(dom[j] == 2 for j in c.issues), seed
                assert c.group_dichotomous == all(gd_ok[j] for j in c.issues), seed
                assert c.outcome_space == math.prod(dom[j] for j in c.issues), seed
                deltas.add(c.delta)
                if len(c.issues) == 1:
                    isolated += 1
                elif c.group_dichotomous:
                    gd_parts += 1
                else:
                    other_parts += 1
        assert deltas == {0, 1, 2, 3}
        assert isolated and gd_parts and other_parts

    def test_routes_match_a_reference(self, monkeypatch):
        # The routing rule restated from each component's own sub-profile:
        # an isolated issue is MAJORITY; any other component takes the first
        # of MINCUT (all binary, group-dichotomous), TREEWIDTH (delta <= 1
        # and a capped min-fill run that finishes) and BRUTE (the descending
        # order passes check_entries), else INTRACTABLE.  applicable_routes
        # is the same list without the width bound.  600 seeded profiles,
        # delta 0-3, every third group-dichotomous; every fourth seed lowers
        # WIDTH_THRESHOLD so that width decides more routes.
        def descending_fits(sub):
            dom = sub.domain_sizes()
            pairs = [(b.issue, b) for v in sub.voters for b in v.ballots.values()]
            axes = _scan.group_by_axes(pairs, dom)
            try:
                _scan.check_entries(axes, dom, range(sub.m - 1, -1, -1))
            except BudgetExceeded:
                return False
            return True

        routes = Counter()
        too_wide = 0
        for seed in range(600):
            rng = random.Random(seed)
            profile = gen_random(
                rng.randint(4, 40),
                rng.randint(1, 8),
                d_max=rng.randint(2, 4),
                delta_max=seed % 4,
                statement_density=rng.choice([0.05, 0.15, 0.3, 0.5]),
                seed=seed,
                group_dichotomous=seed % 3 == 0,
            )
            threshold = rng.choice([1, 2, 3]) if seed % 4 == 1 else WIDTH_THRESHOLD
            monkeypatch.setattr(analysis, "WIDTH_THRESHOLD", threshold)
            for comp in classify(profile).components:
                sub = naive_restrict_profile(profile, comp.issues)
                applicable = []
                if set(sub.domain_sizes()) == {2} and is_group_dichotomous(sub)[0]:
                    applicable.append(MINCUT)
                if largest_premise_scope(sub) <= 1:
                    applicable.append(TREEWIDTH)
                if descending_fits(sub):
                    applicable.append(BRUTE)
                assert applicable_routes(comp) == applicable, (seed, comp.issues)

                narrow = (
                    heuristic_tree_decomposition(build_global_graph(sub), threshold)
                    is not None
                )
                if sub.m == 1:
                    expected = MAJORITY
                else:
                    expected = next(
                        (r for r in applicable if r != TREEWIDTH or narrow), INTRACTABLE
                    )
                    too_wide += applicable[:1] == [TREEWIDTH] and not narrow
                assert comp.route == expected, (seed, comp.issues)
                routes[expected] += 1
        assert set(routes) == {MAJORITY, MINCUT, TREEWIDTH, BRUTE, INTRACTABLE}, routes
        assert too_wide, routes

    @pytest.mark.parametrize(
        "ballot, problem",
        [
            (issue_ballot(-1, (0,), {(0,): {0}}), "issue -1: ballot targets an unknown issue"),
            (approve(3, {0}), "issue 3: ballot targets an unknown issue"),
            (
                issue_ballot(1, (1,), {(0,): {0}}),
                "issue 1: premise scope (1,) holds the target issue",
            ),
            (
                issue_ballot(1, (-1,), {(0,): {0}}),
                "issue 1: premise scope (-1,) holds unknown issue -1",
            ),
            (
                issue_ballot(0, (1, 2), {(0, 0): {0}}),
                "issue 0: premise scope (1, 2) holds unknown issue 2",
            ),
            # A ballot on B filed under A: counted under A, verified under B.
            ({0: approve(1, {1})}, "issue 0: ballot filed under issue 0 targets issue 1"),
        ],
    )
    def test_out_of_range_and_self_premises_raise(self, ballot, problem):
        # Profiles validate_profile flags used to misroute or crash with a
        # KeyError, an IndexError or an InternalMismatch; the walk names the
        # voter and the issue.  A ballot given as {key: ballot} is filed
        # under that key, else under its own issue.
        filed = ballot if isinstance(ballot, dict) else {ballot.issue: ballot}
        profile = Profile(
            (Issue("A", ("0", "1")), Issue("B", ("0", "1"))),
            (Voter("v", {1: issue_ballot(1, (0,), {(0,): {0}})}), Voter("w", filed)),
        )
        assert validate_profile(profile)
        for run in (classify, solve_profile):
            with pytest.raises(ValueError, match=re.escape(f"voter 1, {problem}")):
                run(profile)

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
                edges = premise_edges(profile, i)
                graph = UndirectedGraph(
                    profile.m, frozenset((min(u, v), max(u, v)) for u, v in edges)
                )
                direct.append(vertex_cover_number(graph, VC_REPORT_CAP))
            assert report.per_voter_vertex_cover == tuple(direct)
        assert classify(profiles[2]).per_voter_vertex_cover == (None, 2)

    def test_covers_match_the_unsplit_search(self):
        # Small profiles, group-dichotomous or not, delta 1-3 (16 voters
        # exceed the cap); then 40-90 issues, where a voter's graph falls
        # into many small components and covers reach the cap (76 exceed it).
        def small(seed, rng):
            return gen_random(
                rng.randint(6, 36),
                rng.randint(2, 5),
                d_max=3,
                delta_max=1 + seed % 3,
                statement_density=rng.choice([0.2, 0.4, 0.7]),
                seed=seed,
                group_dichotomous=seed % 2 == 0,
            )

        def many_parts(seed, rng):
            return gen_random(
                rng.randint(40, 90),
                rng.randint(3, 6),
                d_max=2,
                delta_max=1 + seed % 2,
                statement_density=rng.choice([0.1, 0.2, 0.3]),
                seed=seed,
                group_dichotomous=seed % 3 == 0,
            )

        for family, seeds in ((small, 100), (many_parts, 50)):
            exceeding = 0
            for seed in range(seeds):
                profile = family(seed, random.Random(seed))
                expected = []
                for i in range(profile.n):
                    edges = premise_edges(profile, i)
                    graph = UndirectedGraph(
                        profile.m, frozenset((min(u, v), max(u, v)) for u, v in edges)
                    )
                    expected.append(naive_vertex_cover_number(graph, VC_REPORT_CAP))
                covers = classify(profile).per_voter_vertex_cover
                assert covers == tuple(expected), (family.__name__, seed)
                exceeding += expected.count(None)
            assert exceeding > 0, family.__name__

    def test_widths_match_an_eager_probe(self, monkeypatch):
        # Every component's width probed up front, as classify once did,
        # against the report's: filled in where routing reads it, on first
        # read elsewhere.  Low thresholds put lazy components past the cap.
        lazy_exceeding = 0
        for seed in range(100):
            rng = random.Random(seed)
            profile = gen_random(
                rng.randint(4, 30),
                rng.randint(2, 8),
                d_max=3,
                delta_max=1 + seed % 3,
                statement_density=rng.choice([0.1, 0.3, 0.6]),
                seed=seed,
                group_dichotomous=seed % 2 == 0,
            )
            threshold = rng.choice([1, 2, 3, WIDTH_THRESHOLD])
            eager = []
            for issues, edges in reference_components(profile):
                index = {j: t for t, j in enumerate(issues)}
                sub = UndirectedGraph(
                    len(issues), frozenset((index[u], index[v]) for u, v in edges)
                )
                capped = heuristic_tree_decomposition(sub, threshold)
                eager.append(None if capped is None else capped.width)

            monkeypatch.setattr(analysis, "WIDTH_THRESHOLD", threshold)
            report = classify(profile)
            lazy = [
                c for c in report.components if c.route in (MAJORITY, MINCUT) or c.delta > 1
            ]
            assert all(
                "decomposition" not in vars(c) and "heuristic_width" not in vars(c)
                for c in lazy
            ), seed
            assert all(
                "decomposition" in vars(c)
                for c in report.components
                if c.route == TREEWIDTH
            ), seed
            assert [c.heuristic_width for c in report.components] == eager, seed
            assert report.heuristic_width == (None if None in eager else max(eager))
            if None in eager:
                assert "heuristic_width exceeds" in report.to_kv()
            lazy_exceeding += sum(c.heuristic_width is None for c in lazy)
        assert lazy_exceeding > 0

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
            direct = premise_edges(profile, i)
            und = UndirectedGraph(
                profile.m,
                frozenset((min(u, v), max(u, v)) for u, v in direct),
            )
            covers.append(vertex_cover_number(und, 2))
        assert all(c is not None and c <= 2 for c in covers)

        graph = build_global_graph(profile)
        td = heuristic_tree_decomposition(graph)
        assert verify_decomposition(graph, td) is None
        assert td.width <= 6  # observed: small union of small-cover graphs
        assert solve_treewidth(profile).cost == solve_brute(profile).cost
