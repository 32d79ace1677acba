import itertools
import math
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmsvote import (
    InternalMismatch,
    Intractable,
    _scan,
    analysis,
    dispatch,
    classify,
    gen_from_2csp,
    gen_from_multicolored_clique,
    gen_from_sat,
    gen_grid,
    gen_random,
    make_nice,
    mincut,
    model,
    solve_brute,
    solve_mincut,
    solve_profile,
)
from cmsvote.analysis import applicable_routes
from cmsvote.cli import main
from cmsvote.dispatch import (
    METHODS,
    SolveConfig,
    majority_alternative,
    restrict_profile,
)
from cmsvote.model import (
    IssueBallot,
    approve,
    issue_ballot,
    make_profile,
    make_solution,
    total_dissatisfaction,
)
from cmsvote.textio import serialize_profile

from helpers import (
    P1_DOC,
    child_env,
    cnf_satisfiable,
    cost_on_issues,
    csp_satisfiable,
    has_multicolored_clique,
    naive_majority_alternative,
    naive_optimum,
    naive_restrict_profile,
    per_component_solve,
    random_cnf,
    random_colored_graph,
    random_csp,
)


def multi_component_profile():
    """Two dependent pairs plus an isolated three-way issue."""
    issues = [
        ("A", ("0", "1")),
        ("B", ("0", "1")),
        ("C", ("x", "y", "z")),
        ("D", ("0", "1")),
        ("E", ("0", "1")),
    ]
    voters = [
        (
            "v1",
            [
                approve(0, {1}),
                issue_ballot(1, (0,), {(0,): {0}, (1,): {1}}),
                approve(2, {1}),
            ],
        ),
        ("v2", [approve(2, {1, 2}), issue_ballot(4, (3,), {(1,): {0}})]),
        ("v3", [approve(2, {0}), approve(3, {1})]),
    ]
    return make_profile(issues, voters)


def intractable_delta2_profile():
    """A 54-issue component with premise scopes of two issues, whose
    descending elimination needs over 1.7e8 table entries."""
    return gen_random(60, 3, d_max=3, delta_max=2, statement_density=0.3, seed=2)


class TestDispatch:
    def test_component_solving_matches_naive(self):
        profile = multi_component_profile()
        solution = solve_profile(profile)
        expected_cost, _ = naive_optimum(profile)
        assert solution.cost == expected_cost
        assert solution.cost == total_dissatisfaction(profile, solution.outcome)

    def test_routes_are_reported(self):
        solution = solve_profile(multi_component_profile())
        assert "majority" in solution.method

    def test_majority_counts_approvals(self):
        profile = multi_component_profile()
        # "y": two approvals, and v3's ballot is the one it dissatisfies
        assert majority_alternative(profile, 2) == (1, 1)

    def test_majority_tie_breaks_low(self):
        profile = make_profile(
            [("A", ("x", "y"))],
            [("v", [approve(0, {0})]), ("w", [approve(0, {1})])],
        )
        assert majority_alternative(profile, 0) == (0, 1)

    def test_restrict_profile_keeps_ballot_voters(self):
        profile = multi_component_profile()
        sub = restrict_profile(profile, [3, 4])
        assert sub.m == 2
        assert [issue.name for issue in sub.issues] == ["D", "E"]
        # v1 holds no ballot on D or E and is left out; v2's conditional on
        # E and v3's approval of D survive with remapped ids.
        assert [voter.name for voter in sub.voters] == ["v2", "v3"]
        assert sub.voters[0].ballots == {1: issue_ballot(1, (0,), {(1,): {0}})}
        assert sub.voters[1].ballots == {0: approve(0, {1})}
        for outcome in itertools.product(range(2), repeat=2):
            assert total_dissatisfaction(sub, outcome) == cost_on_issues(
                profile, [3, 4], outcome
            )
        assert restrict_profile(profile, range(profile.m)) is profile

    def test_method_override_applies_everywhere(self):
        profile = multi_component_profile()
        solution = solve_profile(profile, SolveConfig(method="brute"))
        assert solution.method == "brute"
        assert solution.cost == naive_optimum(profile)[0]

    def test_inapplicable_override_is_intractable(self):
        profile = multi_component_profile()  # has a non-binary issue
        with pytest.raises(Intractable):
            solve_profile(profile, SolveConfig(method="mincut"))

    def test_cross_validation(self):
        profile = gen_random(
            6, 4, delta_max=1, statement_density=0.6, seed=5, group_dichotomous=True
        )
        checked = solve_profile(profile, SolveConfig(cross_validate=True))
        plain = solve_profile(profile)
        assert checked.cost == plain.cost

    def test_intractable_instance(self):
        with pytest.raises(Intractable) as err:
            solve_profile(intractable_delta2_profile())
        assert err.value.report.components[0].route == "INTRACTABLE"

    def test_solve_computes_no_vertex_covers(self, monkeypatch):
        calls = []
        original = analysis.vertex_cover_number

        def counting(graph, k_max):
            calls.append(k_max)
            return original(graph, k_max)

        monkeypatch.setattr(analysis, "vertex_cover_number", counting)
        profile = gen_random(
            30, 20, delta_max=2, statement_density=0.2, seed=3, group_dichotomous=True
        )
        solution = solve_profile(profile)
        assert "mincut" in solution.method
        assert calls == []
        # the counter does see the covers a report prints
        classify(profile).to_text()
        assert len(calls) == profile.n

    def test_routing_probes_no_width_for_majority_and_mincut(self, monkeypatch):
        calls = []
        original = analysis.heuristic_tree_decomposition

        def counting(graph, width_cap=None):
            calls.append(graph.n)
            return original(graph, width_cap)

        monkeypatch.setattr(analysis, "heuristic_tree_decomposition", counting)
        profile = gen_random(
            40, 20, delta_max=2, statement_density=0.02, seed=5, group_dichotomous=True
        )
        report = classify(profile)
        assert {c.route for c in report.components} == {"MAJORITY", "MINCUT"}
        solve_profile(profile)
        assert calls == []
        # the counter does see the widths a report prints
        report.to_text()
        assert len(calls) == sum(c.route == "MINCUT" for c in report.components)

    def test_min_fill_runs_once_per_treewidth_component(self, monkeypatch):
        # classify's capped run is the decomposition the solver eliminates
        # along; MAJORITY and MINCUT components never run min-fill.
        calls = []
        original = analysis._min_fill_run

        def counting(graph, width_cap=None):
            calls.append(graph)
            return original(graph, width_cap)

        monkeypatch.setattr(analysis, "_min_fill_run", counting)
        for seed in (2, 8, 14):
            profile = gen_random(
                40, 20, d_max=2, delta_max=1, statement_density=0.04, seed=seed
            )
            components = classify(profile).components
            assert {c.route for c in components} == {"MAJORITY", "MINCUT", "TREEWIDTH"}
            calls.clear()
            solve_profile(profile)
            assert sorted(graph.n for graph in calls) == sorted(
                len(c.issues) for c in components if c.route == "TREEWIDTH"
            ), seed

    def test_whole_profile_component_is_verified_once(self, monkeypatch):
        profile = gen_random(
            30, 20, delta_max=2, statement_density=0.2, seed=3, group_dichotomous=True
        )
        (comp,) = classify(profile).components
        assert comp.route == "MINCUT" and restrict_profile(profile, comp.issues) is profile

        calls = []
        original = model.voter_dissatisfaction

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(model, "voter_dissatisfaction", counting)
        solution = solve_profile(profile)
        assert len(calls) == profile.n
        # cross-validation keeps the merged check
        assert solve_profile(profile, SolveConfig(cross_validate=True)) == solution
        assert len(calls) == 4 * profile.n
        monkeypatch.undo()
        assert solution == model.make_solution(profile, solution.outcome, "mincut")

    def test_verification_walks_component_voters_only(self, monkeypatch):
        # Each route's solver re-verifies its components at once on the
        # sub-profile of their union, which holds only the voters with a
        # ballot there; the merged check then walks every voter once.
        profile = gen_random(
            120, 60, delta_max=1, statement_density=0.006, seed=4, group_dichotomous=True
        )
        solved = [c for c in classify(profile).components if c.route != "MAJORITY"]
        sub_voters = [restrict_profile(profile, c.issues).n for c in solved]
        # Keeping every voter would cost len(solved) * profile.n calls.
        assert len(solved) > 5 and 4 * sum(sub_voters) < len(solved) * profile.n
        union_voters = [
            restrict_profile(
                profile, sorted(j for c in solved if c.route == route for j in c.issues)
            ).n
            for route in {c.route for c in solved}
        ]
        # A voter with ballots on several components of one route is walked
        # once, not once per component.
        assert sum(union_voters) < sum(sub_voters)

        calls = []
        original = model.voter_dissatisfaction

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(model, "voter_dissatisfaction", counting)
        solve_profile(profile)
        assert len(calls) == sum(union_voters) + profile.n


# Small profiles of every shape the dispatcher splits: several components or
# one, binary or not, group-dichotomous or not, premise scopes of 1-3 issues.
small_profiles = st.one_of(
    st.builds(gen_grid, st.integers(2, 3)),
    st.builds(
        gen_random,
        m=st.integers(2, 7),
        n=st.integers(1, 5),
        d_max=st.integers(2, 3),
        delta_max=st.integers(1, 3),
        statement_density=st.sampled_from((0.05, 0.15, 0.3, 0.6)),
        seed=st.integers(0, 10_000),
        group_dichotomous=st.booleans(),
    ),
)


class TestDifferential:
    """Component-wise solving against the whole-profile exhaustive optimum."""

    @given(profile=small_profiles)
    @settings(max_examples=60, deadline=None)
    def test_cross_validated_solve_is_optimal(self, profile):
        solution = solve_profile(profile, SolveConfig(cross_validate=True))
        assert solution.cost == naive_optimum(profile)[0]
        assert total_dissatisfaction(profile, solution.outcome) == solution.cost

    def test_reductions_cost_zero_exactly_when_solvable(self):
        # SAT, multicolored-clique and 2-CSP reductions: each profile's
        # optimum is 0 iff its source instance has a solution.
        cases = {"sat": [], "clique": [], "csp": []}
        for seed in range(30):
            rng = random.Random(seed)
            cnf = random_cnf(rng, rng.randint(2, 6), rng.randint(1, 8))
            cases["sat"].append(
                (cnf_satisfiable(cnf), gen_from_sat(cnf, rng.randint(1, cnf.num_vars)))
            )
            graph = random_colored_graph(
                rng, 3, rng.randint(2, 3), rng.uniform(0.2, 0.8)
            )
            cases["clique"].append(
                (has_multicolored_clique(graph), gen_from_multicolored_clique(graph))
            )
            csp = random_csp(rng, 3, rng.randint(2, 3), 2)
            cases["csp"].append((csp_satisfiable(csp), gen_from_2csp(csp)))
        for family, instances in cases.items():
            answers = set()
            for seed, (solvable, profile) in enumerate(instances):
                solution = solve_profile(profile, SolveConfig(cross_validate=True))
                assert solution.cost == naive_optimum(profile)[0], (family, seed)
                assert (solution.cost == 0) == solvable, (family, seed)
                answers.add(solvable)
            assert answers == {True, False}, family

    def test_forced_methods_match_naive_optimum(self):
        solved = {method: 0 for method in METHODS if method != "auto"}
        for seed in range(80):
            profile = gen_random(
                6,
                4,
                d_max=2 + seed % 2,
                delta_max=seed % 4,
                statement_density=0.4,
                seed=seed,
                group_dichotomous=seed % 3 == 0,
            )
            expected = naive_optimum(profile)[0]
            for method in solved:
                try:
                    solution = solve_profile(profile, SolveConfig(method=method))
                except Intractable:
                    continue
                assert solution.cost == expected, (seed, method)
                solved[method] += 1
        assert all(solved.values()), solved

    def test_brute_outcome_is_lexicographically_first(self):
        for seed in range(120):
            profile = gen_random(
                7, 4, d_max=3, delta_max=seed % 4, statement_density=0.4, seed=seed
            )
            expected = naive_optimum(profile)[1]
            assert solve_brute(profile).outcome == expected, seed
            forced = solve_profile(profile, SolveConfig(method="brute"))
            assert forced.outcome == expected, seed

    def test_binary_mincut_outcome_is_lexicographically_first(self):
        for seed in range(300):
            profile = gen_random(
                8,
                5,
                d_max=2,
                delta_max=1 + seed % 3,
                statement_density=0.4,
                seed=seed,
                group_dichotomous=True,
            )
            assert solve_mincut(profile).outcome == naive_optimum(profile)[1], seed


def with_isolated_issue(profile):
    """The profile plus one binary issue that one more voter approves 1 on."""
    issues = [(issue.name, issue.alternatives) for issue in profile.issues]
    voters = [(voter.name, list(voter.ballots.values())) for voter in profile.voters]
    return make_profile(
        issues + [("extra", ("0", "1"))], voters + [("x", [approve(profile.m, {1})])]
    )


class TestRouteWise:
    """One solve per route against each component solved alone."""

    def test_matches_per_component_solve(self):
        profiles = [
            gen_random(
                8 + seed % 23,
                2 + seed % 7,
                d_max=2 + seed % 2,
                delta_max=seed % 4,
                statement_density=(0.04, 0.08, 0.2)[seed % 3],
                seed=seed,
                group_dichotomous=seed % 5 == 0,
            )
            for seed in range(90)
        ]
        # A component past the width cap, forced to TREEWIDTH next to an
        # isolated issue: the union takes its uncapped min-fill run.
        wide = with_isolated_issue(
            gen_random(26, 12, d_max=2, delta_max=1, statement_density=0.5, seed=0)
        )
        assert any(c.decomposition is None for c in classify(wide).components)
        profiles.append(wide)
        grouped = set()
        for index, profile in enumerate(profiles):
            routes = [c.route for c in classify(profile).components]
            for method in METHODS:
                config = SolveConfig(method=method)
                try:
                    expected = per_component_solve(profile, method)
                except Intractable:
                    with pytest.raises(Intractable):
                        solve_profile(profile, config)
                    continue
                solution = solve_profile(profile, config)
                got = (solution.outcome, solution.cost, solution.method)
                assert got == expected, (index, method)
                planned = routes if method == "auto" else [method.upper()] * len(routes)
                grouped.update(
                    r for r in planned if r != "MAJORITY" and planned.count(r) > 1
                )
        assert grouped == {"MINCUT", "TREEWIDTH", "BRUTE"}

    @pytest.mark.parametrize(
        "route, delta, seed", [("TREEWIDTH", 1, 0), ("BRUTE", 2, 3)]
    )
    def test_refused_union_is_solved_component_by_component(
        self, monkeypatch, route, delta, seed
    ):
        # Table entries add across a union, so a limit between the largest
        # component's entries and the union's refuses the union while every
        # component still fits alone.
        profile = gen_random(
            24, 6, d_max=3, delta_max=delta, statement_density=0.06, seed=seed
        )
        expected = per_component_solve(profile)
        comps = [c for c in classify(profile).components if c.route == route]
        assert len(comps) > 1

        def entries(comp):
            """(factor entries, bucket entries) of the component alone."""
            sub = restrict_profile(profile, comp.issues)
            dom = sub.domain_sizes()
            if route == "BRUTE":
                order = range(sub.m - 1, -1, -1)
            else:
                nodes = make_nice(comp.decomposition).postorder()
                order = [node.vertex for node in nodes if node.kind == "forget"]
            pairs = ((j, b) for voter in sub.voters for j, b in voter.ballots.items())
            axes = _scan.group_by_axes(pairs, dom)
            factors = sum(math.prod(dom[k] for k in a) for a in axes)
            return factors, _scan.predict_entries(axes, dom, order)

        sizes = [entries(c) for c in comps]
        limit = max(map(max, sizes))
        assert sum(buckets for _, buckets in sizes) > limit
        monkeypatch.setattr(_scan, "MAX_TABLE_ENTRIES", limit)

        name = {"TREEWIDTH": "solve_treewidth", "BRUTE": "solve_brute"}[route]
        original = getattr(dispatch, name)
        solved = []

        def counting(sub, *args):
            solved.append(sub.m)
            return original(sub, *args)

        monkeypatch.setattr(dispatch, name, counting)
        solution = solve_profile(profile)
        assert (solution.outcome, solution.cost, solution.method) == expected
        # The refused union, then each component alone.
        union = sum(len(c.issues) for c in comps)
        assert solved == [union] + [len(c.issues) for c in comps]


def side_by_side(*profiles):
    """The profiles' disjoint union: the t-th profile's issues follow the
    earlier profiles' issues, and its names carry the suffix ``t``."""
    issues, voters = [], []
    for t, profile in enumerate(profiles):
        offset = len(issues)
        issues += [(f"{issue.name}{t}", issue.alternatives) for issue in profile.issues]
        voters += [
            (
                f"{voter.name}_{t}",
                [
                    IssueBallot(
                        b.issue + offset, tuple(k + offset for k in b.scope), b.statements
                    )
                    for b in voter.ballots.values()
                ],
            )
            for voter in profile.voters
        ]
    return make_profile(issues, voters)


class TestChecks:
    """The re-evaluations ``solve_profile`` runs on its parts and, under
    cross-validation, on every component."""

    def test_cross_validation_solves_every_component_by_every_route(
        self, monkeypatch
    ):
        profile = side_by_side(multi_component_profile(), multi_component_profile())
        comps = classify(profile).components
        assert sorted(c.route for c in comps) == sorted(
            ["MAJORITY", "MINCUT", "TREEWIDTH"] * 2
        )
        calls = []

        def counting(route, solver):
            def solve(sub, *args):
                calls.append((route, tuple(issue.name for issue in sub.issues)))
                return solver(sub, *args)

            return solve

        for route, name in [
            ("MINCUT", "solve_mincut"),
            ("TREEWIDTH", "solve_treewidth"),
            ("BRUTE", "solve_brute"),
        ]:
            monkeypatch.setattr(dispatch, name, counting(route, getattr(dispatch, name)))
        majority = dispatch.majority_alternative

        def counting_majority(profile, issue):
            calls.append(("MAJORITY", (profile.issues[issue].name,)))
            return majority(profile, issue)

        monkeypatch.setattr(dispatch, "majority_alternative", counting_majority)
        checked = solve_profile(profile, SolveConfig(cross_validate=True))
        expected = [
            (route, tuple(profile.issues[j].name for j in comp.issues))
            for comp in comps
            for route in {comp.route, *applicable_routes(comp)}
        ]
        assert sorted(calls) == sorted(expected)
        assert len(expected) == 2 * (3 + 3 + 2)
        assert checked == solve_profile(profile)

    def test_cross_validation_catches_a_worse_outcome(self, monkeypatch):
        # BRUTE checks the TREEWIDTH component (3, 4), whose costs run 0 to 2;
        # a verified outcome of cost 2 must not pass.
        profile = multi_component_profile()
        brute = dispatch.solve_brute

        def worst(sub):
            if [issue.name for issue in sub.issues] != ["D", "E"]:
                return brute(sub)
            outcomes = itertools.product(*map(range, sub.domain_sizes()))
            outcome = max(outcomes, key=lambda o: total_dissatisfaction(sub, o))
            return make_solution(sub, outcome, "brute")

        monkeypatch.setattr(dispatch, "solve_brute", worst)
        assert solve_profile(profile).cost == naive_optimum(profile)[0]
        with pytest.raises(
            InternalMismatch, match=r"solvers disagree on component \(3, 4\): \[0, 2\]"
        ):
            solve_profile(profile, SolveConfig(cross_validate=True))

    def test_merge_check_catches_a_wrong_part(self, monkeypatch):
        profile = multi_component_profile()
        optimum = naive_optimum(profile)[0]
        majority = dispatch.majority_alternative

        def one_more(profile, issue):
            alt, cost = majority(profile, issue)
            return alt, cost + 1

        monkeypatch.setattr(dispatch, "majority_alternative", one_more)
        with pytest.raises(
            InternalMismatch,
            match=f"component costs sum to {optimum + 1} but the merged outcome "
            f"re-evaluates to {optimum}",
        ):
            solve_profile(profile)


class TestMalformedBallots:
    """Ballots built through the API that ``validate_profile`` flags are the
    caller's error: a solve they break raises ValueError naming the voter
    and the issue, not a kernel-bug InternalMismatch or a bare IndexError."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize(
        "ballot, where",
        [
            (issue_ballot(1, (0,), {(0, 1): [0]}), "[voter 1, issue 1] inconsistent-scope: "),
            (issue_ballot(1, (0,), {(2,): [0]}), "[voter 1, issue 1] bad-premise: "),
            (issue_ballot(1, (0,), {(1,): 0b110}), "[voter 1, issue 1] bad-alternative: "),
            # a stray high bit keeps the profile group-dichotomous: MINCUT
            (approve(0, 0b110), "[voter 1, issue 0] bad-alternative: "),
        ],
        ids=["premise-length", "premise-domain", "mask-bits", "mincut-mask-bits"],
    )
    def test_solve_names_the_ballot(self, method, ballot, where):
        profile = make_profile(
            [("A", ("0", "1")), ("B", ("0", "1"))],
            [("w", [approve(0, [0]), issue_ballot(1, (0,), {(0,): [0]})]), ("v", [ballot])],
        )
        with pytest.raises(ValueError) as err:
            solve_profile(profile, SolveConfig(method=method))
        assert str(err.value).startswith(where)

    def test_valid_profile_failures_pass_through(self, monkeypatch):
        profile = make_profile(
            [("A", ("0", "1")), ("B", ("0", "1"))],
            [("w", [approve(0, [0]), issue_ballot(1, (0,), {(0,): [0]})]), ("v", [approve(0, [1])])],
        )
        assert [c.route for c in classify(profile).components] == ["MINCUT"]
        original = mincut.max_flow_min_cut

        def over(network):
            flow, side = original(network)
            return flow + 1, side

        monkeypatch.setattr(mincut, "max_flow_min_cut", over)
        with pytest.raises(InternalMismatch, match="cut promises cost 2 "):
            solve_profile(profile)


class TestBallotIndex:
    """The index-based split and majority count against full-voter scans."""

    def test_split_and_majority_match_full_scan(self):
        dropped_voters = unvoted_issue = False
        majority_checked = costs_checked = 0
        for seed in range(12):
            profile = gen_random(
                14, 6, d_max=3, delta_max=2, statement_density=0.08, seed=seed
            )
            assert restrict_profile(profile, range(profile.m)) is profile
            for comp in classify(profile).components:
                sub = restrict_profile(profile, comp.issues)
                assert sub == naive_restrict_profile(profile, comp.issues)
                # Exactly the voters with a ballot on the component remain.
                kept = [
                    voter.name
                    for voter in profile.voters
                    if any(j in voter.ballots for j in comp.issues)
                ]
                assert [voter.name for voter in sub.voters] == kept
                if len(kept) < profile.n:
                    dropped_voters = True
                if sub.m > 1 and math.prod(sub.domain_sizes()) <= 512:
                    for outcome in itertools.product(*map(range, sub.domain_sizes())):
                        assert total_dissatisfaction(sub, outcome) == cost_on_issues(
                            profile, comp.issues, outcome
                        )
                    costs_checked += 1
            for j in range(profile.m):
                ballots = [voter.ballots.get(j) for voter in profile.voters]
                if all(b is None for b in ballots):
                    unvoted_issue = True
                if all(b is None or not b.scope for b in ballots):
                    assert majority_alternative(profile, j) == (
                        naive_majority_alternative(profile, j)
                    )
                    majority_checked += 1
        assert dropped_voters and unvoted_issue
        assert majority_checked > 50
        assert costs_checked > 5

    def test_restrict_takes_ascending_issues_only(self):
        # A list out of order, or with a repeat, is rejected.  An ascending
        # union of components must cost each outcome what the full profile
        # costs on those issues.
        unions = 0
        for seed in range(30):
            rng = random.Random(seed)
            profile = gen_random(
                8, 4, d_max=3, delta_max=3, statement_density=0.05, seed=seed
            )
            shuffled = rng.sample(range(profile.m), profile.m)
            if shuffled != sorted(shuffled):
                with pytest.raises(ValueError, match="strictly ascending"):
                    restrict_profile(profile, shuffled)
            with pytest.raises(ValueError, match="strictly ascending"):
                restrict_profile(profile, [0, 0])
            comps = classify(profile).components
            picked = [c for c in comps if rng.random() < 0.6] or comps[:1]
            issues = sorted(j for c in picked for j in c.issues)
            sub = restrict_profile(profile, issues)
            if issues == list(range(profile.m)):
                assert sub is profile
            else:
                assert sub == naive_restrict_profile(profile, issues)
            for outcome in itertools.product(*map(range, sub.domain_sizes())):
                assert total_dissatisfaction(sub, outcome) == cost_on_issues(
                    profile, issues, outcome
                )
            unions += len(picked) > 1 and issues != list(range(profile.m))
        assert unions > 10


@pytest.fixture
def p1_path(tmp_path):
    path = tmp_path / "p1.profile"
    path.write_text(P1_DOC)
    return str(path)


class TestCli:
    def test_solve(self, p1_path, capsys):
        assert main(["solve", p1_path]) == 0
        out = capsys.readouterr().out
        assert "cmssolution 1" in out
        assert "cost 1" in out
        assert "assign A 0" in out

    def test_solve_decision_threshold(self, p1_path, capsys):
        assert main(["solve", p1_path, "--max-dissat", "0"]) == 1
        assert main(["solve", p1_path, "--max-dissat", "1"]) == 0

    def test_solve_method_override_failure(self, tmp_path, capsys):
        doc = """cmsprofile 1
issues 2
issue A 0 1
issue B 0 1
voters 1
voter v
cond B if A=0 then 1
end
"""
        path = tmp_path / "nongd.profile"
        path.write_text(doc)
        assert main(["solve", str(path), "--method", "mincut"]) == 3

    def test_solve_cross_validate(self, p1_path, capsys):
        assert main(["solve", p1_path, "--cross-validate"]) == 0
        assert "cost 1" in capsys.readouterr().out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.profile"
        path.write_text("cmsprofile 9000\n")
        assert main(["solve", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "analyze"])
    @pytest.mark.parametrize(
        "flags",
        [["--width-threshold", "8"], ["--brute-budget", "10"]],
        ids=["width-threshold", "brute-budget"],
    )
    def test_routing_bounds_are_not_options(self, p1_path, capsys, command, flags):
        assert main([command, p1_path, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(flags)}" in captured.err

    def test_missing_file(self, capsys):
        assert main(["solve", "/nonexistent.profile"]) == 2

    def test_solve_intractable_prints_analysis(self, tmp_path, capsys):
        path = tmp_path / "delta2.profile"
        path.write_text(serialize_profile(intractable_delta2_profile()))
        assert main(["solve", str(path)]) == 3
        solved = capsys.readouterr()
        assert solved.out == ""
        assert main(["analyze", str(path)]) == 0
        report = capsys.readouterr().out
        assert "per-voter vertex cover:" in report
        assert solved.err == report + "error: no applicable solver route\n"

    def test_forced_brute_past_the_entry_limit_prints_analysis(self, tmp_path, capsys):
        path = tmp_path / "delta2.profile"
        path.write_text(serialize_profile(intractable_delta2_profile()))
        assert main(["solve", str(path), "--method", "brute"]) == 3
        solved = capsys.readouterr()
        assert solved.out == ""
        assert main(["analyze", str(path)]) == 0
        report = capsys.readouterr().out
        assert "-> INTRACTABLE" in report
        assert solved.err == report + "error: no applicable solver route\n"

    def test_solve_out_of_memory_prints_analysis(self, tmp_path, capsys, monkeypatch):
        def exhausted(profile, config):
            raise MemoryError()

        monkeypatch.setattr("cmsvote.cli.solve_profile", exhausted)
        path = tmp_path / "delta2.profile"
        path.write_text(serialize_profile(intractable_delta2_profile()))
        assert main(["solve", str(path)]) == 3
        solved = capsys.readouterr()
        assert solved.out == ""
        assert main(["analyze", str(path)]) == 0
        report = capsys.readouterr().out
        assert solved.err == report + "error: out of memory\n"

    def test_analyze(self, p1_path, capsys):
        assert main(["analyze", p1_path]) == 0
        out = capsys.readouterr().out
        assert "MINCUT" in out
        assert main(["analyze", p1_path, "--kv"]) == 0
        assert "component.0.route MINCUT" in capsys.readouterr().out

    def test_generate_grid_and_solve(self, tmp_path, capsys):
        out_path = tmp_path / "grid.profile"
        assert main(["generate", "grid", "3", "--out", str(out_path)]) == 0
        assert main(["solve", str(out_path), "--max-dissat", "0"]) == 0

    def test_generate_random_deterministic(self, capsys):
        assert main(["generate", "random", "--issues", "4", "--voters", "3",
                     "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["generate", "random", "--issues", "4", "--voters", "3",
                     "--seed", "9"]) == 0
        assert capsys.readouterr().out == first

    def test_generate_sat(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 2 1\n1 2 0\n")
        assert main(["generate", "sat", str(cnf), "--issues", "2"]) == 0
        assert "cmsprofile 1" in capsys.readouterr().out

    def test_generate_csp_and_clique(self, tmp_path, capsys):
        csp = tmp_path / "c.csp"
        csp.write_text("alphabet a b\nconstraint u v a:b\n")
        assert main(["generate", "csp", str(csp)]) == 0
        graph = tmp_path / "g.graph"
        graph.write_text("class r r0\nclass g g0\nedge r0 g0\n")
        assert main(["generate", "clique", str(graph)]) == 0

    def test_verify_roundtrip_and_tamper(self, p1_path, tmp_path, capsys):
        sol_path = tmp_path / "p1.solution"
        assert main(["solve", p1_path, "--out", str(sol_path)]) == 0
        assert main(["verify", p1_path, str(sol_path)]) == 0
        out = capsys.readouterr().out
        assert "cost confirmed" in out

        tampered = sol_path.read_text().replace("cost 1", "cost 0")
        sol_path.write_text(tampered)
        assert main(["verify", p1_path, str(sol_path)]) == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_verify_missing_assignment(self, p1_path, tmp_path, capsys):
        sol_path = tmp_path / "broken.solution"
        sol_path.write_text("cmssolution 1\ncost 1\nassign A 0\n")
        assert main(["verify", p1_path, str(sol_path)]) == 2

    def test_usage_error(self, capsys):
        assert main(["solve"]) == 2

    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cmsvote.cli", "--help"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert "solve" in proc.stdout
