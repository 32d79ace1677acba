import itertools
import random
import time

import numpy as np
import pytest

from cmsvote import (
    BudgetExceeded,
    InvalidDecomposition,
    compile_cost_model,
    gen_grid,
    gen_random,
    heuristic_tree_decomposition,
    make_nice,
    solve_brute,
    solve_treewidth,
    total_dissatisfaction,
)
from cmsvote import _scan
from cmsvote._scan import eliminate
from cmsvote.analysis import (
    NiceNode,
    NiceTreeDecomposition,
    TreeDecomposition,
    build_global_graph,
    classify,
)
from cmsvote.cli import main
from cmsvote.model import issue_ballot, make_profile
from cmsvote.textio import serialize_profile

from helpers import (
    build_p1,
    coarsen_decomposition,
    naive_optimum,
    naive_treewidth_outcome,
    traced_peak,
)


def agreement_chain(m, d):
    """One voter whose ballot on issue j copies issue j-1's value."""
    issues = [(f"i{j}", tuple(str(a) for a in range(d))) for j in range(m)]
    ballots = [
        issue_ballot(j, (j - 1,), {(a,): {a} for a in range(d)})
        for j in range(1, m)
    ]
    return make_profile(issues, [("chain", ballots)])


def agreement_grid(side, d):
    """A side x side grid of d-alternative issues; per grid edge, one voter
    whose ballot on the later issue copies the earlier one's value."""
    issues = [(f"i{j}", tuple(str(a) for a in range(d))) for j in range(side * side)]
    voters = []
    for j in range(side * side):
        right = [j + 1] if (j + 1) % side else []
        down = [j + side] if j + side < side * side else []
        for k in right + down:
            ballot = issue_ballot(k, (j,), {(a,): {a} for a in range(d)})
            voters.append((f"v{j}_{k}", [ballot]))
    return make_profile(issues, voters)


def shift_grid(rows, cols, d):
    """A rows x cols grid of d-alternative issues; per grid edge, one voter
    whose ballot on the later issue approves the earlier one's value plus one,
    modulo d."""
    issues = [(f"i{j}", tuple(str(a) for a in range(d))) for j in range(rows * cols)]
    voters = []
    for j in range(rows * cols):
        right = [j + 1] if (j + 1) % cols else []
        down = [j + cols] if j + cols < rows * cols else []
        for k in right + down:
            ballot = issue_ballot(k, (j,), {(a,): {(a + 1) % d} for a in range(d)})
            voters.append((f"v{j}_{k}", [ballot]))
    return make_profile(issues, voters)


def forget_order(nice):
    return [node.vertex for node in nice.postorder() if node.kind == "forget"]


def mirror_joins(nice):
    """The same decomposition with every join node's children swapped."""
    copies = {}
    for node in nice.postorder():
        children = tuple(copies[id(child)] for child in node.children)
        if node.kind == "join":
            children = children[::-1]
        copies[id(node)] = NiceNode(node.kind, node.bag, node.vertex, children)
    return NiceTreeDecomposition(copies[id(nice.root)])


class TestCostModel:
    def test_p1_tables(self):
        model = compile_cost_model(build_p1(), range(2))
        tables = {axes: table.tolist() for axes, table in model.factors}
        assert tables == {(0,): [1, 1], (1,): [0, 1], (0, 1): [[0, 1], [1, 0]]}

    def test_all_unconditional_has_no_edge_tables(self):
        profile = gen_random(4, 3, d_max=3, delta_max=0, statement_density=0.7, seed=2)
        model = compile_cost_model(profile, range(profile.m))
        assert model.factors
        assert all(len(axes) == 1 for axes, _ in model.factors)

    def test_opposite_direction_edges_share_one_table(self):
        profile = make_profile(
            [("A", ("0", "1")), ("B", ("0", "1"))],
            [
                ("v", [issue_ballot(1, (0,), {(0,): {0}, (1,): {1}})]),
                ("w", [issue_ballot(0, (1,), {(0,): {0}, (1,): {1}})]),
            ],
        )
        model = compile_cost_model(profile, range(profile.m))
        [(axes, table)] = model.factors
        assert axes == (0, 1)
        assert table.tolist() == [[0, 2], [2, 0]]

    def test_rejects_wide_scopes(self, monkeypatch):
        # The compiler takes factors of any arity, and so does the tree
        # solver: elimination is exact along any forget order, and only the
        # entry limit rejects a scope, before any table is allocated.
        profile = make_profile(
            [("A", ("0", "1")), ("B", ("0", "1")), ("C", ("0", "1"))],
            [("v", [issue_ballot(2, (0, 1), {(0, 0): {0}})])],
        )
        [(axes, table)] = compile_cost_model(profile, range(profile.m)).factors
        assert axes == (0, 1, 2) and table.shape == (2, 2, 2)
        rng = random.Random(0)
        for seed in range(300):
            wide = gen_random(
                7, 4, d_max=3, delta_max=2 + seed % 2, statement_density=0.4, seed=seed
            )
            cost, _ = naive_optimum(wide)
            decomposition = coarsen_decomposition(
                rng, heuristic_tree_decomposition(build_global_graph(wide)), 2
            )
            assert solve_treewidth(wide).cost == cost, seed
            assert solve_treewidth(wide, decomposition).cost == cost, seed

        def no_allocation(*args, **kwargs):
            raise AssertionError("a table was allocated")

        monkeypatch.setattr(_scan, "MAX_TABLE_ENTRIES", 7)
        monkeypatch.setattr(np, "full", no_allocation)
        monkeypatch.setattr(np, "zeros", no_allocation)
        with pytest.raises(BudgetExceeded, match="factor tables need 8 table entries"):
            solve_treewidth(profile)


class TestSolveTreewidth:
    def test_p1_with_single_bag_decomposition(self):
        decomposition = TreeDecomposition((frozenset({0, 1}),), ())
        solution = solve_treewidth(build_p1(), decomposition)
        assert solution.cost == 1

    def test_agreement_chain_is_free(self):
        solution = solve_treewidth(agreement_chain(6, 3))
        assert solution.cost == 0
        assert len(set(solution.outcome)) == 1  # constant assignment

    def test_grid(self):
        assert solve_treewidth(gen_grid(3)).cost == 0

    def test_matches_brute_on_random_profiles(self):
        for seed in range(60):
            profile = gen_random(
                6, 4, d_max=3, delta_max=1, statement_density=0.6, seed=seed
            )
            assert solve_treewidth(profile).cost == solve_brute(profile).cost

    def test_decomposition_independence(self):
        rng = random.Random(5)
        for seed in range(25):
            profile = gen_random(
                6, 4, d_max=3, delta_max=1, statement_density=0.7, seed=seed
            )
            graph = build_global_graph(profile)
            base = heuristic_tree_decomposition(graph)
            coarse = coarsen_decomposition(rng, base, steps=2)
            a = solve_treewidth(profile, base)
            b = solve_treewidth(profile, coarse)
            assert a.cost == b.cost

    def test_solution_reverified(self):
        profile = gen_random(
            7, 5, d_max=3, delta_max=1, statement_density=0.5, seed=77
        )
        solution = solve_treewidth(profile)
        assert solution.cost == total_dissatisfaction(profile, solution.outcome)
        assert sum(solution.per_voter) == solution.cost

    def test_rejects_invalid_decomposition(self):
        profile = build_p1()
        # bag misses issue 1 entirely
        decomposition = TreeDecomposition((frozenset({0}),), ())
        with pytest.raises(InvalidDecomposition):
            solve_treewidth(profile, decomposition)

    def test_forget_tie_breaks_toward_low_alternatives(self):
        profile = make_profile(
            [("A", ("0", "1")), ("B", ("0", "1"))],
            [("v", [issue_ballot(1, (0,), {(0,): {0}, (1,): {1}})])],
        )
        solution = solve_treewidth(profile)
        assert solution.outcome == (0, 0)

    def test_disconnected_profile(self):
        profile = make_profile(
            [("A", ("0", "1")), ("B", ("0", "1")), ("C", ("0", "1")), ("D", ("0", "1"))],
            [
                ("v", [issue_ballot(1, (0,), {(1,): {1}})]),
                ("w", [issue_ballot(3, (2,), {(0,): {1}})]),
            ],
        )
        assert solve_treewidth(profile).cost == solve_brute(profile).cost


class TestOutcomeIdentity:
    """Charging each table at one forget node leaves every outcome, ties
    included, as the keep-every-table reference DP computes it."""

    def test_random_profiles(self):
        for seed in range(200):
            profile = gen_random(
                7, 5, d_max=2 + seed % 3, delta_max=seed % 2,
                statement_density=0.5, seed=seed,
            )
            solution = solve_treewidth(profile)
            assert solution.outcome == naive_treewidth_outcome(profile), seed

    def test_grids(self):
        for rho in range(2, 6):
            profile = gen_grid(rho)
            assert solve_treewidth(profile).outcome == naive_treewidth_outcome(profile)

    def test_mirrored_joins(self):
        # Swapping a join's children reorders the forget order; the
        # elimination along either order returns the same outcome.
        joins = 0
        reordered = 0
        for seed in range(40):
            profile = gen_random(
                8, 4, d_max=3, delta_max=1, statement_density=0.3, seed=seed
            )
            nice = make_nice(heuristic_tree_decomposition(build_global_graph(profile)))
            joins += sum(node.kind == "join" for node in nice.postorder())
            orders = [forget_order(nice), forget_order(mirror_joins(nice))]
            reordered += orders[0] != orders[1]
            model = compile_cost_model(profile, orders[0])
            results = [eliminate(model, order) for order in orders]
            assert results[0] == results[1], seed
            assert results[0][1] == solve_treewidth(profile).outcome, seed
        assert joins > 0 and reordered > 0


class TestTableLimit:
    def test_oversized_tables_fail_before_allocation(self):
        # The 7 x 7 grid of 8-alternative issues routes TREEWIDTH at width 8,
        # and elimination in its forget order needs 339,335,752 table
        # entries.  Two 12,000-alternative issues joined by one ballot need
        # 1.44e8, and their edge factor alone would take 576 MB: the bucket
        # tables are checked before any factor table is compiled.
        grid = agreement_grid(7, 8)
        assert [c.route for c in classify(grid).components] == ["TREEWIDTH"]
        wide = tuple(str(a) for a in range(12_000))
        pair = make_profile(
            [("A", wide), ("B", wide)],
            [("v", [issue_ballot(1, (0,), {(0,): {0}})])],
        )
        cases = ((grid, 10, 100 * 2**20), (pair, 1, 10 * 2**20))
        for profile, seconds, peak_bytes in cases:

            def attempt():
                with pytest.raises(BudgetExceeded, match="table entries"):
                    solve_treewidth(profile)

            start = time.perf_counter()
            _, peak = traced_peak(attempt)
            assert time.perf_counter() - start < seconds
            assert peak < peak_bytes

    def test_cli_solve_exits_3(self, tmp_path, capsys):
        path = tmp_path / "grid.profile"
        path.write_text(serialize_profile(agreement_grid(7, 8)))
        assert main(["solve", str(path)]) == 3
        err = capsys.readouterr().err
        assert main(["analyze", str(path)]) == 0
        report = capsys.readouterr().out
        assert err.startswith(report + "error: ")
        assert "table entries" in err.removeprefix(report)

    def test_dp_memory_stays_small(self):
        # A 5 x 40 grid of 4-alternative issues has width 5.  A DP that keeps
        # every table for the traceback peaks at about 11 MB here.
        profile = shift_grid(5, 40, 4)
        solution, peak = traced_peak(lambda: solve_treewidth(profile))
        assert solution.cost == 0
        assert peak < 2 * 2**20
