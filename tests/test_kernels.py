"""The bucket-elimination and max-flow kernels against independent oracles."""

import itertools
import math
import random
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from cmsvote import (
    BudgetExceeded,
    InternalMismatch,
    Intractable,
    classify,
    gen_from_sat,
    gen_random,
    mincut,
    solve_brute,
    solve_mincut,
    solve_profile,
    solve_treewidth,
    total_dissatisfaction,
    treewidth,
)
from cmsvote import _flow, _scan
from cmsvote.analysis import BRUTE, applicable_routes
from cmsvote.cli import main
from cmsvote.dispatch import restrict_profile
from cmsvote.mincut import build_network, compile_constraints
from cmsvote.model import approve, issue_ballot, make_profile, validate_profile
from cmsvote.textio import serialize_profile

from helpers import (
    child_env,
    exhaustive_min_violations,
    milp_optimum,
    naive_optimum,
    random_cnf,
    random_constraints,
    reference_cost_model,
    reference_eliminate,
    traced_peak,
)


def descending(profile):
    """Bucket elimination in descending issue order, as ``solve_brute`` runs it."""
    order = range(profile.m - 1, -1, -1)
    return _scan.eliminate(_scan.compile_cost_model(profile, order), order)


def binary_issues(m):
    return [(f"x{j}", ("0", "1")) for j in range(m)]


def binary_clique(m):
    """m binary issues and one voter per pair of issues, who wants the later
    one to differ from the earlier one."""
    voters = [
        (f"v{j}_{k}", [issue_ballot(k, (j,), {(0,): {1}, (1,): {0}})])
        for j, k in itertools.combinations(range(m), 2)
    ]
    return make_profile(binary_issues(m), voters)


def forbid_numpy(monkeypatch):
    """Stand in for numpy, in code that imports it inside a function, with an
    object that fails on any use, so that code allocates no array at all."""

    class Unusable:
        def __getattr__(self, name):
            raise AssertionError(f"numpy.{name} was used")

    monkeypatch.setitem(sys.modules, "numpy", Unusable())


def scan_profile(seed):
    """Seeded profile for the reference comparisons: 1 to 6 issues of 2 to 6
    alternatives and ballots with premise scopes of 0 to 3 issues.  Some
    ballots are never satisfied, some voters repeat the previous voter's
    ballots, every third profile leaves its last issue without a factor and
    every fifth is an all-tie profile, whose ballots either approve every
    alternative at every premise or are never satisfied."""
    rng = random.Random(seed)
    m = rng.randint(1, 6)
    dom = [rng.randint(2, 6) for _ in range(m)]
    free = m - 1 if m > 1 and seed % 3 == 0 else None
    tie = seed % 5 == 0
    voters = []
    for i in range(rng.randint(1, 5)):
        if voters and rng.random() < 0.25:
            voters.append((f"v{i}", voters[-1][1]))
            continue
        ballots = []
        for j in rng.sample(range(m), rng.randint(0, m)):
            if j == free:
                continue
            others = [k for k in range(m) if k not in (j, free)]
            scope = sorted(rng.sample(others, rng.randint(0, min(3, len(others)))))
            premises = list(itertools.product(*(range(dom[k]) for k in scope)))
            full = (1 << dom[j]) - 1
            if scope and rng.random() < 0.15:
                statements = {}
            elif tie:
                statements = dict.fromkeys(premises, full)
            else:
                chosen = rng.sample(premises, rng.randint(1, len(premises)))
                statements = {p: rng.randint(1, full) for p in chosen}
            ballots.append(issue_ballot(j, scope, statements))
        voters.append((f"v{i}", ballots))
    return make_profile([(f"x{j}", tuple(map(str, range(d)))) for j, d in enumerate(dom)], voters)


def table_cells(model):
    """Each factor's axes, count type and cells."""
    return [(axes, table.dtype, table.tolist()) for axes, table in model.factors]


def random_profile(seed):
    rng = random.Random(seed)
    return gen_random(
        rng.randint(1, 6),
        rng.randint(1, 5),
        d_max=rng.choice((2, 3)),
        delta_max=seed % 4,
        statement_density=rng.random(),
        seed=seed,
    )


class TestScan:
    """The factor tables of ``_scan`` and the bucket-elimination kernel."""

    def test_matches_naive_optimum(self):
        # The descending order returns the lexicographically first optimum.
        for seed in range(60):
            profile = random_profile(seed)
            assert descending(profile) == naive_optimum(profile), seed

    def test_random_orders_are_exact(self):
        for seed in range(120):
            profile = random_profile(seed)
            order = list(range(profile.m))
            random.Random(seed).shuffle(order)
            compiled = _scan.compile_cost_model(profile, order)
            cost, outcome = _scan.eliminate(compiled, order)
            assert cost == naive_optimum(profile)[0], (seed, order)
            assert total_dissatisfaction(profile, outcome) == cost, (seed, order)

    def test_predicted_entries_are_allocated(self, monkeypatch):
        # Every bucket table starts as np.zeros over the bucket's scope in the
        # model's count type, and nothing else in the kernel calls np.zeros.
        allocated = []
        zeros = np.zeros

        def counting(shape, dtype):
            allocated.append((dtype, math.prod(shape)))
            return zeros(shape, dtype)

        monkeypatch.setattr(np, "zeros", counting)
        for seed in range(60):
            profile = random_profile(seed)
            compiled = _scan.compile_cost_model(profile, range(profile.m))
            axes = [axes for axes, _ in compiled.factors]
            order = list(range(profile.m))
            for shuffle in range(3):
                random.Random(seed * 3 + shuffle).shuffle(order)
                allocated.clear()
                _scan.eliminate(compiled, order)
                predicted = _scan.predict_entries(axes, compiled.dom, order)
                assert {dtype for dtype, _ in allocated} == {compiled.dtype}
                assert sum(size for _, size in allocated) == predicted, (seed, order)
                assert len(allocated) == profile.m

    def test_matches_the_reference_compiler_and_kernel(self):
        # Tables equal cell for cell in the same count type, and the same
        # cost and minimizer along descending and random orders.
        seen = dict.fromkeys(("no factor", "all tie", "never satisfied", "repeated"), 0)
        for seed in range(300):
            profile = scan_profile(seed)
            reference = reference_cost_model(profile)
            tie = all(table.min() == table.max() for _, table in reference.factors)
            orders = [list(range(profile.m - 1, -1, -1))]
            for shuffle in range(2):
                orders.append(list(range(profile.m)))
                random.Random(seed * 2 + shuffle).shuffle(orders[-1])
            for order in orders:
                compiled = _scan.compile_cost_model(profile, order)
                assert compiled.dtype is reference.dtype, seed
                assert table_cells(compiled) == table_cells(reference), seed
                cost, outcome = _scan.eliminate(compiled, order)
                assert (cost, outcome) == reference_eliminate(reference, order), (seed, order)
                assert total_dissatisfaction(profile, outcome) == cost, (seed, order)
                assert not tie or outcome == (0,) * profile.m, (seed, order)
            ballots = [ballot for voter in profile.voters for ballot in voter.ballots.values()]
            seen["no factor"] += len(set().union(*(a for a, _ in reference.factors))) < profile.m
            seen["all tie"] += tie and bool(ballots)
            seen["never satisfied"] += any(not ballot.statements for ballot in ballots)
            seen["repeated"] += len(set(map(id, ballots))) < len(ballots)
        assert min(seen.values()) > 10, seen

    def test_self_premise_tables_sum_to_every_outcome_cost(self):
        # classify and the parser reject a premise on the target issue, but
        # the compiler takes any profile it is given: such a premise fixes the
        # target's value, so only that alternative, if approved, satisfies.
        profile = make_profile(
            [("A", ("0", "1", "2")), ("B", ("0", "1", "2")), ("C", ("0", "1"))],
            [
                ("u", [issue_ballot(1, (0, 1), {(0, 0): {0, 1}, (0, 2): {1}, (2, 0): {2}})]),
                ("w", [issue_ballot(1, (0,), {(0,): {0}, (2,): {1, 2}}), approve(2, {1})]),
                ("x", [issue_ballot(2, (1,), {(1,): {0}})]),
            ],
        )
        assert [v.code for v in validate_profile(profile)] == ["self-premise"]
        compiled = _scan.compile_cost_model(profile, range(profile.m))
        for outcome in itertools.product(*map(range, profile.domain_sizes())):
            cost = sum(
                int(table[tuple(outcome[k] for k in axes)])
                for axes, table in compiled.factors
            )
            assert cost == total_dissatisfaction(profile, outcome), outcome
        assert table_cells(compiled) == table_cells(reference_cost_model(profile))
        assert descending(profile) == naive_optimum(profile)

    def test_factor_tables_sum_to_every_outcome_cost(self):
        # 20 profiles with scopes up to 3, then 200 with single-premise scopes
        # as the tree-decomposition solver takes them.
        profiles = [
            gen_random(5, 6, d_max=3, delta_max=3, statement_density=0.7, seed=seed)
            for seed in range(20)
        ] + [
            gen_random(5, 4, d_max=3, delta_max=1, statement_density=0.6, seed=seed)
            for seed in range(200)
        ]
        for profile in profiles:
            compiled = _scan.compile_cost_model(profile, range(profile.m))
            assert len({axes for axes, _ in compiled.factors}) == len(compiled.factors)
            for outcome in itertools.product(*map(range, profile.domain_sizes())):
                cost = sum(
                    int(table[tuple(outcome[k] for k in axes)])
                    for axes, table in compiled.factors
                )
                assert cost == total_dissatisfaction(profile, outcome)

    def test_pairs_on_one_axis_tuple_with_different_targets(self):
        # C conditioned on (A, B) and A conditioned on (B, C) share one table.
        profile = make_profile(
            binary_issues(3),
            [
                ("u", [issue_ballot(2, (0, 1), {(1, 0): {1}})]),
                ("w", [issue_ballot(0, (1, 2), {(0, 1): {0}, (1, 1): {1}})]),
            ],
        )
        compiled = _scan.compile_cost_model(profile, range(profile.m))
        [(axes, table)] = compiled.factors
        assert axes == (0, 1, 2)
        for outcome in itertools.product((0, 1), repeat=3):
            assert table[outcome] == total_dissatisfaction(profile, outcome)
        assert descending(profile) == naive_optimum(profile) == (1, (0, 0, 1))

    @pytest.mark.parametrize("n_pairs", [127, 128, 129, 32768])
    def test_every_pair_dissatisfied_at_one_outcome(self, n_pairs):
        # At (0, 0) every ballot is dissatisfied, so a cell holds n_pairs
        # exactly; 128 and 32768 are one past the int8 and int16 maxima.
        profile = make_profile(
            binary_issues(2), [(f"v{i}", [approve(0, {1})]) for i in range(n_pairs)]
        )
        compiled = _scan.compile_cost_model(profile, range(profile.m))
        assert compiled.n_pairs == n_pairs
        [(axes, table)] = compiled.factors
        assert axes == (0,) and table.tolist() == [n_pairs, 0]
        expected = (0, (1, 0))
        assert naive_optimum(profile) == expected
        assert solve_brute(profile).outcome == expected[1]
        assert descending(profile) == expected

    def test_count_dtype_widens_at_two_to_the_31_pairs(self):
        for n_pairs in (0, 1, 128, 32767, 32768, 2**31 - 1, 2**31, 2**40):
            dtype = _scan._count_dtype(n_pairs)
            assert np.iinfo(dtype).max >= n_pairs
        assert _scan._count_dtype(0) is np.int16
        assert _scan._count_dtype(32767) is np.int16
        assert _scan._count_dtype(32768) is np.int32
        assert _scan._count_dtype(2**31 - 1) is np.int32
        assert _scan._count_dtype(2**31) is np.int64

    def test_all_tie_profiles_pick_the_first_outcome(self):
        approve_all = make_profile(
            [("A", ("0", "1", "2")), ("B", ("0", "1"))], [("v", []), ("w", [])]
        )
        never_satisfied = make_profile(
            [("A", ("0", "1", "2")), ("B", ("0", "1")), ("C", ("0", "1"))],
            [
                ("v", [issue_ballot(2, (0,), {})]),
                ("w", [issue_ballot(0, (1, 2), {})]),
            ],
        )
        for profile, cost in ((approve_all, 0), (never_satisfied, 2)):
            assert descending(profile) == (cost, (0,) * profile.m)

    def test_table_budget_fails_before_allocating(self, monkeypatch):
        # 8 outcomes, but seven axis tuples hold 2 + 2 + 2 + 4 + 4 + 4 + 8.
        ballots = [approve(j, {1}) for j in range(3)] + [
            issue_ballot(1, (0,), {(1,): {1}}),
            issue_ballot(2, (0,), {}),
            issue_ballot(2, (1,), {}),
            issue_ballot(2, (0, 1), {}),
        ]
        profile = make_profile(
            binary_issues(3), [(f"v{t}", [b]) for t, b in enumerate(ballots)]
        )
        monkeypatch.setattr(_scan, "MAX_TABLE_ENTRIES", 26)
        assert solve_brute(profile).cost == naive_optimum(profile)[0]

        # The compiler imports numpy inside the function, after which it
        # must raise before using numpy at all.
        forbid_numpy(monkeypatch)
        monkeypatch.setattr(_scan, "MAX_TABLE_ENTRIES", 25)
        with pytest.raises(BudgetExceeded, match="need 26 table entries, limit is 25"):
            solve_brute(profile)

    def test_binary_clique_memory(self):
        # 2^23 outcomes, a sixteenth of MAX_TABLE_ENTRIES, and a best split of
        # 11 + 12 leaves 55 + 66 equal pairs.  Descending elimination
        # allocates 2^24 - 2 table entries, at most 2^23 of them at once.
        profile = binary_clique(23)
        assert profile.n == 253
        solution, peak = traced_peak(lambda: solve_brute(profile))
        assert solution.cost == 121
        assert peak < 32 * 2**20

    def test_compile_counts_only_the_cells_it_hits(self):
        # One ballot on issue 23 conditioned on the other 23 issues makes one
        # 2^24-entry int16 table and satisfies its pair in one cell.  A count
        # per table entry would take four times the table again.
        premise = (1,) * 23
        profile = make_profile(
            binary_issues(24),
            [("v", [issue_ballot(23, tuple(range(23)), {premise: {1}})])],
        )
        order = range(23, -1, -1)
        model, peak = traced_peak(lambda: _scan.compile_cost_model(profile, order))
        ((axes, table),) = model.factors
        assert axes == tuple(range(24)) and table.dtype == np.int16
        assert table.sum() == 2**24 - 1 and table[premise + (1,)] == 0
        assert peak <= 1.25 * table.nbytes

    def test_raised_budget_fails_before_bucket_tables(self):
        # 2^27 outcomes: descending elimination would need 2^28 - 2 table
        # entries, over MAX_TABLE_ENTRIES.  The prediction stops at the
        # second bucket, 2^27 + 2^26 entries in.
        profile = binary_clique(27)
        assert _scan.MAX_TABLE_ENTRIES == 2**27

        def attempt():
            with pytest.raises(
                BudgetExceeded, match=f"at least {3 * 2**26} table entries, limit is {2**27}"
            ):
                solve_brute(profile)

        _, peak = traced_peak(attempt)
        assert peak < 10 * 2**20


def compiler_guard_raised(profile):
    """Whether compiling for descending elimination raises BudgetExceeded,
    for its factor tables or for its bucket tables."""
    try:
        _scan.compile_cost_model(profile, range(profile.m - 1, -1, -1))
    except BudgetExceeded as exc:
        assert str(exc).startswith(("factor tables need", "bucket elimination needs")), exc
        return True
    return False


def chain_profile():
    """One voter conditioning each of 40 binary issues on the two before it:
    10^12 outcomes, 310 table entries in descending order."""
    issues = [(f"i{j}", ("0", "1")) for j in range(40)]
    ballots = [issue_ballot(j, (j - 2, j - 1), {(0, 1): {1}}) for j in range(2, 40)]
    return make_profile(issues, [("v", ballots)])


def factor_overflow_profile():
    """26 binary issues and 70 voters, each with one ballot on a random issue
    conditioned on 20 random others: 2^26 outcomes, so descending buckets
    fit, but 70 factor tables of 2^21 entries each do not."""
    rng = random.Random(0)
    voters = []
    for i in range(70):
        target = rng.randrange(26)
        scope = rng.sample([k for k in range(26) if k != target], 20)
        premise = tuple(rng.randrange(2) for _ in scope)
        ballot = issue_ballot(target, scope, {premise: {rng.randrange(2)}})
        voters.append((f"v{i}", [ballot]))
    return make_profile(binary_issues(26), voters)


def limit_profile(seed):
    """Seeded profiles of 8 to 60 issues, premise scopes up to 3 and up to 4
    alternatives, whose larger components straddle MAX_TABLE_ENTRIES."""
    rng = random.Random(seed)
    return gen_random(
        rng.randint(8, 60),
        rng.randint(2, 5),
        d_max=2 + seed % 3,
        delta_max=1 + seed // 3 % 3,
        statement_density=rng.uniform(0.05, 0.3),
        seed=seed,
    )


class TestEntryLimit:
    """One work limit for both elimination routes: routing sends a component
    to BRUTE exactly when its descending elimination fits MAX_TABLE_ENTRIES,
    checked against the compiler's own guard and, past the outcome spaces
    that enumeration reaches, against an integer program."""

    def test_routing_agrees_with_the_compiler_guard(self):
        answers = {True: 0, False: 0}
        for seed in range(200):
            profile = limit_profile(seed)
            for comp in classify(profile).components:
                fits = BRUTE in applicable_routes(comp)
                sub = restrict_profile(profile, comp.issues)
                assert fits != compiler_guard_raised(sub), (seed, comp.issues)
                if 2 * comp.outcome_space > _scan.MAX_TABLE_ENTRIES:
                    answers[fits] += 1
        # both answers occur for outcome spaces past 2^26
        assert answers[True] > 10 and answers[False] > 10, answers
        # Descending buckets need 2^27 - 2 entries for 2^26 outcomes and
        # 2^28 - 2 for 2^27.  The third profile has 2^26 outcomes, but its
        # 70 factor tables of 2^21 entries each do not fit.
        cases = ((binary_clique(26), True), (binary_clique(27), False),
                 (factor_overflow_profile(), False))
        for profile, fits in cases:
            (comp,) = classify(profile).components
            assert comp.route == ("BRUTE" if fits else "INTRACTABLE")
            assert (BRUTE in applicable_routes(comp)) == fits
            assert compiler_guard_raised(profile) != fits

    def test_classify_predicts_only_past_the_shortcut(self, monkeypatch):
        # At most one factor table per ballot, each of at most the outcome
        # space, and descending buckets of at most twice the outcome space:
        # a component under max(2, ballots) * space fits without predicting.
        calls = []
        original = _scan.predict_entries

        def counting(axes, dom, order):
            order = list(order)
            ballots = sum(len(profile.ballots_by_issue[j]) for j in order)
            calls.append(max(2, ballots) * math.prod(dom[j] for j in order))
            return original(axes, dom, order)

        monkeypatch.setattr(_scan, "predict_entries", counting)
        for seed in range(200):
            profile = limit_profile(seed)
            classify(profile)
        assert calls
        assert all(bound > _scan.MAX_TABLE_ENTRIES for bound in calls)

    def test_factor_tables_past_the_limit_are_intractable(self, tmp_path, capsys, monkeypatch):
        profile = factor_overflow_profile()
        (comp,) = classify(profile).components
        assert comp.route == "INTRACTABLE" and BRUTE not in applicable_routes(comp)

        path = tmp_path / "factors.profile"
        path.write_text(serialize_profile(profile))
        assert main(["solve", str(path)]) == 3
        solved = capsys.readouterr()
        assert solved.out == ""
        assert "-> INTRACTABLE" in solved.err
        assert solved.err.endswith("error: no applicable solver route\n")

        forbid_numpy(monkeypatch)
        with pytest.raises(Intractable):
            solve_profile(profile)

    def test_newly_brute_components_match_the_integer_program(self):
        # Components whose outcome space exceeds 10^7 that now route BRUTE:
        # the chain, a SAT reduction of 1.68e7 outcomes, and seeded delta-2
        # and delta-3 components of 1e7 to 6.5e9 outcomes.
        profiles = [
            chain_profile(),
            gen_from_sat(random_cnf(random.Random(0), 24, 72), 12),
            gen_random(18, 12, d_max=3, delta_max=2, statement_density=0.08, seed=0),
            gen_random(25, 4, d_max=3, delta_max=2, statement_density=0.1, seed=20),
            gen_random(18, 12, d_max=3, delta_max=3, statement_density=0.08, seed=1),
            gen_random(30, 3, d_max=3, delta_max=3, statement_density=0.08, seed=12),
        ]
        for index, profile in enumerate(profiles):
            (comp,) = [c for c in classify(profile).components if len(c.issues) > 1]
            assert comp.route == "BRUTE" and comp.outcome_space > 10**7, index
            sub = restrict_profile(profile, comp.issues)
            assert solve_brute(sub).cost == milp_optimum(sub), index
            assert solve_profile(profile).cost == milp_optimum(profile), index


def run_max_flow(network):
    return _flow.max_flow(
        network.n_nodes,
        network.source,
        network.sink,
        network.out,
        network.to,
        network.cap,
    )


def arc_tails(network):
    tail = [0] * len(network.to)
    for u, arcs in enumerate(network.out):
        for e in arcs:
            tail[e] = u
    return tail


def residual_source_side(network, flow_dict):
    """Nodes reachable from the source in the residual graph of the maximum
    flow networkx returns as ``flow_dict[u][v]``, parallel arcs summed."""
    residual = {}
    for e in range(0, len(network.to), 2):
        u, v = network.to[e ^ 1], network.to[e]
        residual[u, v] = residual.get((u, v), 0) + network.cap[e]
    for u, row in flow_dict.items():
        for v, f in row.items():
            residual[u, v] = residual.get((u, v), 0) - f
            residual[v, u] = residual.get((v, u), 0) + f
    neighbors = {}
    for (u, v), c in residual.items():
        if c > 0:
            neighbors.setdefault(u, []).append(v)
    reach = {network.source}
    stack = [network.source]
    while stack:
        for v in neighbors.get(stack.pop(), ()):
            if v not in reach:
                reach.add(v)
                stack.append(v)
    return reach


def assert_matches_networkx(network, label=None):
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_nodes_from(range(network.n_nodes))
    for e in range(0, len(network.to), 2):
        u, v = network.to[e ^ 1], network.to[e]
        if graph.has_edge(u, v):
            graph[u][v]["capacity"] += network.cap[e]
        else:
            graph.add_edge(u, v, capacity=network.cap[e])
    expected, flow_dict = nx.maximum_flow(graph, network.source, network.sink)
    cap = list(network.cap)
    flow, side = run_max_flow(network)
    assert network.cap == cap, label  # the kernel works on a copy
    assert flow == expected, label
    reach = residual_source_side(network, flow_dict)
    assert {u for u in range(network.n_nodes) if side[u]} == reach, label


@pytest.fixture
def sink_bfs_calls(monkeypatch):
    """Counts the kernel's exact relabels: the first labelling plus one per
    global relabel."""
    calls = []
    original = _flow.sink_distances

    def counting(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(_flow, "sink_distances", counting)
    return calls


def chain_network(length, bottleneck):
    """source -> c0 -> ... -> c(length-1) -> sink, every link also open
    backwards, all of infinite capacity except the forward arc out of
    ``c(bottleneck)``, of capacity 1."""
    source, sink = 0, 1
    nodes = [2 + k for k in range(length)]
    out = [[] for _ in range(length + 2)]
    to, cap = [], []

    def arc(u, v, c):
        out[u].append(len(to))
        out[v].append(len(to) + 1)
        to.extend((v, u))
        cap.extend((c, 0))

    inf = 10**6
    path = [source, *nodes, sink]
    for k in range(len(path) - 1):
        u, v = path[k], path[k + 1]
        arc(u, v, 1 if u == 2 + bottleneck else inf)
        if source not in (u, v) and sink not in (u, v):
            arc(v, u, inf)
    return SimpleNamespace(
        n_nodes=length + 2, source=source, sink=sink, out=out, to=to, cap=cap
    )


class TestMismatchGuards:
    """Each solver re-evaluates its outcome and refuses a kernel whose figure
    disagrees.  A kernel patched to misreport by one must be caught."""

    @pytest.mark.parametrize(
        "module, solve",
        [(_scan, solve_brute), (treewidth, solve_treewidth)],
        ids=["brute", "treewidth"],
    )
    def test_elimination_reporting_a_lower_cost(self, monkeypatch, module, solve):
        profile = gen_random(6, 4, d_max=3, delta_max=1, statement_density=0.5, seed=1)
        assert solve(profile).cost == naive_optimum(profile)[0] == 6
        original = module.eliminate

        def lower(model, order):
            cost, outcome = original(model, order)
            return cost - 1, outcome

        monkeypatch.setattr(module, "eliminate", lower)
        with pytest.raises(InternalMismatch, match="bucket elimination .* cost 5 "):
            solve(profile)

    def test_flow_reporting_one_more_unit(self, monkeypatch):
        profile = gen_random(
            6, 4, delta_max=1, statement_density=0.6, seed=5, group_dichotomous=True
        )
        assert solve_mincut(profile).cost == naive_optimum(profile)[0] == 5
        original = mincut.max_flow_min_cut

        def over(network):
            flow, side = original(network)
            return flow + 1, side

        monkeypatch.setattr(mincut, "max_flow_min_cut", over)
        with pytest.raises(InternalMismatch, match="cut promises cost 6 "):
            solve_mincut(profile)


class TestMaxFlow:
    def test_flow_and_cut_match_exhaustive_minimum(self):
        for seed in range(60):
            rng = random.Random(seed)
            n_vars = rng.randint(1, 8)
            constraints = random_constraints(rng, n_vars, rng.randint(1, 10))
            network = build_network(constraints, n_vars)
            cap = list(network.cap)
            flow, side = run_max_flow(network)
            assert network.cap == cap  # the kernel works on a copy
            assert flow == exhaustive_min_violations(constraints, n_vars)
            assert side[network.source] and not side[network.sink]
            # Arcs are stored in forward/backward pairs; the forward arcs
            # leaving the source side carry exactly the flow.
            tail = arc_tails(network)
            assert all(tail[e] == network.to[e ^ 1] for e in range(len(tail)))
            crossing = sum(
                network.cap[e]
                for e in range(0, len(network.to), 2)
                if side[tail[e]] and not side[network.to[e]]
            )
            assert crossing == flow

    def test_flow_and_source_side_match_networkx(self):
        # 8-80 variables: past the exhaustive check, with paths long enough
        # that augmentations saturate arcs well inside the path.
        for seed in range(200):
            rng = random.Random(seed)
            n_vars = rng.randint(8, 80)
            constraints = random_constraints(rng, n_vars, rng.randint(n_vars, 4 * n_vars))
            assert_matches_networkx(build_network(constraints, n_vars), seed)

    @pytest.mark.parametrize("length,bottleneck", [(40, 20), (40, 39), (120, 60), (120, 119)])
    def test_gap_ends_the_search(self, length, bottleneck, sink_bfs_calls):
        # Once the unit path is saturated, the bottleneck's tail is the only
        # node on its label, so relabelling it leaves a gap.  Without the gap
        # rule the source side would climb to n in about n * bottleneck / 2
        # local relabels, far past the first periodic global relabel.
        network = chain_network(length, bottleneck)
        flow, side = run_max_flow(network)
        assert flow == 1
        assert [u for u in range(network.n_nodes) if side[u]] == [
            network.source,
            *range(2, bottleneck + 3),
        ]
        assert sink_bfs_calls == [network.n_nodes]
        assert_matches_networkx(network)

    def test_global_relabels_keep_flow_and_source_side(self, sink_bfs_calls):
        for seed in range(10):
            rng = random.Random(seed)
            constraints = random_constraints(rng, 400, 1200)
            network = build_network(constraints, 400)
            sink_bfs_calls.clear()
            assert_matches_networkx(network, seed)
            # the first labelling and at least two global relabels
            assert len(sink_bfs_calls) >= 3, seed

    def test_group_dichotomous_profile_network(self, sink_bfs_calls):
        profile = gen_random(
            500, 500, delta_max=2, statement_density=0.005, seed=1, group_dichotomous=True
        )
        constraints, _ = compile_constraints(profile)
        network = build_network(constraints, profile.m)
        assert network.n_nodes > 1500
        assert_matches_networkx(network)
        assert len(sink_bfs_calls) >= 3


def test_import_loads_neither_numba_nor_scipy():
    code = (
        "import sys, cmsvote;"
        "p = cmsvote.gen_grid(2);"
        "print(cmsvote.solve_brute(p).cost, cmsvote.solve_mincut(p).cost);"
        "print(*sorted({m.split('.')[0] for m in sys.modules} & {'numba', 'scipy'}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["0 0", ""]


def test_parse_and_analyze_do_not_load_numpy():
    code = (
        "import sys, cmsvote;"
        "doc = cmsvote.serialize_profile(cmsvote.gen_random(12, 6, d_max=3, delta_max=2, seed=5));"
        "report = cmsvote.classify(cmsvote.parse_profile(doc));"
        "print(report.to_text().splitlines()[0]);"
        "print('numpy' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("issues in ")
    assert lines[1] == "False"


def test_mincut_solves_do_not_load_numpy():
    code = (
        "import sys, cmsvote;"
        "p = cmsvote.gen_random(30, 20, d_max=2, delta_max=2, statement_density=0.5,"
        " seed=7, group_dichotomous=True);"
        "routes = {c.route for c in cmsvote.classify(p).components};"
        "print(sorted(routes), cmsvote.solve_profile(p).cost, cmsvote.solve_mincut(p).cost);"
        "print('numpy' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    routes, cost, mincut_cost = lines[0].rsplit(" ", 2)
    assert routes == "['MINCUT']" and cost == mincut_cost
    assert lines[1] == "False"
