"""The scan and max-flow kernels against independent oracles."""

import itertools
import random
import subprocess
import sys

import numpy as np
import pytest

from cmsvote import BudgetExceeded, gen_random, solve_brute, total_dissatisfaction
from cmsvote import _dinic, _scan
from cmsvote.mincut import build_network
from cmsvote.model import approve, issue_ballot, make_profile

from helpers import (
    child_env,
    exhaustive_min_violations,
    naive_optimum,
    random_constraints,
)

# 1 scans outcome by outcome; 5 and 7 leave trailing blocks that do not
# divide mixed 2/3 domains evenly; BLOCK covers every test space at once.
BLOCKS = (1, 5, 7, 64, _scan.BLOCK)


def scan(profile, block):
    compiled = _scan.compile_cost_model(profile, budget=10**7)
    cost, index = _scan.scan_best(compiled, block)
    return cost, _scan.decode_outcome(compiled, index)


def binary_issues(m):
    return [(f"x{j}", ("0", "1")) for j in range(m)]


class TestScan:
    def test_matches_naive_optimum(self):
        for seed in range(60):
            rng = random.Random(seed)
            profile = gen_random(
                rng.randint(1, 6),
                rng.randint(1, 5),
                d_max=rng.choice((2, 3)),
                delta_max=seed % 4,
                statement_density=rng.random(),
                seed=seed,
            )
            expected = naive_optimum(profile)
            for block in BLOCKS:
                assert scan(profile, block) == expected, (seed, block)

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
            compiled = _scan.compile_cost_model(profile, budget=10**7)
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
        compiled = _scan.compile_cost_model(profile, budget=10**7)
        [(axes, table)] = compiled.factors
        assert axes == (0, 1, 2)
        for outcome in itertools.product((0, 1), repeat=3):
            assert table[outcome] == total_dissatisfaction(profile, outcome)
        for block in BLOCKS:
            assert scan(profile, block) == naive_optimum(profile) == (1, (0, 0, 1))

    @pytest.mark.parametrize("n_pairs", [127, 128, 129, 32768])
    def test_every_pair_dissatisfied_at_one_outcome(self, n_pairs):
        # At (0, 0) every ballot is dissatisfied, so a cell holds n_pairs
        # exactly; 128 and 32768 are one past the int8 and int16 maxima.
        profile = make_profile(
            binary_issues(2), [(f"v{i}", [approve(0, {1})]) for i in range(n_pairs)]
        )
        compiled = _scan.compile_cost_model(profile, budget=10**7)
        assert compiled.n_pairs == n_pairs
        [(axes, table)] = compiled.factors
        assert axes == (0,) and table.tolist() == [n_pairs, 0]
        expected = (0, (1, 0))
        assert naive_optimum(profile) == expected
        assert solve_brute(profile).outcome == expected[1]
        for block in BLOCKS:
            assert scan(profile, block) == expected

    def test_count_dtype_widens_at_two_to_the_31_pairs(self):
        for n_pairs in (0, 1, 128, 32768, 2**31 - 1, 2**31, 2**40):
            dtype = _scan._count_dtype(n_pairs)
            assert np.iinfo(dtype).max >= n_pairs
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
            for block in BLOCKS:
                assert scan(profile, block) == (cost, (0,) * profile.m)

    def test_stops_at_the_first_zero_cost_block(self):
        # 2^40 outcomes: only the early exit lets this finish.  The leading
        # 22 axes index the blocks, so issue 21 = 1 is the second block.
        profile = make_profile(binary_issues(40), [("v", [approve(21, {1})])])
        compiled = _scan.compile_cost_model(profile, budget=10**7)
        assert _scan.scan_best(compiled) == (0, _scan.BLOCK)
        outcome = _scan.decode_outcome(compiled, _scan.BLOCK)
        assert outcome == tuple(int(j == 21) for j in range(40))

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
        assert solve_brute(profile, budget=26).cost == naive_optimum(profile)[0]

        def no_tables(*args, **kwargs):
            raise AssertionError("a factor table was allocated")

        # the compiler imports numpy inside the function: patch numpy itself
        monkeypatch.setattr(np, "full", no_tables)
        with pytest.raises(BudgetExceeded, match="need 26 entries"):
            solve_brute(profile, budget=25)

    def test_empty_outcome_space(self):
        profile = make_profile([("A", ())], [("v", [])])
        with pytest.raises(ValueError):
            _scan.scan_best(_scan.compile_cost_model(profile, budget=10))


class TestDinic:
    def test_flow_and_cut_match_exhaustive_minimum(self):
        for seed in range(60):
            rng = random.Random(seed)
            n_vars = rng.randint(1, 8)
            constraints = random_constraints(rng, n_vars, rng.randint(1, 10))
            network = build_network(constraints, n_vars)
            flow, side = _dinic.max_flow(
                network.n_nodes,
                network.source,
                network.sink,
                network.head,
                network.nxt,
                network.to,
                network.cap,
            )
            assert flow == exhaustive_min_violations(constraints, n_vars)
            assert side[network.source] and not side[network.sink]
            # Arcs are stored in forward/backward pairs; the forward arcs
            # leaving the source side carry exactly the flow.
            tail = np.empty(len(network.to), dtype=np.int64)
            for u in range(network.n_nodes):
                e = network.head[u]
                while e != -1:
                    tail[e] = u
                    e = network.nxt[e]
            forward = np.arange(0, len(network.to), 2)
            crossing = side[tail[forward]] & ~side[network.to[forward]]
            assert int(network.cap[forward][crossing].sum()) == flow


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
