"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  Instance builders are cached so the round-trip criterion can
revisit exactly the instances the other criteria solved.
"""

import functools
import gc
import random
import time

import pytest

from cmsvote import (
    gen_from_2csp,
    gen_from_multicolored_clique,
    gen_from_sat,
    gen_grid,
    gen_random,
    build_global_graph,
    heuristic_tree_decomposition,
    is_group_dichotomous,
    max_flow_min_cut,
    parse_profile,
    serialize_profile,
    solve_brute,
    solve_mincut,
    solve_treewidth,
)
from cmsvote.mincut import build_network
from cmsvote.model import issue_ballot, make_profile

from helpers import (
    cnf_satisfiable,
    coarsen_decomposition,
    csp_satisfiable,
    exhaustive_min_violations,
    has_multicolored_clique,
    largest_premise_scope,
    random_cnf,
    random_colored_graph,
    random_constraints,
    random_csp,
)


def report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


@functools.lru_cache(maxsize=None)
def mincut_profiles():
    out = []
    for seed in range(500):
        rng = random.Random(seed)
        out.append(
            gen_random(
                m=rng.randint(2, 8),
                n=rng.randint(1, 6),
                delta_max=rng.randint(1, 3),
                statement_density=rng.uniform(0.2, 0.8),
                seed=seed,
                group_dichotomous=True,
            )
        )
    return tuple(out)


@functools.lru_cache(maxsize=None)
def treewidth_profiles():
    out = []
    for seed in range(500):
        rng = random.Random(10_000 + seed)
        out.append(
            gen_random(
                m=rng.randint(2, 8),
                n=rng.randint(1, 6),
                d_max=3,
                delta_max=1,
                statement_density=rng.uniform(0.2, 0.8),
                seed=10_000 + seed,
            )
        )
    return tuple(out)


@functools.lru_cache(maxsize=None)
def sat_instances():
    out = []
    for seed in range(100):
        rng = random.Random(seed)
        nv = rng.randint(2, 8)
        cnf = random_cnf(rng, nv, rng.randint(1, 10))
        out.append((cnf, gen_from_sat(cnf, rng.randint(1, nv))))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def clique_instances():
    out = []
    for seed in range(50):
        rng = random.Random(seed)
        graph = random_colored_graph(rng, 3, rng.randint(2, 3), rng.uniform(0.2, 0.8))
        out.append((graph, gen_from_multicolored_clique(graph)))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def csp_instances():
    out = []
    for seed in range(50):
        rng = random.Random(seed)
        csp = random_csp(rng, 4, rng.randint(2, 3), 3)
        out.append((csp, gen_from_2csp(csp)))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def scaling_profiles():
    small = gen_random(
        5000, 5000, delta_max=2, statement_density=0.001,
        seed=42, group_dichotomous=True,
    )
    large = gen_random(
        10000, 5000, delta_max=2, statement_density=0.001,
        seed=42, group_dichotomous=True,
    )
    return small, large


def path_profile(m, d):
    issues = [(f"i{j}", tuple(str(a) for a in range(d))) for j in range(m)]
    ballots = [
        issue_ballot(j, (j - 1,), {(a,): {a} for a in range(d)})
        for j in range(1, m)
    ]
    return make_profile(issues, [("chain", ballots)])


@functools.lru_cache(maxsize=None)
def path_profiles():
    return path_profile(1000, 4), path_profile(2000, 4)


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    """Compile the kernels once so timing criteria measure solving only."""
    warm = gen_random(4, 3, delta_max=1, statement_density=0.5, seed=0,
                      group_dichotomous=True)
    solve_brute(warm)
    solve_mincut(warm)
    solve_treewidth(warm)


def test_criterion_1_mincut_oracle_equivalence():
    start = time.perf_counter()
    agree = sum(
        1
        for profile in mincut_profiles()
        if solve_mincut(profile).cost == solve_brute(profile).cost
    )
    elapsed = time.perf_counter() - start
    report(
        1,
        agree == 500 and elapsed < 60.0,
        f"min-cut == brute on {agree}/500 group-dichotomous profiles "
        f"in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_treewidth_oracle_equivalence():
    start = time.perf_counter()
    agree = 0
    for seed, profile in enumerate(treewidth_profiles()):
        expected = solve_brute(profile).cost
        base = heuristic_tree_decomposition(build_global_graph(profile))
        coarse = coarsen_decomposition(random.Random(seed), base, steps=2)
        if (
            solve_treewidth(profile, base).cost == expected
            and solve_treewidth(profile, coarse).cost == expected
        ):
            agree += 1
    elapsed = time.perf_counter() - start
    report(
        2,
        agree == 500 and elapsed < 120.0,
        f"treewidth == brute under heuristic and coarsened decompositions on "
        f"{agree}/500 profiles in {elapsed:.1f}s (< 120s)",
    )


def test_criterion_3_sat_reduction_soundness():
    agree = sum(
        1
        for cnf, profile in sat_instances()
        if cnf_satisfiable(cnf) == (solve_brute(profile).cost == 0)
    )
    report(3, agree == 100, f"satisfiable <=> optimum 0 on {agree}/100 formulas")


def test_criterion_4_clique_reduction_soundness():
    agree = 0
    sized = 0
    for graph, profile in clique_instances():
        if has_multicolored_clique(graph) == (solve_brute(profile).cost == 0):
            agree += 1
        if profile.m == 4 and profile.n == 4:  # k + 1 and C(k,2) + 1 for k = 3
            sized += 1
    report(
        4,
        agree == 50 and sized == 50,
        f"clique <=> optimum 0 on {agree}/50 graphs; sizes exact on {sized}/50",
    )


def test_criterion_5_csp_reduction_soundness():
    agree = 0
    deltas = 0
    for csp, profile in csp_instances():
        if csp_satisfiable(csp) == (solve_brute(profile).cost == 0):
            agree += 1
        if largest_premise_scope(profile) == 1:
            deltas += 1
    report(
        5,
        agree == 50 and deltas == 50,
        f"CSP satisfiable <=> optimum 0 on {agree}/50 instances; delta == 1 on "
        f"{deltas}/50",
    )


def test_criterion_6_grid_cross_check():
    grid = gen_grid(3)
    gd = is_group_dichotomous(grid)[0]
    costs = (
        solve_mincut(grid).cost,
        solve_treewidth(grid).cost,
        solve_brute(grid).cost,
    )
    width = heuristic_tree_decomposition(build_global_graph(grid)).width
    report(
        6,
        gd and costs == (0, 0, 0) and width >= 3,
        f"grid(3): group-dichotomous={gd}, solver costs {costs}, "
        f"heuristic width {width} (>= 3)",
    )


def test_criterion_7_mincut_scaling():
    small, large = scaling_profiles()
    statements = sum(
        len(b.statements) if b.scope else 1
        for v in small.voters
        for b in v.ballots.values()
    )
    assert 35_000 <= statements <= 70_000, f"instance has {statements} statements"

    # Each solve starts after a full collection, so none of the collections
    # that walk the cached profiles' objects lands inside a timed solve.  CPU
    # time, not wall time, so that other processes on a loaded machine do not
    # count against the limits.
    gc.collect()
    start = time.process_time()
    solve_mincut(small)
    t_small = time.process_time() - start

    gc.collect()
    start = time.process_time()
    solve_mincut(large)
    t_large = time.process_time() - start

    ratio = t_large / max(t_small, 1e-9)
    report(
        7,
        t_small < 10.0 and t_large < 4.0 * max(t_small, 0.05),
        f"m=n=5000 ({statements} statements) solved in {t_small:.2f}s (< 10s); "
        f"doubling m: {t_large:.2f}s, ratio {ratio:.2f} (< 4x)",
    )


def test_criterion_8_treewidth_scaling():
    small, large = path_profiles()

    # A full collection, then CPU time, as in criterion 7.
    gc.collect()
    start = time.process_time()
    assert solve_treewidth(small).cost == 0
    t_small = time.process_time() - start

    gc.collect()
    start = time.process_time()
    assert solve_treewidth(large).cost == 0
    t_large = time.process_time() - start

    ratio = t_large / max(t_small, 1e-9)
    report(
        8,
        t_small < 5.0 and t_large < 3.0 * max(t_small, 0.05),
        f"path m=1000, d=4 solved in {t_small:.3f}s (< 5s); m=2000 in "
        f"{t_large:.3f}s, ratio {ratio:.2f} (~linear)",
    )


def test_criterion_9_gadget_exhaustive_soundness():
    agree = 0
    for seed in range(200):
        rng = random.Random(seed)
        n_vars = rng.randint(1, 10)
        constraints = random_constraints(rng, n_vars, rng.randint(1, 12))
        cut, _ = max_flow_min_cut(build_network(constraints, n_vars))
        if cut == exhaustive_min_violations(constraints, n_vars):
            agree += 1
    report(9, agree == 200, f"cut == exhaustive violation minimum on {agree}/200 sets")


def test_criterion_10_roundtrip_identity():
    instances = [gen_grid(3)]
    instances += [profile for profile in mincut_profiles()]
    instances += [profile for profile in treewidth_profiles()]
    instances += [profile for _, profile in sat_instances()]
    instances += [profile for _, profile in clique_instances()]
    instances += [profile for _, profile in csp_instances()]
    instances += list(scaling_profiles())
    ok = 0
    for profile in instances:
        text = serialize_profile(profile)
        again = parse_profile(text)
        if again == profile and serialize_profile(again) == text:
            ok += 1
    report(
        10,
        ok == len(instances),
        f"parse/serialize identity (byte-level second pass) on {ok}/"
        f"{len(instances)} generator outputs",
    )
