"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they are used to check:
``naive_optimum`` enumerates outcomes with itertools against the dict-based
ballot semantics (never touching the scan kernels), satisfiability checks
enumerate assignments of the source problems directly, the vertex cover
oracle tries every subset, the capped-cover reference
``naive_vertex_cover_number`` searches the whole graph without the component
split or the leaf rule, the component split and majority count scan every
voter instead of reading the profile's per-issue ballot index, and the
tree-decomposition reference keeps every full DP table for its traceback.
"""

from __future__ import annotations

import itertools
import os
import random
import tracemalloc

import numpy as np

import cmsvote
from cmsvote import (
    CnfFormula,
    ColoredGraph,
    CspInstance,
    compile_cost_model,
    total_dissatisfaction,
)
from cmsvote.analysis import (
    TreeDecomposition,
    UndirectedGraph,
    build_global_graph,
    heuristic_tree_decomposition,
    make_nice,
)
from cmsvote.mincut import TwoMonotoneConstraint
from cmsvote.model import approve, issue_ballot, make_profile

P1_DOC = """\
cmsprofile 1
issues 2
issue A 0 1
issue B 0 1
voters 2
voter v1
approve A 1
cond B if A=0 then 0
cond B if A=1 then 1
end
voter v2
approve A 0
approve B 0
end
"""


def child_env(**overrides):
    """Environment for a child interpreter that imports the cmsvote under test."""
    root = os.path.dirname(os.path.dirname(cmsvote.__file__))
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path, **overrides)


def traced_peak(fn):
    """``fn()``'s result and the peak bytes tracemalloc sees while it runs."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def build_p1():
    """Two binary issues; v1 wants A=1 and B agreeing with A, v2 wants all-0."""
    return make_profile(
        [("A", ("0", "1")), ("B", ("0", "1"))],
        [
            (
                "v1",
                [
                    approve(0, {1}),
                    issue_ballot(1, (0,), {(0,): {0}, (1,): {1}}),
                ],
            ),
            ("v2", [approve(0, {0}), approve(1, {0})]),
        ],
    )


def naive_optimum(profile):
    """(cost, outcome) by plain enumeration over the core semantics.

    Iterates outcomes in lexicographic order, keeping the first minimum, so
    the result matches the brute solver's tie-break contract.
    """
    best_cost = None
    best_outcome = None
    for outcome in itertools.product(*(range(d) for d in profile.domain_sizes())):
        cost = total_dissatisfaction(profile, outcome)
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_outcome = outcome
    return best_cost, best_outcome


def naive_restrict_profile(profile, issues):
    """Sub-profile over ``issues`` by scanning every voter's ballot map."""
    issues = list(issues)
    index = {j: t for t, j in enumerate(issues)}
    sub_voters = []
    for voter in profile.voters:
        ballots = []
        for j, ballot in voter.ballots.items():
            if j not in index:
                continue
            scope = [index[k] for k in ballot.scope]
            # A premise lists values in scope order, so it is re-sorted by
            # the new issue ids together with the scope.
            statements = [
                (tuple(v for _, v in sorted(zip(scope, premise))), approved)
                for premise, approved in ballot.statements.items()
            ]
            ballots.append(issue_ballot(index[j], scope, statements))
        sub_voters.append((voter.name, ballots))
    sub_issues = [
        (profile.issues[j].name, profile.issues[j].alternatives) for j in issues
    ]
    return make_profile(sub_issues, sub_voters)


def naive_treewidth_outcome(profile):
    """Outcome of a DP that keeps every full bag table for the traceback.

    Introduce nodes add the factors that involve the new vertex and lie
    within the bag, join nodes add both children and subtract the bag's own
    factors, which both branches counted, and the traceback re-minimizes
    each forget node's child table (ties to the lowest alternative index).
    """
    model = compile_cost_model(profile, budget=10**7)
    nice = make_nice(heuristic_tree_decomposition(build_global_graph(profile)))
    dom = profile.domain_sizes()

    def bag_view(bag, table, axes):
        shape = [1] * len(bag)
        for u, size in zip(axes, table.shape):
            shape[bag.index(u)] = size
        return table.reshape(shape)

    def local_cost(bag, new):
        """Factors within ``bag`` that involve ``new``, or all of them if None."""
        total = np.zeros(tuple(dom[u] for u in bag), dtype=np.int64)
        for axes, table in model.factors:
            if set(axes) <= set(bag) and new in (None, *axes):
                total = total + bag_view(bag, table, axes)
        return total

    tables = {}
    for node in nice.postorder():
        if node.kind == "leaf":
            table = np.zeros((), dtype=np.int64)
        elif node.kind == "introduce":
            child = tables[id(node.children[0])]
            pos = node.bag.index(node.vertex)
            table = np.expand_dims(child, pos) + local_cost(node.bag, node.vertex)
        elif node.kind == "forget":
            child = node.children[0]
            table = tables[id(child)].min(axis=child.bag.index(node.vertex))
        else:
            left, right = node.children
            table = tables[id(left)] + tables[id(right)] - local_cost(node.bag, None)
        tables[id(node)] = table

    assignment = {}
    stack = [nice.root]
    while stack:
        node = stack.pop()
        if node.kind == "forget":
            child = node.children[0]
            index = tuple(
                slice(None) if u == node.vertex else assignment[u] for u in child.bag
            )
            assignment[node.vertex] = int(np.argmin(tables[id(child)][index]))
        stack.extend(node.children)
    return tuple(assignment[j] for j in range(profile.m))


def naive_majority_alternative(profile, issue):
    """Most-approved alternative of an issue with unconditional ballots only,
    ties to the lowest index; a missing ballot approves everything."""
    d = len(profile.issues[issue].alternatives)
    counts = [0] * d
    for voter in profile.voters:
        ballot = voter.ballots.get(issue)
        for a in range(d):
            if ballot is None or a in ballot.statements[()]:
                counts[a] += 1
    best = max(counts)
    return counts.index(best)


def random_cnf(rng: random.Random, num_vars: int, num_clauses: int, width: int = 3):
    clauses = []
    for _ in range(num_clauses):
        size = rng.randint(1, width)
        variables = rng.sample(range(1, num_vars + 1), min(size, num_vars))
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return CnfFormula(num_vars, tuple(clauses))


def cnf_satisfiable(cnf: CnfFormula) -> bool:
    for bits in itertools.product((0, 1), repeat=cnf.num_vars):
        if all(
            any(bits[abs(lit) - 1] == (1 if lit > 0 else 0) for lit in clause)
            for clause in cnf.clauses
        ):
            return True
    return False


def random_colored_graph(rng: random.Random, k: int, c: int, edge_prob: float = 0.5):
    classes = [
        (f"k{t}", tuple(f"k{t}v{i}" for i in range(c))) for t in range(k)
    ]
    edges = []
    for x in range(k):
        for y in range(x + 1, k):
            for u in classes[x][1]:
                for v in classes[y][1]:
                    if rng.random() < edge_prob:
                        edges.append((u, v))
    return ColoredGraph.build(classes, edges)


def has_multicolored_clique(graph: ColoredGraph) -> bool:
    edge_set = graph.edges
    for pick in itertools.product(*graph.classes):
        if all(
            (min(u, v), max(u, v)) in edge_set
            for u, v in itertools.combinations(pick, 2)
        ):
            return True
    return False


def random_csp(
    rng: random.Random, max_vars: int, sigma: int, max_constraints: int
) -> CspInstance:
    alphabet = tuple("abcdef"[:sigma])
    names = [f"x{i}" for i in range(rng.randint(2, max_vars))]
    constraints = []
    for _ in range(rng.randint(1, max_constraints)):
        u, v = rng.sample(names, 2)
        pairs = [
            (a, b)
            for a in range(sigma)
            for b in range(sigma)
            if rng.random() < 0.4
        ]
        constraints.append((u, v, tuple(pairs)))
    return CspInstance(alphabet, tuple(constraints))


def csp_satisfiable(csp: CspInstance) -> bool:
    variables = csp.variables()
    sigma = len(csp.alphabet)
    for values in itertools.product(range(sigma), repeat=len(variables)):
        assignment = dict(zip(variables, values))
        if all(
            (assignment[u], assignment[v]) in set(allowed)
            for u, v, allowed in csp.constraints
        ):
            return True
    return False


def random_undirected_graph(rng: random.Random, n: int, p: float) -> UndirectedGraph:
    edges = frozenset(
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    )
    return UndirectedGraph(n, edges)


def exhaustive_vertex_cover(graph: UndirectedGraph) -> int:
    edges = list(graph.edges)
    if not edges:
        return 0
    for size in range(0, graph.n + 1):
        for subset in itertools.combinations(range(graph.n), size):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in edges):
                return size
    raise AssertionError("unreachable")


def coarsen_decomposition(
    rng: random.Random, decomposition: TreeDecomposition, steps: int
) -> TreeDecomposition:
    """Contract random tree edges, merging adjacent bags (stays valid)."""
    bags = [set(bag) for bag in decomposition.bags]
    edges = [tuple(e) for e in decomposition.edges]
    for _ in range(min(steps, len(edges))):
        if not edges:
            break
        a, b = edges.pop(rng.randrange(len(edges)))
        bags[a] |= bags[b]
        bags[b] = None
        edges = [
            (a if x == b else x, a if y == b else y) for x, y in edges
        ]
    alive = [i for i, bag in enumerate(bags) if bag is not None]
    renumber = {old: new for new, old in enumerate(alive)}
    new_bags = tuple(frozenset(bags[i]) for i in alive)
    new_edges = tuple(
        (renumber[x], renumber[y]) for x, y in edges if x != y
    )
    return TreeDecomposition(new_bags, new_edges)


def random_constraints(rng: random.Random, n_vars: int, count: int):
    """Random two-monotone constraint sets for gadget soundness checks."""
    out = []
    for _ in range(count):
        kind = rng.choice(("pos", "neg", "both"))
        pos = neg = None
        if kind in ("pos", "both"):
            pos = frozenset(rng.sample(range(n_vars), rng.randint(1, min(3, n_vars))))
        if kind in ("neg", "both"):
            neg = frozenset(rng.sample(range(n_vars), rng.randint(1, min(3, n_vars))))
        out.append(TwoMonotoneConstraint(pos, neg, rng.randint(1, 4)))
    return out


def exhaustive_min_violations(constraints, n_vars: int) -> int:
    best = None
    for bits in itertools.product((0, 1), repeat=n_vars):
        cost = sum(c.weight for c in constraints if c.violated(bits))
        if best is None or cost < best:
            best = cost
    return best


def naive_vertex_cover_number(graph: UndirectedGraph, k_max: int):
    """``vertex_cover_number``'s bounded search run on the whole graph at
    once, without the component split or the leaf rule."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    edges = sorted(tuple(sorted(e)) for e in graph.edges)

    def search(remaining, budget):
        if not remaining:
            return 0
        if budget <= 0:
            return None
        degree = {}
        for u, v in remaining:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        heavy = sorted(v for v, d in degree.items() if d > budget)
        if heavy:
            # any cover within budget must contain this vertex
            w = heavy[0]
            sub = search([e for e in remaining if w not in e], budget - 1)
            return None if sub is None else 1 + sub
        if len(remaining) > budget * budget:
            return None  # budget vertices of degree <= budget cover too little
        w = min(degree, key=lambda v: (-degree[v], v))
        partner = min(v for e in remaining if w in e for v in e if v != w)
        best = None
        sub = search([e for e in remaining if w not in e], budget - 1)
        if sub is not None:
            best = 1 + sub
        cap = budget - 1 if best is None else best - 2
        if cap >= 0:
            sub = search([e for e in remaining if partner not in e], cap)
            if sub is not None and (best is None or 1 + sub < best):
                best = 1 + sub
        return best

    return search(edges, k_max)
