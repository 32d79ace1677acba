"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they are used to check:
``naive_optimum`` enumerates outcomes with itertools against the dict-based
ballot semantics (never touching the scan kernels), ``milp_optimum`` solves
profiles too large to enumerate as a 0/1 integer program, satisfiability checks
enumerate assignments of the source problems directly, the vertex cover
oracle tries every subset, the capped-cover reference
``naive_vertex_cover_number`` searches the whole graph without the component
split or the leaf rule, the component split and majority count scan every
voter instead of reading the profile's per-issue ballot index, the
tree-decomposition reference keeps every full DP table for its traceback,
the min-fill reference ``naive_min_fill`` rescans the neighbour pairs of
every vertex within two hops of each eliminated one, and ``violated``
states the two-monotone constraint semantics that the min-cut gadget is
checked against.  ``premise_edges``, ``largest_premise_scope`` and
``plain_decomposition`` read a voter's dependency edges, the profile's delta
and a nice decomposition's bags straight off the data, for tests that need
them as references, and ``reference_components`` splits the global
dependency graph with networkx.  ``per_component_solve`` solves each
component alone on its ``naive_restrict_profile`` sub-profile, the
reference for the dispatcher's one solve per route.  ``reference_cost_model``
fills the factor tables one approved cell at a time and
``reference_eliminate`` keeps an argmin table per bucket for its traceback:
plain forms of ``_scan``'s compiler and kernel, the references for their
cells and their tie-breaks.
"""

from __future__ import annotations

import heapq
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
    applicable_routes,
    build_global_graph,
    heuristic_tree_decomposition,
    make_nice,
)
from cmsvote._scan import CostModel, group_by_axes
from cmsvote.mincut import TwoMonotoneConstraint
from cmsvote.model import alternatives, approve, is_satisfied, issue_ballot, make_profile

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


def milp_optimum(profile):
    """Minimum total dissatisfaction as a 0/1 integer program, for profiles
    whose outcome space is too large to enumerate.

    One-hot variables per issue and one satisfaction variable per statement,
    each at most its target's approved values and at most each of its
    premise values, so at most one statement of a ballot holds; the optimum
    is the ballot count minus the most satisfiable statements.  scipy's
    ``milp`` (HiGHS) solves it, imported here so that the package never
    needs scipy.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    dom = profile.domain_sizes()
    offset = [0]
    for d in dom:
        offset.append(offset[-1] + d)
    n_x = offset[-1]
    rows, cols, vals, lower, upper = [], [], [], [], []

    def add_row(entries, lo, hi):
        for c, v in entries:
            rows.append(len(lower))
            cols.append(c)
            vals.append(v)
        lower.append(lo)
        upper.append(hi)

    for j, d in enumerate(dom):
        add_row([(offset[j] + a, 1.0) for a in range(d)], 1.0, 1.0)
    n_ballots = n_s = 0
    for voter in profile.voters:
        for j, ballot in voter.ballots.items():
            n_ballots += 1
            for premise, approved in ballot.statements.items():
                s = n_x + n_s
                n_s += 1
                hits = [(offset[j] + a, -1.0) for a in range(dom[j]) if approved >> a & 1]
                add_row([(s, 1.0)] + hits, -np.inf, 0.0)
                for k, v in zip(ballot.scope, premise):
                    add_row([(s, 1.0), (offset[k] + v, -1.0)], -np.inf, 0.0)

    n_vars = n_x + n_s
    matrix = coo_matrix((vals, (rows, cols)), shape=(len(lower), n_vars)).tocsr()
    objective = np.zeros(n_vars)
    objective[n_x:] = -1.0
    result = milp(
        objective,
        constraints=LinearConstraint(matrix, lower, upper),
        integrality=np.ones(n_vars),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0.0},
    )
    assert result.status == 0, result.message
    optimum = n_ballots - int(round(-result.fun))
    outcome = [int(np.argmax(result.x[offset[j] : offset[j + 1]])) for j in range(profile.m)]
    assert total_dissatisfaction(profile, outcome) == optimum
    return optimum


def naive_restrict_profile(profile, issues):
    """Sub-profile over ``issues`` by scanning every voter's ballot map.

    Voters without a ballot on any of ``issues`` are left out.
    """
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
        if ballots:
            sub_voters.append((voter.name, ballots))
    sub_issues = [
        (profile.issues[j].name, profile.issues[j].alternatives) for j in issues
    ]
    return make_profile(sub_issues, sub_voters)


def per_component_solve(profile, method="auto"):
    """(outcome, cost, method string) of solving each component of
    ``classify(profile)`` alone and merging the parts: the reference for the
    route-wise ``solve_profile``.

    A component's sub-profile comes from ``naive_restrict_profile``; its
    route is ``classify``'s or the forced ``method``, and it is solved by
    that route's solver (majority counting by ``naive_majority_alternative``,
    TREEWIDTH along the component's own decomposition).  Raises Intractable
    as ``solve_profile`` does, before any component is solved.
    """
    report = cmsvote.classify(profile)
    plan = []
    for comp in report.components:
        if method == "auto":
            route = comp.route
            routable = route != "INTRACTABLE"
        else:
            route = method.upper()
            routable = route in applicable_routes(comp)
        if not routable:
            raise cmsvote.Intractable(report)
        plan.append((comp, route))
    outcome = [None] * profile.m
    cost = 0
    routes = []
    for comp, route in plan:
        if route == "MAJORITY":
            (issue,) = comp.issues
            outcome[issue], part = naive_majority_alternative(profile, issue)
        else:
            sub = naive_restrict_profile(profile, comp.issues)
            if route == "BRUTE":
                solution = cmsvote.solve_brute(sub)
            elif route == "MINCUT":
                solution = cmsvote.solve_mincut(sub)
            else:
                solution = cmsvote.solve_treewidth(sub, comp.decomposition)
            for j, a in zip(comp.issues, solution.outcome):
                outcome[j] = a
            part = solution.cost
        cost += part
        if route not in routes:
            routes.append(route)
    return tuple(outcome), cost, "+".join(r.lower() for r in routes)


def cost_on_issues(profile, issues, outcome):
    """Full-profile dissatisfaction on ``issues`` alone of the outcome that
    sets issue ``issues[t]`` to ``outcome[t]``.

    ``issues`` must be dependency-closed, so no ballot counted here reads
    an issue outside it; those issues are set to 0.
    """
    full = [0] * profile.m
    for t, j in enumerate(issues):
        full[j] = outcome[t]
    return sum(
        not is_satisfied(profile, i, j, full) for i in range(profile.n) for j in issues
    )


def naive_treewidth_outcome(profile):
    """Outcome of a DP that keeps every full bag table for the traceback.

    Introduce nodes add the factors that involve the new vertex and lie
    within the bag, join nodes add both children and subtract the bag's own
    factors, which both branches counted, and the traceback re-minimizes
    each forget node's child table (ties to the lowest alternative index).
    """
    model = compile_cost_model(profile, range(profile.m))
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


def reference_cost_model(profile) -> CostModel:
    """The profile's factor tables, one ``np.full`` per axis tuple with one
    decrement per approved (premise, alternative) cell, and no budget check.

    A premise that names the target issue itself fixes its value, so only
    that alternative counts, if approved.
    """
    dom = profile.domain_sizes()
    pairs = ((j, b) for voter in profile.voters for j, b in voter.ballots.items())
    groups = group_by_axes(pairs, dom)
    n_pairs = sum(map(len, groups.values()))
    dtype = np.int16 if n_pairs < 2**15 else np.int32 if n_pairs < 2**31 else np.int64
    factors = []
    for axes, ballots in groups.items():
        table = np.full([dom[k] for k in axes], len(ballots), dtype=dtype)
        pos = {k: t for t, k in enumerate(axes)}
        for j, ballot in ballots:
            target = pos[j]
            for premise, approved in ballot.statements.items():
                cell = [None] * len(axes)
                for k, v in zip(ballot.scope, premise):
                    cell[pos[k]] = v
                fixed = cell[target]
                for a in alternatives(approved):
                    if fixed is None or fixed == a:
                        cell[target] = a
                        table[tuple(cell)] -= 1
        factors.append((axes, table))
    return CostModel(dom=dom, n_pairs=n_pairs, factors=tuple(factors))


def reference_eliminate(model, order):
    """(cost, outcome) by bucket elimination along ``order`` that stores one
    argmin table per bucket, found one alternative at a time: only a
    strictly smaller cost moves it, so ties go to the lowest alternative."""
    order = list(order)
    dom = model.dom
    rank = {v: t for t, v in enumerate(order)}
    buckets = [[] for _ in order]
    for axes, table in model.factors:
        buckets[min(map(rank.__getitem__, axes))].append((axes, table))
    cost = 0
    rests = []
    choices = []
    for t, v in enumerate(order):
        rest = tuple(sorted(set().union(*(axes for axes, _ in buckets[t])) - {v}))
        scope = (v, *rest)
        table = np.zeros([dom[k] for k in scope], dtype=model.dtype)
        for axes, part in buckets[t]:
            i = axes.index(v)
            part = part.transpose(i, *range(i), *range(i + 1, part.ndim))
            table += part.reshape([dom[k] if k in axes else 1 for k in scope])
        message = table[0]
        choice = np.zeros(message.shape, dtype=np.min_scalar_type(dom[v] - 1))
        for a in range(1, dom[v]):
            np.copyto(choice, a, where=table[a] < message)
            message = np.minimum(message, table[a])
        choices.append(choice)
        if rest:
            buckets[min(map(rank.__getitem__, rest))].append((rest, message))
        else:
            cost += int(message)
        rests.append(rest)
    outcome = [0] * len(dom)
    for t in range(len(order) - 1, -1, -1):
        outcome[order[t]] = int(choices[t][tuple(outcome[k] for k in rests[t])])
    return cost, tuple(outcome)


def naive_majority_alternative(profile, issue):
    """(alternative, cost) of an issue with unconditional ballots only: the
    most-approved alternative, ties to the lowest index, and the number of
    voters who do not approve it; a missing ballot approves everything."""
    d = len(profile.issues[issue].alternatives)
    counts = [0] * d
    for voter in profile.voters:
        ballot = voter.ballots.get(issue)
        for a in range(d):
            if ballot is None or ballot.statements[()] >> a & 1:
                counts[a] += 1
    best = max(counts)
    return counts.index(best), profile.n - best


def premise_edges(profile, voter):
    """A voter's dependency edges: (k, j) when issue k is in the premise
    scope of the voter's ballot on issue j."""
    return frozenset(
        (k, ballot.issue)
        for ballot in profile.voters[voter].ballots.values()
        for k in ballot.scope
    )


def reference_components(profile):
    """(issues, edges) of each connected component of the global dependency
    graph, found by networkx: issues ascending, edges as (min, max) pairs,
    components ordered by their smallest issue."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(profile.m))
    graph.add_edges_from(build_global_graph(profile).edges)
    return sorted(
        (
            tuple(sorted(members)),
            frozenset(tuple(sorted(e)) for e in graph.subgraph(members).edges),
        )
        for members in nx.connected_components(graph)
    )


def largest_premise_scope(profile):
    """The profile's delta: the largest premise scope of any ballot."""
    return max(
        (len(b.scope) for voter in profile.voters for b in voter.ballots.values()),
        default=0,
    )


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


def plain_decomposition(nice) -> TreeDecomposition:
    """A nice tree decomposition as a plain one: one bag per node, in
    postorder, and one edge per parent-child pair."""
    nodes = nice.postorder()
    index = {id(node): i for i, node in enumerate(nodes)}
    return TreeDecomposition(
        tuple(frozenset(node.bag) for node in nodes),
        tuple(
            (index[id(node)], index[id(child)])
            for node in nodes
            for child in node.children
        ),
    )


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


def naive_verify_decomposition(graph: UndirectedGraph, decomposition: TreeDecomposition):
    """``verify_decomposition``'s verdict, scanning every bag per vertex and
    per edge instead of indexing the bags by vertex."""
    bags = decomposition.bags
    if not bags:
        return "no bags"
    k = len(bags)
    if len(decomposition.edges) != k - 1:
        return "not a tree"
    tree_adj = [[] for _ in range(k)]
    for a, b in decomposition.edges:
        if not (0 <= a < k and 0 <= b < k):
            return "not a tree"
        tree_adj[a].append(b)
        tree_adj[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        for b in tree_adj[stack.pop()]:
            if b not in seen:
                seen.add(b)
                stack.append(b)
    if len(seen) != k:
        return "not a tree"
    if set().union(*bags) != set(range(graph.n)):
        return "vertex uncovered"
    for u, v in graph.edges:
        if not any(u in bag and v in bag for bag in bags):
            return "edge uncovered"
    for v in range(graph.n):
        holding = {i for i, bag in enumerate(bags) if v in bag}
        start = min(holding)
        reached = {start}
        stack = [start]
        while stack:
            for b in tree_adj[stack.pop()]:
                if b in holding and b not in reached:
                    reached.add(b)
                    stack.append(b)
        if reached != holding:
            return "connectivity violated"
    return None


def corrupt_decomposition(rng: random.Random, decomposition: TreeDecomposition, n: int):
    """A random edit of one bag or tree edge, which may or may not leave the
    decomposition valid; one without bags is returned as is."""
    if not decomposition.bags:
        return decomposition
    bags = [set(bag) for bag in decomposition.bags]
    edges = list(decomposition.edges)
    kind = rng.randrange(7)
    i = rng.randrange(len(bags))
    if kind == 0 and bags[i]:
        bags[i].discard(rng.choice(sorted(bags[i])))  # drop a vertex
    elif kind == 1:
        bags[i].add(rng.randrange(n))  # add a vertex, perhaps far from its bags
    elif kind == 2:
        bags[i].add(n + rng.randrange(2))  # a vertex the graph does not have
    elif kind == 3 and edges:
        edges.pop(rng.randrange(len(edges)))  # too few tree edges
    elif kind == 4:
        edges.append((i, rng.randrange(len(bags) + 1)))  # a cycle or a bad index
    elif kind == 5 and edges:
        t = rng.randrange(len(edges))
        edges[t] = (edges[t][0], rng.randrange(len(bags)))  # re-hang one edge
    elif kind == 6:
        bags, edges = [], []
    return TreeDecomposition(tuple(frozenset(bag) for bag in bags), tuple(edges))


def random_constraints(rng: random.Random, n_vars: int, count: int):
    """Random two-monotone constraint sets for gadget soundness checks."""
    out = []
    for _ in range(count):
        kind = rng.choice(("pos", "neg", "both"))
        pos = neg = None
        if kind in ("pos", "both"):
            pos = tuple(sorted(rng.sample(range(n_vars), rng.randint(1, min(3, n_vars)))))
        if kind in ("neg", "both"):
            neg = tuple(sorted(rng.sample(range(n_vars), rng.randint(1, min(3, n_vars)))))
        out.append(TwoMonotoneConstraint(pos, neg, rng.randint(1, 4)))
    return out


def violated(constraint, assignment) -> bool:
    """Reference semantics of a two-monotone constraint: violated exactly
    when no present term holds under the assignment."""
    pos, neg, _ = constraint
    if pos is not None and all(assignment[v] == 1 for v in pos):
        return False
    if neg is not None and all(assignment[v] == 0 for v in neg):
        return False
    return True


def exhaustive_min_violations(constraints, n_vars: int) -> int:
    best = None
    for bits in itertools.product((0, 1), repeat=n_vars):
        cost = sum(c.weight for c in constraints if violated(c, bits))
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


def naive_min_fill(graph: UndirectedGraph, width_cap=None):
    """``_min_fill_run``'s elimination, recounting each fill from scratch:
    every vertex within two hops of the eliminated one gets its neighbour
    pairs scanned again, and a capped run stops only at a bag that is too
    large, with no minimum-degree shortcut."""
    adj = {v: set() for v in range(graph.n)}
    for u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)

    def fill_cost(v):
        nbrs = sorted(adj[v])
        return sum(
            1
            for a in range(len(nbrs))
            for b in range(a + 1, len(nbrs))
            if nbrs[b] not in adj[nbrs[a]]
        )

    current = {v: (fill_cost(v), len(adj[v])) for v in adj}
    heap = [(fill, deg, v) for v, (fill, deg) in current.items()]
    heapq.heapify(heap)
    order, position, bags = [], {}, []
    while adj:
        while True:
            fill, deg, v = heapq.heappop(heap)
            if v in adj and current[v] == (fill, deg):
                break
        if width_cap is not None and len(adj[v]) > width_cap:
            return None
        nbrs = sorted(adj[v])
        bags.append(frozenset([v] + nbrs))
        position[v] = len(order)
        order.append(v)
        for a in range(len(nbrs)):
            for b in range(a + 1, len(nbrs)):
                adj[nbrs[a]].add(nbrs[b])
                adj[nbrs[b]].add(nbrs[a])
        touched = set(nbrs)
        for u in nbrs:
            adj[u].discard(v)
            touched.update(adj[u])
        del adj[v], current[v]
        touched.discard(v)
        for u in touched:
            entry = (fill_cost(u), len(adj[u]))
            if current[u] != entry:
                current[u] = entry
                heapq.heappush(heap, (*entry, u))
    return bags, order, position
