"""Instance factories: seeded random profiles, three reduction-based
constructions (from CNF satisfiability, multicolored clique and binary CSP),
and the two-voter grid construction.

The reduction outputs double as correctness oracles: the source problem is
solvable iff the generated election admits a zero-dissatisfaction outcome.
All constructions are deterministic; free choices (partitions, tie-breaks,
name schemes) are fixed so identical inputs give identical profiles.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .model import Profile, approve, issue_ballot, make_profile


@dataclass(frozen=True)
class CnfFormula:
    """CNF with 1-based variables; clauses are tuples of nonzero literals."""

    num_vars: int
    clauses: tuple

    def __post_init__(self):
        for clause in self.clauses:
            if not clause:
                raise ValueError("clauses must be nonempty")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range")


@dataclass(frozen=True)
class ColoredGraph:
    """Vertex-colored undirected graph with equal-size color classes.

    ``classes`` maps each color to its vertex name tuple; shorter classes are
    padded with fresh isolated vertices (never endpoints of edges) so every
    class has the same size, at least two.
    """

    colors: tuple
    classes: tuple
    edges: frozenset

    @staticmethod
    def build(classes, edges) -> "ColoredGraph":
        colors = tuple(color for color, _ in classes)
        if len(set(colors)) != len(colors):
            raise ValueError("color names must be distinct")
        vertex_lists = [list(vertices) for _, vertices in classes]
        everyone = [v for vs in vertex_lists for v in vs]
        if len(set(everyone)) != len(everyone):
            raise ValueError("vertex names must be globally distinct")
        size = max(2, max((len(vs) for vs in vertex_lists), default=2))
        for color, vs in zip(colors, vertex_lists):
            pad = 0
            while len(vs) < size:
                vs.append(f"{color}~pad{pad}")
                pad += 1
        known = {v for vs in vertex_lists for v in vs}
        normalized = set()
        for u, v in edges:
            if u not in known or v not in known:
                raise ValueError(f"edge ({u}, {v}) uses unknown vertices")
            if u == v:
                raise ValueError("self-loops are not allowed")
            normalized.add((u, v) if u <= v else (v, u))
        return ColoredGraph(
            colors, tuple(tuple(vs) for vs in vertex_lists), frozenset(normalized)
        )


@dataclass(frozen=True)
class CspInstance:
    """Binary CSP: variables over one alphabet, constraints on ordered pairs.

    ``constraints`` entries are (u, v, allowed) with allowed a tuple of
    (symbol index, symbol index) pairs; an empty allowed set makes the
    instance unsatisfiable.  Variables are implied by the constraints, in
    first-occurrence order.
    """

    alphabet: tuple
    constraints: tuple

    def __post_init__(self):
        if len(self.alphabet) < 2:
            raise ValueError("alphabet needs at least two symbols")
        for u, v, allowed in self.constraints:
            if u == v:
                raise ValueError("constraints must involve two distinct variables")
            for a, b in allowed:
                if not (0 <= a < len(self.alphabet) and 0 <= b < len(self.alphabet)):
                    raise ValueError("allowed pair out of alphabet")

    def variables(self) -> tuple:
        # A dict keeps its first-insertion order and tests membership in O(1).
        return tuple(dict.fromkeys(x for u, v, _ in self.constraints for x in (u, v)))


def _bounded_count(rng, mean, cap):
    if cap <= 0:
        return 0
    draw = int(round(rng.gauss(mean, math.sqrt(max(mean, 1.0)))))
    return max(0, min(cap, draw))


def _nonempty_subset(rng, size):
    members = [a for a in range(size) if rng.random() < 0.5]
    if not members:
        members = [rng.randrange(size)]
    return frozenset(members)


def gen_random(
    m: int,
    n: int,
    d_max: int = 2,
    delta_max: int = 1,
    statement_density: float = 0.25,
    seed: int = 0,
    group_dichotomous: bool = False,
) -> Profile:
    """Seeded random profile with premise scopes of size at most ``delta_max``.

    ``statement_density`` steers how many (voter, issue) pairs carry a
    conditional ballot (and how many carry a nontrivial unconditional one):
    the expected count per voter is density * m each.  With
    ``group_dichotomous`` every issue is binary and every conditional ballot
    uses one of the allowed group-dichotomous shapes.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    if d_max < 2:
        raise ValueError("d_max must be at least 2")
    if delta_max < 0:
        raise ValueError("delta_max must be nonnegative")
    if not 0.0 <= statement_density <= 1.0:
        raise ValueError("statement_density must lie in [0, 1]")

    rng = random.Random(seed)
    dom = [2 if group_dichotomous else rng.randint(2, d_max) for _ in range(m)]
    issues = [(f"i{j}", tuple(str(a) for a in range(dom[j]))) for j in range(m)]

    scope_cap = min(delta_max, m - 1)
    voters = []
    for i in range(n):
        mean = statement_density * m
        n_cond = _bounded_count(rng, mean, m if scope_cap >= 1 else 0)
        n_plain = _bounded_count(rng, mean, m - n_cond)
        chosen = rng.sample(range(m), n_cond + n_plain)
        cond_targets = sorted(chosen[:n_cond])
        plain_targets = sorted(chosen[n_cond:])

        ballots = []
        for j in cond_targets:
            size = rng.randint(1, scope_cap)
            while True:
                picks = rng.sample(range(m), size)
                if j not in picks:
                    scope = sorted(picks)
                    break
            statements = {}
            if group_dichotomous:
                shape = rng.choice(("low", "high", "both"))
                if shape in ("low", "both"):
                    statements[(0,) * size] = frozenset(
                        {0} if rng.random() < 0.5 else {0, 1}
                    )
                if shape in ("high", "both"):
                    statements[(1,) * size] = frozenset(
                        {1} if rng.random() < 0.5 else {0, 1}
                    )
            else:
                space = math.prod(dom[k] for k in scope)
                if space <= 64:
                    premises = list(itertools.product(*(range(dom[k]) for k in scope)))
                    kept = [p for p in premises if rng.random() < 0.75]
                else:
                    kept = sorted(
                        {
                            tuple(rng.randrange(dom[k]) for k in scope)
                            for _ in range(48)
                        }
                    )
                for premise in kept:
                    statements[premise] = _nonempty_subset(rng, dom[j])
            ballots.append(issue_ballot(j, scope, statements))
        for j in plain_targets:
            ballots.append(approve(j, _nonempty_subset(rng, dom[j])))
        voters.append((f"v{i}", ballots))
    return make_profile(issues, voters)


def gen_from_sat(cnf: CnfFormula, m_target: int) -> Profile:
    """Election whose optimum is zero iff the formula is satisfiable.

    Variables are split round-robin into ``m_target`` blocks; each block is
    one issue whose alternatives enumerate the block's assignments (lowest
    variable = least significant bit).  Each clause becomes one voter who,
    conditioned on the other touched blocks, approves exactly the satisfying
    assignments of the lowest touched block.
    """
    if not 1 <= m_target <= cnf.num_vars:
        raise ValueError("m_target must be between 1 and the variable count")
    blocks = [[] for _ in range(m_target)]
    for var in range(1, cnf.num_vars + 1):
        blocks[(var - 1) % m_target].append(var)
    block_of = {var: (var - 1) % m_target for var in range(1, cnf.num_vars + 1)}
    bit_of = {}
    for block in blocks:
        for t, var in enumerate(block):
            bit_of[var] = t

    def block_assignment(j, alt):
        return {var: (alt >> bit_of[var]) & 1 for var in blocks[j]}

    issues = []
    for j, block in enumerate(blocks):
        width = len(block)
        alts = tuple(format(a, f"0{width}b") for a in range(1 << width))
        issues.append((f"b{j}", alts))

    voters = []
    for ci, clause in enumerate(cnf.clauses):
        touched = sorted({block_of[abs(lit)] for lit in clause})
        target = touched[0]
        scope = touched[1:]
        own_lits = [lit for lit in clause if block_of[abs(lit)] == target]
        other_lits = [lit for lit in clause if block_of[abs(lit)] != target]
        satisfying_alts = frozenset(
            alt
            for alt in range(1 << len(blocks[target]))
            if any(
                block_assignment(target, alt)[abs(lit)] == (1 if lit > 0 else 0)
                for lit in own_lits
            )
        )
        statements = {}
        for premise in itertools.product(*(range(1 << len(blocks[k])) for k in scope)):
            assignment = {}
            for k, alt in zip(scope, premise):
                assignment.update(block_assignment(k, alt))
            already = any(
                assignment[abs(lit)] == (1 if lit > 0 else 0) for lit in other_lits
            )
            if already:
                approved = frozenset(range(1 << len(blocks[target])))
            else:
                approved = satisfying_alts
            statements[premise] = approved
        if scope:
            ballot = issue_ballot(target, scope, statements)
        else:
            ballot = approve(target, statements[()])
        voters.append((f"c{ci}", [ballot]))
    return make_profile(issues, voters)


def gen_from_multicolored_clique(graph: ColoredGraph) -> Profile:
    """Election whose optimum is zero iff a multicolored clique exists.

    One binary special issue plus one issue per color (alternatives = its
    vertices); one voter insists on the special issue's first alternative,
    and one voter per color pair approves it only under premises matching a
    cross edge.  A pair with no cross edges yields a conditional ballot with
    no statements, which no outcome satisfies.
    """
    k = len(graph.colors)
    issues = [("special", ("P", "N"))]
    issue_of_color = {}
    index_of_vertex = {}
    for t, color in enumerate(graph.colors):
        issue_of_color[color] = t + 1
        for a, vertex in enumerate(graph.classes[t]):
            index_of_vertex[vertex] = (t + 1, a)
        issues.append((f"color_{color}", graph.classes[t]))

    color_of_vertex = {}
    for t, vertices in enumerate(graph.classes):
        for vertex in vertices:
            color_of_vertex[vertex] = t

    voters = [("vs", [approve(0, frozenset({0}))])]
    for x in range(k):
        for y in range(x + 1, k):
            statements = {}
            for u, v in sorted(graph.edges):
                cu, cv = color_of_vertex[u], color_of_vertex[v]
                if {cu, cv} != {x, y}:
                    continue
                if cu == y:
                    u, v = v, u
                premise = (index_of_vertex[u][1], index_of_vertex[v][1])
                statements[premise] = frozenset({0})
            scope = (issue_of_color[graph.colors[x]], issue_of_color[graph.colors[y]])
            ballots = [issue_ballot(0, scope, statements)]
            voters.append((f"p_{graph.colors[x]}_{graph.colors[y]}", ballots))
    return make_profile(issues, voters)


def gen_from_2csp(csp: CspInstance) -> Profile:
    """Election whose optimum is zero iff the CSP is satisfiable.

    One issue per variable (domain = alphabet) and one issue per constraint
    listing all alphabet pairs.  For each allowed pair of a constraint, a
    consistency voter conditions both variable issues on the constraint
    issue: under that pair's premise only the matching symbols are approved,
    under other allowed pairs anything is approved, and under disallowed
    pairs no statement is cast, so picking a disallowed pair dissatisfies
    every consistency voter of that constraint.  Constraints with no allowed
    pairs get a single voter nobody can satisfy.
    """
    sigma = len(csp.alphabet)
    variables = csp.variables()
    var_issue = {name: j for j, name in enumerate(variables)}
    issues = [(f"var_{name}", csp.alphabet) for name in variables]
    pair_names = tuple(
        f"{csp.alphabet[a]}:{csp.alphabet[b]}"
        for a in range(sigma)
        for b in range(sigma)
    )
    constraint_issue = []
    for t, (u, v, _) in enumerate(csp.constraints):
        constraint_issue.append(len(issues))
        issues.append((f"q{t}_{u}_{v}", pair_names))

    def pair_code(a, b):
        return a * sigma + b

    voters = []
    for t, (u, v, allowed) in enumerate(csp.constraints):
        q = constraint_issue[t]
        ju, jv = var_issue[u], var_issue[v]
        allowed_sorted = sorted(set(allowed))
        if not allowed_sorted:
            empty = [issue_ballot(ju, (q,), {}), issue_ballot(jv, (q,), {})]
            voters.append((f"w{t}_none", empty))
            continue
        for a, b in allowed_sorted:
            u_statements = {}
            v_statements = {}
            for c, d in allowed_sorted:
                premise = (pair_code(c, d),)
                if (c, d) == (a, b):
                    u_statements[premise] = frozenset({a})
                    v_statements[premise] = frozenset({b})
                else:
                    u_statements[premise] = frozenset(range(sigma))
                    v_statements[premise] = frozenset(range(sigma))
            ballots = [
                issue_ballot(ju, (q,), u_statements),
                issue_ballot(jv, (q,), v_statements),
            ]
            voters.append((f"w{t}_{csp.alphabet[a]}:{csp.alphabet[b]}", ballots))
    return make_profile(issues, voters)


def gen_grid(rho: int) -> Profile:
    """Two voters casting agreement chains along the rows and columns of a
    rho x rho grid of binary issues.

    Each path edge k -> j carries the statements {0: {0}} and {1: {1}}, so
    the instance is group-dichotomous, every premise scope has size one, and
    the global dependency graph is the grid.
    """
    if rho < 2:
        raise ValueError("rho must be at least 2")
    issues = [
        (f"g{r}_{c}", ("0", "1")) for r in range(rho) for c in range(rho)
    ]

    def cell(r, c):
        return r * rho + c

    def agreement(target, source):
        return issue_ballot(
            target, (source,), {(0,): frozenset({0}), (1,): frozenset({1})}
        )

    rows = []
    cols = []
    for r in range(rho):
        for c in range(1, rho):
            rows.append(agreement(cell(r, c), cell(r, c - 1)))
    for c in range(rho):
        for r in range(1, rho):
            cols.append(agreement(cell(r, c), cell(r - 1, c)))
    return make_profile(issues, [("rows", rows), ("cols", cols)])
