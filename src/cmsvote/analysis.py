"""Structural analysis of profiles: dependency graphs, group-dichotomy,
vertex covers, tree decompositions and the solver-routing classification.

Everything here is deterministic: ties are broken toward the lowest vertex
id so reports and decompositions are reproducible run to run.
"""

from __future__ import annotations

import functools
import heapq
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

from . import _scan
from .errors import BudgetExceeded
from .model import Profile, alternatives, lazy_attribute

MAJORITY = "MAJORITY"
MINCUT = "MINCUT"
TREEWIDTH = "TREEWIDTH"
BRUTE = "BRUTE"
INTRACTABLE = "INTRACTABLE"

# Routing reads this bound when it runs; BRUTE's is _scan.MAX_TABLE_ENTRIES.
WIDTH_THRESHOLD = 8  # largest min-fill width routed to TREEWIDTH


# Per-voter vertex covers in reports are computed exactly up to this bound;
# larger covers are reported as "exceeds".
VC_REPORT_CAP = 12


@dataclass(frozen=True)
class UndirectedGraph:
    """Simple undirected graph over issue ids; edges are (min, max) pairs."""

    n: int
    edges: frozenset


@dataclass(frozen=True)
class TreeDecomposition:
    """Tree of vertex bags; ``edges`` connect bag indices."""

    bags: tuple
    edges: tuple

    @property
    def width(self) -> int:
        return max((len(bag) for bag in self.bags), default=1) - 1


@dataclass(frozen=True)
class NiceNode:
    """Node of a nice tree decomposition.

    kind is one of "leaf", "introduce", "forget", "join"; ``vertex`` is the
    vertex introduced or forgotten, ``bag`` is sorted ascending.
    """

    kind: str
    bag: tuple
    vertex: Optional[int]
    children: tuple


@dataclass(frozen=True)
class NiceTreeDecomposition:
    root: NiceNode

    def postorder(self) -> list:
        """Children-before-parent node order, computed without recursion."""
        order = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(node.children)
        order.reverse()
        return order


@dataclass(frozen=True)
class DichotomyWitness:
    voter: int
    issue: int
    premise: Optional[tuple]
    reason: str

    def __str__(self):
        return f"voter {self.voter}, issue {self.issue}: {self.reason}"


@dataclass(frozen=True)
class ComponentReport:
    """One connected component of the global dependency graph and its route.

    ``edges`` (its global-graph edges) feed the min-fill run, capped at
    ``WIDTH_THRESHOLD``, behind ``decomposition``; ``profile`` feeds ``brute_fits``.
    """

    issues: tuple
    route: str
    all_binary: bool
    group_dichotomous: bool
    delta: int
    outcome_space: int
    edges: frozenset = field(repr=False)
    profile: Profile = field(compare=False, repr=False)

    @lazy_attribute
    def decomposition(self) -> Optional[TreeDecomposition]:
        """Min-fill decomposition over sub-profile ids (issue ``issues[t]`` is
        vertex ``t``), or None when its width exceeds ``WIDTH_THRESHOLD``.
        ``classify`` fills it in where routing reads it, else first read does.
        """
        return _component_decomposition(self.issues, self.edges)

    @lazy_attribute
    def heuristic_width(self) -> Optional[int]:
        """Width of ``decomposition``; an isolated issue has width 0."""
        if not self.edges:
            return 0
        return None if self.decomposition is None else self.decomposition.width

    @lazy_attribute
    def brute_fits(self) -> bool:
        """Whether ``solve_brute`` compiles, by ``_scan.check_entries``;
        ``classify`` fills it in where routing reads it, else first read does."""
        return _brute_fits(self.profile, self.issues, self.outcome_space)


@dataclass(frozen=True)
class AnalysisReport:
    delta: int
    all_binary: bool
    group_dichotomous: bool
    dichotomy_witness: Optional[DichotomyWitness]
    components: tuple
    profile: Profile = field(compare=False, repr=False)

    @property
    def component_count(self) -> int:
        return len(self.components)

    @lazy_attribute
    def heuristic_width(self) -> Optional[int]:
        """Largest component width; None when some component exceeds the threshold."""
        widths = [c.heuristic_width for c in self.components]
        return None if any(w is None for w in widths) else max(widths, default=0)

    @lazy_attribute
    def per_voter_vertex_cover(self) -> tuple:
        """Each voter's vertex cover number, or None when it exceeds VC_REPORT_CAP.

        Routing never reads these, so they are computed on first read only.
        """
        m = self.profile.m
        covers = []
        for voter in self.profile.voters:
            edges = set()
            for ballot in voter.ballots.values():
                j = ballot.issue
                for k in ballot.scope:
                    edges.add((k, j) if k < j else (j, k))
            graph = UndirectedGraph(m, frozenset(edges))
            covers.append(vertex_cover_number(graph, VC_REPORT_CAP))
        return tuple(covers)

    @property
    def recommendation(self) -> str:
        routes = []
        for comp in self.components:
            if comp.route not in routes:
                routes.append(comp.route)
        return "+".join(routes)

    def to_text(self) -> str:
        width = "exceeds threshold" if self.heuristic_width is None else self.heuristic_width
        lines = [
            f"issues in {self.component_count} component(s), "
            f"heuristic width {width}",
            f"recommendation: {self.recommendation}",
            f"max premise scope (delta): {self.delta}",
            f"all binary: {'yes' if self.all_binary else 'no'}",
            f"group-dichotomous: {'yes' if self.group_dichotomous else 'no'}"
            + (f" ({self.dichotomy_witness})" if self.dichotomy_witness else ""),
            "per-voter vertex cover: "
            + " ".join(
                str(vc) if vc is not None else f">{VC_REPORT_CAP}"
                for vc in self.per_voter_vertex_cover
            ),
        ]
        for idx, comp in enumerate(self.components):
            width = "exceeds" if comp.heuristic_width is None else comp.heuristic_width
            lines.append(
                f"component {idx}: issues {list(comp.issues)} -> {comp.route} "
                f"(binary={'yes' if comp.all_binary else 'no'}, "
                f"gd={'yes' if comp.group_dichotomous else 'no'}, "
                f"delta={comp.delta}, width={width}, "
                f"outcomes={comp.outcome_space})"
            )
        return "\n".join(lines)

    def to_kv(self) -> str:
        width = "exceeds" if self.heuristic_width is None else self.heuristic_width
        lines = [
            f"recommendation {self.recommendation}",
            f"delta {self.delta}",
            f"all_binary {int(self.all_binary)}",
            f"group_dichotomous {int(self.group_dichotomous)}",
            f"components {self.component_count}",
            f"heuristic_width {width}",
            "per_voter_vertex_cover "
            + ",".join(
                str(vc) if vc is not None else "exceeds"
                for vc in self.per_voter_vertex_cover
            ),
        ]
        for idx, comp in enumerate(self.components):
            prefix = f"component.{idx}"
            comp_width = "exceeds" if comp.heuristic_width is None else comp.heuristic_width
            lines.append(f"{prefix}.issues " + ",".join(map(str, comp.issues)))
            lines.append(f"{prefix}.route {comp.route}")
            lines.append(f"{prefix}.delta {comp.delta}")
            lines.append(f"{prefix}.width {comp_width}")
            lines.append(f"{prefix}.outcomes {comp.outcome_space}")
        return "\n".join(lines)


def build_global_graph(profile: Profile) -> UndirectedGraph:
    """Undirected union of all voter graphs, directions and multiplicities dropped."""
    edges = set()
    for voter in profile.voters:
        for ballot in voter.ballots.values():
            for k in ballot.scope:
                edges.add((min(k, ballot.issue), max(k, ballot.issue)))
    return UndirectedGraph(profile.m, frozenset(edges))


def is_group_dichotomous(profile: Profile):
    """Check every conditional statement against the group-dichotomous shapes.

    A conditional statement on a binary issue qualifies when its approval set
    is {0} with an all-0 premise, {1} with an all-1 premise, or {0, 1} with a
    premise that is all-0 or all-1.  Unconditional ballots are never checked.
    Returns (ok, witness); the witness points at the first offending statement.
    """
    dom = profile.domain_sizes()
    for i, voter in enumerate(profile.voters):
        for ballot in voter.ballots.values():
            if not ballot.scope:
                continue
            witness = _ballot_dichotomy_witness(i, ballot, dom)
            if witness is not None:
                return False, witness
    return True, None


_ZERO = 0b01  # approval masks of {0}, {1} and {0, 1}
_ONE = 0b10
_BOTH = 0b11


@functools.lru_cache(maxsize=16)  # a few scope sizes recur; sets grow with size
def _fitting_statements(size) -> frozenset:
    """The (premise, approval mask) statements of group-dichotomous shape in a
    conditional ballot on ``size`` scope issues: {0} or {0, 1} at the all-0
    premise, {1} or {0, 1} at the all-1 premise.  A ballot has the shape
    when each of its statements is one of these."""
    zeros, ones = (0,) * size, (1,) * size
    return frozenset([(zeros, _ZERO), (zeros, _BOTH), (ones, _ONE), (ones, _BOTH)])


def dichotomy_terms(ballot):
    """(low, high) for a conditional ballot of group-dichotomous shape, else None.

    ``low`` and ``high`` are the approval masks at the all-0 and the all-1
    premise, None where the ballot has no such statement.  The shape holds
    when every statement is one of ``_fitting_statements``.  The target
    issue's domain is not checked.
    """
    size = len(ballot.scope)
    statements = ballot.statements
    if not statements.items() <= _fitting_statements(size):
        return None
    return statements.get((0,) * size), statements.get((1,) * size)


def _ballot_dichotomy_witness(voter: int, ballot, dom):
    """The lowest premise of a conditional ballot whose statement does not fit
    the group-dichotomous shape, or None when every statement fits."""
    j = ballot.issue
    if dom[j] != 2:
        return DichotomyWitness(
            voter, j, None, f"conditional ballot on non-binary issue ({dom[j]} alternatives)"
        )
    statements = ballot.statements
    fitting = _fitting_statements(len(ballot.scope))
    if statements.items() <= fitting:
        return None
    premise, approved = min(statements.items() - fitting)
    return DichotomyWitness(
        voter,
        j,
        premise,
        f"statement {premise} -> {list(alternatives(approved))} matches no allowed shape",
    )


def vertex_cover_number(graph, k_max: int) -> Optional[int]:
    """Exact minimum vertex cover size if it is at most ``k_max``, else None.

    The vertices are relabelled to bits, so a vertex set is an int and a
    degree is the popcount of a neighbour mask.  The search applies three
    exact reductions for as long as one does: a degree-1 vertex puts its
    only neighbour into the cover (some minimum cover contains it), a
    vertex with more than budget neighbours is forced into the cover (a
    smaller cover would need all its neighbours), and more than budget^2
    edges cannot be covered at all.  If what is left falls apart into
    several connected components, each is searched with the budget the
    earlier ones left, as the minimum cover of a graph is the sum of its
    components' minimum covers.  A connected rest is branched on at a
    highest-degree vertex v: either v is in the cover, or all of its
    d >= 2 neighbours are, which spends d of the budget at once.  One pass
    of the reductions costs O(V) popcounts and puts at least one vertex
    into the cover, so a graph the reductions finish, such as a forest,
    costs O(V * k_max); branching makes at most about 1.62^b search nodes
    on budget b, and no more than one component's size allows, so the
    search is exponential in the budget and in one component at most,
    never in the whole graph.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    bit = {}  # vertex -> bit index, in order of first appearance
    pairs = [
        (bit.setdefault(u, len(bit)), bit.setdefault(v, len(bit))) for u, v in graph.edges
    ]
    nbr = [0] * len(bit)
    for a, b in pairs:
        nbr[a] |= 1 << b
        nbr[b] |= 1 << a
    return _cover_search(nbr, (1 << len(nbr)) - 1, k_max)


def _cover_search(nbr, alive, budget):
    """Minimum cover of the edges among the vertex bits ``alive`` if it is
    at most ``budget``, else None; ``nbr[t]`` is vertex t's neighbour mask."""
    size = 0
    while True:
        degree = {}
        leaves = []
        for t, mask in enumerate(nbr):
            if alive >> t & 1:
                d = (mask & alive).bit_count()
                if d:
                    degree[t] = d
                    if d == 1:
                        leaves.append(t)
        if not degree:
            return size
        if leaves:
            # some minimum cover contains a leaf's only neighbour; taking
            # one can only leave later leaves isolated or removed
            for t in leaves:
                if alive >> t & 1 and nbr[t] & alive:
                    if budget == 0:
                        return None
                    alive ^= nbr[t] & alive
                    budget -= 1
                    size += 1
            continue
        # any cover within budget contains every vertex of larger degree
        heavy = [t for t, d in degree.items() if d > budget]
        if not heavy:
            break
        if len(heavy) > budget:
            return None
        for t in heavy:
            alive ^= 1 << t
        budget -= len(heavy)
        size += len(heavy)

    if sum(degree.values()) > 2 * budget * budget:
        return None  # budget vertices of degree <= budget cover too little
    comps = []
    rest = sum(1 << t for t in degree)  # the vertices that still have edges
    while rest:
        comps.append(_component(nbr, rest))
        rest ^= comps[-1]
    if len(comps) > 1:
        for comp in comps:
            found = _cover_search(nbr, comp, budget)
            if found is None:
                return None
            budget -= found
            size += found
        return size

    alive = comps[0]
    v = max(degree, key=degree.get)
    best = _cover_search(nbr, alive ^ (1 << v), budget - 1)
    if best is not None:
        best += 1
    d = degree[v]
    cap = budget - d if best is None else best - 1 - d
    if cap >= 0:
        found = _cover_search(nbr, alive & ~(nbr[v] | 1 << v), cap)
        if found is not None:
            best = d + found
    return None if best is None else size + best


def _component(nbr, alive):
    """The connected component, within ``alive``, of its lowest vertex bit."""
    comp = frontier = alive & -alive
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            reach |= nbr[low.bit_length() - 1]
        frontier = reach & alive & ~comp
        comp |= frontier
    return comp


def _min_fill_run(graph: UndirectedGraph, width_cap=None):
    """Min-fill elimination (ties: min degree, then lowest id).

    Returns (bags, order, position), or None when ``width_cap`` is given and
    the elimination would create a bag of more than width_cap + 1 vertices.
    The capped probe runs the identical algorithm, so a non-None result is
    exactly what the uncapped run would produce; bounded bag sizes keep every
    capped step cheap, which is what lets the classifier answer "is the
    heuristic width small?" without paying for a full decomposition.

    Treewidth is at least the minimum degree, and whichever vertex goes
    first has at least that many neighbours, so a capped run on a graph
    whose minimum degree exceeds the cap returns None after one O(V + E)
    pass, before any fill count is computed.  Otherwise each vertex keeps
    its fill count, the neighbour pairs that are not adjacent, computed once
    as C(d, 2) minus half the sum over its neighbours u of |N(u) & N|.
    Eliminating v changes only two kinds of count: a neighbour of v loses v
    and gains fill edges, so it is recounted, and a vertex outside N(v)
    adjacent to both ends of a new fill edge loses one missing pair, so it
    is decremented.  A step therefore costs one set intersection per new
    fill edge plus the recount of N(v), instead of a pair scan of every
    vertex within two hops.
    """
    n = graph.n
    adj = [set() for _ in range(n)]
    for u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)
    if width_cap is not None and min(map(len, adj), default=0) > width_cap:
        return None

    def fill_count(v):
        nbrs = adj[v]
        d = len(nbrs)
        return d * (d - 1) // 2 - sum([len(adj[u] & nbrs) for u in nbrs]) // 2

    fill = [fill_count(v) for v in range(n)]
    # Lazy heap of (fill, degree, vertex); stale entries are skipped by
    # comparing against the current counts.
    heap = [(fill[v], len(adj[v]), v) for v in range(n)]
    heapq.heapify(heap)

    eliminated = [False] * n
    order = []
    position = {}
    bags = []
    for _ in range(n):
        while True:
            f, deg, v = heapq.heappop(heap)
            if not eliminated[v] and f == fill[v] and deg == len(adj[v]):
                break
        nbrs = adj[v]
        if width_cap is not None and len(nbrs) > width_cap:
            return None
        ordered = sorted(nbrs)
        bags.append(frozenset([v] + ordered))
        position[v] = len(order)
        order.append(v)
        eliminated[v] = True
        changed = set(nbrs)
        for a, x in enumerate(ordered):
            adj_x = adj[x]
            for y in ordered[a + 1:]:
                if y not in adj_x:
                    # v and the rest of N(v) are in common too; the one
                    # is gone and the others are recounted below
                    common = adj_x & adj[y]
                    for w in common:
                        fill[w] -= 1
                    changed |= common
                    adj_x.add(y)
                    adj[y].add(x)
        for u in nbrs:
            adj[u].discard(v)
            fill[u] = fill_count(u)  # v is out of N(u), so of every count
        for u in changed:
            heapq.heappush(heap, (fill[u], len(adj[u]), u))
    return bags, order, position


def heuristic_tree_decomposition(graph: UndirectedGraph, width_cap=None) -> Optional[TreeDecomposition]:
    """Tree decomposition from a min-fill elimination ordering.

    Ties are broken by minimum degree, then lowest vertex id.  The resulting
    width is an upper bound on the treewidth; the tree-decomposition solver
    is correct for any valid decomposition, only its speed varies.  With
    ``width_cap`` the run stops, returning None, as soon as a bag would hold
    more than width_cap + 1 vertices, so it stays fast on graphs whose width
    is far past the cap; a run that finishes is the uncapped one.
    """
    if graph.n == 0:
        return TreeDecomposition((frozenset(),), ())
    result = _min_fill_run(graph, width_cap)
    if result is None:
        return None
    bags, order, position = result

    edges = []
    for idx, v in enumerate(order[:-1]):
        later = [u for u in bags[idx] if u != v and position[u] > idx]
        if later:
            parent = min(later, key=lambda u: position[u])
            edges.append((idx, position[parent]))
        else:
            # Bag finished a component; hang it off the final bag to keep a tree.
            edges.append((idx, len(order) - 1))
    return TreeDecomposition(tuple(bags), tuple(edges))


def verify_decomposition(graph: UndirectedGraph, decomposition: TreeDecomposition) -> Optional[str]:
    """None when the three decomposition conditions hold, else what failed.

    Bags are indexed by vertex: O(sum of bag sizes), plus per graph edge the
    number of bags holding the rarer of its ends.
    """
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

    # The bags holding a vertex span a subtree exactly when the tree edges
    # between two of them are one fewer than they are.
    bags = [frozenset(bag) for bag in bags]
    holding = {}
    for i, bag in enumerate(bags):
        for v in bag:
            holding.setdefault(v, set()).add(i)
    if holding.keys() != set(range(graph.n)):
        return "vertex uncovered"
    for u, v in graph.edges:
        if holding[u].isdisjoint(holding[v]):
            return "edge uncovered"
    shared = dict.fromkeys(holding, 0)
    for a, b in decomposition.edges:
        small, large = sorted((bags[a], bags[b]), key=len)
        for v in small:
            if v in large:
                shared[v] += 1
    if any(shared[v] != len(held) - 1 for v, held in holding.items()):
        return "connectivity violated"
    return None


def make_nice(decomposition: TreeDecomposition) -> NiceTreeDecomposition:
    """Normalize a decomposition to leaf/introduce/forget/join form.

    Width is preserved; the root and all leaves get empty bags.  Node count
    is O(width * |V| + |V|).
    """
    bags = [tuple(sorted(bag)) for bag in decomposition.bags]
    k = len(bags)
    tree_adj = [[] for _ in range(k)]
    for a, b in decomposition.edges:
        tree_adj[a].append(b)
        tree_adj[b].append(a)

    # Orient away from bag 0 and compute children-first order iteratively.
    parent = [-1] * k
    bfs = [0]
    seen = [False] * k
    seen[0] = True
    for a in bfs:
        for b in sorted(tree_adj[a]):
            if not seen[b]:
                seen[b] = True
                parent[b] = a
                bfs.append(b)
    children = [[] for _ in range(k)]
    for b in range(1, k):
        children[parent[b]].append(b)

    def chain_to(node: NiceNode, target_bag: tuple) -> NiceNode:
        """Forget/introduce chain morphing node's bag into target_bag."""
        current = node
        have = set(current.bag)
        want = set(target_bag)
        for v in sorted(have - want):
            have.discard(v)
            current = NiceNode("forget", tuple(sorted(have)), v, (current,))
        for v in sorted(want - have):
            have.add(v)
            current = NiceNode("introduce", tuple(sorted(have)), v, (current,))
        return current

    built = {}
    for a in reversed(bfs):
        bag = bags[a]
        subs = [chain_to(built[c], bag) for c in children[a]]
        if not subs:
            node = chain_to(NiceNode("leaf", (), None, ()), bag)
        else:
            node = subs[0]
            for other in subs[1:]:
                node = NiceNode("join", bag, None, (node, other))
        built[a] = node

    return NiceTreeDecomposition(chain_to(built[0], ()))


def classify(profile: Profile) -> AnalysisReport:
    """Recommend a solver route for each connected component of the global graph.

    One walk over the ballots, in voter order, gives each issue's delta and
    dichotomy verdict and the graph's neighbour sets; components are the
    walks over those sets from each unseen issue, ascending, and each
    component's facts and edges are gathered on its own walk.  A ballot
    whose target or premise issue lies outside the profile, whose scope
    holds its own target, or that is filed under another issue than its
    target, raises ValueError naming the voter and the issue.

    Routing order: isolated issues go to majority counting; all-binary
    group-dichotomous components go to the min-cut solver; components whose
    ballots condition on at most one issue and whose heuristic width is at
    most ``WIDTH_THRESHOLD`` go to the tree decomposition solver; those whose
    descending elimination passes the compiler's ``_scan.check_entries`` go
    to brute force; everything else is flagged intractable.
    ``applicable_routes`` is the same rule without the width bound.

    Widths come from a width-capped min-fill run, so classification stays
    fast on components whose width is far beyond the threshold; a None width
    means "exceeds WIDTH_THRESHOLD".  Only components whose route depends on
    the width (more than one issue, not MINCUT, delta <= 1) are probed here,
    and each keeps its decomposition in ``ComponentReport.decomposition``,
    the one the TREEWIDTH solver eliminates along; ``brute_fits`` is kept
    likewise.  Every other decomposition, width and ``brute_fits``, and the
    report's per-voter vertex covers, are left to their first read, so
    routing never pays for them.
    """
    m = profile.m
    dom = profile.domain_sizes()

    # The first failing ballot in voter order is the whole-profile witness,
    # exactly what is_group_dichotomous returns: before it every issue is
    # still marked ok, so every conditional ballot is checked.
    nbrs = defaultdict(set)  # no entry for isolated issues; popped once walked
    delta_by_issue = [0] * m
    gd_ok_by_issue = [True] * m
    witness = None
    for i, voter in enumerate(profile.voters):
        for j, ballot in voter.ballots.items():
            if not 0 <= j < m:
                raise ValueError(f"voter {i}, issue {j}: ballot targets an unknown issue")
            if ballot.issue != j:
                raise ValueError(
                    f"voter {i}, issue {j}: ballot filed under issue {j} "
                    f"targets issue {ballot.issue}"
                )
            scope = ballot.scope
            if not scope:
                continue
            for k in scope:
                if k == j or not 0 <= k < m:
                    raise ValueError(
                        f"voter {i}, issue {j}: premise scope {scope} holds "
                        + ("the target issue" if k == j else f"unknown issue {k}")
                    )
                nbrs[k].add(j)
            nbrs[j].update(scope)
            if len(scope) > delta_by_issue[j]:
                delta_by_issue[j] = len(scope)
            if gd_ok_by_issue[j]:
                found = _ballot_dichotomy_witness(i, ballot, dom)
                if found is not None:
                    gd_ok_by_issue[j] = False
                    if witness is None:
                        witness = found

    seen = [False] * m
    comps = []
    for start in range(m):
        if seen[start]:
            continue
        seen[start] = True
        issues = [start]
        binary = gd = True
        delta = 0
        space = 1
        edges = []
        for j in issues:
            binary = binary and dom[j] == 2
            gd = gd and gd_ok_by_issue[j]
            if delta_by_issue[j] > delta:
                delta = delta_by_issue[j]
            space *= dom[j]
            for k in nbrs.pop(j, ()):
                if j < k:
                    edges.append((j, k))
                if not seen[k]:
                    seen[k] = True
                    issues.append(k)
        issues = tuple(sorted(issues))
        edges = frozenset(edges)
        probed = len(issues) > 1 and not (binary and gd) and delta <= 1
        decomposition = _component_decomposition(issues, edges) if probed else None
        if len(issues) == 1:
            route = MAJORITY
        elif binary and gd:
            route = MINCUT
        elif decomposition is not None:
            route = TREEWIDTH
        elif _brute_fits(profile, issues, space):
            route = BRUTE
        else:
            route = INTRACTABLE
        comp = ComponentReport(issues, route, binary, gd, delta, space, edges, profile)
        if probed:
            vars(comp)["decomposition"] = decomposition  # the lazy attribute's slot
        if route in (BRUTE, INTRACTABLE):
            vars(comp)["brute_fits"] = route == BRUTE
        comps.append(comp)

    return AnalysisReport(
        delta=max(delta_by_issue, default=0),
        all_binary=all(d == 2 for d in dom),
        group_dichotomous=witness is None,
        dichotomy_witness=witness,
        components=tuple(comps),
        profile=profile,
    )


def applicable_routes(comp: ComponentReport) -> list:
    """The solvers a forced method or cross-validation may run on a component.

    This is the rule of ``classify`` without its width bound: a TREEWIDTH
    solve is exact along any decomposition, and one whose capped min-fill
    run gave up builds an uncapped one.  Only at delta <= 1 does the global
    graph's width bound its tables.  BRUTE applies iff ``brute_fits``.
    """
    routes = []
    if comp.all_binary and comp.group_dichotomous:
        routes.append(MINCUT)
    if comp.delta <= 1:
        routes.append(TREEWIDTH)
    if comp.brute_fits:
        routes.append(BRUTE)
    return routes


def _brute_fits(profile: Profile, issues, outcome_space: int) -> bool:
    """``brute_fits`` of the component on the ascending ``issues``.  Each
    ballot makes at most one factor table of at most ``outcome_space``
    entries, and descending buckets hold at most twice that many, so only a
    component past ``max(2, ballots) * outcome_space`` asks the compiler."""
    by_issue = profile.ballots_by_issue
    ballots = sum(len(by_issue[j]) for j in issues)
    if max(2, ballots) * outcome_space <= _scan.MAX_TABLE_ENTRIES:
        return True
    dom = profile.domain_sizes()
    pairs = ((j, ballot) for j in issues for _, ballot in by_issue[j])
    try:
        _scan.check_entries(_scan.group_by_axes(pairs, dom), dom, reversed(issues))
    except BudgetExceeded:
        return False
    return True


def _component_decomposition(issues, edges):
    return heuristic_tree_decomposition(_component_graph(issues, edges), WIDTH_THRESHOLD)


def _component_graph(issues, edges) -> UndirectedGraph:
    """A component's global-graph ``edges`` over sub-profile ids: issue
    ``issues[t]``, of the ascending ``issues``, is vertex ``t``."""
    index = {j: t for t, j in enumerate(issues)}
    return UndirectedGraph(
        len(issues), frozenset((index[u], index[v]) for u, v in edges)
    )
