"""Structural analysis of profiles: dependency graphs, group-dichotomy,
vertex covers, tree decompositions and the solver-routing classification.

Everything here is deterministic: ties are broken toward the lowest vertex
id so reports and decompositions are reproducible run to run.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .model import Profile

MAJORITY = "MAJORITY"
MINCUT = "MINCUT"
TREEWIDTH = "TREEWIDTH"
BRUTE = "BRUTE"
INTRACTABLE = "INTRACTABLE"

DEFAULT_WIDTH_THRESHOLD = 8
DEFAULT_BRUTE_BUDGET = 10_000_000

# Per-voter vertex covers in reports are computed exactly up to this bound;
# larger covers are reported as "exceeds".
VC_REPORT_CAP = 12


@dataclass(frozen=True)
class DirectedGraph:
    """A voter's dependency graph: edge (k, j) when issue j is conditioned on k."""

    n: int
    edges: frozenset


@dataclass(frozen=True)
class UndirectedGraph:
    """Simple undirected graph over issue ids; edges are (min, max) pairs."""

    n: int
    edges: frozenset

    def adjacency(self) -> list:
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def components(self) -> list:
        """Connected components as sorted vertex lists, ordered by smallest member."""
        adj = self.adjacency()
        seen = [False] * self.n
        out = []
        for start in range(self.n):
            if seen[start]:
                continue
            queue = [start]
            seen[start] = True
            comp = []
            while queue:
                u = queue.pop()
                comp.append(u)
                for v in adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        queue.append(v)
            out.append(sorted(comp))
        return out


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

    @property
    def width(self) -> int:
        return max(len(node.bag) for node in self.postorder()) - 1

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

    def to_decomposition(self) -> TreeDecomposition:
        nodes = self.postorder()
        index = {id(node): i for i, node in enumerate(nodes)}
        bags = tuple(frozenset(node.bag) for node in nodes)
        edges = tuple(
            (index[id(node)], index[id(child)])
            for node in nodes
            for child in node.children
        )
        return TreeDecomposition(bags, edges)


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
    issues: tuple
    route: str
    all_binary: bool
    group_dichotomous: bool
    delta: int
    heuristic_width: Optional[int]  # None: exceeds the routing width threshold
    outcome_space: int


@dataclass(frozen=True)
class AnalysisReport:
    delta: int
    all_binary: bool
    group_dichotomous: bool
    dichotomy_witness: Optional[DichotomyWitness]
    component_count: int
    heuristic_width: Optional[int]  # None when some component exceeds the threshold
    components: tuple
    profile: Profile = field(compare=False, repr=False)

    @cached_property
    def per_voter_vertex_cover(self) -> tuple:
        """Each voter's vertex cover number, or None when it exceeds VC_REPORT_CAP.

        Routing never reads these, so they are computed on first read only.
        """
        covers = []
        for i in range(self.profile.n):
            voter_graph = build_voter_graph(self.profile, i)
            undirected = UndirectedGraph(
                self.profile.m,
                frozenset((min(u, v), max(u, v)) for u, v in voter_graph.edges),
            )
            covers.append(vertex_cover_number(undirected, VC_REPORT_CAP))
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


def build_voter_graph(profile: Profile, voter: int) -> DirectedGraph:
    """Directed dependency graph read off one voter's premise scopes."""
    edges = frozenset(
        (k, ballot.issue)
        for ballot in profile.voters[voter].ballots.values()
        for k in ballot.scope
    )
    return DirectedGraph(profile.m, edges)


def build_global_graph(profile: Profile) -> UndirectedGraph:
    """Undirected union of all voter graphs, directions and multiplicities dropped."""
    edges = set()
    for voter in profile.voters:
        for ballot in voter.ballots.values():
            for k in ballot.scope:
                edges.add((min(k, ballot.issue), max(k, ballot.issue)))
    return UndirectedGraph(profile.m, frozenset(edges))


def max_in_degree(profile: Profile, issues=None) -> int:
    """Largest premise scope over all voters (restricted to ``issues`` if given)."""
    keep = None if issues is None else set(issues)
    best = 0
    for voter in profile.voters:
        for ballot in voter.ballots.values():
            if keep is not None and ballot.issue not in keep:
                continue
            if len(ballot.scope) > best:
                best = len(ballot.scope)
    return best


def is_group_dichotomous(profile: Profile, issues=None):
    """Check every conditional statement against the group-dichotomous shapes.

    A conditional statement on a binary issue qualifies when its approval set
    is {0} with an all-0 premise, {1} with an all-1 premise, or {0, 1} with a
    premise that is all-0 or all-1.  Unconditional ballots are never checked.
    Returns (ok, witness); the witness points at the first offending statement.
    """
    keep = None if issues is None else set(issues)
    dom = profile.domain_sizes()
    for i, voter in enumerate(profile.voters):
        for ballot in voter.ballots.values():
            if not ballot.scope:
                continue
            j = ballot.issue
            if keep is not None and j not in keep:
                continue
            witness = _ballot_dichotomy_witness(i, ballot, dom)
            if witness is not None:
                return False, witness
    return True, None


def _ballot_dichotomy_witness(voter: int, ballot, dom):
    j = ballot.issue
    if dom[j] != 2:
        return DichotomyWitness(
            voter, j, None, f"conditional ballot on non-binary issue ({dom[j]} alternatives)"
        )
    for premise in sorted(ballot.statements):
        approved = ballot.statements[premise]
        all_zero = all(v == 0 for v in premise)
        all_one = all(v == 1 for v in premise)
        if approved == frozenset({0}):
            ok = all_zero
        elif approved == frozenset({1}):
            ok = all_one
        elif approved == frozenset({0, 1}):
            ok = all_zero or all_one
        else:
            ok = False
        if not ok:
            return DichotomyWitness(
                voter,
                j,
                premise,
                f"statement {premise} -> {sorted(approved)} matches no allowed shape",
            )
    return None


def vertex_cover_number(graph, k_max: int) -> Optional[int]:
    """Exact minimum vertex cover size if it is at most ``k_max``, else None.

    The minimum cover of a graph is the sum of its connected components'
    minimum covers, so the edges are split into components first and each
    is searched with the budget the earlier ones left; the answer is None
    as soon as one component does not fit.  Within a component a bounded
    search tree branches on a highest-degree vertex and one neighbor of it.
    Before branching, three exact reductions apply: a degree-1 vertex puts
    its only neighbor into the cover (some minimum cover contains it), any
    vertex with more than budget neighbors is forced into the cover (a
    smaller cover would need all its neighbors), and more than budget^2
    leftover edges cannot be covered at all.  Every step puts a vertex of
    the component into the cover, so a component of V_c vertices and E_c
    edges costs O(2^d * E_c) with d = min(V_c, budget left): the search is
    exponential in one component's size at most, never in the whole graph,
    and a forest, where the leaf rule always applies, takes O(V_c * E_c).
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")

    def search(remaining, budget):
        if not remaining:
            return 0
        if budget <= 0:
            return None
        degree = {}
        for u, v in remaining:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        leaves = [v for v, d in degree.items() if d == 1]
        if leaves:
            # some minimum cover contains the leaf's only neighbor
            leaf = min(leaves)
            w = next(v for e in remaining if leaf in e for v in e if v != leaf)
            sub = search([e for e in remaining if w not in e], budget - 1)
            return None if sub is None else 1 + sub
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

    total = 0
    for edges in _edge_components(graph.edges):
        size = search(edges, k_max - total)
        if size is None:
            return None
        total += size
    return total


def _edge_components(edges) -> list:
    """Undirected edges as sorted (min, max) pairs, grouped by connected component."""
    pairs = sorted((u, v) if u < v else (v, u) for u, v in edges)
    adj = {}
    for u, v in pairs:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    root = {}
    for start in adj:
        if start in root:
            continue
        root[start] = start
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in root:
                    root[w] = start
                    stack.append(w)
    groups = {}
    for e in pairs:
        groups.setdefault(root[e[0]], []).append(e)
    return list(groups.values())


def _min_fill_run(graph: UndirectedGraph, width_cap=None):
    """Min-fill elimination (ties: min degree, then lowest id).

    Returns (bags, order, position), or None when ``width_cap`` is given and
    the elimination would create a bag of more than width_cap + 1 vertices.
    The capped probe runs the identical algorithm, so a non-None result is
    exactly what the uncapped run would produce; bounded bag sizes keep every
    capped step cheap, which is what lets the classifier answer "is the
    heuristic width small?" without paying for a full decomposition.
    """
    n = graph.n
    adj = {v: set() for v in range(n)}
    for u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)

    def fill_cost(v):
        nbrs = sorted(adj[v])
        missing = 0
        for a in range(len(nbrs)):
            for b in range(a + 1, len(nbrs)):
                if nbrs[b] not in adj[nbrs[a]]:
                    missing += 1
        return missing

    # Lazy heap of (fill, degree, vertex); stale entries are skipped by
    # comparing against the current cost.
    current = {v: (fill_cost(v), len(adj[v])) for v in range(n)}
    heap = [(fill, deg, v) for v, (fill, deg) in current.items()]
    heapq.heapify(heap)

    order = []
    position = {}
    bags = []
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
        touched = set(nbrs)
        for a in range(len(nbrs)):
            for b in range(a + 1, len(nbrs)):
                x, y = nbrs[a], nbrs[b]
                if y not in adj[x]:
                    adj[x].add(y)
                    adj[y].add(x)
        for u in nbrs:
            adj[u].discard(v)
            touched.update(adj[u])
        del adj[v]
        del current[v]
        touched.discard(v)
        for u in touched:
            if u in adj:
                entry = (fill_cost(u), len(adj[u]))
                if current[u] != entry:
                    current[u] = entry
                    heapq.heappush(heap, (entry[0], entry[1], u))
    return bags, order, position


def heuristic_tree_decomposition(graph: UndirectedGraph) -> TreeDecomposition:
    """Tree decomposition from a min-fill elimination ordering.

    Ties are broken by minimum degree, then lowest vertex id.  The resulting
    width is an upper bound on the treewidth; downstream dynamic programs are
    correct for any valid decomposition, only their speed varies.
    """
    if graph.n == 0:
        return TreeDecomposition((frozenset(),), ())
    bags, order, position = _min_fill_run(graph)

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


def min_fill_width(graph: UndirectedGraph, width_cap: int):
    """Width of the min-fill decomposition if at most ``width_cap``, else None.

    The capped run aborts as soon as the vertex it is about to eliminate has
    too large a bag, so this stays fast on graphs whose width is way past the
    cap; a non-None answer equals heuristic_tree_decomposition(graph).width.
    """
    if graph.n == 0:
        return 0
    result = _min_fill_run(graph, width_cap=width_cap)
    if result is None:
        return None
    bags, _, _ = result
    return max(len(bag) for bag in bags) - 1


def verify_decomposition(graph: UndirectedGraph, decomposition: TreeDecomposition) -> Optional[str]:
    """None when the three decomposition conditions hold, else what failed."""
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
    seen = [False] * k
    stack = [0]
    seen[0] = True
    reached = 1
    while stack:
        a = stack.pop()
        for b in tree_adj[a]:
            if not seen[b]:
                seen[b] = True
                reached += 1
                stack.append(b)
    if reached != k:
        return "not a tree"

    covered = set().union(*bags) if bags else set()
    if covered != set(range(graph.n)):
        return "vertex uncovered"
    for u, v in graph.edges:
        if not any(u in bag and v in bag for bag in bags):
            return "edge uncovered"
    for v in range(graph.n):
        holding = [i for i, bag in enumerate(bags) if v in bag]
        seen_v = {holding[0]}
        stack = [holding[0]]
        holding_set = set(holding)
        while stack:
            a = stack.pop()
            for b in tree_adj[a]:
                if b in holding_set and b not in seen_v:
                    seen_v.add(b)
                    stack.append(b)
        if len(seen_v) != len(holding):
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


def component_outcome_space(profile: Profile, issues) -> int:
    dom = profile.domain_sizes()
    return math.prod(dom[j] for j in issues)


def classify(
    profile: Profile,
    width_threshold: int = DEFAULT_WIDTH_THRESHOLD,
    brute_budget: int = DEFAULT_BRUTE_BUDGET,
) -> AnalysisReport:
    """Recommend a solver route for each connected component of the global graph.

    Routing order: isolated issues go to majority counting; all-binary
    group-dichotomous components go to the min-cut solver; components whose
    ballots condition on at most one issue and whose heuristic width is small
    go to the tree decomposition solver; small outcome spaces go to brute
    force; everything else is flagged intractable.

    Widths come from a width-capped min-fill probe, so classification stays
    fast on components whose width is far beyond the threshold; a None width
    means "exceeds width_threshold".  The report's per-voter vertex covers
    are left to its first read, so routing never pays for them.
    """
    graph = build_global_graph(profile)
    dom = profile.domain_sizes()

    # One pass over all ballots; component checks then only touch their
    # issues.  The first failing ballot in voter order is the whole-profile
    # witness, exactly what is_group_dichotomous(profile) returns: before it
    # every issue is still marked ok, so every conditional ballot is checked.
    delta_by_issue = [0] * profile.m
    gd_ok_by_issue = [True] * profile.m
    witness = None
    for i, voter in enumerate(profile.voters):
        for j, ballot in voter.ballots.items():
            if len(ballot.scope) > delta_by_issue[j]:
                delta_by_issue[j] = len(ballot.scope)
            if ballot.scope and gd_ok_by_issue[j]:
                found = _ballot_dichotomy_witness(i, ballot, dom)
                if found is not None:
                    gd_ok_by_issue[j] = False
                    if witness is None:
                        witness = found

    edges_by_issue = [[] for _ in range(profile.m)]
    for e in graph.edges:
        edges_by_issue[e[0]].append(e)

    comps = []
    for issues in graph.components():
        issues_t = tuple(issues)
        binary = all(dom[j] == 2 for j in issues)
        gd = all(gd_ok_by_issue[j] for j in issues)
        delta = max(delta_by_issue[j] for j in issues)
        sub_edges = frozenset(e for j in issues for e in edges_by_issue[j])
        width = _component_width(issues, sub_edges, width_threshold)
        space = component_outcome_space(profile, issues)
        if len(issues) == 1:
            route = MAJORITY
        elif binary and gd:
            route = MINCUT
        elif delta <= 1 and width is not None:
            route = TREEWIDTH
        elif space <= brute_budget:
            route = BRUTE
        else:
            route = INTRACTABLE
        comps.append(
            ComponentReport(issues_t, route, binary, gd, delta, width, space)
        )

    widths = [c.heuristic_width for c in comps]
    whole_width = None if any(w is None for w in widths) else max(widths, default=0)

    return AnalysisReport(
        delta=max(delta_by_issue, default=0),
        all_binary=all(d == 2 for d in dom),
        group_dichotomous=witness is None,
        dichotomy_witness=witness,
        component_count=len(comps),
        heuristic_width=whole_width,
        components=tuple(comps),
        profile=profile,
    )


def _component_width(issues, edges, width_cap: int):
    index = {j: t for t, j in enumerate(issues)}
    sub = UndirectedGraph(
        len(issues), frozenset((index[u], index[v]) for u, v in edges)
    )
    return min_fill_width(sub, width_cap)
