"""Polynomial optimal solver for group-dichotomous binary instances.

Pipeline: profile -> weighted constraints, each a disjunction of one
all-positive and/or one all-negative conjunction -> s-t min-cut network ->
outcome read off the cut.  A variable node on the source side of the cut
means the issue is decided 1.  The whole route runs on plain Python
containers: one pass over the ballots checks their shape and compiles them
to named tuples whose terms are sorted issue tuples, one pass over those
builds the network as per-node arc-id lists, and ``solve_mincut`` drops the
constraints before ``_flow.max_flow`` (a shortest-augmenting-path max flow
with global relabelling) runs on the lists, so a MINCUT solve never imports
numpy.  The solution cost is always re-verified against the dissatisfaction
semantics; disagreement aborts the run, since it would signal a bug in the
reduction or the flow kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple, Optional

from . import _flow
from .analysis import _ONE, _ZERO, _ballot_dichotomy_witness, dichotomy_terms
from .errors import InternalMismatch, NotGroupDichotomous
from .model import Profile, Solution, approves_all, make_solution


class TwoMonotoneConstraint(NamedTuple):
    """Weighted constraint (AND of pos) OR (AND of negated neg).

    Each term is a sorted tuple of issues, or None when absent; at least one
    term is present.  The constraint is violated by an assignment exactly
    when every present term evaluates false, and each violation costs
    ``weight``.
    """

    pos: Optional[tuple]
    neg: Optional[tuple]
    weight: int


@dataclass(frozen=True)
class FlowNetwork:
    """Min-cut gadget network; variable ``v`` lives at node ``var_base + v``.

    Nodes are ``0 .. n_nodes - 1``, among them ``source`` and ``sink``.
    ``out[u]`` lists the ids of the arcs leaving node ``u``; arc ``e`` runs
    to ``to[e]`` with capacity ``cap[e]``, and its reverse is arc ``e ^ 1``,
    which starts with capacity 0.  These are the lists ``_flow.max_flow``
    reads; it works on a copy of ``cap``.
    """

    n_nodes: int
    source: int
    sink: int
    out: list
    to: list
    cap: list
    var_base: int


def compile_constraints(profile: Profile):
    """Translate a group-dichotomous binary profile into weighted constraints.

    Returns (constraints, base_cost).  For every assignment, base_cost plus
    the weighted count of violated constraints equals the total
    dissatisfaction of the corresponding outcome.  Identical constraints are
    merged by summing weights, and the list is sorted.  A term equal to a
    ballot's scope is that scope tuple itself.  Each conditional ballot's
    group-dichotomous shape is checked as it is read; the first ballot that
    fails raises ``NotGroupDichotomous`` with the witness
    ``is_group_dichotomous`` gives.  A ballot that no outcome can satisfy
    (an empty approval set, or a conditional ballot with no statements) adds
    one to base_cost.
    """
    dom = profile.domain_sizes()
    bad = next((j for j, d in enumerate(dom) if d != 2), None)
    if bad is not None:
        raise NotGroupDichotomous(
            f"issue {bad} has {dom[bad]} alternatives; the reduction needs binary issues"
        )

    # Keys are (pos, neg) as sorted tuples, the constraints' own terms, so
    # identical constraints merge and sort as they are.
    weights = {}
    base_cost = 0
    for i, voter in enumerate(profile.voters):
        for j, ballot in voter.ballots.items():
            scope = ballot.scope
            statements = ballot.statements
            if not scope:
                if approves_all(ballot, 2):
                    continue  # satisfied either way, no constraint
                approved = statements[()]
                if not approved:
                    base_cost += 1  # satisfied by neither alternative
                    continue
                key = ((j,), None) if approved == _ONE else (None, (j,))
            elif not statements:
                base_cost += 1  # no premise can ever match
                continue
            else:
                terms = dichotomy_terms(ballot)
                if terms is None:
                    raise NotGroupDichotomous(_ballot_dichotomy_witness(i, ballot, dom))
                low, high = terms
                if low == _ZERO or high == _ONE:
                    with_j = tuple(sorted((*scope, j)))
                neg = pos = None
                if low is not None:
                    neg = with_j if low == _ZERO else scope
                if high is not None:
                    pos = with_j if high == _ONE else scope
                key = (pos, neg)
            weights[key] = weights.get(key, 0) + 1

    def sort_key(item):
        pos, neg = item[0]
        return (pos is None, pos or (), neg is None, neg or ())

    constraints = [
        TwoMonotoneConstraint(pos, neg, weight)
        for (pos, neg), weight in sorted(weights.items(), key=sort_key)
    ]
    return constraints, base_cost


def build_network(constraints, n_vars: int) -> FlowNetwork:
    """Arrange the constraints as an s-t cut problem.

    Per constraint of weight w: with both terms present, an arc a -> b of
    capacity w is shielded by infinite arcs from the negative-term variables
    into a and from b into the positive-term variables; single-term
    constraints drop the unused auxiliary node, and single-literal terms
    connect the variable straight to the source or sink.  The cheapest cut
    consistent with any variable assignment then pays exactly the weighted
    violations of that assignment.
    """
    inf = sum(w for _, _, w in constraints) + 1
    source, sink = 0, 1
    var_base = 2
    # One int object per variable node, shared by every arc that ends there.
    var = list(range(var_base, var_base + n_vars))
    out = [[] for _ in range(var_base + n_vars)]
    to = []
    cap = []
    for pos, neg, w in constraints:
        if neg is None:
            a, into = source, ()
        elif pos is None and len(neg) == 1:
            a, into = var[neg[0]], ()
        else:
            a, into = len(out), neg
            out.append([])
        if pos is None:
            b, fan = sink, ()
        elif neg is None and len(pos) == 1:
            b, fan = var[pos[0]], ()
        else:
            b, fan = len(out), pos
            out.append([])
        a_out = out[a]
        b_out = out[b]
        e = len(to)
        a_out.append(e)
        b_out.append(e + 1)
        to += (b, a)
        cap += (w, 0)
        for j in into:
            u = var[j]
            e = len(to)
            out[u].append(e)
            a_out.append(e + 1)
            to += (a, u)
            cap += (inf, 0)
        for i in fan:
            v = var[i]
            e = len(to)
            b_out.append(e)
            out[v].append(e + 1)
            to += (v, b)
            cap += (inf, 0)

    return FlowNetwork(
        n_nodes=len(out),
        source=source,
        sink=sink,
        out=out,
        to=to,
        cap=cap,
        var_base=var_base,
    )


def max_flow_min_cut(network: FlowNetwork):
    """Exact max flow value (= min cut) and the residual source-side node set.

    The source side is the set of nodes reachable from the source in the
    final residual graph: the smallest source side of any minimum cut, the
    same whichever maximum flow the kernel finds.
    """
    flow, side = _flow.max_flow(
        network.n_nodes,
        network.source,
        network.sink,
        network.out,
        network.to,
        network.cap,
    )
    return flow, frozenset(compress(range(network.n_nodes), side))


def solve_mincut(profile: Profile) -> Solution:
    """Optimal outcome for a group-dichotomous binary profile via min-cut."""
    constraints, base_cost = compile_constraints(profile)
    network = build_network(constraints, profile.m)
    del constraints  # freed before the flow runs
    cut_value, source_side = max_flow_min_cut(network)
    outcome = tuple(
        1 if (network.var_base + j) in source_side else 0 for j in range(profile.m)
    )
    expected = base_cost + cut_value
    solution = make_solution(profile, outcome, "mincut")
    if solution.cost != expected:
        raise InternalMismatch(
            f"cut promises cost {expected} but the outcome re-evaluates to {solution.cost}"
        )
    return solution
