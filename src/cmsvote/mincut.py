"""Polynomial optimal solver for group-dichotomous binary instances.

Pipeline: profile -> weighted constraints, each a disjunction of one
all-positive and/or one all-negative conjunction -> s-t min-cut network ->
outcome read off the cut.  A variable node on the source side of the cut
means the issue is decided 1.  The solution cost is always re-verified
against the dissatisfaction semantics; disagreement aborts the run, since it
would signal a bug in the reduction or the flow kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from . import _dinic
from .analysis import is_group_dichotomous
from .errors import InternalMismatch, NotGroupDichotomous
from .model import Profile, Solution, make_solution

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class TwoMonotoneConstraint:
    """Weighted constraint (AND of pos) OR (AND of negated neg).

    A term that is None is absent; at least one term is present.  The
    constraint is violated by an assignment exactly when every present term
    evaluates false, and each violation costs ``weight``.
    """

    pos: Optional[frozenset]
    neg: Optional[frozenset]
    weight: int

    def violated(self, assignment) -> bool:
        if self.pos is not None and all(assignment[v] == 1 for v in self.pos):
            return False
        if self.neg is not None and all(assignment[v] == 0 for v in self.neg):
            return False
        return True


@dataclass(frozen=True)
class FlowNetwork:
    """Min-cut gadget network; variable ``v`` lives at node ``var_base + v``."""

    n_nodes: int
    source: int
    sink: int
    head: np.ndarray
    nxt: np.ndarray
    to: np.ndarray
    cap: np.ndarray
    inf: int
    var_base: int
    n_vars: int


def compile_constraints(profile: Profile):
    """Translate a group-dichotomous binary profile into weighted constraints.

    Returns (constraints, base_cost).  For every assignment, base_cost plus
    the weighted count of violated constraints equals the total
    dissatisfaction of the corresponding outcome.  Identical constraints are
    merged by summing weights.
    """
    dom = profile.domain_sizes()
    bad = next((j for j, d in enumerate(dom) if d != 2), None)
    if bad is not None:
        raise NotGroupDichotomous(
            f"issue {bad} has {dom[bad]} alternatives; the reduction needs binary issues"
        )
    ok, witness = is_group_dichotomous(profile)
    if not ok:
        raise NotGroupDichotomous(witness)

    weights = {}
    base_cost = 0
    for voter in profile.voters:
        for j, ballot in sorted(voter.ballots.items()):
            if not ballot.scope:
                approved = ballot.statements[()]
                if len(approved) == 2:
                    continue  # satisfied either way, no constraint
                if approved == frozenset({1}):
                    key = (frozenset({j}), None)
                else:
                    key = (None, frozenset({j}))
                weights[key] = weights.get(key, 0) + 1
                continue
            if not ballot.statements:
                base_cost += 1  # no premise can ever match
                continue
            size = len(ballot.scope)
            low = ballot.statements.get((0,) * size)
            high = ballot.statements.get((1,) * size)
            neg = None
            pos = None
            if low is not None:
                members = set(ballot.scope)
                if low == frozenset({0}):
                    members.add(j)
                neg = frozenset(members)
            if high is not None:
                members = set(ballot.scope)
                if high == frozenset({1}):
                    members.add(j)
                pos = frozenset(members)
            key = (pos, neg)
            weights[key] = weights.get(key, 0) + 1

    def sort_key(item):
        pos, neg = item[0]
        return (
            pos is None,
            tuple(sorted(pos)) if pos is not None else (),
            neg is None,
            tuple(sorted(neg)) if neg is not None else (),
        )

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
    inf = sum(c.weight for c in constraints) + 1
    source, sink = 0, 1
    var_base = 2
    n_nodes = var_base + n_vars
    arcs = []  # deferred so auxiliary node ids can be assigned in order
    for c in constraints:
        pos = c.pos
        neg = c.neg
        if pos is not None and neg is not None:
            a = n_nodes
            b = n_nodes + 1
            n_nodes += 2
            arcs.append((a, b, c.weight))
            for j in sorted(neg):
                arcs.append((var_base + j, a, inf))
            for i in sorted(pos):
                arcs.append((b, var_base + i, inf))
        elif neg is not None:
            if len(neg) == 1:
                (j,) = neg
                arcs.append((var_base + j, sink, c.weight))
            else:
                a = n_nodes
                n_nodes += 1
                for j in sorted(neg):
                    arcs.append((var_base + j, a, inf))
                arcs.append((a, sink, c.weight))
        else:
            if len(pos) == 1:
                (i,) = pos
                arcs.append((source, var_base + i, c.weight))
            else:
                b = n_nodes
                n_nodes += 1
                arcs.append((source, b, c.weight))
                for i in sorted(pos):
                    arcs.append((b, var_base + i, inf))

    builder = _dinic.ArcListBuilder(n_nodes)
    for u, v, capacity in arcs:
        builder.add_arc(u, v, capacity)
    head, nxt, to, cap = builder.done()
    return FlowNetwork(
        n_nodes=n_nodes,
        source=source,
        sink=sink,
        head=head,
        nxt=nxt,
        to=to,
        cap=cap,
        inf=inf,
        var_base=var_base,
        n_vars=n_vars,
    )


def max_flow_min_cut(network: FlowNetwork):
    """Exact max flow value (= min cut) and the residual source-side node set."""
    import numpy as np

    flow, side = _dinic.max_flow(
        network.n_nodes,
        network.source,
        network.sink,
        network.head,
        network.nxt,
        network.to,
        network.cap,
    )
    return flow, frozenset(int(v) for v in np.nonzero(side)[0])


def solve_mincut(profile: Profile) -> Solution:
    """Optimal outcome for a group-dichotomous binary profile via min-cut."""
    constraints, base_cost = compile_constraints(profile)
    network = build_network(constraints, profile.m)
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
