"""Component-wise solving: classify, route, solve, merge.

The objective is additive over the connected components of the global
dependency graph, so each component is solved independently (isolated issues
by counting approvals, the rest by whichever solver the classification
recommends or the caller forces) and the partial outcomes are concatenated.
The routing rule lives in ``analysis`` alone: ``classify``
picks each component's route, and ``applicable_routes`` lists the solvers a
forced method or cross-validation may run.
TREEWIDTH components are solved along the min-fill decomposition that
``classify`` kept for them (``ComponentReport.decomposition``).
The merged outcome's cost is recomputed from scratch and checked against the
per-component sum; any disagreement aborts.

Splitting and majority counting read the profile's per-issue ballot index
(``Profile.ballots_by_issue``), so they walk only the ballots on a
component's own issues instead of every voter's ballot map.  Majority
counting walks an isolated issue's ballots once and returns the winning
alternative together with its cost.  A component's
sub-profile keeps only the voters with a ballot on it, so building it and
re-verifying the component's solution cost O(its ballots), not O(n); the
sub-solution's ``per_voter`` lists those voters only.  The dispatcher reads
just each component's outcome and cost, and the merged outcome is verified
over every voter of the full profile.  When one component is the whole
profile, the solver's own verified solution is returned instead, unless
cross-validation is on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import (
    BRUTE,
    INTRACTABLE,
    MAJORITY,
    MINCUT,
    TREEWIDTH,
    AnalysisReport,
    applicable_routes,
    classify,
)
from .brute import solve_brute
from .errors import InternalMismatch, Intractable
from .mincut import solve_mincut
from .model import IssueBallot, Profile, Solution, Voter, make_solution
from .treewidth import solve_treewidth

METHODS = ("auto", "brute", "mincut", "treewidth")


@dataclass(frozen=True)
class SolveConfig:
    method: str = "auto"
    cross_validate: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")


def restrict_profile(profile: Profile, issues) -> Profile:
    """Sub-profile over a dependency-closed issue subset, issues reindexed.

    Only the voters that hold a ballot on one of the issues are kept, in
    voter order and under their names; every other voter approves all of the
    subset and would add zero dissatisfaction there.  So the sub-profile's
    cost of any outcome equals the full profile's cost on those issues, and
    component costs add up to the full cost.  Sub-profile issue ``t`` is
    ``issues[t]``; the issues must be strictly ascending, as a component's
    are, so a remapped scope stays sorted and its premises stay aligned.
    The whole profile with its issues in order is returned as is.

    Remapping keeps the source ballots canonical, so the sub-profile's
    ballots are built directly and share their statement maps.
    """
    issues = list(issues)
    if any(a >= b for a, b in zip(issues, issues[1:])):
        raise ValueError(f"issues must be strictly ascending, got {issues}")
    if len(issues) == profile.m and issues == list(range(profile.m)):
        return profile
    index = {j: t for t, j in enumerate(issues)}
    sub_ballots = {}
    for t, j in enumerate(issues):
        for i, ballot in profile.ballots_by_issue[j]:
            scope = tuple([index[k] for k in ballot.scope])
            sub_ballots.setdefault(i, {})[t] = IssueBallot(t, scope, ballot.statements)
    return Profile(
        tuple(profile.issues[j] for j in issues),
        tuple(
            Voter(profile.voters[i].name, sub_ballots[i]) for i in sorted(sub_ballots)
        ),
    )


def majority_alternative(profile: Profile, issue: int) -> tuple:
    """(alternative, cost) for an isolated issue: its most-approved
    alternative, ties to the lowest index, and the number of ballots on the
    issue that do not approve it.

    Isolated issues only ever carry unconditional ballots, so counting
    approvals minimizes the issue's dissatisfaction contribution exactly.
    Voters without a ballot on the issue approve every alternative alike, so
    they cannot move the maximum and add no cost.
    """
    d = len(profile.issues[issue].alternatives)
    ballots = profile.ballots_by_issue[issue]
    counts = [0] * d
    for _, ballot in ballots:
        approved = ballot.statements[()]
        for a in range(d):
            counts[a] += approved >> a & 1
    alt = max(range(d), key=lambda a: (counts[a], -a))
    return alt, len(ballots) - counts[alt]


def _solve(route: str, comp, sub: Profile) -> Solution:
    if route == BRUTE:
        return solve_brute(sub)
    if route == MINCUT:
        return solve_mincut(sub)
    return solve_treewidth(sub, comp.decomposition)


def _route_override(comp, method: str, report: AnalysisReport) -> str:
    route = {"brute": BRUTE, "mincut": MINCUT, "treewidth": TREEWIDTH}[method]
    if route not in applicable_routes(comp):
        raise Intractable(report)
    return route


def solve_profile(profile: Profile, config: SolveConfig = SolveConfig()) -> Solution:
    """Solve component-wise and merge; raises Intractable with the analysis
    report when some component has no applicable route."""
    report = classify(profile)

    plan = []
    for comp in report.components:
        if config.method != "auto":
            route = _route_override(comp, config.method, report)
        else:
            route = comp.route
            if route == INTRACTABLE:
                raise Intractable(report)
        plan.append((comp, route))

    assignment = {}
    component_total = 0
    routes_used = []
    for comp, route in plan:
        sub = None
        if route == MAJORITY:
            (issue,) = comp.issues
            assignment[issue], cost = majority_alternative(profile, issue)
        else:
            sub = restrict_profile(profile, comp.issues)
            solution = _solve(route, comp, sub)
            if sub is profile and not config.cross_validate:
                # The one component is the whole profile, and the solver has
                # verified its outcome over every voter already.
                return solution
            assignment.update(zip(comp.issues, solution.outcome))
            cost = solution.cost
        if config.cross_validate:
            checked = [cost]
            for other in applicable_routes(comp):
                if other == route:
                    continue
                if sub is None:
                    sub = restrict_profile(profile, comp.issues)
                checked.append(_solve(other, comp, sub).cost)
            if len(set(checked)) > 1:
                raise InternalMismatch(
                    f"solvers disagree on component {comp.issues}: {checked}"
                )
        component_total += cost
        if route not in routes_used:
            routes_used.append(route)

    outcome = tuple(assignment[j] for j in range(profile.m))
    solution = make_solution(profile, outcome, "+".join(r.lower() for r in routes_used))
    if solution.cost != component_total:
        raise InternalMismatch(
            f"component costs sum to {component_total} but the merged outcome "
            f"re-evaluates to {solution.cost}"
        )
    return solution
