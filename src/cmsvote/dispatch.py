"""Component-wise solving: classify, route, solve, merge.

The objective is additive over the connected components of the global
dependency graph, so each component is solved independently (isolated issues
by counting approvals, the rest by whichever solver the classification
recommends or the caller forces) and the partial outcomes are concatenated.
The merged outcome's cost is recomputed from scratch and checked against the
per-component sum; any disagreement aborts.

Splitting and majority counting read the profile's per-issue ballot index
(``Profile.ballots_by_issue``), so they walk only the ballots on a
component's own issues instead of every voter's ballot map.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import (
    BRUTE,
    DEFAULT_BRUTE_BUDGET,
    DEFAULT_WIDTH_THRESHOLD,
    INTRACTABLE,
    MAJORITY,
    MINCUT,
    TREEWIDTH,
    AnalysisReport,
    classify,
)
from .brute import solve_brute
from .errors import InternalMismatch, Intractable
from .mincut import solve_mincut
from .model import (
    Profile,
    Solution,
    issue_ballot,
    make_profile,
    make_solution,
)
from .treewidth import solve_treewidth

METHODS = ("auto", "brute", "mincut", "treewidth")


@dataclass(frozen=True)
class SolveConfig:
    method: str = "auto"
    width_threshold: int = DEFAULT_WIDTH_THRESHOLD
    brute_budget: int = DEFAULT_BRUTE_BUDGET
    cross_validate: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.width_threshold < 0 or self.brute_budget < 1:
            raise ValueError("bounds must be positive")


def restrict_profile(profile: Profile, issues) -> Profile:
    """Sub-profile over a dependency-closed issue subset, issues reindexed.

    Every voter is kept (their ballots outside the subset contribute zero
    dissatisfaction there), so component costs add up to the full cost.
    Each voter's ballots follow the order of ``issues``, which need not be
    ascending: a premise is permuted along with its scope, so that it stays
    aligned with the sorted sub-profile scope.
    """
    issues = list(issues)
    index = {j: t for t, j in enumerate(issues)}
    sub_issues = [
        (profile.issues[j].name, profile.issues[j].alternatives) for j in issues
    ]
    sub_ballots = {}
    for t, j in enumerate(issues):
        for i, ballot in profile.ballots_by_issue[j]:
            scope = [index[k] for k in ballot.scope]
            statements = ballot.statements
            if scope != sorted(scope):
                order = sorted(range(len(scope)), key=scope.__getitem__)
                statements = {
                    tuple(premise[o] for o in order): approved
                    for premise, approved in statements.items()
                }
            sub_ballots.setdefault(i, []).append(issue_ballot(t, scope, statements))
    return make_profile(
        sub_issues,
        [(voter.name, sub_ballots.get(i, ())) for i, voter in enumerate(profile.voters)],
    )


def majority_alternative(profile: Profile, issue: int) -> int:
    """Most-approved alternative of an isolated issue, ties to the lowest index.

    Isolated issues only ever carry unconditional ballots, so counting
    approvals minimizes the issue's dissatisfaction contribution exactly.
    Voters without a ballot on the issue approve every alternative alike, so
    only the explicit ballots can move the maximum.
    """
    d = len(profile.issues[issue].alternatives)
    counts = [0] * d
    for _, ballot in profile.ballots_by_issue[issue]:
        for a in ballot.statements[()]:
            counts[a] += 1
    return max(range(d), key=lambda a: (counts[a], -a))


def _solve(route: str, sub: Profile, budget: int) -> Solution:
    if route == BRUTE:
        return solve_brute(sub, budget)
    if route == MINCUT:
        return solve_mincut(sub)
    return solve_treewidth(sub)


def _applicable_routes(comp, budget) -> list:
    routes = []
    if comp.all_binary and comp.group_dichotomous:
        routes.append(MINCUT)
    if comp.delta <= 1:
        routes.append(TREEWIDTH)
    if comp.outcome_space <= budget:
        routes.append(BRUTE)
    return routes


def _route_override(comp, method: str, budget: int, report: AnalysisReport) -> str:
    route = {"brute": BRUTE, "mincut": MINCUT, "treewidth": TREEWIDTH}[method]
    if route not in _applicable_routes(comp, budget):
        raise Intractable(report)
    return route


def solve_profile(profile: Profile, config: SolveConfig = SolveConfig()) -> Solution:
    """Solve component-wise and merge; raises Intractable with the analysis
    report when some component has no applicable route."""
    report = classify(profile, config.width_threshold, config.brute_budget)

    plan = []
    for comp in report.components:
        if config.method != "auto":
            route = _route_override(comp, config.method, config.brute_budget, report)
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
            alt = majority_alternative(profile, issue)
            assignment[issue] = alt
            cost = sum(
                1
                for _, ballot in profile.ballots_by_issue[issue]
                if alt not in ballot.statements[()]
            )
        else:
            sub = restrict_profile(profile, comp.issues)
            solution = _solve(route, sub, config.brute_budget)
            assignment.update(zip(comp.issues, solution.outcome))
            cost = solution.cost
        if config.cross_validate:
            checked = [cost]
            for other in _applicable_routes(comp, config.brute_budget):
                if other == route:
                    continue
                if sub is None:
                    sub = restrict_profile(profile, comp.issues)
                checked.append(_solve(other, sub, config.brute_budget).cost)
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
