"""Job-wise solving: classify, list the jobs, solve them in one loop, merge.

The objective is additive over the connected components of the global
dependency graph.  ``classify`` picks each component's route, and
``applicable_routes`` lists the solvers a forced method or cross-validation
may run; the routing rule lives in ``analysis`` alone.  A job is a route
and the components it solves at once.  Each route gets one job, in the
routes' order of first use, except that each isolated issue (``MAJORITY``)
is a job of its own, decided by one ``majority_alternative`` call; under
cross-validation each component is a job.  Any other job gets one
sub-profile over the ascending union of its components' issues and one
solver call.  The components share no ballot, so each gets the outcome it
would get alone:

- ``MINCUT`` solves one network whose gadgets are disjoint apart from s and
  t.  A maximum flow's residual source side is the union of the
  components' minimal source sides.
- ``BRUTE`` eliminates in the union's descending order, which keeps each
  component's descending order and so its lexicographically first optimum.
- ``TREEWIDTH`` eliminates along one union decomposition: the decompositions
  ``classify`` kept for the components (``ComponentReport.decomposition``),
  each hung by its bag 0 off an empty bag 0, so the nice form forgets each
  component's issues in the order it would alone.

Admission stays the compiler's.  Table entries add across components, so
when ``_scan.check_entries`` refuses a job of several components, each
becomes a job of its own, solved next.  Cross-validation solves each job's
sub-profile again by every other applicable route and requires equal costs.

A sub-profile keeps only the voters with a ballot on its issues, so building
it and re-verifying its solution cost O(its ballots), not O(n); the
sub-solution's ``per_voter`` lists those voters only.  The dispatcher reads
just each sub-solution's outcome and cost.  The merged outcome's cost is
recomputed over every voter of the full profile and checked against the sum
of the parts; any disagreement aborts.  When one job is the whole profile,
the solver's own verified solution is returned instead, unless
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
    TreeDecomposition,
    _component_graph,
    applicable_routes,
    classify,
    heuristic_tree_decomposition,
)
from .brute import solve_brute
from .errors import BudgetExceeded, InternalMismatch, Intractable
from .mincut import solve_mincut
from .model import IssueBallot, Profile, Solution, Voter, make_solution, validate_profile
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


def _solve(route: str, comps, issues, sub: Profile) -> Solution:
    """Solve the components ``comps`` at once on ``sub``, their sub-profile
    over the ascending union ``issues``."""
    if route == BRUTE:
        return solve_brute(sub)
    if route == MINCUT:
        return solve_mincut(sub)
    return solve_treewidth(sub, _union_decomposition(comps, issues))


def _union_decomposition(comps, issues) -> TreeDecomposition:
    """Decomposition of the components' union over the positions of the
    ascending ``issues``: an empty bag 0, with each component's decomposition
    hung off it by its own bag 0 and its ids mapped to union ids in order.

    ``make_nice`` visits bag 0's children in component order, and the id map
    keeps each component's order, so it forgets each component's issues in
    the relative order it would forget them alone.  A component whose capped
    min-fill run gave up (a forced TREEWIDTH route) takes the uncapped run
    over its own edges, which ``solve_treewidth`` would build for it alone.
    One component's decomposition is passed on as it is.
    """
    if len(comps) == 1:
        return comps[0].decomposition
    index = {j: t for t, j in enumerate(issues)}
    bags = [frozenset()]
    edges = []
    for comp in comps:
        decomposition = comp.decomposition
        if decomposition is None:
            decomposition = heuristic_tree_decomposition(
                _component_graph(comp.issues, comp.edges)
            )
        ids = [index[j] for j in comp.issues]
        base = len(bags)
        bags += [frozenset([ids[v] for v in bag]) for bag in decomposition.bags]
        edges.append((0, base))
        edges += [(base + a, base + b) for a, b in decomposition.edges]
    return TreeDecomposition(tuple(bags), tuple(edges))


def _route_override(comp, method: str, report: AnalysisReport) -> str:
    route = {"brute": BRUTE, "mincut": MINCUT, "treewidth": TREEWIDTH}[method]
    if route not in applicable_routes(comp):
        raise Intractable(report)
    return route


def solve_profile(profile: Profile, config: SolveConfig = SolveConfig()) -> Solution:
    """Solve job by job and merge; raises Intractable with the analysis
    report when some component has no applicable route.

    A profile built through the API may hold ballots that ``validate_profile``
    flags, such as a premise of the wrong length or out of its domain, or a
    mask with bits past its target's domain.  They can make a compiler index
    out of bounds, a solver's re-verification disagree or a forced route
    inapplicable.  So when a solve fails that way, the profile is validated,
    on that path only, and its first violation is raised as ValueError; a
    valid profile's failure is raised as it is.
    """
    try:
        return _solve_jobs(profile, config)
    except (InternalMismatch, Intractable, IndexError) as exc:
        problems = validate_profile(profile)
        if problems:
            raise ValueError(str(problems[0])) from exc
        raise


def _solve_jobs(profile: Profile, config: SolveConfig) -> Solution:
    report = classify(profile)

    jobs = []  # (route, components solved at once)
    groups = {}  # route -> its components; routes in order of first use
    for comp in report.components:
        if config.method != "auto":
            route = _route_override(comp, config.method, report)
        else:
            route = comp.route
            if route == INTRACTABLE:
                raise Intractable(report)
        groups.setdefault(route, []).append(comp)
        if config.cross_validate:
            jobs.append((route, (comp,)))
    if not config.cross_validate:
        for route, comps in groups.items():
            if route == MAJORITY:
                jobs += [(route, (comp,)) for comp in comps]
            else:
                jobs.append((route, comps))
    jobs.reverse()  # a stack: the next job is popped off the end

    assignment = {}
    component_total = 0
    while jobs:
        route, comps = jobs.pop()
        sub = None
        if route == MAJORITY:
            (issue,) = comps[0].issues
            assignment[issue], cost = majority_alternative(profile, issue)
        else:
            issues = sorted(j for comp in comps for j in comp.issues)
            sub = restrict_profile(profile, issues)
            try:
                solution = _solve(route, comps, issues, sub)
            except BudgetExceeded:
                if len(comps) == 1:
                    raise
                # The union's entries are its components' sum; each
                # component may still fit alone, and is solved next.
                jobs += [(route, (comp,)) for comp in reversed(comps)]
                continue
            if sub is profile and not config.cross_validate:
                # The job's components are the whole profile, and the
                # solver has verified its outcome over every voter already.
                return solution
            assignment.update(zip(issues, solution.outcome))
            cost = solution.cost
        if config.cross_validate:
            (comp,) = comps
            checked = [cost]
            for other in applicable_routes(comp):
                if other != route:
                    if sub is None:
                        sub = restrict_profile(profile, comp.issues)
                    checked.append(_solve(other, comps, comp.issues, sub).cost)
            if len(set(checked)) > 1:
                raise InternalMismatch(
                    f"solvers disagree on component {comp.issues}: {checked}"
                )
        component_total += cost

    outcome = tuple(assignment[j] for j in range(profile.m))
    solution = make_solution(profile, outcome, "+".join(r.lower() for r in groups))
    if solution.cost != component_total:
        raise InternalMismatch(
            f"component costs sum to {component_total} but the merged outcome "
            f"re-evaluates to {solution.cost}"
        )
    return solution
