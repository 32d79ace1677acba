"""Data model and dissatisfaction semantics for conditional approval elections.

An election has m issues, each with a named finite domain of alternatives,
and n voters.  A voter's ballot for an issue is either unconditional (a plain
approval set) or conditional: a premise scope (other issues) plus a map from
premise tuples to approval sets.  A voter is satisfied with an issue under an
outcome iff the outcome's projection onto the scope appears in the map and
the issue's outcome lies in the mapped approval set; premise tuples absent
from the map mean dissatisfaction.  The dissatisfaction of a voter is the
number of issues that dissatisfy them, and the election objective is the sum
over all voters.

Representation notes:

- Alternatives are identified by their index in declaration order; for binary
  issues index 0 and 1 play the low/high roles used by the group-dichotomy
  machinery.
- Ballots are stored sparsely: an issue absent from a voter's ballot map is
  an unconditional approve-everything ballot.  ``make_profile`` canonicalizes
  explicit approve-all entries away so structural equality is meaningful.
- All types are frozen dataclasses, and their dict fields (a voter's
  ballots, a ballot's statements) are plain dicts treated as read-only.
  Every operation is a pure function, so concurrent use needs no locking.
  ``Profile`` relies on this to cache derived facts on first use: the
  domain sizes and a per-issue index of the explicit ballots
  (``ballots_by_issue``), which lets per-issue work such as splitting off a
  component or counting approvals skip the voters without a ballot there.
  Mutating a voter's ballot dict after the index is read leaves the index
  stale.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

Premise = tuple  # alternative indices, aligned with the ballot's sorted scope
Outcome = tuple  # one alternative index per issue


@dataclass(frozen=True)
class Issue:
    name: str
    alternatives: tuple


@dataclass(frozen=True)
class IssueBallot:
    """One voter's ballot restricted to a single target issue.

    ``scope`` lists the issues the ballot conditions on, sorted ascending;
    ``statements`` maps premise tuples (alternative indices in scope order)
    to nonempty approval sets.  An empty scope means an unconditional ballot
    and then ``statements`` holds exactly the entry for the empty premise.
    A nonempty scope with an empty statement map is a ballot that can never
    be satisfied.
    """

    issue: int
    scope: tuple
    statements: dict


@dataclass(frozen=True)
class Voter:
    name: str
    ballots: dict  # issue id -> IssueBallot; absent issues approve everything


@dataclass(frozen=True)
class Profile:
    issues: tuple
    voters: tuple

    @property
    def m(self) -> int:
        return len(self.issues)

    @property
    def n(self) -> int:
        return len(self.voters)

    def domain_sizes(self) -> tuple:
        return self._domain_sizes

    # Cached values live in the instance dict, which dataclass equality,
    # hashing and repr ignore.
    @cached_property
    def _domain_sizes(self) -> tuple:
        return tuple(len(issue.alternatives) for issue in self.issues)

    @cached_property
    def ballots_by_issue(self) -> tuple:
        """Per issue, the (voter index, ballot) pairs of the voters that hold
        an explicit ballot on it, in voter order.

        Voters absent from an issue's entries approve all of it.  Ballots
        filed under an issue id outside the profile are left out;
        ``validate_profile`` reports them.
        """
        m = len(self.issues)
        index = [[] for _ in range(m)]
        for i, voter in enumerate(self.voters):
            for j, ballot in voter.ballots.items():
                if 0 <= j < m:
                    index[j].append((i, ballot))
        return tuple(map(tuple, index))

    def ballot(self, voter: int, issue: int) -> IssueBallot:
        """The voter's ballot for the issue, materializing the approve-all default."""
        found = self.voters[voter].ballots.get(issue)
        if found is not None:
            return found
        full = frozenset(range(len(self.issues[issue].alternatives)))
        return IssueBallot(issue, (), {(): full})


@dataclass(frozen=True)
class Solution:
    """An outcome together with its verified cost and per-voter breakdown."""

    outcome: Outcome
    cost: int
    method: str
    per_voter: tuple


@dataclass(frozen=True)
class Violation:
    code: str
    detail: str
    voter: Optional[int] = None
    issue: Optional[int] = None

    def __str__(self):
        where = []
        if self.voter is not None:
            where.append(f"voter {self.voter}")
        if self.issue is not None:
            where.append(f"issue {self.issue}")
        prefix = f"[{', '.join(where)}] " if where else ""
        return f"{prefix}{self.code}: {self.detail}"


def issue_ballot(issue: int, scope: Iterable, statements) -> IssueBallot:
    """Build a canonical IssueBallot.

    ``statements`` is a mapping or iterable of (premise, approvals) pairs with
    premises given in sorted-scope order; duplicate premises are merged by
    union of their approval sets.
    """
    scope_t = tuple(sorted(scope))
    items = statements.items() if isinstance(statements, Mapping) else statements
    merged = {}
    for premise, approved in items:
        key = tuple(premise)
        approved = frozenset(approved)
        if key in merged:
            merged[key] = merged[key] | approved
        else:
            merged[key] = approved
    return IssueBallot(issue, scope_t, merged)


def approve(issue: int, approved: Iterable) -> IssueBallot:
    """Unconditional ballot approving the given alternatives."""
    return IssueBallot(issue, (), {(): frozenset(approved)})


def make_profile(issues, voters) -> Profile:
    """Assemble a Profile from (name, alternatives) and (name, ballots) pairs.

    Ballots that approve everything unconditionally are dropped: they are the
    implicit default, and dropping them keeps equality canonical.
    """
    issue_tuple = tuple(Issue(name, tuple(alts)) for name, alts in issues)
    dom = tuple(len(i.alternatives) for i in issue_tuple)
    voter_tuple = []
    for name, ballots in voters:
        kept = {}
        for b in ballots:
            if not b.scope and 0 <= b.issue < len(dom):
                approved = b.statements.get((), frozenset())
                if len(approved) == dom[b.issue]:
                    continue
            kept[b.issue] = b
        voter_tuple.append(Voter(name, kept))
    return Profile(issue_tuple, tuple(voter_tuple))


def outcome_space_size(profile: Profile) -> int:
    return math.prod(profile.domain_sizes())


def is_satisfied(profile: Profile, voter: int, issue: int, outcome: Sequence) -> bool:
    """Whether the voter agrees with the outcome of the issue."""
    if not 0 <= voter < profile.n:
        raise IndexError(f"voter index {voter} out of range")
    if not 0 <= issue < profile.m:
        raise IndexError(f"issue index {issue} out of range")
    ballot = profile.voters[voter].ballots.get(issue)
    if ballot is None:
        return True
    approved = ballot.statements.get(tuple(outcome[k] for k in ballot.scope))
    return approved is not None and outcome[issue] in approved


def voter_dissatisfaction(profile: Profile, voter: int, outcome: Sequence) -> int:
    """Number of issues on which the voter disagrees with the outcome."""
    if not 0 <= voter < profile.n:
        raise IndexError(f"voter index {voter} out of range")
    count = 0
    for ballot in profile.voters[voter].ballots.values():
        approved = ballot.statements.get(tuple(outcome[k] for k in ballot.scope))
        if approved is None or outcome[ballot.issue] not in approved:
            count += 1
    return count


def total_dissatisfaction(profile: Profile, outcome: Sequence) -> int:
    """Sum of all voters' dissatisfaction counts for the outcome."""
    return sum(
        voter_dissatisfaction(profile, i, outcome) for i in range(profile.n)
    )


def make_solution(profile: Profile, outcome: Sequence, method: str) -> Solution:
    """Build a Solution with the cost recomputed from first principles."""
    outcome = tuple(outcome)
    per_voter = tuple(
        voter_dissatisfaction(profile, i, outcome) for i in range(profile.n)
    )
    return Solution(outcome, sum(per_voter), method, per_voter)


def validate_profile(profile: Profile) -> list:
    """Collect every invariant violation; an empty list means the profile is ok.

    Violations are data, not faults: this never raises for bad content, only
    reports it with (voter, issue) coordinates where applicable.
    """
    problems = []
    m = profile.m
    dom = profile.domain_sizes()

    if m < 1:
        problems.append(Violation("no-issues", "profile needs at least one issue"))
    if profile.n < 1:
        problems.append(Violation("no-voters", "profile needs at least one voter"))

    seen_names = set()
    for j, issue in enumerate(profile.issues):
        if issue.name in seen_names:
            problems.append(
                Violation("dup-issue-name", f"issue name {issue.name!r} reused", issue=j)
            )
        seen_names.add(issue.name)
        if len(issue.alternatives) < 2:
            problems.append(
                Violation("small-domain", "issues need at least two alternatives", issue=j)
            )
        if len(set(issue.alternatives)) != len(issue.alternatives):
            problems.append(
                Violation("dup-alt-name", f"alternative names of {issue.name!r} repeat", issue=j)
            )

    seen_voters = set()
    for i, voter in enumerate(profile.voters):
        if voter.name in seen_voters:
            problems.append(
                Violation("dup-voter-name", f"voter name {voter.name!r} reused", voter=i)
            )
        seen_voters.add(voter.name)
        for j, ballot in voter.ballots.items():
            if not 0 <= j < m:
                problems.append(
                    Violation("bad-issue", f"ballot targets unknown issue {j}", voter=i)
                )
                continue
            if ballot.issue != j:
                problems.append(
                    Violation("bad-issue", "ballot filed under a different issue", voter=i, issue=j)
                )
            if ballot.issue in ballot.scope:
                problems.append(
                    Violation("self-premise", "premise references the target issue", voter=i, issue=j)
                )
            if tuple(sorted(set(ballot.scope))) != ballot.scope:
                problems.append(
                    Violation("bad-scope", "scope must be sorted and duplicate-free", voter=i, issue=j)
                )
            if any(not 0 <= k < m for k in ballot.scope):
                problems.append(
                    Violation("bad-scope", "scope references unknown issues", voter=i, issue=j)
                )
                continue
            if not ballot.scope and len(ballot.statements) != 1:
                problems.append(
                    Violation(
                        "missing-unconditional",
                        "unconditional ballots carry exactly one approval set",
                        voter=i,
                        issue=j,
                    )
                )
            for premise, approved in ballot.statements.items():
                if len(premise) != len(ballot.scope):
                    problems.append(
                        Violation(
                            "inconsistent-scope",
                            f"premise {premise} does not cover the scope {ballot.scope}",
                            voter=i,
                            issue=j,
                        )
                    )
                    continue
                if any(
                    not 0 <= value < dom[k] for value, k in zip(premise, ballot.scope)
                ):
                    problems.append(
                        Violation("bad-premise", f"premise {premise} out of domain", voter=i, issue=j)
                    )
                if not approved:
                    problems.append(
                        Violation("empty-approval", "approval sets must be nonempty", voter=i, issue=j)
                    )
                elif any(not 0 <= a < dom[j] for a in approved):
                    problems.append(
                        Violation("bad-alternative", "approval set out of domain", voter=i, issue=j)
                    )
    return problems
