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
  an unconditional approve-everything ballot.  ``make_profile`` (and
  ``parse_profile`` as it reads) canonicalizes explicit approve-all entries
  away, as ``approves_all`` decides them, so structural equality is
  meaningful.
- An approval set is an int bitmask over the issue's alternatives: bit ``a``
  is set iff alternative ``a`` is approved, so satisfaction is one shift and
  one and (``approved >> a & 1``) and ``alternatives`` lists the indices.
  ``issue_ballot`` and ``approve`` take either a mask or an iterable of
  indices.
- All types are frozen dataclasses; ``IssueBallot`` is slotted as well.  A
  voter's ballots are a read-only ``types.MappingProxyType`` over a copy of
  the map it was built from, so they cannot change once the voter exists.
  A ballot's statement map is a plain dict treated as read-only.  Its keys
  (premise tuples of ints) and values (masks) are atomic, so the cyclic GC
  stops tracking the keys at their first collection and the dict at the
  first full collection.  Scope and premise tuples and masks may be shared
  between ballots; a statement dict is never shared, so each ballot owns
  its own.  Every operation is a pure function, so concurrent use needs no
  locking.  ``Profile`` relies on this to cache derived facts on first use:
  the domain sizes and a per-issue index of the explicit ballots
  (``ballots_by_issue``), which lets per-issue work such as splitting off a
  component or counting approvals skip the voters without a ballot there.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Optional, Sequence

Premise = tuple  # alternative indices, aligned with the ballot's sorted scope
Outcome = tuple  # one alternative index per issue


class lazy_attribute:
    """A value computed on first read and stored in the instance dict.

    This is ``functools.cached_property`` without its class-wide lock, which
    Python 3.10 and 3.11 take on every first read.  The stored value shadows
    the descriptor from then on, so a value written into ``vars(obj)`` under
    the attribute's name beforehand is read instead of computed.  Two
    threads reading the attribute first at once may both compute it; every
    use here is a pure function of a frozen instance, so both store equal
    values.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self.func(instance)
        instance.__dict__[self.name] = value
        return value


@dataclass(frozen=True)
class Issue:
    name: str
    alternatives: tuple


@dataclass(frozen=True, slots=True)
class IssueBallot:
    """One voter's ballot restricted to a single target issue.

    ``scope`` lists the issues the ballot conditions on, sorted ascending;
    ``statements`` maps premise tuples (alternative indices in scope order)
    to nonempty approval masks.  An empty scope means an unconditional ballot
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
    ballots: Mapping  # issue id -> IssueBallot; absent issues approve everything

    def __post_init__(self):
        # A read-only view of a private copy: nothing can change the ballots
        # that ``Profile.ballots_by_issue`` indexes.
        object.__setattr__(self, "ballots", MappingProxyType(dict(self.ballots)))

    def __reduce__(self):
        # A mappingproxy cannot be pickled or deep-copied; rebuild from a dict.
        return Voter, (self.name, dict(self.ballots))


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
    @lazy_attribute
    def _domain_sizes(self) -> tuple:
        return tuple(len(issue.alternatives) for issue in self.issues)

    @lazy_attribute
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


@functools.lru_cache(maxsize=1024)
def alternatives(mask: int) -> tuple:
    """The alternative indices set in an approval mask, ascending.

    Cached, since a profile holds few distinct masks and serializing it
    reads one per statement.
    """
    if mask < 0:
        raise ValueError(f"approval mask {mask} is negative")
    return tuple(a for a in range(mask.bit_length()) if mask >> a & 1)


def _mask(approved) -> int:
    """An approval mask given as itself or as an iterable of indices."""
    if isinstance(approved, int):
        return approved
    mask = 0
    for a in approved:
        mask |= 1 << a
    return mask


def issue_ballot(issue: int, scope: Iterable, statements) -> IssueBallot:
    """Build a canonical IssueBallot.

    ``statements`` is a mapping or iterable of (premise, approvals) pairs with
    premises given in sorted-scope order and approvals given as a mask or an
    iterable of alternative indices; duplicate premises are merged by union
    of their approval sets.
    """
    scope_t = tuple(sorted(scope))
    items = statements.items() if isinstance(statements, Mapping) else statements
    merged = {}
    for premise, approved in items:
        key = tuple(premise)
        merged[key] = merged.get(key, 0) | _mask(approved)
    return IssueBallot(issue, scope_t, merged)


def approve(issue: int, approved) -> IssueBallot:
    """Unconditional ballot approving the given alternatives (a mask or an
    iterable of indices)."""
    return IssueBallot(issue, (), {(): _mask(approved)})


def approves_all(ballot: IssueBallot, domain_size: int) -> bool:
    """Whether the ballot approves all ``domain_size`` alternatives
    unconditionally: the implicit default, which profiles never store."""
    return not ballot.scope and ballot.statements.get(()) == (1 << domain_size) - 1


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
            if 0 <= b.issue < len(dom) and approves_all(b, dom[b.issue]):
                continue
            kept[b.issue] = b
        voter_tuple.append(Voter(name, kept))
    return Profile(issue_tuple, tuple(voter_tuple))


def is_satisfied(profile: Profile, voter: int, issue: int, outcome: Sequence) -> bool:
    """Whether the voter agrees with the outcome of the issue."""
    if not 0 <= voter < profile.n:
        raise IndexError(f"voter index {voter} out of range")
    if not 0 <= issue < profile.m:
        raise IndexError(f"issue index {issue} out of range")
    ballot = profile.voters[voter].ballots.get(issue)
    if ballot is None:
        return True
    approved = ballot.statements.get(tuple(outcome[k] for k in ballot.scope), 0)
    return bool(approved >> outcome[issue] & 1)


def voter_dissatisfaction(profile: Profile, voter: int, outcome: Sequence) -> int:
    """Number of issues on which the voter disagrees with the outcome."""
    if not 0 <= voter < profile.n:
        raise IndexError(f"voter index {voter} out of range")
    count = 0
    for ballot in profile.voters[voter].ballots.values():
        approved = ballot.statements.get(tuple(outcome[k] for k in ballot.scope), 0)
        if not approved >> outcome[ballot.issue] & 1:
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
                # Bits at or above the domain size, or a negative mask,
                # survive the shift.
                if not isinstance(approved, int) or approved >> dom[j]:
                    problems.append(
                        Violation("bad-alternative", "approval set out of domain", voter=i, issue=j)
                    )
                elif not approved:
                    problems.append(
                        Violation("empty-approval", "approval sets must be nonempty", voter=i, issue=j)
                    )
    return problems
