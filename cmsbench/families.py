"""Seeded input families for the benchmark, kept apart from ``cmsvote``.

Each family builds an :class:`Instance` from ``random.Random`` seeded with
the workload name and the ``--seed`` argument, so the same seed always gives
the same document and later changes to ``cmsvote.generators`` cannot change a
workload.  The instance keeps its own ballots; the benchmark writes the
profile document from them and re-evaluates returned outcomes against them
(:func:`evaluate`) without going through the package under test.

A ballot is ``(target, scope, statements)``: ``scope`` is a sorted tuple of
premise issues and ``statements`` maps premise tuples (aligned with
``scope``) to frozensets of approved alternative indices.  An empty scope is
an unconditional ballot with the single premise ``()``; a nonempty scope
without statements can never be satisfied.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Instance:
    domains: tuple  # number of alternatives per issue
    voters: tuple  # per voter, a tuple of ballots
    grid: Optional[tuple] = None  # (rows, cols) for the grid family; issue r * cols + c

    @property
    def m(self) -> int:
        return len(self.domains)


def issue_name(j: int) -> str:
    return f"i{j}"


def alt_name(a: int) -> str:
    return f"a{a}"


def _count(rng, mean, cap):
    draw = int(round(rng.gauss(mean, math.sqrt(max(mean, 1.0)))))
    return max(0, min(cap, draw))


def _subset(rng, size):
    members = [a for a in range(size) if rng.random() < 0.5]
    return frozenset(members or [rng.randrange(size)])


def _random_statements(rng, scope, target, domains):
    """Each premise kept with probability 3/4, approving a random nonempty set."""
    premises = [()]
    for k in scope:
        premises = [p + (v,) for p in premises for v in range(domains[k])]
    return {
        p: _subset(rng, domains[target]) for p in premises if rng.random() < 0.75
    }


def _gd_statements(rng, size):
    """Group-dichotomous statements: all-0 premise approves {0} or {0,1},
    all-1 premise approves {1} or {0,1}, at least one of the two present."""
    shape = rng.choice(("low", "high", "both"))
    statements = {}
    if shape in ("low", "both"):
        statements[(0,) * size] = frozenset({0} if rng.random() < 0.5 else {0, 1})
    if shape in ("high", "both"):
        statements[(1,) * size] = frozenset({1} if rng.random() < 0.5 else {0, 1})
    return statements


def _scope(rng, m, size, target):
    while True:
        picks = rng.sample(range(m), size)
        if target not in picks:
            return tuple(sorted(picks))


def _sparse_voters(rng, domains, n, cond_mean, plain_mean, scope_sizes, statements):
    """Voters with about ``cond_mean`` conditional and ``plain_mean``
    unconditional ballots each, on distinct random targets."""
    m = len(domains)
    voters = []
    for _ in range(n):
        n_cond = _count(rng, cond_mean, m)
        n_plain = _count(rng, plain_mean, m - n_cond)
        chosen = rng.sample(range(m), n_cond + n_plain)
        ballots = []
        for j in sorted(chosen[:n_cond]):
            scope = _scope(rng, m, rng.choice(scope_sizes), j)
            ballots.append((j, scope, statements(scope, j)))
        for j in sorted(chosen[n_cond:]):
            ballots.append((j, (), {(): _subset(rng, domains[j])}))
        voters.append(tuple(sorted(ballots)))
    return tuple(voters)


def mincut_single(rng) -> Instance:
    """m = n = 500 binary issues, about 17 ballots per voter, scopes of
    size 1 or 2, every conditional ballot group-dichotomous.  With about
    4250 conditional ballots the dependency graph is one component."""
    domains = (2,) * 500
    voters = _sparse_voters(
        rng, domains, 500, 8.5, 8.5, (1, 2),
        lambda scope, j: _gd_statements(rng, len(scope)),
    )
    return Instance(domains, voters)


def many_components(rng) -> Instance:
    """4000 binary issues, 300 voters, single-premise random ballots at a
    density that leaves about 3300 components, most of them isolated issues."""
    domains = (2,) * 4000
    voters = _sparse_voters(
        rng, domains, 300, 2.4, 2.4, (1,),
        lambda scope, j: _random_statements(rng, scope, j, domains),
    )
    return Instance(domains, voters)


def brute_scan(rng) -> Instance:
    """18 binary issues, 8 voters, scopes of exactly two issues with random
    (not group-dichotomous) statements, so only the outcome scan applies.

    A ballot of voter ``j % 8`` on issue ``j`` conditions on issue
    ``j + 1 mod 18``, which chains all issues into one component.  Voters 0
    and 1 approve opposite values of issue 7 unconditionally, so the optimum
    is at least 1 and the scan never stops early at cost 0.
    """
    m, n = 18, 8
    domains = (2,) * m
    conflict_issue = 7
    voters = []
    for i in range(n):
        ballots = {}
        for j in range(i, m, n):
            other = rng.choice([k for k in range(m) if k not in (j, (j + 1) % m)])
            scope = tuple(sorted(((j + 1) % m, other)))
            ballots[j] = (j, scope, _random_statements(rng, scope, j, domains))
        if i in (0, 1):
            ballots[conflict_issue] = (conflict_issue, (), {(): frozenset({i})})
        free = [j for j in range(m) if j not in ballots]
        for j in rng.sample(free, 5):
            scope = _scope(rng, m, 2, j)
            ballots[j] = (j, scope, _random_statements(rng, scope, j, domains))
        free = [j for j in range(m) if j not in ballots]
        for j in rng.sample(free, 4):
            ballots[j] = (j, (), {(): frozenset({rng.randrange(2)})})
        voters.append(tuple(sorted(ballots.values())))
    return Instance(domains, tuple(voters))


def treewidth_grid(rng) -> Instance:
    """A 5 x 120 grid of 6-alternative issues and 20 voters.

    Every grid edge carries one or two single-premise ballots, each from a
    voter with no other ballot on that target, in a random direction; about
    one (voter, issue) pair in ten also holds an unconditional ballot.
    """
    rows, cols, d, n = 5, 120, 6, 20
    m = rows * cols
    domains = (d,) * m
    edges = []
    for r in range(rows):
        for c in range(cols):
            j = r * cols + c
            if c + 1 < cols:
                edges.append((j, j + 1))
            if r + 1 < rows:
                edges.append((j, j + cols))
    ballots = [dict() for _ in range(n)]
    for u, v in edges:
        for _ in range(rng.choice((1, 2))):
            target, premise = (u, v) if rng.random() < 0.5 else (v, u)
            i = rng.choice([i for i in range(n) if target not in ballots[i]])
            ballots[i][target] = (
                target,
                (premise,),
                _random_statements(rng, (premise,), target, domains),
            )
    for i in range(n):
        for j in range(m):
            if j not in ballots[i] and rng.random() < 0.1:
                ballots[i][j] = (j, (), {(): _subset(rng, d)})
    voters = tuple(tuple(sorted(b.values())) for b in ballots)
    return Instance(domains, voters, grid=(rows, cols))


FAMILIES = {
    "mincut_single": mincut_single,
    "many_components": many_components,
    "brute_scan": brute_scan,
    "treewidth_grid": treewidth_grid,
}


def generate(workload: str, seed: int) -> Instance:
    return FAMILIES[workload](random.Random(f"{workload}:{seed}"))


def write_document(inst: Instance) -> str:
    """The instance as a ``cmsprofile 1`` document."""
    out = ["cmsprofile 1", f"issues {inst.m}"]
    for j, d in enumerate(inst.domains):
        out.append(f"issue {issue_name(j)} " + " ".join(alt_name(a) for a in range(d)))
    out.append(f"voters {len(inst.voters)}")
    for i, ballots in enumerate(inst.voters):
        out.append(f"voter v{i}")
        for target, scope, statements in ballots:
            if not scope:
                alts = " ".join(alt_name(a) for a in sorted(statements[()]))
                out.append(f"approve {issue_name(target)} {alts}")
            elif not statements:
                premise = " ".join(issue_name(k) for k in scope)
                out.append(f"depends {issue_name(target)} on {premise}")
            else:
                for premise in sorted(statements):
                    cond = ",".join(
                        f"{issue_name(k)}={alt_name(v)}" for k, v in zip(scope, premise)
                    )
                    alts = " ".join(alt_name(a) for a in sorted(statements[premise]))
                    out.append(f"cond {issue_name(target)} if {cond} then {alts}")
        out.append("end")
    return "\n".join(out) + "\n"


def evaluate(inst: Instance, outcome) -> int:
    """Total number of (voter, ballot) disagreements with ``outcome``."""
    cost = 0
    for ballots in inst.voters:
        for target, scope, statements in ballots:
            approved = statements.get(tuple(outcome[k] for k in scope))
            if approved is None or outcome[target] not in approved:
                cost += 1
    return cost
