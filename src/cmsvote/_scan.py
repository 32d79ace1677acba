"""Factor tables of a profile plus the bucket-elimination kernel over them.

This is the one compiler of a profile's objective and the one kernel that
minimizes it, shared by the ``BRUTE`` and ``TREEWIDTH`` routes.  Each
(voter, issue) pair that can ever be dissatisfied becomes a 0/1
dissatisfaction table over its sorted axes ``scope ∪ {issue}``, one axis per
issue with that issue's domain size, so a factor has any arity from 1 up.
Tables of pairs that share an axis tuple are summed into one table per axis
tuple, so the profile compiles to a handful of small integer tables whose
broadcast sum is the total dissatisfaction of every outcome.

Table layout and guards:

- A table's cells count dissatisfied pairs, and so does every sum of cells
  of distinct tables (a bucket table, a message), so no such sum exceeds the
  number of pairs.  Cells are int16 below 2^15 pairs, int32 below 2^31 and
  int64 from then on.
- ``MAX_TABLE_ENTRIES`` bounds the work of both routes.  ``check_entries``
  raises ``BudgetExceeded`` when the factor tables or the bucket tables
  along an order would hold more; the compiler and routing both ask it.

``eliminate`` minimizes the sum by bucket elimination (Dechter 1999;
Bertelè & Brioschi 1972) along an order of the issues.  Each factor goes
into the bucket of its first-eliminated axis.  A bucket adds its tables
broadcast over its scope (its own issue first, the rest ascending), keeps
the argmin over its issue (ties to the lowest alternative) and passes the
minimum to the bucket of the next issue in the rest of its scope.  The
traceback then sets the issues in reverse order.  The bucket tables'
entries, the sum over buckets of the product of their scopes' domain sizes,
follow from the factor axes alone; ``predict_entries`` computes them.

numpy is imported inside the functions that use it, as in the other
kernels, so that importing the package (and ``cmsvote analyze``) does not
load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BudgetExceeded
from .model import Profile, alternatives, approves_all

# Bounds the work of one elimination: the sum over its buckets of the product
# of their scopes' domain sizes.  Each bucket table is freed once its minimum
# is passed on, so this is work rather than memory held at once.
MAX_TABLE_ENTRIES = 1 << 27


@dataclass(frozen=True)
class CostModel:
    """A profile's objective as factor tables whose broadcast sum is the
    total dissatisfaction of every outcome."""

    dom: tuple
    n_pairs: int
    factors: tuple  # (axes, table) per distinct axis tuple, axes ascending

    @property
    def dtype(self) -> type:
        """Type of every table, and of any sum of disjoint table cells."""
        return _count_dtype(self.n_pairs)


def _count_dtype(n_pairs: int) -> type:
    """Integer type that holds every count from 0 up to n_pairs."""
    import numpy as np

    if n_pairs < 2**15:
        return np.int16
    return np.int32 if n_pairs < 2**31 else np.int64


def compile_cost_model(profile: Profile, order) -> CostModel:
    """Sum the profile's dissatisfaction tables per axis tuple.

    Raises BudgetExceeded (``check_entries``) before allocating any table
    when the factor tables, or the bucket tables of elimination along
    ``order`` (a permutation of the issues), would exceed the limit.
    """
    import numpy as np

    dom = profile.domain_sizes()
    pairs = ((j, b) for voter in profile.voters for j, b in voter.ballots.items())
    groups = group_by_axes(pairs, dom)
    check_entries(groups, dom, order)
    n_pairs = sum(map(len, groups.values()))
    dtype = _count_dtype(n_pairs)

    factors = []
    for axes, ballots in groups.items():
        # Every pair starts dissatisfied everywhere; each approved
        # (premise, alternative) cell then satisfies it there, once.
        table = np.full([dom[k] for k in axes], len(ballots), dtype=dtype)
        pos = {k: t for t, k in enumerate(axes)}
        for j, ballot in ballots:
            target = pos[j]
            for premise, approved in ballot.statements.items():
                cell = [None] * len(axes)
                for k, v in zip(ballot.scope, premise):
                    cell[pos[k]] = v
                fixed = cell[target]
                for a in alternatives(approved):
                    if fixed is None or fixed == a:
                        cell[target] = a
                        table[tuple(cell)] -= 1
        factors.append((axes, table))

    return CostModel(dom=dom, n_pairs=n_pairs, factors=tuple(factors))


def group_by_axes(pairs, dom) -> dict:
    """The (issue, ballot) pairs grouped by their factor axes, the sorted
    ``scope ∪ {issue}``; approve-all ballots, never dissatisfied, are left
    out."""
    groups = {}
    for j, ballot in pairs:
        if not approves_all(ballot, dom[j]):
            groups.setdefault(tuple(sorted({j, *ballot.scope})), []).append((j, ballot))
    return groups


def check_entries(axes, dom, order) -> None:
    """Raise BudgetExceeded when the factor tables on the axis tuples
    ``axes``, or the bucket tables of elimination along ``order``, would
    hold more than ``MAX_TABLE_ENTRIES`` entries."""
    entries = sum(math.prod(dom[k] for k in factor_axes) for factor_axes in axes)
    if entries > MAX_TABLE_ENTRIES:
        raise BudgetExceeded(
            f"factor tables need {entries} table entries, "
            f"limit is {MAX_TABLE_ENTRIES}"
        )
    entries = predict_entries(axes, dom, order)
    if entries > MAX_TABLE_ENTRIES:
        raise BudgetExceeded(
            f"bucket elimination needs at least {entries} table entries, "
            f"limit is {MAX_TABLE_ENTRIES}"
        )


def predict_entries(axes, dom, order) -> int:
    """Entries of the bucket tables ``eliminate`` allocates along ``order``
    for factors on the axis tuples ``axes``, found by eliminating the scopes
    symbolically.  The count stops at the first bucket that takes it past
    ``MAX_TABLE_ENTRIES``, so a figure above the limit is a lower bound."""
    order = list(order)
    rank = {v: t for t, v in enumerate(order)}
    scopes = [{v} for v in order]
    for factor_axes in axes:
        scopes[min(map(rank.__getitem__, factor_axes))].update(factor_axes)
    entries = 0
    for t, v in enumerate(order):
        entries += math.prod(dom[k] for k in scopes[t])
        if entries > MAX_TABLE_ENTRIES:
            break
        rest = scopes[t] - {v}
        if rest:
            scopes[min(map(rank.__getitem__, rest))].update(rest)
    return entries


def eliminate(model: CostModel, order) -> tuple:
    """(cost, outcome) minimizing the model, by bucket elimination along
    ``order``, a permutation of the issues.

    Any order gives the minimum cost; the order decides the table sizes and
    which minimizer is returned.  Eliminating the issues in descending index
    order returns the lexicographically first minimizing outcome.  Each
    argmin table is stored in the smallest unsigned type that holds its
    issue's alternatives.  The bucket tables hold ``predict_entries``
    entries in total, which ``compile_cost_model`` bounds for its order.
    """
    import numpy as np

    order = list(order)
    dom = model.dom
    rank = {v: t for t, v in enumerate(order)}
    buckets = [[] for _ in order]
    for axes, table in model.factors:
        buckets[min(map(rank.__getitem__, axes))].append((axes, table))

    cost = 0
    rests = []
    choices = []
    for t, v in enumerate(order):
        # The table's first axis is v and the rest follow in ascending order,
        # so each alternative of v owns one contiguous slab.  Every part's
        # axes include v, since a factor or message joins the bucket of its
        # first-eliminated issue.  Its v axis moves to the front; then a
        # reshape that gives the part's axes their sizes and every other
        # scope axis size 1 broadcasts it over the table.
        rest = tuple(sorted(set().union(*(axes for axes, _ in buckets[t])) - {v}))
        scope = (v, *rest)
        table = np.zeros([dom[k] for k in scope], dtype=model.dtype)
        for axes, part in buckets[t]:
            i = axes.index(v)
            part = part.transpose(i, *range(i), *range(i + 1, part.ndim))
            shape = [dom[k] if k in axes else 1 for k in scope]
            np.add(table, part.reshape(shape), out=table)
        buckets[t] = None
        # Minimum and argmin over v, one slab at a time; only a strictly
        # smaller cost moves the argmin, so ties go to the lowest alternative.
        message = table[0]
        choice = np.zeros(message.shape, dtype=np.min_scalar_type(dom[v] - 1))
        for a in range(1, dom[v]):
            np.copyto(choice, a, where=table[a] < message)
            message = np.minimum(message, table[a])
        choices.append(choice)
        if rest:
            buckets[min(map(rank.__getitem__, rest))].append((rest, message))
        else:
            cost += int(message)
        rests.append(rest)

    # Every issue of a bucket's rest is eliminated later, so its value is
    # set before the bucket's own issue.
    outcome = [0] * len(dom)
    for t in range(len(order) - 1, -1, -1):
        outcome[order[t]] = int(choices[t][tuple(outcome[k] for k in rests[t])])
    return cost, tuple(outcome)
