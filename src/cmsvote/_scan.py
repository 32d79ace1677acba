"""Factor tables of a profile plus the bucket-elimination kernel over them.

This is the one compiler of a profile's objective and the one kernel that
minimizes it, shared by the ``BRUTE`` and ``TREEWIDTH`` routes.  Each
(voter, issue) pair that can ever be dissatisfied becomes a 0/1
dissatisfaction table over its sorted axes ``scope ∪ {issue}``, one axis per
issue with that issue's domain size, so a factor has any arity from 1 up.
Tables of pairs that share an axis tuple are summed into one table per axis
tuple, so the profile compiles to a handful of small integer tables whose
broadcast sum is the total dissatisfaction of every outcome.

The compiler fills the tables in one counting pass.  They lie in one flat
buffer, one view per axis tuple, each starting at its number of pairs.  For
each statement it gathers the flat index of its premise cell with the
target at 0, the target's stride and the approval mask; numpy expands the
masks into the approved cells, and one unbuffered ``subtract.at`` takes one
off the fill per satisfied pair, in place, with no count array beside the
tables.

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
broadcast over its scope (its own issue first, the rest ascending) and
passes the minimum over its issue to the bucket of the next issue in the
rest of its scope; the bucket table is then freed, and the bucket keeps
only its parts.  The traceback sets the issues in reverse order: each
issue takes the argmin of its bucket's parts summed at the issues already
set (ties to the lowest alternative), so no argmin table is stored.  The
bucket tables' entries, the sum over buckets of the product of their
scopes' domain sizes, follow from the factor axes alone;
``predict_entries`` computes them.

numpy is imported inside the functions that use it, as in the other
kernels, so that importing the package (and ``cmsvote analyze``) does not
load it.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from .errors import BudgetExceeded
from .model import Profile, approves_all

# Bounds the work of one elimination: the sum over its buckets of the product
# of their scopes' domain sizes.  Each bucket table is freed once its minimum
# is passed on, and only the minima, each 1/d the size of its table,
# stay for the traceback, so this is work rather than memory held at once.
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

    # A statement satisfies its pair at the flat cells base + a * stride,
    # one per approved alternative a: base is its premise cell with the
    # target at 0, stride the target's stride in its table.
    shapes, sizes, fills, bases, strides, masks = [], [], [], [], [], []
    offset = 0
    for axes, ballots in groups.items():
        shape = [dom[k] for k in axes]
        step = {}
        size = 1
        for k, d in zip(reversed(axes), reversed(shape)):
            step[k] = size
            size *= d
        for j, ballot in ballots:
            statements = ballot.statements
            steps = [step[k] for k in ballot.scope]
            if j in ballot.scope:
                # A premise on the target itself fixes its value: only
                # that alternative, if approved, satisfies the pair.
                t = ballot.scope.index(j)
                steps[t] = 0
                masks.extend(mask & 1 << premise[t] for premise, mask in statements.items())
            else:
                masks.extend(statements.values())
            bases.extend([offset + sum(map(operator.mul, steps, p)) for p in statements])
            strides.extend([step[j]] * len(statements))
        shapes.append(shape)
        sizes.append(size)
        fills.append(len(ballots))
        offset += size

    # Every pair starts dissatisfied in every cell of its table, and each of
    # its approved cells satisfies it there once.  The masks are expanded
    # from their little-endian bytes, which holds masks of any width.
    width = (max(dom, default=1) + 7) // 8
    packed = map(int.to_bytes, masks, itertools.repeat(width), itertools.repeat("little"))
    bits = np.frombuffer(b"".join(packed), dtype=np.uint8).reshape(len(masks), width)
    rows, alts = np.nonzero(np.unpackbits(bits, axis=1, bitorder="little"))
    cells = np.asarray(bases, dtype=np.intp)[rows]
    cells += np.asarray(strides, dtype=np.intp)[rows] * alts
    flat = np.repeat(np.asarray(fills, dtype=dtype), sizes)
    # A one of the tables' own type keeps numpy on its cast-free fast path.
    np.subtract.at(flat, cells, dtype(1))

    factors = []
    offset = 0
    for axes, shape, size in zip(groups, shapes, sizes):
        factors.append((axes, flat[offset:offset + size].reshape(shape)))
        offset += size
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
    order returns the lexicographically first minimizing outcome.  The
    bucket tables hold ``predict_entries`` entries in total, which
    ``compile_cost_model`` bounds for its order.  Each is freed once its
    minimum is passed on; the traceback reads the factor tables and those
    minima again, so no argmin table is kept.
    """
    import numpy as np

    order = list(order)
    dom = model.dom
    rank = {v: t for t, v in enumerate(order)}
    buckets = [[] for _ in order]
    for axes, table in model.factors:
        buckets[min(map(rank.__getitem__, axes))].append((axes, table))

    cost = 0
    for t, v in enumerate(order):
        # The table's first axis is v and the rest follow in ascending order.
        # Every part's axes include v, since a factor or message joins the
        # bucket of its first-eliminated issue.  Its v axis moves to the
        # front; then a reshape that gives the part's axes their sizes and
        # every other scope axis size 1 broadcasts it over the table.
        rest = tuple(sorted(set().union(*(axes for axes, _ in buckets[t])) - {v}))
        scope = (v, *rest)
        table = np.zeros([dom[k] for k in scope], dtype=model.dtype)
        for axes, part in buckets[t]:
            i = axes.index(v)
            part = part.transpose(i, *range(i), *range(i + 1, part.ndim))
            shape = [dom[k] if k in axes else 1 for k in scope]
            np.add(table, part.reshape(shape), out=table)
        message = table.min(axis=0)
        del table  # freed before the next bucket's table is allocated
        if rest:
            buckets[min(map(rank.__getitem__, rest))].append((rest, message))
        else:
            cost += int(message)

    # Every issue of a bucket's rest is eliminated later, so its value is
    # set before the bucket's own issue.  The bucket's parts, read at those
    # values with v free, sum to the table's column over v; argmin takes
    # the first minimum, so ties go to the lowest alternative.  A bucket
    # with no parts leaves v at 0.
    outcome = [0] * len(dom)
    for t in range(len(order) - 1, -1, -1):
        v = order[t]
        columns = [
            part[tuple(slice(None) if k == v else outcome[k] for k in axes)]
            for axes, part in buckets[t]
        ]
        if columns:
            outcome[v] = int(sum(columns[1:], columns[0]).argmin())
    return cost, tuple(outcome)
