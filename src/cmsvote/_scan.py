"""Factor tables of a profile plus the outcome-space scan over them.

This is the one compiler of a profile's objective, shared by the outcome
scan here and the tree-decomposition dynamic program in ``treewidth``.
Each (voter, issue) pair that can ever be dissatisfied becomes a 0/1
dissatisfaction table over its sorted axes ``scope ∪ {issue}``, one axis per
issue with that issue's domain size, so a factor has any arity from 1 up.
Tables of pairs that share an axis tuple are summed into one table per axis
tuple, so the profile compiles to a handful of small integer tables whose
broadcast sum is the total dissatisfaction of every outcome.

Table layout and guards:

- A table's cells count dissatisfied pairs, and so does every sum of cells
  of distinct tables (a scanned block, a dynamic-program table), so no such
  sum exceeds the number of pairs.  Cells are int32, or int64 from 2^31
  pairs on.
- The tables together hold the sum over axis tuples of the product of their
  domain sizes.  That figure is predicted before anything is allocated and
  checked against the caller's budget (``BudgetExceeded`` when larger).

The scan walks outcomes in mixed-radix counting order (issue 0 most
significant, so ascending index order is lexicographic order of assignment
vectors).  The leading axes are split off so that the trailing block holds
at most ``block`` outcomes; for each prefix of leading values, every table
is indexed by the prefix and added, broadcast over the trailing axes, into a
zero block, whose flat C-order ``argmin`` is the first minimizer within it.
A block's minimum replaces the best so far only when strictly smaller, so
the scan returns the lexicographically first minimizing outcome, and it
stops early once the best cost is 0.

numpy is imported inside the functions that use it, as in the other
kernels, so that importing the package (and ``cmsvote analyze``) does not
load it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import BudgetExceeded
from .model import Profile

BLOCK = 1 << 18  # outcomes per scanned block; its sums take at most 2 MiB


@dataclass(frozen=True)
class CostModel:
    """A profile's objective as factor tables whose broadcast sum is the
    total dissatisfaction of every outcome."""

    m: int
    dom: tuple
    strides: tuple
    total: int
    n_pairs: int
    factors: tuple  # (axes, table) per distinct axis tuple, axes ascending

    @property
    def dtype(self) -> type:
        """Type of every table, and of any sum of disjoint table cells."""
        return _count_dtype(self.n_pairs)


def _count_dtype(n_pairs: int) -> type:
    """Integer type that holds every count from 0 up to n_pairs."""
    import numpy as np

    return np.int32 if n_pairs < 2**31 else np.int64


def compile_cost_model(profile: Profile, budget: int) -> CostModel:
    """Sum the profile's dissatisfaction tables per axis tuple.

    Raises BudgetExceeded, before allocating any table, when the tables would
    hold more than ``budget`` entries in total.
    """
    import numpy as np

    dom = profile.domain_sizes()
    m = profile.m
    strides = []
    acc = 1
    for j in range(m - 1, -1, -1):
        strides.append(acc)
        acc *= dom[j]
    strides.reverse()

    groups = {}
    n_pairs = 0
    for voter in profile.voters:
        for j, ballot in voter.ballots.items():
            if not ballot.scope:
                approved = ballot.statements.get((), frozenset())
                if len(approved) == dom[j]:
                    continue  # approve-all cannot be dissatisfied
            axes = tuple(sorted({j, *ballot.scope}))
            groups.setdefault(axes, []).append((j, ballot))
            n_pairs += 1

    entries = sum(math.prod(dom[k] for k in axes) for axes in groups)
    if entries > budget:
        raise BudgetExceeded(
            f"factor tables need {entries} entries, budget is {budget}"
        )
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
                for a in approved:
                    if fixed is None or fixed == a:
                        cell[target] = a
                        table[tuple(cell)] -= 1
        factors.append((axes, table))

    return CostModel(
        m=m,
        dom=dom,
        strides=tuple(strides),
        total=math.prod(dom),
        n_pairs=n_pairs,
        factors=tuple(factors),
    )


def decode_outcome(compiled: CostModel, index: int) -> tuple:
    digits = []
    for j in range(compiled.m):
        digits.append(int((index // int(compiled.strides[j])) % int(compiled.dom[j])))
    return tuple(digits)


def scan_best(compiled: CostModel, block: int = BLOCK):
    """(cost, index) of the lexicographically first minimizing outcome."""
    import numpy as np

    if compiled.total == 0:
        raise ValueError("empty outcome space")
    dom, m = compiled.dom, compiled.m
    split = m
    while split > 0 and math.prod(dom[split - 1 :]) <= block:
        split -= 1
    trailing = dom[split:]
    size = math.prod(trailing)

    # Per table: its leading axes (indexed by the prefix) and the shape that
    # broadcasts its trailing part over the block.
    plans = []
    for axes, table in compiled.factors:
        lead = [k for k in axes if k < split]
        shape = [dom[k] if k in axes else 1 for k in range(split, m)]
        plans.append((lead, shape, table))

    best_cost = None
    best_index = 0
    sums = np.empty(trailing, dtype=compiled.dtype)
    for rank, prefix in enumerate(itertools.product(*map(range, dom[:split]))):
        sums.fill(0)
        for lead, shape, table in plans:
            part = table[tuple(prefix[k] for k in lead)] if lead else table
            np.add(sums, np.reshape(part, shape), out=sums)
        local = int(np.argmin(sums))
        cost = int(sums.flat[local])
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_index = rank * size + local
            if best_cost == 0:
                break
    return best_cost, best_index
