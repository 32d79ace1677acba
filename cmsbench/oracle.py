"""Optima and structure computed apart from ``cmsvote``.

* :func:`milp_optimum` solves the instance as a 0/1 integer program with
  ``scipy.optimize.milp`` (HiGHS): one-hot variables per issue, one
  satisfaction variable per statement.
* :func:`grid_optimum` is an exact dynamic program along the grid's
  row-major frontier, for the grid family, where the integer program does
  not finish in reasonable time.
* :func:`component_count` counts the connected components of the dependency
  graph with a union-find.

Every function works on the benchmark's own :class:`families.Instance`, never
on a parsed profile.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_matrix

from families import Instance, evaluate


def milp_optimum(inst: Instance) -> int:
    """Minimum total disagreement, as ballots minus the most satisfiable."""
    offset = [0]
    for d in inst.domains:
        offset.append(offset[-1] + d)
    n_x = offset[-1]
    rows, cols, vals, lower, upper = [], [], [], [], []

    def add_row(entries, lo, hi):
        r = len(lower)
        for c, v in entries:
            rows.append(r)
            cols.append(c)
            vals.append(v)
        lower.append(lo)
        upper.append(hi)

    for j, d in enumerate(inst.domains):
        add_row([(offset[j] + a, 1.0) for a in range(d)], 1.0, 1.0)

    n_ballots = 0
    n_s = 0
    for ballots in inst.voters:
        for target, scope, statements in ballots:
            n_ballots += 1
            for premise, approved in statements.items():
                s = n_x + n_s
                n_s += 1
                # s <= sum of the approved target values
                add_row(
                    [(s, 1.0)] + [(offset[target] + a, -1.0) for a in approved],
                    -np.inf,
                    0.0,
                )
                # s <= the premise value of each scope issue
                for k, v in zip(scope, premise):
                    add_row([(s, 1.0), (offset[k] + v, -1.0)], -np.inf, 0.0)

    n_vars = n_x + n_s
    matrix = coo_matrix((vals, (rows, cols)), shape=(len(lower), n_vars)).tocsr()
    objective = np.zeros(n_vars)
    objective[n_x:] = -1.0
    result = milp(
        objective,
        constraints=LinearConstraint(matrix, lower, upper),
        integrality=np.ones(n_vars),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0.0, "presolve": False},
    )
    if result.status != 0:
        raise RuntimeError(f"integer program not solved to optimality: {result.message}")
    satisfied = int(round(-result.fun))
    outcome = [
        int(np.argmax(result.x[offset[j] : offset[j + 1]])) for j in range(inst.m)
    ]
    optimum = n_ballots - satisfied
    if evaluate(inst, outcome) != optimum:
        raise RuntimeError("integer program's outcome does not attain its objective")
    return optimum


def grid_optimum(inst: Instance) -> int:
    """Exact optimum for an instance whose ballots follow grid edges.

    Cells are added column by column (row-major order of the transposed
    ``cols x rows`` grid), so the frontier is the last ``rows`` cells, one
    table axis each.  A new cell interacts with the oldest frontier cell (its
    left neighbour), which is then minimized out, and with the newest one
    (the cell above it, unless the column just started).
    """
    rows, cols = inst.grid
    d = inst.domains[0]
    unary = np.zeros((inst.m, d), dtype=np.int64)
    pair = {}  # (u, v) -> table indexed [value of u, value of v], u < v
    for ballots in inst.voters:
        for target, scope, statements in ballots:
            if not scope:
                for a in range(d):
                    if a not in statements[()]:
                        unary[target, a] += 1
                continue
            (k,) = scope
            u, v = min(k, target), max(k, target)
            if v - u not in (1, cols) or (v - u == 1 and v % cols == 0):
                raise ValueError(f"ballot on issues {u} and {v} is off the grid")
            table = pair.setdefault((u, v), np.zeros((d, d), dtype=np.int64))
            for vk in range(d):
                approved = statements.get((vk,), frozenset())
                for vt in range(d):
                    if vt not in approved:
                        if k == u:
                            table[vk, vt] += 1
                        else:
                            table[vt, vk] += 1

    def edge(u, v):
        """Table indexed [value of u, value of v] for arbitrary order."""
        if u < v:
            return pair.get((u, v), np.zeros((d, d), dtype=np.int64))
        return edge(v, u).T

    zeros = np.zeros((1, d), dtype=np.int64)
    table = np.zeros((1,) * rows, dtype=np.int64)
    frontier = [None] * rows  # oldest first; None marks an empty slot
    for c in range(cols):
        for r in range(rows):
            cell = r * cols + c
            left, above = frontier[0], frontier[-1]
            left_cost = zeros if left is None else edge(left, cell)
            above_cost = edge(above, cell) if r > 0 else zeros
            expanded = (
                table[..., None]
                + left_cost.reshape((left_cost.shape[0],) + (1,) * (rows - 1) + (d,))
                + above_cost.reshape((1,) * (rows - 1) + above_cost.shape)
                + unary[cell]
            )
            table = expanded.min(axis=0)
            frontier = frontier[1:] + [cell]
    return int(table.min())


def component_count(inst: Instance) -> int:
    parent = list(range(inst.m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ballots in inst.voters:
        for target, scope, _ in ballots:
            for k in scope:
                parent[find(k)] = find(target)
    return sum(1 for j in range(inst.m) if find(j) == j)
