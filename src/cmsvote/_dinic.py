"""Blocking-flow (Dinic) maximum flow on integer capacities.

Arcs are stored as paired forward/backward entries (arc i's reverse is i^1)
in head/next adjacency arrays.  ``max_flow`` is the one implementation: it
copies the arrays into Python lists and runs level-graph BFS plus
iterative DFS augmentation over them, since list indexing is the cheapest
element access plain Python has.  The flow value is exact on integer
capacities (Python integers never overflow); the returned source side is
the set of nodes reachable in the residual graph, which is the same for
every maximum flow.
"""

from __future__ import annotations

import numpy as np


class ArcListBuilder:
    """Accumulates directed arcs; ``done`` freezes them into flat arrays."""

    def __init__(self, n_nodes: int):
        self.n_nodes = n_nodes
        self.head = [-1] * n_nodes
        self.nxt = []
        self.to = []
        self.cap = []

    def add_arc(self, u: int, v: int, capacity: int) -> None:
        for a, b, c in ((u, v, capacity), (v, u, 0)):
            self.nxt.append(self.head[a])
            self.head[a] = len(self.to)
            self.to.append(b)
            self.cap.append(c)

    def done(self):
        return (
            np.asarray(self.head, dtype=np.int64),
            np.asarray(self.nxt, dtype=np.int64),
            np.asarray(self.to, dtype=np.int64),
            np.asarray(self.cap, dtype=np.int64),
        )


def max_flow(n, source, sink, head, nxt, to, cap):
    """(flow value, residual source-side boolean array)."""
    head = head.tolist()
    nxt = nxt.tolist()
    to = to.tolist()
    cap = cap.tolist()
    flow = 0
    while True:
        level = [-1] * n
        level[source] = 0
        queue = [source]
        for u in queue:
            e = head[u]
            while e != -1:
                v = to[e]
                if cap[e] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
                e = nxt[e]
        if level[sink] < 0:
            break
        it = list(head)
        path_nodes = [source]
        path_arcs = []
        while path_nodes:
            u = path_nodes[-1]
            if u == sink:
                bottleneck = min(cap[e] for e in path_arcs)
                for e in path_arcs:
                    cap[e] -= bottleneck
                    cap[e ^ 1] += bottleneck
                flow += bottleneck
                path_nodes = [source]
                path_arcs = []
                continue
            e = it[u]
            while e != -1 and not (cap[e] > 0 and level[to[e]] == level[u] + 1):
                e = nxt[e]
            it[u] = e
            if e == -1:
                level[u] = -1
                path_nodes.pop()
                if path_arcs:
                    dead = path_arcs.pop()
                    it[path_nodes[-1]] = nxt[dead]
            else:
                path_nodes.append(to[e])
                path_arcs.append(e)

    side = [False] * n
    side[source] = True
    stack = [source]
    while stack:
        u = stack.pop()
        e = head[u]
        while e != -1:
            v = to[e]
            if cap[e] > 0 and not side[v]:
                side[v] = True
                stack.append(v)
            e = nxt[e]
    return flow, np.asarray(side, dtype=np.bool_)
