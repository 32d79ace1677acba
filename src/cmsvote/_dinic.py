"""Blocking-flow (Dinic) maximum flow on integer capacities.

The network is three plain lists: ``out[u]`` holds the ids of the arcs
leaving node ``u``, and arc ``e`` runs to ``to[e]`` with capacity
``cap[e]``.  Arcs come in forward/backward pairs, so arc ``e``'s reverse is
``e ^ 1`` and its tail is ``to[e ^ 1]``.  List indexing is the cheapest
element access plain Python has, so the kernel needs no numpy.

Each phase builds the level graph by BFS, stopping as soon as the sink has
a level; of the nodes on the sink's level only the sink is kept.  An
iterative DFS with current-arc pointers then finds a blocking flow.  After
each augmentation it resumes at the tail of the first arc the path
saturated instead of going back to the source, and a node whose arcs are
exhausted leaves the level graph.  The flow value is exact on integer
capacities (Python integers never overflow); the returned source side is
the set of nodes reachable in the final residual graph, which is the same
for every maximum flow.
"""

from __future__ import annotations


def max_flow(n, source, sink, out, to, cap):
    """(flow value, residual source side as a list of n booleans).

    ``cap`` is copied, so the caller's capacities are left as they were.
    """
    cap = list(cap)
    flow = 0
    while True:
        level = [-1] * n
        level[source] = 0
        queue = [source]
        for u in queue:
            below = level[u] + 1
            for e in out[u]:
                if cap[e] > 0:
                    v = to[e]
                    if level[v] < 0:
                        level[v] = below
                        if v == sink:
                            break
                        queue.append(v)
            else:
                continue
            break
        else:
            # The BFS ran to exhaustion without reaching the sink: the
            # labelled nodes are exactly the residual source side.
            return flow, [d >= 0 for d in level]

        # Nodes labelled on the sink's level lead nowhere; drop them.
        top = level[sink]
        while level[queue[-1]] == top:
            level[queue.pop()] = -1

        it = [0] * n
        path = []
        u = source
        while True:
            if u == sink:
                first = 0
                bottleneck = cap[path[0]]
                for k in range(1, len(path)):
                    c = cap[path[k]]
                    if c < bottleneck:
                        bottleneck = c
                        first = k
                for e in path:
                    cap[e] -= bottleneck
                    cap[e ^ 1] += bottleneck
                flow += bottleneck
                u = to[path[first] ^ 1]
                del path[first:]
                continue
            arcs = out[u]
            i = it[u]
            end = len(arcs)
            below = level[u] + 1
            while i < end:
                e = arcs[i]
                if cap[e] > 0 and level[to[e]] == below:
                    break
                i += 1
            it[u] = i
            if i < end:
                path.append(e)
                u = to[e]
            elif path:
                level[u] = -1
                u = to[path.pop() ^ 1]
                it[u] += 1
            else:
                break
