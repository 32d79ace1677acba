"""Shortest-augmenting-path (ISAP) maximum flow on integer capacities.

The network is three plain lists: ``out[u]`` holds the ids of the arcs
leaving node ``u``, and arc ``e`` runs to ``to[e]`` with capacity
``cap[e]``.  Arcs come in forward/backward pairs, so arc ``e``'s reverse is
``e ^ 1`` and its tail is ``to[e ^ 1]``.  List indexing is the cheapest
element access plain Python has, so the kernel needs no numpy.

Every node carries a distance label, a lower bound on its residual distance
to the sink; the first labels are exact, from a BFS from the sink over the
reversed residual arcs.  The search advances from the source along
admissible arcs (residual, and one label lower) with per-node current-arc
pointers.  After each augmentation it resumes at the tail of the first arc
the path saturated.  A node without an admissible arc is relabelled to one
more than its lowest residual neighbour and the search retreats one arc
(Ahuja & Orlin 1991).  The search ends on a gap, when the relabelled node
was the last one at its old label, so that no residual path crosses that
label, or once the source's label reaches n.  After every
``_GLOBAL_RELABEL_PERIOD * n`` local relabels the labels are made exact
again by the sink BFS and the search restarts at the source (the global
relabelling of push-relabel codes, Cherkassky & Goldberg 1997).

The flow value is exact on integer capacities (Python integers never
overflow).  The returned source side comes from one final BFS from the
source over the residual arcs: the set of nodes reachable in the final
residual graph, which is the same for every maximum flow.
"""

from __future__ import annotations

# Local relabels between two exact relabels, as a multiple of the node
# count.  On the seed-211 benchmark MINCUT network and the two scaling
# networks of acceptance criterion 7, periods from 0.15 n to 1.0 n all ran
# well ahead of ISAP without global relabels, and 0.3 n was the fastest on
# each (CHANGES.md has the sweep).
_GLOBAL_RELABEL_PERIOD = 0.3


def sink_distances(n, sink, out, to, cap):
    """Residual distance of every node to the sink; n where there is none."""
    dist = [n] * n
    dist[sink] = 0
    queue = [sink]
    for v in queue:
        d = dist[v] + 1
        for e in out[v]:
            u = to[e]
            if dist[u] == n and cap[e ^ 1] > 0:
                dist[u] = d
                queue.append(u)
    return dist


def max_flow(n, source, sink, out, to, cap):
    """(flow value, residual source side as a list of n booleans).

    ``cap`` is copied, so the caller's capacities are left as they were.
    """
    cap = list(cap)
    flow = 0
    period = max(1, int(_GLOBAL_RELABEL_PERIOD * n))
    relabels_left = 0
    path = []
    while True:
        if relabels_left == 0:
            dist = sink_distances(n, sink, out, to, cap)
            if dist[source] >= n:
                break
            count = [0] * (n + 1)
            for d in dist:
                count[d] += 1
            cur = [0] * n
            relabels_left = period
            u = source
            path.clear()

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
        i = cur[u]
        end = len(arcs)
        below = dist[u] - 1
        while i < end:
            e = arcs[i]
            if cap[e] > 0 and dist[to[e]] == below:
                break
            i += 1
        if i < end:
            cur[u] = i
            path.append(e)
            u = to[e]
            continue

        # No admissible arc: relabel u to one above its lowest residual
        # neighbour (n when it has none), pointing at that neighbour's arc.
        old = below + 1
        count[old] -= 1
        if count[old] == 0:
            break  # gap: nothing left on label `old` links u's side to the sink
        low = n - 1
        i = 0
        for k, e in enumerate(arcs):
            if cap[e] > 0:
                d = dist[to[e]]
                if d < low:
                    low = d
                    i = k
        dist[u] = low + 1
        count[low + 1] += 1
        cur[u] = i
        if dist[source] >= n:
            break
        if path:
            u = to[path.pop() ^ 1]
        relabels_left -= 1

    side = [False] * n
    side[source] = True
    queue = [source]
    for v in queue:
        for e in out[v]:
            if cap[e] > 0:
                w = to[e]
                if not side[w]:
                    side[w] = True
                    queue.append(w)
    return flow, side
