"""Balanced edge orientation via Eulerian circuits.

Odd-degree vertices are paired up with virtual edges, every component of
the resulting even-degree multigraph is traversed by an Eulerian
circuit, and traversal direction becomes the orientation.  Dropping the
virtual edges leaves |outdeg - indeg| <= 1 at every vertex, with exact
balance wherever the degree is even.
"""

from __future__ import annotations

from .core import Graph
from .errors import InternalError


def balanced_orientation_arcs(g: Graph) -> list[tuple[int, int]]:
    """Orient the edges of ``g``; returns one (u, v) arc per edge.

    Deterministic: each circuit starts at the lowest vertex with an
    unused edge and leaves every vertex by its first unused edge in
    ``g.edges()`` order, the virtual edges last.
    """
    n = g.n
    records: list[tuple[int, int, bool]] = [(u, v, False) for u, v in g.edges()]
    odd = [v for v in range(n) if g.degree(v) % 2]
    for i in range(0, len(odd), 2):
        records.append((odd[i], odd[i + 1], True))

    inc: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (edge_id, other)
    for eid, (u, v, _) in enumerate(records):
        inc[u].append((eid, v))
        inc[v].append((eid, u))

    used = [False] * len(records)
    ptr = [0] * n
    direction: list[tuple[int, int] | None] = [None] * len(records)

    for start in range(n):
        if ptr[start] >= len(inc[start]):
            continue
        stack = [start]
        while stack:
            v = stack[-1]
            while ptr[v] < len(inc[v]) and used[inc[v][ptr[v]][0]]:
                ptr[v] += 1
            if ptr[v] == len(inc[v]):
                stack.pop()
                continue
            eid, w = inc[v][ptr[v]]
            used[eid] = True
            direction[eid] = (v, w)
            stack.append(w)

    arcs = []
    for eid, (u, v, virtual) in enumerate(records):
        if virtual:
            continue
        d = direction[eid]
        if d is None:
            raise InternalError(f"edge ({u},{v}) left unoriented")
        arcs.append(d)
    return arcs
