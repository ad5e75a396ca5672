"""Balanced edge orientation via Eulerian circuits.

Odd-degree vertices are paired up with virtual edges, every component of
the resulting even-degree multigraph is traversed by an Eulerian
circuit, and traversal direction becomes the orientation.  Dropping the
virtual edges leaves |outdeg - indeg| <= 1 at every vertex, with exact
balance wherever the degree is even.  The orientation is returned as the
out-neighbour bitset rows the walk fills, the form the b-matching of
``factors`` reads and ``expanders.eulerian_orientation`` audits for
balance.
"""

from __future__ import annotations

from .core import Graph
from .errors import InternalError


def balanced_orientation_arcs(g: Graph) -> list[int]:
    """Orient the edges of ``g``; returns its out-neighbour rows: bit w
    of row v is set when the edge vw is oriented v -> w.  The in-rows
    are ``g.adj[v] & ~out[v]``.

    Deterministic: each circuit starts at the lowest vertex with an
    unused edge and leaves every vertex by its lowest unused neighbour,
    the virtual edge last.  The unused edges are copies of the bitset
    rows, so the lowest neighbour is the lowest set bit; a virtual edge
    sits in its own row, since it may join two adjacent vertices.
    """
    n = g.n
    rows = list(g.adj)
    virtual = [0] * n
    odd = [v for v in range(n) if rows[v].bit_count() % 2]
    for a, b in zip(odd[::2], odd[1::2]):
        virtual[a] = 1 << b
        virtual[b] = 1 << a
    out = [0] * n
    for start in range(n):
        if not rows[start] | virtual[start]:
            continue
        v, trail = start, []  # trail: the circuit's open vertices below v
        while True:
            row = rows[v]
            if row:
                low = row & -row
                w = low.bit_length() - 1
                rows[v] = row ^ low
                rows[w] ^= 1 << v
                out[v] |= low
            elif virtual[v]:
                w = virtual[v].bit_length() - 1
                virtual[v] = virtual[w] = 0
            elif trail:
                v = trail.pop()
                continue
            else:
                break
            trail.append(v)
            v = w
    if sum(map(int.bit_count, out)) != g.m:
        raise InternalError("an edge was left unoriented")
    return out
