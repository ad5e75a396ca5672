"""Balanced edge orientation by closed trails, with a greedy selection
of arcs taken on the way.

Odd-degree vertices are paired up with virtual edges, so every vertex
of the resulting multigraph has even degree.  The walk splits it into
closed trails: from each vertex in index order, it keeps leaving by an
unused edge until it is back at its start with nothing left there.  An
even-degree multigraph can only get stuck at the trail's start, so no
trail stack is needed.  Each closed trail enters a vertex as often as
it leaves it, so dropping the virtual edges leaves |outdeg - indeg| <= 1
at every vertex, with exact balance wherever the degree is even.

While it walks v -> w, the walk also takes the arc into a selection
when v has fewer than ``half`` selected out-arcs and w fewer than
``half`` selected in-arcs: the greedy start of the b-matching of
``factors``, which its Hopcroft-Karp phases complete.  Counts only go
up, so an arc passed over has a full tail or a full head for good, and
the selection is maximal.  The orientation and the selection are
returned as bitset rows, the form the b-matching reads and
``expanders.eulerian_orientation`` audits for balance.
"""

from __future__ import annotations

from .core import Graph
from .errors import InternalError


def balanced_orientation_arcs(g: Graph, half: int) -> tuple[list[int], list[int], list[int]]:
    """Orient the edges of ``g`` and select arcs greedily on the way;
    returns ``(out, chosen, fed)``.  Bit w of ``out[v]`` is set when the
    edge vw is oriented v -> w (the in-rows are ``g.adj[v] & ~out[v]``);
    ``chosen[v]`` holds the heads of the selected arcs out of v, and
    ``fed[w]`` the tails of the selected arcs into w.  Every in- and
    out-degree of the selection is at most ``half``, and no arc outside
    it has both its tail and its head below ``half``.

    Deterministic: each trail leaves every vertex by its lowest unused
    neighbour, the virtual edge last.  The unused edges are copies of
    the bitset rows, so the lowest neighbour is the lowest set bit; a
    virtual edge sits in its own row, since it may join two adjacent
    vertices.
    """
    n = g.n
    rows = list(g.adj)
    virtual = [0] * n
    odd = [v for v in range(n) if rows[v].bit_count() % 2]
    for a, b in zip(odd[::2], odd[1::2]):
        virtual[a] = 1 << b
        virtual[b] = 1 << a
    out = [0] * n
    chosen = [0] * n
    fed = [0] * n
    left = [half] * n  # out-arcs each tail may still take
    need = [half] * n  # in-arcs each head may still take
    room = (1 << n) - 1  # heads with need > 0
    for v in range(n):
        bit = 1 << v
        while True:
            row = rows[v]
            if row:
                low = row & -row
                w = low.bit_length() - 1
                rows[v] = row ^ low
                rows[w] ^= bit
                out[v] |= low
                if left[v] and room & low:
                    chosen[v] |= low
                    fed[w] |= bit
                    left[v] -= 1
                    need[w] -= 1
                    if not need[w]:
                        room ^= low
            elif virtual[v]:
                low = virtual[v]
                w = low.bit_length() - 1
                virtual[v] = virtual[w] = 0
            else:
                break  # stuck, so back at the start with nothing left
            v, bit = w, low
    if sum(map(int.bit_count, out)) != g.m:
        raise InternalError("an edge was left unoriented")
    return out, chosen, fed
