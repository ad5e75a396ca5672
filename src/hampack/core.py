"""Simple undirected graphs over dense vertex indices 0..n-1.

Adjacency rows are Python ints used as bitsets (bit v of adj[u] set iff
uv is an edge), which keeps edge counts and all subset enumeration
loops branch-free and fast.  Graphs are immutable after construction
and safe to share between threads.

Vertex sets cross the public API as ordinary iterables of ints and are
converted to masks internally; results come back as frozensets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import CapacityError, InputError

#: Hard cap on the vertex count; every desk-scale target sits far below it.
MAX_VERTICES = 1024

Edge = tuple[int, int]


def _check_capacity(n: int) -> None:
    if n < 0:
        raise InputError(f"vertex count must be nonnegative, got {n}")
    if n > MAX_VERTICES:
        raise CapacityError(f"n={n} exceeds the supported maximum {MAX_VERTICES}")


def mask_of(vertices: Iterable[int], n: int) -> int:
    """Pack an iterable of vertex indices into a bitmask, range-checked."""
    mask = 0
    for v in vertices:
        if not 0 <= v < n:
            raise InputError(f"vertex {v} out of range 0..{n - 1}")
        mask |= 1 << v
    return mask


def set_of(mask: int) -> frozenset[int]:
    """Unpack a bitmask into a frozenset of vertex indices."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reach(adj, v: int, within: int) -> int:
    """Bitmask of v and the vertices of ``within`` reachable from v
    inside it, over the bitset rows ``adj``: one BFS by whole frontiers."""
    seen = 1 << v
    frontier = seen
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & ~seen & within
        seen |= frontier
    return seen


class Graph:
    """Immutable simple undirected graph with bitset adjacency rows."""

    __slots__ = ("n", "adj", "_m")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        _check_capacity(n)
        rows = [0] * n
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InputError(f"loop at vertex {u} not allowed")
            if rows[u] >> v & 1:
                raise InputError(f"duplicate edge ({u},{v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            m += 1
        self.n = n
        self.adj = tuple(rows)
        self._m = m

    @classmethod
    def from_adj(cls, rows: list[int]) -> "Graph":
        """Build from prevalidated symmetric loop-free bitset rows."""
        g = cls.__new__(cls)
        g.n = len(rows)
        _check_capacity(g.n)
        g.adj = tuple(rows)
        g._m = sum(map(int.bit_count, rows)) // 2
        return g

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise InputError(f"vertex {v} out of range 0..{self.n - 1}")
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.adj]

    def min_degree(self) -> int:
        return min(self.degrees(), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and bool(self.adj[u] >> v & 1)

    def edges(self) -> list[Edge]:
        """All edges as (u, v) pairs with u < v, sorted."""
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            for v in iter_bits(row):
                out.append((u, v))
        return out

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        return self.component_of(0) == (1 << self.n) - 1

    def component_of(self, v: int) -> int:
        """Bitmask of the connected component containing v."""
        return _reach(self.adj, v, (1 << self.n) - 1)

    def components(self, within: int | None = None) -> list[int]:
        """Connected-component bitmasks of the subgraph induced on ``within``."""
        if within is None:
            within = (1 << self.n) - 1
        comps = []
        todo = within
        while todo:
            seen = _reach(self.adj, (todo & -todo).bit_length() - 1, within)
            comps.append(seen)
            todo &= ~seen
        return comps

    def cut_vertices(self) -> int:
        """Bitmask of the vertices v for which G - v is disconnected.

        With three or more components that is every vertex, with two it
        is every vertex outside a one-vertex component, and a connected
        graph's cut vertices are its articulation points, found by one
        iterative depth-first pass with low points (Hopcroft-Tarjan),
        O(n + m).
        """
        n = self.n
        full = (1 << n) - 1
        comps = self.components()
        if len(comps) >= 3:
            return full
        if len(comps) == 2:
            return full & ~sum(c for c in comps if c & (c - 1) == 0)
        if n < 3:
            return 0
        adj = self.adj
        disc = [0] * n  # discovery time, 0 while unvisited
        low = [0] * n
        disc[0] = low[0] = clock = 1
        stack = [[0, -1, adj[0]]]  # vertex, DFS parent, neighbours still to scan
        root_children = 0
        cut = 0
        while stack:
            top = stack[-1]
            v, parent, todo = top
            if todo:
                wb = todo & -todo
                top[2] = todo ^ wb
                w = wb.bit_length() - 1
                if not disc[w]:
                    clock += 1
                    disc[w] = low[w] = clock
                    stack.append([w, v, adj[w]])
                elif w != parent and disc[w] < low[v]:
                    low[v] = disc[w]
                continue
            stack.pop()
            if parent == 0:
                root_children += 1
            elif parent > 0 and low[v] >= disc[parent]:
                cut |= 1 << parent
            if parent >= 0 and low[v] < low[parent]:
                low[parent] = low[v]
        if root_children >= 2:
            cut |= 1
        return cut

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class EdgeSubgraph:
    """A set of edges on the vertex set 0..n-1 of a host graph, held as
    symmetric bitset rows like ``Graph.adj``.  This is the representation
    of factors; ``edges`` derives their (u, v) pairs, u < v, when read.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, edges: Iterable[Edge]):
        _check_capacity(n)
        edges = list(edges)
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise InputError(f"bad edge ({u},{v}) for host n={n}")
        self.n = n
        self.rows = EdgeSubgraph.from_host_edges(n, edges).rows

    @classmethod
    def from_host_edges(cls, n: int, edges: Iterable[Edge],
                        rows: Iterable[int] | None = None) -> "EdgeSubgraph":
        """Build from edges of a host graph on 0..n-1, in either
        orientation, ORed in both directions into ``rows`` (symmetric
        rows to start from; empty rows by default).  Nothing is
        range-checked here: the caller audits the result against its
        host (``factors.Factor.validate``)."""
        out = [0] * n if rows is None else list(rows)
        for u, v in edges:
            out[u] |= 1 << v
            out[v] |= 1 << u
        h = cls.__new__(cls)
        h.n = n
        h.rows = tuple(out)
        return h

    @property
    def edges(self) -> frozenset[Edge]:
        return frozenset(self.to_graph().edges())

    def __len__(self) -> int:
        return sum(map(int.bit_count, self.rows)) // 2

    def degrees(self) -> list[int]:
        return list(map(int.bit_count, self.rows))

    def to_graph(self) -> Graph:
        return Graph.from_adj(self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, EdgeSubgraph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"EdgeSubgraph(n={self.n}, edges={len(self)})"


def _first_edge(rows: Iterable[int]) -> Edge | None:
    """The lowest set bit (u, v) of the first nonzero row, or None when
    every row is 0.  Of symmetric rows that is the least edge u < v."""
    for u, row in enumerate(rows):
        if row:
            return u, (row & -row).bit_length() - 1
    return None


@dataclass(frozen=True)
class Partition:
    """A disjoint pair (A, B) of vertex sets; vertices may stay uncovered."""

    a: frozenset[int]
    b: frozenset[int]

    def __post_init__(self):
        if self.a & self.b:
            raise InputError("partition classes A and B must be disjoint")
