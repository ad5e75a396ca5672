"""Simple undirected/directed graphs over dense vertex indices 0..n-1.

Adjacency rows are Python ints used as bitsets (bit v of adj[u] set iff
uv is an edge), which keeps the counting primitives e(X,Y), e'(X,Y) and
all subset enumeration loops branch-free and fast.  Graphs are immutable
after construction and safe to share between threads.

Vertex sets cross the public API as ordinary iterables of ints and are
converted to masks internally; results come back as frozensets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import CapacityError, DisjointnessError, InputError

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


def norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


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
        g._m = sum(r.bit_count() for r in rows) // 2
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
        return 0 <= u < self.n and bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> list[int]:
        return list(iter_bits(self.adj[v]))

    def edges(self) -> list[Edge]:
        """All edges as (u, v) pairs with u < v, sorted."""
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            for v in iter_bits(row):
                out.append((u, v))
        return out

    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges())

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        return self.component_of(0) == (1 << self.n) - 1

    def _reach(self, v: int, within: int) -> int:
        """Bitmask of the vertices of ``within`` reachable from v inside it."""
        seen = 1 << v
        frontier = seen
        while frontier:
            nxt = 0
            for u in iter_bits(frontier):
                nxt |= self.adj[u]
            frontier = nxt & ~seen & within
            seen |= frontier
        return seen

    def component_of(self, v: int) -> int:
        """Bitmask of the connected component containing v."""
        return self._reach(v, (1 << self.n) - 1)

    def components(self, within: int | None = None) -> list[int]:
        """Connected-component bitmasks of the subgraph induced on ``within``."""
        if within is None:
            within = (1 << self.n) - 1
        comps = []
        todo = within
        while todo:
            seen = self._reach((todo & -todo).bit_length() - 1, within)
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


class DiGraph:
    """Immutable simple digraph; out_adj/in_adj are bitset rows."""

    __slots__ = ("n", "out_adj", "in_adj")

    def __init__(self, n: int, arcs: Iterable[Edge] = ()):
        _check_capacity(n)
        out_rows = [0] * n
        in_rows = [0] * n
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"arc ({u},{v}) out of range for n={n}")
            if u == v:
                raise InputError(f"loop at vertex {u} not allowed")
            out_rows[u] |= 1 << v
            in_rows[v] |= 1 << u
        self.n = n
        self.out_adj = tuple(out_rows)
        self.in_adj = tuple(in_rows)

    def out_degree(self, v: int) -> int:
        return self.out_adj[v].bit_count()

    def in_degree(self, v: int) -> int:
        return self.in_adj[v].bit_count()

    def arc_count(self) -> int:
        return sum(r.bit_count() for r in self.out_adj)

    def arcs(self) -> list[Edge]:
        return [(u, v) for u in range(self.n) for v in iter_bits(self.out_adj[u])]

    def __repr__(self) -> str:
        return f"DiGraph(n={self.n}, arcs={self.arc_count()})"


class EdgeSubgraph:
    """A sparse set of edges living on a host vertex set 0..n-1.

    This is the representation for factors, Hamilton cycles and other
    spanning structures that are sparse relative to their hosts.
    """

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[Edge]):
        _check_capacity(n)
        norm = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise InputError(f"bad edge ({u},{v}) for host n={n}")
            norm.add(norm_edge(u, v))
        self.n = n
        self.edges = frozenset(norm)

    def __len__(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def to_graph(self) -> Graph:
        return Graph(self.n, self.edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EdgeSubgraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"EdgeSubgraph(n={self.n}, edges={len(self.edges)})"


@dataclass(frozen=True)
class Partition:
    """A disjoint pair (A, B) of vertex sets; vertices may stay uncovered."""

    a: frozenset[int]
    b: frozenset[int]

    def __post_init__(self):
        if self.a & self.b:
            raise InputError("partition classes A and B must be disjoint")


# ---------------------------------------------------------------------------
# Counting primitives
# ---------------------------------------------------------------------------

def edges_between(g: Graph, xs: Iterable[int], ys: Iterable[int]) -> int:
    """Number of edges with one endvertex in X and the other in Y.

    Edges inside X ∩ Y are counted once.
    """
    x = mask_of(xs, g.n)
    y = mask_of(ys, g.n)
    both = x & y
    only_x = x & ~y
    only_y = y & ~x
    total = 0
    for v in iter_bits(only_x):
        total += (g.adj[v] & y).bit_count()
    for v in iter_bits(both):
        total += (g.adj[v] & only_y).bit_count()
    # edges inside the intersection, each seen twice from within
    inner = 0
    for v in iter_bits(both):
        inner += (g.adj[v] & both).bit_count()
    return total + inner // 2


def edges_inside(g: Graph, xs: Iterable[int]) -> int:
    """e(X): number of edges of the subgraph induced by X."""
    x = mask_of(xs, g.n)
    total = 0
    for v in iter_bits(x):
        total += (g.adj[v] & x).bit_count()
    return total // 2


def ordered_pairs(g: Graph, xs: Iterable[int], ys: Iterable[int]) -> int:
    """e'(X,Y): ordered pairs (x, y) with x in X, y in Y and xy an edge.

    Equals e(X,Y) + e(X ∩ Y).
    """
    x = mask_of(xs, g.n)
    y = mask_of(ys, g.n)
    total = 0
    for v in iter_bits(x):
        total += (g.adj[v] & y).bit_count()
    return total


# ---------------------------------------------------------------------------
# Subgraph surgery
# ---------------------------------------------------------------------------

def remove_subgraph(g: Graph, h: EdgeSubgraph) -> Graph:
    """Delete the edges of ``h`` from ``g``; the vertex set is unchanged."""
    if h.n != g.n:
        raise InputError(f"host mismatch: graph n={g.n}, subgraph n={h.n}")
    rows = list(g.adj)
    for u, v in h.edges:
        if not rows[u] >> v & 1:
            raise InputError(f"edge ({u},{v}) not present in the host graph")
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
    return Graph.from_adj(rows)


def union_edge_disjoint(h1: EdgeSubgraph, h2: EdgeSubgraph) -> EdgeSubgraph:
    """Disjoint union of two edge sets on the same host."""
    if h1.n != h2.n:
        raise InputError(f"host mismatch: {h1.n} vs {h2.n}")
    shared = h1.edges & h2.edges
    if shared:
        raise DisjointnessError(f"edge sets share {len(shared)} edges, e.g. {min(shared)}")
    out = EdgeSubgraph.__new__(EdgeSubgraph)
    out.n = h1.n
    out.edges = h1.edges | h2.edges
    return out
