"""Maximum cardinality matching in general graphs (Edmonds' blossom
algorithm, array-based, O(V^3)-style).

Called on a host graph's bitset rows by the odd-r fast path of
``factors`` (``maximum_matching``), and on the stub/core
expansion by the exact r-factor arbiter (``_Matcher``); the bipartite
selections in ``factors`` use their own b-matching.  The search starts
from a greedy maximal matching, which may extend a partial seed
matching handed in by the caller: the degree-factor pipeline seeds it
from the fast path's near-factor, so only a few gadget vertices start
exposed.  Each alternating tree resets and scans only the vertices it
reached, so an augmentation costs the size of its tree, not of the
graph.

A vertex v's neighbours are ``adj[v]``, read in order.  ``adj[v]`` may
be one object shared by many vertices (twins), and with ``heads`` given,
``heads[v] >= 0`` is one more neighbour read before them.  The stub/core
gadget uses this to stay linear in the host's size: a core's row is its
vertex's stubs, and a stub's row is its edge partner, then its vertex's
cores.
"""

from __future__ import annotations

from collections import deque

from .core import iter_bits
from .errors import InternalError


def greedy_matching(
    n: int,
    adj: list,
    seed: list[int] | None = None,
    heads: list[int] | None = None,
) -> list[int]:
    """Maximal matching by scanning low-degree vertices first.

    ``seed``, when given, is a valid partial mate array (-1 for exposed
    vertices); it is copied and extended, never modified.  Only the
    vertices exposed at the start are sorted: the others stay matched.
    """
    match = [-1] * n if seed is None else list(seed)
    order = [v for v in range(n) if match[v] == -1]
    order.sort(key=lambda u: len(_row(adj, heads, u)))
    for v in order:
        if match[v] == -1:
            for u in _row(adj, heads, v):
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break
    return match


def _row(adj: list, heads: list[int] | None, v: int):
    """v's neighbours in scan order: ``heads[v]`` if any, then ``adj[v]``."""
    if heads is None or heads[v] < 0:
        return adj[v]
    return (heads[v], *adj[v])


class _Matcher:
    def __init__(
        self,
        n: int,
        adj: list,
        seed: list[int] | None = None,
        heads: list[int] | None = None,
    ):
        self.n = n
        self.adj = adj
        self.heads = heads
        self.match = greedy_matching(n, adj, seed, heads)
        self.p = [-1] * n
        self.base = list(range(n))
        # used[v] == epoch iff v is an outer (even) vertex of the current tree
        self.used = [0] * n
        self.epoch = 0
        # every vertex whose p or base the current tree may have changed
        self.tree: list[int] = []

    def _lca(self, a: int, b: int) -> int:
        seen = set()
        while True:
            a = self.base[a]
            seen.add(a)
            if self.match[a] == -1:
                break
            a = self.p[self.match[a]]
        while True:
            b = self.base[b]
            if b in seen:
                return b
            b = self.p[self.match[b]]

    def _mark_path(self, v: int, b: int, child: int, blossom: set[int]) -> None:
        while self.base[v] != b:
            blossom.add(self.base[v])
            blossom.add(self.base[self.match[v]])
            self.p[v] = child
            child = self.match[v]
            v = self.p[self.match[v]]

    def _find_path(self, root: int, augment: bool = True) -> bool:
        """Grow an alternating tree from ``root``.

        Returns True iff an augmenting path was found (and applied when
        ``augment``).  With ``augment=False`` the tree is only explored,
        which is how the outer-vertex labels are collected afterwards.
        """
        adj, heads = self.adj, self.heads
        match, p, base, used = self.match, self.p, self.base, self.used
        for v in self.tree:
            p[v] = -1
            base[v] = v
        self.epoch += 1
        epoch = self.epoch
        tree = self.tree = [root]
        members: dict[int, list[int]] = {}  # base -> its vertices, once contracted
        used[root] = epoch
        q = deque([root])
        while q:
            v = q.popleft()
            for to in _row(adj, heads, v):
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    # odd cycle: contract the blossom
                    curbase = self._lca(v, to)
                    blossom: set[int] = set()
                    self._mark_path(v, curbase, to, blossom)
                    self._mark_path(to, curbase, v, blossom)
                    into = members.setdefault(curbase, [curbase])
                    blossom.discard(curbase)
                    for b in blossom:
                        group = members.pop(b, None) or [b]
                        for i in group:
                            base[i] = curbase
                            if used[i] != epoch:
                                used[i] = epoch
                                q.append(i)
                        into.extend(group)
                elif p[to] == -1:
                    p[to] = v
                    tree.append(to)
                    if match[to] == -1:
                        if not augment:
                            raise InternalError(
                                "augmenting path found during label pass"
                            )
                        while to != -1:
                            prev = p[to]
                            nxt = match[prev]
                            match[to] = prev
                            match[prev] = to
                            to = nxt
                        return True
                    mate = match[to]
                    used[mate] = epoch
                    tree.append(mate)
                    q.append(mate)
        return False

    def solve(self) -> list[int]:
        for v in range(self.n):
            if self.match[v] == -1:
                self._find_path(v)
        return self.match

    def outer_vertices(self) -> list[bool]:
        """Vertices reachable on an even alternating path from some
        exposed vertex, at optimality (the Gallai-Edmonds D-set)."""
        outer = [False] * self.n
        for v in range(self.n):
            if self.match[v] == -1:
                self._find_path(v, augment=False)
                for i in self.tree:
                    if self.used[i] == self.epoch:
                        outer[i] = True
        return outer


def maximum_matching(n: int, rows) -> list[int]:
    """Mate array of a maximum matching (-1 for exposed vertices) of the
    graph with bitset rows ``rows``.

    The greedy pass is ``greedy_matching``'s on the rows' neighbour
    lists: vertices by ascending degree, ties by index, each matched to
    its lowest free neighbour.  A maximal matching that leaves at most
    one vertex exposed is maximum, so the blossom search runs only when
    two or more stay exposed, seeded with the greedy matching, which
    its own greedy pass cannot extend.  The mate array is
    ``_Matcher(n, lists).solve()``'s.
    """
    match = [-1] * n
    free = (1 << n) - 1
    for v in sorted(range(n), key=lambda u: rows[u].bit_count()):
        if free >> v & 1:
            cand = rows[v] & free
            if cand:
                low = cand & -cand
                u = low.bit_length() - 1
                match[v] = u
                match[u] = v
                free ^= low | 1 << v
    if free & (free - 1):
        return _Matcher(n, [list(iter_bits(x)) for x in rows], match).solve()
    return match

