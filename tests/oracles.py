"""Independent brute-force oracles.

These deliberately share no code with the library's search paths: edge
subsets are enumerated directly, matchings maximized by edge DFS, and
Hamilton cycles checked over raw vertex permutations.
"""

from __future__ import annotations

import itertools

from hampack.core import Graph


def brute_has_r_factor(g: Graph, r: int) -> bool:
    """Spanning r-regular subgraph existence by pruned edge DFS."""
    edges = g.edges()
    deg = [0] * g.n
    rem = [g.degree(v) for v in range(g.n)]
    if any(d < r for d in rem):
        return False

    def dfs(i: int) -> bool:
        if i == len(edges):
            return all(d == r for d in deg)
        u, v = edges[i]
        if deg[u] + rem[u] < r or deg[v] + rem[v] < r:
            return False
        rem[u] -= 1
        rem[v] -= 1
        ok = False
        if deg[u] < r and deg[v] < r:
            deg[u] += 1
            deg[v] += 1
            ok = dfs(i + 1)
            deg[u] -= 1
            deg[v] -= 1
        if not ok and deg[u] + rem[u] >= r and deg[v] + rem[v] >= r:
            ok = dfs(i + 1)
        rem[u] += 1
        rem[v] += 1
        return ok

    return dfs(0)


def brute_max_matching_size(g: Graph) -> int:
    edges = g.edges()
    best = 0

    def dfs(i: int, used: int, size: int) -> None:
        nonlocal best
        best = max(best, size)
        if i == len(edges) or size + (len(edges) - i) <= best:
            return
        u, v = edges[i]
        if not used >> u & 1 and not used >> v & 1:
            dfs(i + 1, used | 1 << u | 1 << v, size + 1)
        dfs(i + 1, used, size)

    dfs(0, 0, 0)
    return best


def brute_hamilton_exists(g: Graph) -> bool:
    """Permutation scan; fine for n <= 8."""
    n = g.n
    if n < 3:
        return False
    for perm in itertools.permutations(range(1, n)):
        seq = (0,) + perm
        if all(g.has_edge(seq[i], seq[(i + 1) % n]) for i in range(n)):
            return True
    return False


def brute_min_closeness(g: Graph, kind: str) -> tuple[frozenset[int], int]:
    """The lexicographically first minimiser of e(A) or e(A, complement)
    over the combinations A of size n//2, and its score; unpruned."""
    n = g.n
    edges = g.edges()
    best = None
    for combo in itertools.combinations(range(n), n // 2):
        inside = set(combo)
        if kind == "bipartite":
            score = sum(1 for u, v in edges if u in inside and v in inside)
        else:
            score = sum(1 for u, v in edges if (u in inside) != (v in inside))
        if best is None or score < best[1]:
            best = (frozenset(combo), score)
    return best if best is not None else (frozenset(), 0)


def brute_min_closeness_score(g: Graph, kind: str) -> int:
    """Unpruned minimum of e(A) or e(A, complement) over |A| = n//2."""
    return brute_min_closeness(g, kind)[1]


def brute_first_non_expanding_set(n: int, arcs, nu, tau) -> frozenset[int] | None:
    """The first S in ascending bitmask order with tau*n <= |S| <= (1-tau)*n
    and fewer than |S| + nu*n vertices that have at least nu*n
    in-neighbours in S, straight from the definition; None if none."""
    ins = [{a for a, b in arcs if b == v} for v in range(n)]
    for mask in range(1 << n):
        s = {v for v in range(n) if mask >> v & 1}
        if not tau * n <= len(s) <= (1 - tau) * n:
            continue
        rn = [v for v in range(n) if len(ins[v] & s) >= nu * n]
        if len(rn) < len(s) + nu * n:
            return frozenset(s)
    return None


def all_graphs(n: int):
    """Every labeled graph on n vertices."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for picks in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if picks >> i & 1])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def brute_all_hamilton_cycles(g: Graph) -> list[tuple[int, ...]]:
    """All Hamilton cycles in canonical form, by permutation scan."""
    n = g.n
    out = set()
    if n < 3:
        return []
    for perm in itertools.permutations(range(1, n)):
        seq = (0,) + perm
        if all(g.has_edge(seq[i], seq[(i + 1) % n]) for i in range(n)):
            if seq[1] < seq[-1]:
                out.add(seq)
    return sorted(out)


def brute_max_packing(g: Graph) -> int:
    """Exact maximum edge-disjoint packing over the explicit cycle list."""
    cycles = brute_all_hamilton_cycles(g)
    edge_sets = []
    for c in cycles:
        es = frozenset(
            (c[i], c[(i + 1) % len(c)]) if c[i] < c[(i + 1) % len(c)]
            else (c[(i + 1) % len(c)], c[i])
            for i in range(len(c))
        )
        edge_sets.append(es)
    best = 0

    def dfs(i: int, used: frozenset, size: int) -> None:
        nonlocal best
        best = max(best, size)
        for j in range(i, len(edge_sets)):
            if not (edge_sets[j] & used):
                dfs(j + 1, used | edge_sets[j], size + 1)

    dfs(0, frozenset(), 0)
    return best
