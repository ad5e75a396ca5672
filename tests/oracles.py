"""Independent brute-force oracles.

These deliberately share no code with the library's search paths: edge
subsets are enumerated directly, matchings maximized by edge DFS, and
Hamilton cycles checked over raw vertex permutations.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import isqrt
from typing import Iterable

from hampack.core import EdgeSubgraph, Graph, _check_capacity, iter_bits, mask_of
from hampack.errors import InputError, InternalError
from hampack.expanders import ExpanderVerdict, RobustParams
from hampack.factors import (
    Factor,
    FactorDecision,
    _certificate_from_masks,
    _decide_by_gadget,
    _factor_via_orientation,
    _near_factor,
    tutte_quantities,
)
from hampack.matching import _Matcher


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


def reference_closeness_score(g: Graph, kind: str, amask: int) -> int:
    if kind == "bipartite":
        total = 0
        for v in iter_bits(amask):
            total += (g.adj[v] & amask).bit_count()
        return total // 2
    total = 0
    for v in iter_bits(amask):
        total += (g.adj[v] & ~amask).bit_count()
    return total


def reference_closeness_heuristic(
    g: Graph, kind: str, k: int, seed: int, restarts: int
) -> tuple[int, int]:
    """The closeness swap search that rescores the whole set for every
    candidate swap: the same starts, shuffles and first strict
    improvement as ``extremality._closeness_heuristic``, without its
    kept counts."""
    n = g.n
    rng = random.Random(seed)
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    starts = [order[:k], order[::-1][:k]]
    components = sorted(g.components(), key=lambda c: -c.bit_count())
    greedy: list[int] = []
    for comp in components:
        for v in iter_bits(comp):
            if len(greedy) < k:
                greedy.append(v)
    starts.append(greedy)
    for _ in range(max(0, restarts - len(starts))):
        starts.append(rng.sample(range(n), k))
    best_mask = -1
    best_score: int | None = None
    for start in starts:
        amask = mask_of(start[:k], n)
        score = reference_closeness_score(g, kind, amask)
        improved = True
        while improved:
            improved = False
            ins = list(iter_bits(((1 << n) - 1) & ~amask))
            outs = list(iter_bits(amask))
            rng.shuffle(ins)
            rng.shuffle(outs)
            for u in outs:
                for w in ins:
                    cand = (amask & ~(1 << u)) | (1 << w)
                    sc = reference_closeness_score(g, kind, cand)
                    if sc < score:
                        amask, score = cand, sc
                        improved = True
                        break
                if improved:
                    break
        if best_score is None or score < best_score:
            best_mask, best_score = amask, score
    assert best_score is not None
    return best_mask, best_score


def robust_neighbourhood(g: Graph, s, nu) -> frozenset[int]:
    """RN_nu(S): the vertices with at least nu*n neighbours in S, counted
    over the edge list, the threshold compared as a rational."""
    s = set(s)
    count = [0] * g.n
    for u, v in g.edges():
        count[u] += v in s
        count[v] += u in s
    return frozenset(v for v in range(g.n) if count[v] >= Fraction(nu) * g.n)


def brute_first_non_expanding_set(g: Graph, nu, tau) -> frozenset[int] | None:
    """The first S in ascending bitmask order with tau*n <= |S| <= (1-tau)*n
    and |RN_nu(S)| < |S| + nu*n, straight from the definition; None if
    none."""
    n = g.n
    nbrs = [set() for _ in range(n)]
    for u, v in g.edges():
        nbrs[u].add(v)
        nbrs[v].add(u)
    lo, hi, thr = tau * n, (1 - tau) * n, nu * n
    for mask in range(1 << n):
        if not lo <= mask.bit_count() <= hi:
            continue
        s = {v for v in range(n) if mask >> v & 1}
        rn = [v for v in range(n) if len(nbrs[v] & s) >= thr]
        if len(rn) < len(s) + thr:
            return frozenset(s)
    return None


def brute_balanced_min_cut(n: int, arcs, half: int) -> int:
    """The most arcs that keep every in- and out-degree at most ``half``,
    by the min-cut formula of the tails-to-heads flow: the least, over
    every set X of tails, of half (n - |X|) + sum over heads y of
    min(half, e(X, y)).  A sub-digraph with every degree ``half``
    exists iff this is n half."""
    best = n * half
    for xmask in range(1 << n):
        into = [0] * n
        for u, v in arcs:
            if xmask >> u & 1:
                into[v] += 1
        best = min(best, half * (n - xmask.bit_count()) + sum(min(half, c) for c in into))
    return best


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


def cliques_sharing_a_vertex(k: int) -> Graph:
    """K_k on 0..k-1 and K_k on k-1..2k-2, sharing vertex k - 1."""
    edges = {(u, v) for lo in (0, k - 1) for u in range(lo, lo + k) for v in range(u + 1, lo + k)}
    return Graph(2 * k - 1, sorted(edges))


def generalized_petersen(k: int, s: int) -> Graph:
    edges = set()
    for i in range(k):
        for u, v in ((i, (i + 1) % k), (i, k + i), (k + i, k + (i + s) % k)):
            edges.add((min(u, v), max(u, v)))
    return Graph(2 * k, sorted(edges))


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
    """Exact maximum edge-disjoint packing over the explicit cycle list.

    Cycles are edge bitmasks; a branch stops once even every unused edge
    in further cycles (n edges each) could not beat the best so far."""
    n, m = g.n, g.m
    index = {e: i for i, e in enumerate(g.edges())}
    masks = []
    for c in brute_all_hamilton_cycles(g):
        mask = 0
        for i in range(n):
            u, v = sorted((c[i], c[(i + 1) % n]))
            mask |= 1 << index[u, v]
        masks.append(mask)
    best = 0

    def dfs(i: int, used: int, size: int) -> None:
        nonlocal best
        best = max(best, size)
        if size + (m - size * n) // n <= best:
            return
        for j in range(i, len(masks)):
            if not masks[j] & used:
                dfs(j + 1, used | masks[j], size + 1)

    dfs(0, 0, 0)
    return best


def first_structured_violation(g: Graph, r: int) -> tuple[int, int] | None:
    """The first violating pair of the full structured list, evaluated
    pair by pair from the definition: (0, 0); (0, {v}) and ({v}, 0) for
    every v; then (S_k, V - S_k) and (S_k, 0) for each proper prefix S_k
    of the vertices by degree, descending, ties by index."""
    n = g.n
    full = (1 << n) - 1
    pairs = [(0, 0)]
    for v in range(n):
        pairs += [(0, 1 << v), (1 << v, 0)]
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    smask = 0
    for v in order[:-1]:
        smask |= 1 << v
        pairs += [(smask, full & ~smask), (smask, 0)]
    for smask, tmask in pairs:
        if tutte_quantities(g, r, iter_bits(smask), iter_bits(tmask)).violates:
            return smask, tmask
    return None


def reference_decide(g: Graph, r: int) -> FactorDecision:
    """The r-factor decision with the structured pairs ahead of the fast
    path: the gates, then the first violating pair of the full
    structured list (``first_structured_violation``), then the
    constructive fast path, then the gadget seeded from its
    near-factor."""
    n = g.n
    if not 0 <= r <= max(n - 1, 0):
        raise InputError(f"r must satisfy 0 <= r <= n-1, got r={r}, n={n}")
    if r == 0:
        return FactorDecision(True, 0, factor=Factor(EdgeSubgraph(n, []), 0))
    if (r * n) % 2:
        return FactorDecision(False, r, note="r*n is odd; no spanning r-regular subgraph")
    degs = g.degrees()
    if r > min(degs):
        cert = _certificate_from_masks(g, r, 0, 1 << degs.index(min(degs)))
        return FactorDecision(False, r, certificate=cert)
    if all(d == r for d in degs):
        return FactorDecision(True, r, factor=Factor(EdgeSubgraph(n, g.edges()), r))
    hit = first_structured_violation(g, r)
    if hit is not None:
        return FactorDecision(False, r, certificate=_certificate_from_masks(g, r, *hit))
    near = _near_factor(g, r)
    factor = _factor_via_orientation(g, r, near)
    if factor is not None:
        return FactorDecision(True, r, factor=factor)
    return _decide_by_gadget(g, r, near)


def _reference_structured_subsets(g: Graph, kmin: int, kmax: int):
    """The refuter's structured candidates one frozenset at a time:
    components and their complements, cumulative unions of components,
    open and closed neighbourhoods, degree-sorted prefixes and suffixes,
    then BFS balls, each coerced into the window and yielded once."""
    n = g.n
    everything = list(range(n))

    def coerce(vertices):
        k = len(vertices)
        if kmin <= k <= kmax:
            yield frozenset(vertices)
        if k > kmax:
            yield frozenset(sorted(vertices)[:kmax])
        if k < kmin:
            members = set(vertices)
            pad = [v for v in everything if v not in members]
            yield frozenset(list(vertices) + pad[: kmin - k])

    seen = set()

    def emit(vertices):
        for cand in coerce(vertices):
            if kmin <= len(cand) <= kmax and cand not in seen:
                seen.add(cand)
                yield cand

    comps = [list(iter_bits(c)) for c in g.components()]
    for comp_list in comps:
        members = set(comp_list)
        yield from emit(comp_list)
        yield from emit([v for v in range(n) if v not in members])
    for ordering in (sorted(comps, key=len), sorted(comps, key=len, reverse=True)):
        acc = []
        for comp_list in ordering:
            acc.extend(comp_list)
            if len(acc) >= kmin:
                yield from emit(list(acc))
            if len(acc) > kmax:
                break
    for v in range(n):
        nb = list(iter_bits(g.adj[v]))
        yield from emit(nb)
        yield from emit(nb + [v])
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    for k in (kmin, (kmin + kmax) // 2, kmax):
        if 0 <= k <= n:
            yield from emit(order[:k])
            yield from emit(order[::-1][:k])
    for v in range(n):
        ball_order = []
        seen_mask = 0
        frontier = 1 << v
        while frontier:
            ball_order.extend(iter_bits(frontier))
            seen_mask |= frontier
            nxt = 0
            for u in iter_bits(frontier):
                nxt |= g.adj[u]
            frontier = nxt & ~seen_mask
        for k in (kmin, kmax):
            if k <= len(ball_order):
                yield from emit(ball_order[:k])


def reference_random_candidate(rng: random.Random, n: int, kmin: int, kmax: int) -> list[int]:
    """One random candidate of the refuter, one 32-bit word at a time: a
    word w for the size k = kmin + floor(w * (kmax - kmin + 1) / 2^32),
    then one key word per vertex; the members are the k vertices that
    come first by (key, vertex)."""
    k = kmin + (rng.getrandbits(32) * (kmax - kmin + 1) >> 32)
    keys = [rng.getrandbits(32) for _ in range(n)]
    return sorted(range(n), key=lambda v: (keys[v], v))[:k]


def reference_refute_mc(g: Graph, params: RobustParams, samples: int, seed: int) -> ExpanderVerdict:
    """The Monte-Carlo refuter one candidate at a time, each scored by a
    popcount pass over the adjacency rows: the structured candidates,
    then ``samples`` random subsets from random.Random(seed), each drawn
    by reference_random_candidate."""
    n = g.n
    nu, tau = Fraction(params.nu), Fraction(params.tau)
    kmin = -((-tau.numerator * n) // tau.denominator)
    kmax = ((1 - tau) * n).numerator // ((1 - tau) * n).denominator
    if kmin > kmax or kmin > n or kmax < 0:
        return ExpanderVerdict(False, None, "monte_carlo", 0)
    need = -((-nu.numerator * n) // nu.denominator)

    def violates(cand):
        smask = sum(1 << v for v in cand)
        robust = sum(1 for row in g.adj if (row & smask).bit_count() >= need)
        return robust < len(cand) + need

    tried = 0
    for cand in _reference_structured_subsets(g, kmin, kmax):
        tried += 1
        if violates(cand):
            return ExpanderVerdict(False, cand, "monte_carlo", tried)
    rng = random.Random(seed)
    for _ in range(samples):
        cand = frozenset(reference_random_candidate(rng, n, kmin, kmax))
        tried += 1
        if violates(cand):
            return ExpanderVerdict(False, cand, "monte_carlo", tried)
    return ExpanderVerdict(False, None, "monte_carlo", tried)


def reference_balanced_subdigraph(n: int, arcs, half: int) -> list[int] | None:
    """The b-matching one augmenting path at a time: the arcs taken
    greedily in order while tail and head have room, then one BFS from
    each short tail per missing unit, alternating an unchosen arc out of
    a tail with a chosen arc back into a head; None when a BFS fails."""
    into: list[list[int]] = [[] for _ in range(n)]
    by_tail: list[list[int]] = [[] for _ in range(n)]
    chosen = [False] * len(arcs)
    out = [0] * n
    load = [0] * n
    for i, (u, v) in enumerate(arcs):
        by_tail[u].append(i)
        into[v].append(i)
        if out[u] < half and load[v] < half:
            chosen[i] = True
            out[u] += 1
            load[v] += 1
    for u in range(n):
        while out[u] < half:
            via = [-1] * n
            back = [-1] * n
            back[u] = len(arcs)
            queue = [u]
            end = -1
            for x in queue:
                for i in by_tail[x]:
                    y = arcs[i][1]
                    if chosen[i] or via[y] >= 0:
                        continue
                    via[y] = i
                    if load[y] < half:
                        end = y
                        break
                    for j in into[y]:
                        w = arcs[j][0]
                        if chosen[j] and back[w] < 0:
                            back[w] = j
                            queue.append(w)
                if end >= 0:
                    break
            if end < 0:
                return None
            load[end] += 1
            out[u] += 1
            y = end
            while True:
                i = via[y]
                chosen[i] = True
                x = arcs[i][0]
                if x == u:
                    break
                j = back[x]
                chosen[j] = False
                y = arcs[j][1]
    return [i for i, c in enumerate(chosen) if c]


def arc_list_balanced_subdigraph(
    n: int, arcs: list[tuple[int, int]], half: int, greedy: Iterable[int] = ()
) -> list[int]:
    """Indices of the arcs that the Hopcroft-Karp b-matching selects,
    run on an explicit arc list: the arcs ``arcs[i]``, i in ``greedy``,
    taken in that order while tail and head have room (none for a cold
    start), then phases of one layered BFS from every short tail and a
    DFS that keeps one pointer into each tail's and each head's arcs, in
    list order.  Given the arcs of an orientation in ``g.edges()`` order
    and the greedy in the walk's order, its selection is the library's
    rows selection arc for arc."""
    tail = [u for u, _ in arcs]
    head = [v for _, v in arcs]
    into: list[list[int]] = [[] for _ in range(n)]  # arc ids by head
    by_tail: list[list[int]] = [[] for _ in range(n)]
    chosen = [False] * len(arcs)
    out = [0] * n
    load = [0] * n
    for i, (u, v) in enumerate(arcs):
        by_tail[u].append(i)
        into[v].append(i)
    for i in greedy:
        u, v = arcs[i]
        if out[u] < half and load[v] < half:
            chosen[i] = True
            out[u] += 1
            load[v] += 1
    short = [u for u in range(n) if out[u] < half]
    while short:
        # layers: tdist[x] even for a tail, hdist[y] odd for a head, -1 unreached
        tdist = [-1] * n
        hdist = [-1] * n
        for u in short:
            tdist[u] = 0
        layer, d, last = short, 0, -1
        while layer and last < 0:
            heads = []
            for x in layer:
                for i in by_tail[x]:
                    y = head[i]
                    if not chosen[i] and hdist[y] < 0:
                        hdist[y] = d + 1
                        heads.append(y)
                        if load[y] < half:
                            last = d + 1
            d += 2
            layer = []
            if last < 0:
                for y in heads:
                    for j in into[y]:
                        w = tail[j]
                        if chosen[j] and tdist[w] < 0:
                            tdist[w] = d
                            layer.append(w)
        if last < 0:
            break
        ptr = [0] * n   # per tail: its next arc to try
        hptr = [0] * n  # per head: its next chosen arc to descend by
        gained = 0
        for u in short:
            while out[u] < half and tdist[u] == 0:
                stack = [u]
                path: list[tuple[int, int]] = []  # (arc taken, chosen arc given up)
                while stack:
                    x = stack[-1]
                    d = tdist[x] + 1
                    mine = by_tail[x]
                    k = ptr[x]
                    down = -1
                    while k < len(mine):
                        i = mine[k]
                        y = head[i]
                        if not chosen[i] and hdist[y] == d:
                            if d == last:
                                if load[y] < half:
                                    break
                            else:
                                feed = into[y]
                                h = hptr[y]
                                while h < len(feed) and not (
                                    chosen[feed[h]] and tdist[tail[feed[h]]] == d + 1
                                ):
                                    h += 1
                                hptr[y] = h
                                if h < len(feed):
                                    down = feed[h]
                                    break
                        k += 1
                    ptr[x] = k
                    if k == len(mine):  # dead: the parent tries its arc again
                        tdist[x] = -1
                        stack.pop()
                        if path:
                            path.pop()
                    elif down >= 0:
                        path.append((i, down))
                        stack.append(tail[down])
                    else:
                        chosen[i] = True
                        load[y] += 1
                        out[u] += 1
                        gained += 1
                        for a, b in path:
                            chosen[a] = True
                            chosen[b] = False
                        break
        if not gained:
            raise InternalError("a Hopcroft-Karp phase found no augmenting path")
        short = [u for u in short if out[u] < half]
    return [i for i, c in enumerate(chosen) if c]


def reference_orientation_walk(g: Graph) -> list[tuple[int, int]]:
    """The arcs of the balanced orientation in the order the walk takes
    them, from edge records: the edges in ``g.edges()`` order, then one
    virtual edge per pair of consecutive odd-degree vertices.  From each
    vertex in index order, the walk leaves the current vertex by its
    first unused record until it has none left, which happens only back
    at the start: a closed trail, with no splicing.  The virtual arcs
    are dropped."""
    n = g.n
    records = [(u, v, False) for u, v in g.edges()]
    odd = [v for v in range(n) if g.degree(v) % 2]
    for i in range(0, len(odd), 2):
        records.append((odd[i], odd[i + 1], True))
    inc: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (u, v, _) in enumerate(records):
        inc[u].append((eid, v))
        inc[v].append((eid, u))
    used = [False] * len(records)
    ptr = [0] * n
    walk = []
    for start in range(n):
        v = start
        while True:
            while ptr[v] < len(inc[v]) and used[inc[v][ptr[v]][0]]:
                ptr[v] += 1
            if ptr[v] == len(inc[v]):
                break
            eid, w = inc[v][ptr[v]]
            used[eid] = True
            if not records[eid][2]:
                walk.append((v, w))
            v = w
        assert v == start, "a walk got stuck away from its start"
    return walk


def reference_orientation_arcs(g: Graph) -> list[tuple[int, int]]:
    """The arcs of ``reference_orientation_walk`` in ``g.edges()`` order."""
    arc = {frozenset(a): a for a in reference_orientation_walk(g)}
    return [arc[frozenset(e)] for e in g.edges()]


def reference_gadget(g: Graph, r: int):
    """The stub/core gadget with explicit adjacency lists, as
    ``(adj, stubs_of, cores_of, edge_stubs)``.  Vertex by vertex, v gets
    its d(v) stubs in the order of its edges in ``g.edges()``, then its
    d(v) - r cores.  A stub's list is its edge partner, then v's cores;
    a core's list is v's stubs: sum d(v)(d(v) - r) edges in all."""
    edges = g.edges()
    inc: list[list[int]] = [[] for _ in range(g.n)]
    for ei, (u, v) in enumerate(edges):
        inc[u].append(ei)
        inc[v].append(ei)
    stubs_on: list[list[int]] = [[] for _ in edges]
    stubs_of: list[list[int]] = [[] for _ in range(g.n)]
    cores_of: list[range] = []
    nid = 0
    for v in range(g.n):
        for ei in inc[v]:
            stubs_on[ei].append(nid)
            stubs_of[v].append(nid)
            nid += 1
        k = g.degree(v) - r
        cores_of.append(range(nid, nid + k))
        nid += k
    adj: list[list[int]] = [[] for _ in range(nid)]
    for a, b in stubs_on:
        adj[a].append(b)
        adj[b].append(a)
    for v in range(g.n):
        for s in stubs_of[v]:
            for c in cores_of[v]:
                adj[s].append(c)
                adj[c].append(s)
    return adj, stubs_of, cores_of, [tuple(pair) for pair in stubs_on]


def reference_gadget_decision(g: Graph, r: int, seed_edges):
    """The explicit gadget run through the library's blossom matcher on
    plain lists, seeded as the program seeds it: the two stubs of each
    edge in ``seed_edges`` (indices into ``g.edges()``, the program's
    seed) are matched to each other, and each vertex's other stubs fill
    its cores.  What this checks is the gadget's shape and how it is
    read, not the matcher or the seed.  Returns ``(factor edges, None)``
    when the gadget has a perfect matching, else ``(None, (S, T))`` with
    the pair read off A(H), the non-outer vertices with an outer
    neighbour."""
    adj, stubs_of, cores_of, edge_stubs = reference_gadget(g, r)
    edges = g.edges()
    seed = [-1] * len(adj)
    for ei in seed_edges:
        a, b = edge_stubs[ei]
        seed[a], seed[b] = b, a
    for v in range(g.n):
        free = [s for s in stubs_of[v] if seed[s] == -1]
        for s, c in zip(free, cores_of[v]):
            seed[s], seed[c] = c, s
    matcher = _Matcher(len(adj), adj, seed)
    mate = matcher.solve()
    if -1 not in mate:
        return [e for e, (a, b) in zip(edges, edge_stubs) if mate[a] == b], None
    outer = matcher.outer_vertices()
    in_a = [not outer[x] and any(outer[y] for y in adj[x]) for x in range(len(adj))]
    s = {v for v in range(g.n) if all(in_a[x] for x in stubs_of[v])}
    t = {v for v in range(g.n) if v not in s and all(in_a[x] for x in cores_of[v])}
    return None, (s, t)


class ReferenceEdgeSubgraph:
    """``hampack.core.EdgeSubgraph`` as a frozenset of (u, v) pairs with
    u < v, the form it had before it held bitset rows."""

    def __init__(self, n: int, edges):
        _check_capacity(n)
        norm = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise InputError(f"bad edge ({u},{v}) for host n={n}")
            norm.add((u, v) if u < v else (v, u))
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
        return (isinstance(other, ReferenceEdgeSubgraph)
                and self.n == other.n and self.edges == other.edges)


def _sign(q) -> int:
    return (q > 0) - (q < 0)


def cmp_scaled_sqrt(c, x, d) -> int:
    """Sign of c*sqrt(x) - d for rational c, d and rational x >= 0, by
    comparing squares."""
    if x < 0:
        raise ValueError(f"sqrt of negative rational {x}")
    lhs_sign = _sign(c) if x > 0 else 0
    if lhs_sign == 0:
        return _sign(-d)
    if lhs_sign > 0:
        if d < 0:
            return 1
        return _sign(Fraction(c) * c * x - Fraction(d) * d)
    # c*sqrt(x) < 0
    if d >= 0:
        return -1
    return _sign(Fraction(d) * d - Fraction(c) * c * x)


def regeven_upper_admits(n: int, delta: int, r: int) -> bool:
    """Exact test of r <= (delta + sqrt(x))/2 + 4/(sqrt(x) + 4) with
    x = n(2delta - n), and of r <= 0 below delta = n/2: multiplied out,
    (2r - delta - 4) sqrt(x) <= x + 4delta + 8 - 8r."""
    if 2 * delta < n:
        return r <= 0
    x = n * (2 * delta - n)
    return cmp_scaled_sqrt(2 * r - delta - 4, x, x + 4 * delta + 8 - 8 * r) <= 0


def sqrt_approx(a, digits: int = 9) -> Fraction:
    """Rational approximation of sqrt(a) accurate to 10**-digits, from
    below."""
    if a < 0:
        raise ValueError(f"sqrt of negative rational {a}")
    a = Fraction(a)
    scale = 10 ** digits
    return Fraction(isqrt((a.numerator * scale * scale) // a.denominator), scale)


def sum_form_regeven_upper(n: int, delta: int) -> Fraction:
    """The display upper bound as a sum of rationals: delta/2 + s/2 +
    4/(s + 4), s the 1e-9 approximation of sqrt(n(2delta - n)) from
    below; 0 below delta = n/2."""
    if 2 * delta < n:
        return Fraction(0)
    root = sqrt_approx(n * (2 * delta - n), 9)
    return Fraction(delta, 2) + root / 2 + Fraction(4) / (root + 4)

