"""Degree factors: maximum matching, r-factor existence with Tutte
certificates, the largest even-factor degree, and its two-sided bound.

The r-factor decision runs a layered pipeline, cheapest first:

1. parity / degree gates with immediate certificates,
2. structured Tutte pairs that refute most infeasible instances: the
   empty pair, (0, {v}) and ({v}, 0) for each vertex v, and (S, V - S)
   and (S, 0) for each proper prefix S of the vertices by degree.  Only
   the pairs that can violate are evaluated, so the pass costs
   O(n + m) plus one components pass per pair evaluated:
   - the empty pair only when G is disconnected (one component C = V
     has r|C| = rn even, so Q_r = 0 = R_r);
   - the single-vertex pairs only at cut vertices, v with G - v
     disconnected: otherwise G - v is one component C and Q_r is at
     most (r|C| + d(v)) mod 2 = (d(v) - r) mod 2 <= d(v) - r = R_r for
     T = {v}, and at most 1 <= r = R_r for S = {v}.  When 2 delta >= n
     (n >= 3) G is Hamiltonian by Dirac's theorem, hence 2-connected,
     and the cut-vertex pass is skipped;
   - (S, V - S) leaves nothing outside S u T, so Q_r = 0 and the pair
     violates iff R_r < 0; R_r is updated in O(1) bit counts as each
     vertex moves from T to S;
   - (S, 0) has R_r = r|S| and is skipped for even r, where Q_r = 0;
     for odd r, Q_r is the number of odd components of G - S, read for
     every prefix off one reverse union-find pass.
   The first violating pair is the first of the full list,
3. for even r, a constructive fast path: balanced orientation plus a
   unit-capacity flow that extracts an explicit factor when it exists
   under that orientation,
4. the stub/core expansion to a perfect-matching instance decided by
   the blossom algorithm -- the exact arbiter for everything the fast
   paths leave open.  The blossom search starts from the gadget matching
   of a greedy r-capped host edge selection, so it only augments at the
   vertices that selection left short of degree r.

Every negative answer from the public entry point carries a pair (S, T)
violating Q_r(S,T) <= R_r(S,T): from the gates, from the structured
pairs, or read exactly off the Gallai-Edmonds barrier of the gadget when
the blossom decides, with no search or fallback.  Certificates are
re-validated from the definition before being returned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable, Iterator

from .core import EdgeSubgraph, Graph, iter_bits, mask_of, set_of
from .errors import CapacityError, ExistenceError, InputError, InternalError
from .exactcmp import cmp_scaled_sqrt, cmp_sqrt, sqrt_approx
from .matching import _Matcher, maximum_matching
from .orientation import balanced_orientation_arcs

EXHAUSTIVE_TUTTE_MAX_N = 14


# ---------------------------------------------------------------------------
# Result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Matching:
    """A set of pairwise disjoint edges."""

    pairs: frozenset[tuple[int, int]]

    @property
    def size(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class Factor:
    """A spanning r-regular subgraph, stored as its edge set."""

    subgraph: EdgeSubgraph
    r: int

    def validate(self, host: Graph) -> None:
        if self.subgraph.n != host.n:
            raise InternalError("factor lives on a different vertex set")
        for u, v in self.subgraph.edges:
            if not host.has_edge(u, v):
                raise InternalError(f"factor edge ({u},{v}) absent from host")
        degs = self.subgraph.degrees()
        if any(d != self.r for d in degs):
            raise InternalError(f"factor degrees {sorted(set(degs))} != {self.r}")


@dataclass(frozen=True)
class TutteCertificate:
    """Evaluated Tutte quantities for a disjoint pair (S, T).

    Q_r counts components C of G - (S u T) with r|C| + e(C,T) odd;
    R_r = sum_{v in T} d(v) - e(S,T) + r(|S| - |T|), not clamped at 0.
    The pair refutes an r-factor when q_r > r_r.
    """

    s: frozenset[int]
    t: frozenset[int]
    q_r: int
    r_r: int

    @property
    def violates(self) -> bool:
        return self.q_r > self.r_r


@dataclass(frozen=True)
class FactorDecision:
    """Outcome of an r-factor existence query."""

    exists: bool
    r: int
    factor: Factor | None = None
    certificate: TutteCertificate | None = None
    note: str = ""

    def __bool__(self) -> bool:
        return self.exists


# ---------------------------------------------------------------------------
# Matching front end
# ---------------------------------------------------------------------------

def max_matching(g: Graph) -> Matching:
    """Maximum cardinality matching of g."""
    adj = [g.neighbors(v) for v in range(g.n)]
    mate = maximum_matching(g.n, adj)
    pairs = frozenset((v, u) for v, u in enumerate(mate) if u > v)
    return Matching(pairs)


# ---------------------------------------------------------------------------
# Tutte quantities
# ---------------------------------------------------------------------------

def _quantities(g: Graph, r: int, smask: int, tmask: int) -> tuple[int, int]:
    rest = ((1 << g.n) - 1) & ~smask & ~tmask
    q = 0
    for comp in g.components(rest):
        e_ct = 0
        for v in iter_bits(comp):
            e_ct += (g.adj[v] & tmask).bit_count()
        if (r * comp.bit_count() + e_ct) % 2:
            q += 1
    rr = 0
    for v in iter_bits(tmask):
        rr += g.adj[v].bit_count()
    for v in iter_bits(smask):
        rr -= (g.adj[v] & tmask).bit_count()
    rr += r * (smask.bit_count() - tmask.bit_count())
    return q, rr


def tutte_quantities(
    g: Graph, r: int, s: Iterable[int], t: Iterable[int]
) -> TutteCertificate:
    """Evaluate (Q_r, R_r) for explicit disjoint sets S and T."""
    smask = mask_of(s, g.n)
    tmask = mask_of(t, g.n)
    if smask & tmask:
        raise InputError("S and T must be disjoint")
    q, rr = _quantities(g, r, smask, tmask)
    return TutteCertificate(set_of(smask), set_of(tmask), q, rr)


def _certificate_from_masks(g: Graph, r: int, smask: int, tmask: int) -> TutteCertificate:
    q, rr = _quantities(g, r, smask, tmask)
    cert = TutteCertificate(set_of(smask), set_of(tmask), q, rr)
    if not cert.violates:
        raise InternalError("candidate certificate does not violate Q_r <= R_r")
    return cert


def _iter_disjoint_pairs(n: int) -> Iterator[tuple[int, int]]:
    full = (1 << n) - 1
    for smask in range(1 << n):
        rest = full & ~smask
        t = rest
        while True:
            yield smask, t
            if t == 0:
                break
            t = (t - 1) & rest


def tutte_verify_exhaustive(g: Graph, r: int) -> bool:
    """Check Q_r(S,T) <= R_r(S,T) over all 3^n disjoint pairs."""
    if g.n > EXHAUSTIVE_TUTTE_MAX_N:
        raise CapacityError(
            f"exhaustive Tutte verification capped at n <= {EXHAUSTIVE_TUTTE_MAX_N}"
        )
    for smask, tmask in _iter_disjoint_pairs(g.n):
        q, rr = _quantities(g, r, smask, tmask)
        if q > rr:
            return False
    return True


# ---------------------------------------------------------------------------
# Structured refutation candidates
# ---------------------------------------------------------------------------

def _odd_components_after_prefixes(g: Graph, order: list[int]) -> list[int]:
    """odd[k] = the number of odd components of G - {order[0..k-1]} for
    k = 1..n-1, from one union-find pass that adds the vertices back
    in reverse order."""
    n = g.n
    root = list(range(n))
    size = [1] * n

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    odd = [0] * n
    count = added = 0
    for k in range(n - 1, 0, -1):
        v = order[k]
        count += 1
        for w in iter_bits(g.adj[v] & added):
            a, b = find(v), find(w)
            if a != b:
                count -= (size[a] & 1) + (size[b] & 1)
                if size[a] < size[b]:
                    a, b = b, a
                root[b] = a
                size[a] += size[b]
                count += size[a] & 1
        added |= 1 << v
        odd[k] = count
    return odd


def _structured_violation(g: Graph, r: int) -> tuple[int, int] | None:
    """The first violating pair in the order (0, 0); (0, {v}) and
    ({v}, 0) for v = 0..n-1; then (S_k, V - S_k) and (S_k, 0) for each
    proper prefix S_k of the vertices by degree, descending, ties by
    index.  Only reached after the gates, so rn is even and
    1 <= r <= delta; the pairs skipped are those the module docstring
    proves never violate, so the first hit is that of the whole list.
    """
    n = g.n
    adj = g.adj
    degs = g.degrees()
    if n >= 3 and 2 * min(degs) >= n:
        connected, cuts = True, 0  # Dirac: Hamiltonian, hence 2-connected
    else:
        connected, cuts = g.is_connected(), g.cut_vertices()
    candidates = [] if connected else [(0, 0)]
    for v in iter_bits(cuts):
        candidates += [(0, 1 << v), (1 << v, 0)]
    for smask, tmask in candidates:
        q, rr = _quantities(g, r, smask, tmask)
        if q > rr:
            return smask, tmask
    order = sorted(range(n), key=lambda v: (-degs[v], v))
    odd = _odd_components_after_prefixes(g, order) if r % 2 else None
    full = (1 << n) - 1
    smask = 0
    rr = 2 * g.m - r * n  # R_r(0, V)
    for k, v in enumerate(order[:-1], 1):
        # v moves from T to S: R_r changes by 2(|N(v) & S| - d(v) + r)
        rr += 2 * ((adj[v] & smask).bit_count() - degs[v] + r)
        smask |= 1 << v
        if rr < 0:
            return smask, full & ~smask
        if odd is not None and odd[k] > r * k:
            return smask, 0
    return None


# ---------------------------------------------------------------------------
# Fast constructive path for even r: balanced orientation + unit flow
# ---------------------------------------------------------------------------

class _Dinic:
    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add(self, u: int, v: int, c: int) -> int:
        eid = len(self.to)
        self.head[u].append(eid)
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(eid + 1)
        self.to.append(u)
        self.cap.append(0)
        return eid

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for v in queue:
                for eid in self.head[v]:
                    if self.cap[eid] and level[self.to[eid]] < 0:
                        level[self.to[eid]] = level[v] + 1
                        queue.append(self.to[eid])
            if level[t] < 0:
                return flow
            it = [0] * self.n

            def dfs(v: int, pushed: int) -> int:
                if v == t:
                    return pushed
                while it[v] < len(self.head[v]):
                    eid = self.head[v][it[v]]
                    w = self.to[eid]
                    if self.cap[eid] and level[w] == level[v] + 1:
                        got = dfs(w, min(pushed, self.cap[eid]))
                        if got:
                            self.cap[eid] -= got
                            self.cap[eid ^ 1] += got
                            return got
                    it[v] += 1
                return 0

            while True:
                pushed = dfs(s, 1 << 60)
                if not pushed:
                    break
                flow += pushed


def _even_factor_via_orientation(
    g: Graph, r: int, rng: random.Random | None
) -> Factor | None:
    """Try to realize an r-factor (r even) as an in/out balanced
    sub-digraph of one balanced orientation.  Sound but incomplete:
    a miss proves nothing."""
    half = r // 2
    n = g.n
    arcs = balanced_orientation_arcs(g, rng)
    dinic = _Dinic(2 * n + 2)
    src, snk = 2 * n, 2 * n + 1
    for v in range(n):
        dinic.add(src, v, half)
        dinic.add(n + v, snk, half)
    arc_eids = []
    for u, v in arcs:
        arc_eids.append(dinic.add(u, n + v, 1))
    if dinic.max_flow(src, snk) != n * half:
        return None
    edges = [arcs[i] for i, eid in enumerate(arc_eids) if dinic.cap[eid] == 0]
    factor = Factor(EdgeSubgraph(n, edges), r)
    factor.validate(g)
    return factor


# ---------------------------------------------------------------------------
# Exact arbiter: stub/core expansion to perfect matching
# ---------------------------------------------------------------------------

@dataclass
class _Gadget:
    size: int
    adj: list[list[int]]
    edge_stubs: list[tuple[int, int]]  # per host edge: its two stub ids
    stubs_of: list[list[int]]          # per host vertex: its stub ids
    cores_of: list[range]              # per host vertex: its core ids


def _build_gadget(g: Graph, r: int) -> _Gadget:
    edges = g.edges()
    n = g.n
    inc: list[list[int]] = [[] for _ in range(n)]
    for ei, (u, v) in enumerate(edges):
        inc[u].append(ei)
        inc[v].append(ei)
    # stubs of edge ei = (u, v) with u < v, in numbering order: u's, then v's
    stubs_on: list[list[int]] = [[] for _ in edges]
    stubs_of: list[list[int]] = [[] for _ in range(n)]
    nid = 0
    cores_of: list[range] = []
    for v in range(n):
        for ei in inc[v]:
            stubs_on[ei].append(nid)
            stubs_of[v].append(nid)
            nid += 1
        k = g.degree(v) - r
        cores_of.append(range(nid, nid + k))
        nid += k
    adj: list[list[int]] = [[] for _ in range(nid)]
    edge_stubs = []
    for a, b in stubs_on:
        adj[a].append(b)
        adj[b].append(a)
        edge_stubs.append((a, b))
    for v in range(n):
        for s in stubs_of[v]:
            for c in cores_of[v]:
                adj[s].append(c)
                adj[c].append(s)
    return _Gadget(
        size=nid, adj=adj, edge_stubs=edge_stubs, stubs_of=stubs_of, cores_of=cores_of
    )


def _seed_mate(g: Graph, r: int, gadget: _Gadget) -> list[int]:
    """Gadget matching of a greedy r-capped host edge selection.

    Host edges are taken lowest endpoint degrees first while both
    endpoints have fewer than r chosen edges; a chosen edge matches its
    two stubs to each other, and each vertex's other stubs fill its
    d(v) - r cores.  Vertex v keeps r minus its chosen degree stubs
    exposed for the blossom search to augment.
    """
    degs = g.degrees()
    edges = g.edges()
    chosen = [0] * g.n
    mate = [-1] * gadget.size
    for ei in sorted(range(len(edges)), key=lambda ei: sorted(degs[u] for u in edges[ei])):
        u, v = edges[ei]
        if chosen[u] < r and chosen[v] < r:
            chosen[u] += 1
            chosen[v] += 1
            a, b = gadget.edge_stubs[ei]
            mate[a] = b
            mate[b] = a
    for v in range(g.n):
        free = [s for s in gadget.stubs_of[v] if mate[s] == -1]
        for s, c in zip(free, gadget.cores_of[v]):
            mate[s] = c
            mate[c] = s
    return mate


def _factor_from_matching(g: Graph, r: int, gadget: _Gadget, mate: list[int]) -> Factor:
    host_edges = g.edges()
    edges = []
    for ei, (a, b) in enumerate(gadget.edge_stubs):
        if mate[a] == b:
            edges.append(host_edges[ei])
    factor = Factor(EdgeSubgraph(g.n, edges), r)
    factor.validate(g)
    return factor


def _ge_pair(g: Graph, gadget: _Gadget, matcher: _Matcher) -> tuple[int, int]:
    """The Tutte pair read off the Gallai-Edmonds barrier of the gadget.

    ``matcher`` holds a maximum matching of the gadget H that leaves
    def(H) > 0 vertices exposed.  A is the set of non-outer vertices with
    an outer neighbour, the set A(H) of the Gallai-Edmonds decomposition.
    The pair is S = {v : every stub of v lies in A} and
    T = {v not in S : every core of v lies in A}, which holds vacuously
    when d(v) = r.  Then Q_r(S,T) - R_r(S,T) = def(H) >= 2:

    - A is a maximum barrier: odd(H - A) - |A| = def(H).
    - Taking a vertex x out of a maximum barrier whose outside
      neighbours meet o odd components changes its value by
      1 - o + [o even], so it stays maximum when o <= 2 (o = 0 would
      exceed the maximum).
    - The cores of v share their neighbours, so A holds all of them or
      none, and never a core of v together with all of v's stubs:
      removing that core would gain 2.
    - Dropping v's stubs keeps the barrier maximum when v's cores are in
      it (o <= 1: a stub's only neighbour outside is its edge partner)
      and when v's cores and at least one stub of v are outside it
      (o <= 2: the partner's component and the cores' component).
    - After those drops the barrier is B = stubs(S) u cores(T).  The odd
      components of H - B are the d(v) - r lone cores of each v in S,
      the lone stubs of T on edges into S, and one per component C of
      G - (S u T) with r|C| + e(C,T) odd, so odd(H - B) - |B| is
      Q_r(S,T) - R_r(S,T).
    """
    outer = matcher.outer_vertices()
    in_a = [not outer[x] and any(outer[y] for y in gadget.adj[x]) for x in range(gadget.size)]
    smask = tmask = 0
    for v in range(g.n):
        if all(in_a[s] for s in gadget.stubs_of[v]):
            smask |= 1 << v
        elif all(in_a[c] for c in gadget.cores_of[v]):
            tmask |= 1 << v
    return smask, tmask


def _find_certificate(
    g: Graph, r: int, gadget: _Gadget, matcher: _Matcher
) -> TutteCertificate:
    return _certificate_from_masks(g, r, *_ge_pair(g, gadget, matcher))


# ---------------------------------------------------------------------------
# The decision pipeline
# ---------------------------------------------------------------------------

def _decide(g: Graph, r: int, need_certificate: bool = True) -> FactorDecision:
    n = g.n
    if not 0 <= r <= max(n - 1, 0):
        raise InputError(f"r must satisfy 0 <= r <= n-1, got r={r}, n={n}")
    if r == 0:
        return FactorDecision(True, 0, factor=Factor(EdgeSubgraph(n, []), 0))
    if (r * n) % 2:
        return FactorDecision(False, r, note="r*n is odd; no spanning r-regular subgraph")
    degs = g.degrees()
    delta = min(degs)
    if r > delta:
        vmin = degs.index(delta)
        cert = _certificate_from_masks(g, r, 0, 1 << vmin)
        return FactorDecision(False, r, certificate=cert)
    if all(d == r for d in degs):
        factor = Factor(EdgeSubgraph(n, g.edges()), r)
        factor.validate(g)
        return FactorDecision(True, r, factor=factor)

    hit = _structured_violation(g, r)
    if hit is not None:
        return FactorDecision(False, r, certificate=_certificate_from_masks(g, r, *hit))

    if r % 2 == 0:
        for attempt in range(3):
            rng = None if attempt == 0 else random.Random(
                ((n * 1000003 + g.m) * 1000003 + r) * 7 + attempt
            )
            factor = _even_factor_via_orientation(g, r, rng)
            if factor is not None:
                return FactorDecision(True, r, factor=factor)

    gadget = _build_gadget(g, r)
    matcher = _Matcher(gadget.size, gadget.adj, _seed_mate(g, r, gadget))
    mate = matcher.solve()
    if all(m != -1 for m in mate):
        return FactorDecision(True, r, factor=_factor_from_matching(g, r, gadget, mate))
    if not need_certificate:
        return FactorDecision(False, r, note="certificate suppressed")
    return FactorDecision(False, r, certificate=_find_certificate(g, r, gadget, matcher))


def r_factor_exists(g: Graph, r: int) -> FactorDecision:
    """Decide whether g has a spanning r-regular subgraph.

    Positive answers carry an explicit factor; negative answers carry a
    pair (S, T) violating Q_r(S,T) <= R_r(S,T) (except for the r*n
    parity gate, which is noted instead).
    """
    return _decide(g, r, need_certificate=True)


def extract_r_factor(g: Graph, r: int) -> Factor:
    decision = _decide(g, r, need_certificate=True)
    if not decision.exists:
        raise ExistenceError(
            f"graph has no {r}-factor", certificate=decision.certificate
        )
    assert decision.factor is not None
    return decision.factor


# ---------------------------------------------------------------------------
# Largest even factor
# ---------------------------------------------------------------------------

def largest_even_factor(g: Graph) -> tuple[int, Factor]:
    """Largest even r admitting an r-factor, with a witness factor.

    Descends over even r from min-degree; valid because an even factor
    splits into 2-factors, so existence is downward monotone.
    """
    delta = g.min_degree()
    r = delta if delta % 2 == 0 else delta - 1
    while r >= 2:
        decision = _decide(g, r, need_certificate=False)
        if decision.exists:
            assert decision.factor is not None
            return r, decision.factor
        r -= 2
    return 0, Factor(EdgeSubgraph(g.n, []), 0)


def reg_even_of_graph(g: Graph) -> int:
    """Degree of the largest even-regular spanning subgraph (0 if none)."""
    return largest_even_factor(g)[0]


# ---------------------------------------------------------------------------
# Two-sided bound on the guaranteed even-factor degree
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegEvenBounds:
    """Bracket for the worst-case largest even-factor degree at (n, delta).

    ``lower`` is the even integer obtained from (delta + sqrt(n(2delta-n)+8))/2
    by subtracting the unique slack in (0, 2]; when the raw value is
    itself an even integer the slack is 2, which we flag in ``note``.
    ``upper`` is reported as a rational approximation (1e-9); use
    :meth:`admits` for exact comparisons against it.
    """

    n: int
    delta: int
    lower: int
    upper: Fraction
    note: str = ""

    def admits(self, r: int) -> bool:
        """Exact test of r <= (delta+sqrt(x))/2 + 4/(sqrt(x)+4), x = n(2delta-n)."""
        if 2 * self.delta < self.n:
            return r <= 0
        x = self.n * (2 * self.delta - self.n)
        c = 2 * r - self.delta - 4
        d = x + 4 * self.delta + 8 - 8 * r
        return cmp_scaled_sqrt(c, x, d) <= 0


def regeven_bounds(n: int, delta: int) -> RegEvenBounds:
    if n <= 0:
        raise InputError(f"n must be positive, got {n}")
    if not 0 <= delta < n:
        raise InputError(f"delta must satisfy 0 <= delta <= n-1, got {delta}")
    if 2 * delta < n:
        return RegEvenBounds(
            n, delta, 0, Fraction(0), note="reg_even(n,delta) = 0 below delta = n/2"
        )
    x = n * (2 * delta - n)
    # largest even L strictly below (delta + sqrt(x+8))/2:
    # L < raw  <=>  2L - delta < sqrt(x+8)
    s = isqrt(x + 8)
    L = 2 * ((delta + s) // 2 // 2 + 2)
    while not (2 * L - delta < 0 or (2 * L - delta) ** 2 < x + 8):
        L -= 2
    note = ""
    if s * s == x + 8 and (delta + s) % 4 == 0:
        note = "raw lower value is an even integer; slack 2 applied"
    upper = Fraction(delta, 2) + sqrt_approx(Fraction(x), 9) / 2 + Fraction(4) / (
        sqrt_approx(Fraction(x), 9) + 4
    )
    return RegEvenBounds(n, delta, max(L, 0), upper, note=note)


# ---------------------------------------------------------------------------
# Splitting an even-regular graph into 2-factors
# ---------------------------------------------------------------------------

def petersen_two_factorization(g: Graph) -> list[Factor]:
    """Split a 2k-regular graph into k edge-disjoint 2-factors.

    Balanced orientation makes every vertex out/in degree k; peeling k
    perfect matchings off the associated out/in bipartite graph (each
    exists since that graph stays regular) yields the 2-factors.
    """
    if g.n == 0:
        return []
    degs = g.degrees()
    if len(set(degs)) != 1:
        raise InputError("input graph is not regular")
    rdeg = degs[0]
    if rdeg % 2:
        raise InputError(f"input graph is {rdeg}-regular; even regularity required")
    k = rdeg // 2
    if k == 0:
        return []
    n = g.n
    arcs = balanced_orientation_arcs(g)
    remaining = list(arcs)
    factors = []
    for _ in range(k):
        adj: list[list[int]] = [[] for _ in range(2 * n)]
        for u, v in remaining:
            adj[u].append(n + v)
            adj[n + v].append(u)
        mate = maximum_matching(2 * n, adj)
        chosen = []
        leftover = []
        for u, v in remaining:
            if mate[u] == n + v:
                chosen.append((u, v))
                mate[u] = -2  # consume; guards against double use of u
            else:
                leftover.append((u, v))
        if len(chosen) != n:
            raise InternalError("bipartite peel failed to find a perfect matching")
        factor = Factor(EdgeSubgraph(n, chosen), 2)
        factor.validate(g)
        factors.append(factor)
        remaining = leftover
    if remaining:
        raise InternalError("orientation peel left unused arcs")
    return factors


# ---------------------------------------------------------------------------
# The sparse-regularization degree formula
# ---------------------------------------------------------------------------

def dense_factor_degree(
    n: int, alpha: Fraction | int, eps: Fraction | int
) -> tuple[int, Fraction]:
    """Even degree n/4 + (alpha+eps)n/2 + sqrt((alpha+eps)/2)*n, rounded
    down to an even integer; also returns the value as a rational
    approximation (1e-9)."""
    alpha = Fraction(alpha)
    eps = Fraction(eps)
    if not -eps <= alpha < Fraction(1, 2):
        raise InputError(f"need -eps <= alpha < 1/2, got alpha={alpha}, eps={eps}")
    q = Fraction(n, 4) + (alpha + eps) * n / 2
    s = (alpha + eps) / 2
    approx = q + sqrt_approx(s * n * n, 9)
    # largest even e with e <= q + sqrt(s*n^2)
    e = 2 * (int(approx) // 2 + 2)
    while cmp_sqrt(e - q, s * n * n) > 0:
        e -= 2
    return e, approx
