"""Degree factors: r-factor existence with Tutte certificates, the
largest even-factor degree, its two-sided bound, and the split of an
even-regular graph into 2-factors.

The r-factor decision runs a layered pipeline.  The structured Tutte
pairs are the list (0, 0); (0, {v}) and ({v}, 0) for each vertex v;
then (S, V - S) and (S, 0) for each proper prefix S of the vertices by
degree, descending, ties by index.  A negative is refuted by the first
violating pair of that list when it has one; its costly passes run only
when the fast path fails:

1. parity / degree gates with immediate certificates,
2. the pairs that cost O(n + m) in all: (0, 0) by one connectivity test
   (one component C = V has r|C| = rn even, so Q_r = 0 = R_r; with
   several, Q_r counts those of odd r|C|), and (S, V - S) for every
   prefix S by one sweep.  (S, V - S) leaves nothing outside S u T, so
   Q_r = 0 and the pair violates iff R_r = 2e(V - S) + r(2|S| - n) < 0,
   which needs 2|S| < n; R_r is updated in O(1) bit counts as each
   vertex moves from T to S, and the sweep stops at the first negative
   value,
3. unless step 2 found a violating pair, a constructive fast path
   (Petersen's argument).  For even r: in the balanced orientation,
   choose r/2 out-arcs at every tail and r/2 in-arcs at every head, a
   bipartite b-matching (greedy during the Euler walk, then
   Hopcroft-Karp phases) whose arcs form an r-factor.  The orientation
   and the walk's greedy arcs come as bitset rows, the b-matching reads
   and returns bitset rows, and the selected rows are the factor's
   rows: no arc list is built on the way.  For odd r: the same step
   with (r - 1)/2 gives an (r - 1)-factor F (none is needed at r = 1),
   and a perfect matching of G - F, from one
   maximum matching of the host's n vertices on its bitset rows,
   completes it to an r-factor.  The union is audited once.  An
   audited r-factor is a "yes", and by Tutte's f-factor theorem no pair
   (S, T) of G can then violate Q_r(S,T) <= R_r(S,T): the costly pairs
   are skipped without skipping a violating one.  A miss proves
   nothing, since another orientation or another F might succeed; the
   miss's near-factor goes on to step 5, so each decision orients once,
4. on a miss, or when step 2 found a violating pair, the full list, in
   order, reusing step 2's degree order and the prefix where its sweep
   stopped.  Only the pairs that can violate are evaluated, so the pass
   costs O(n + m) plus one components pass per pair evaluated:
   - the empty pair only when G is disconnected;
   - the single-vertex pairs only at cut vertices, v with G - v
     disconnected: otherwise G - v is one component C and Q_r is at
     most (r|C| + d(v)) mod 2 = (d(v) - r) mod 2 <= d(v) - r = R_r for
     T = {v}, and at most 1 <= r = R_r for S = {v}.  When 2 delta >= n
     (n >= 3) G is Hamiltonian by Dirac's theorem, hence 2-connected,
     and the cut-vertex pass is skipped;
   - (S, V - S) as in step 2;
   - (S, 0) has R_r = r|S| and is skipped for even r, where Q_r = 0;
     for odd r, Q_r is the number of odd components of G - S, read for
     every prefix off one reverse union-find pass.
   The first violating pair is the first of the full list.  A negative
   always reaches this step (its fast path cannot pass the audit), so it
   gets the pair the list gives whatever the order of steps 3 and 4,
5. the stub/core expansion to a perfect-matching instance decided by
   the blossom algorithm -- the exact arbiter for everything the fast
   paths leave open.  The blossom search starts from the gadget matching
   of the fast path's own near-factor: the orientation's maximum
   selection, plus for odd r a maximum matching of the rest.  Every
   degree of it is at most r, so the search only augments at the few
   vertices it left short of degree r.

Every negative answer from the public entry point carries a pair (S, T)
violating Q_r(S,T) <= R_r(S,T): from the gates, from the structured
pairs, or read exactly off the Gallai-Edmonds barrier of the gadget when
the blossom decides, with no search or fallback.  Certificates are
re-validated from the definition before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable, Iterator, NamedTuple, Sequence

from .core import EdgeSubgraph, Graph, _first_edge, iter_bits, mask_of, set_of
from .errors import CapacityError, InputError, InternalError
from .matching import _Matcher, maximum_matching
from .orientation import balanced_orientation_arcs

EXHAUSTIVE_TUTTE_MAX_N = 14


# ---------------------------------------------------------------------------
# Result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Factor:
    """A spanning r-regular subgraph, stored as its bitset rows."""

    subgraph: EdgeSubgraph
    r: int

    def validate(self, host: Graph) -> None:
        rows = self.subgraph.rows
        if self.subgraph.n != host.n or len(rows) != host.n:
            raise InternalError("factor lives on a different vertex set")
        outside = _first_edge(row & ~a for row, a in zip(rows, host.adj))
        if outside is not None:
            u, v = sorted(outside)
            raise InternalError(f"factor edge ({u},{v}) absent from host")
        degs = self.subgraph.degrees()
        if degs.count(self.r) != len(degs):
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


class _Sweep(NamedTuple):
    """The O(n + m) structured pairs, evaluated ahead of the fast path.

    ``dirac``: n >= 3 and 2 delta >= n, so G is 2-connected;
    ``connected``: G is connected; ``order``: the vertices by degree,
    descending, ties by index; ``first``: the least k with
    R_r(S_k, V - S_k) < 0 for the prefix S_k of ``order``, n when there
    is none; ``hit``: (0, 0) or some (S_k, V - S_k) violates.
    """

    dirac: bool
    connected: bool
    order: list[int]
    first: int
    hit: bool


def _sweep(g: Graph, r: int, degs: list[int]) -> _Sweep:
    n = g.n
    adj = g.adj
    dirac = n >= 3 and 2 * min(degs) >= n  # Hamiltonian, hence 2-connected
    connected = dirac or g.is_connected()
    # (0, 0): Q_r counts the components C with r|C| odd, and R_r = 0
    hit = not connected and r % 2 == 1 and any(c.bit_count() % 2 for c in g.components())
    order = sorted(range(n), key=degs.__getitem__, reverse=True)  # stable: ties by index
    smask = 0
    rr = 2 * g.m - r * n  # R_r(0, V)
    first = n
    # R_r(S_k, V - S_k) = 2e(V - S_k) + r(2k - n) is negative only if 2k < n
    for k, v in enumerate(order[:(n - 1) // 2], 1):
        # v moves from T to S: R_r changes by 2(|N(v) & S| - d(v) + r)
        rr += 2 * ((adj[v] & smask).bit_count() - degs[v] + r)
        smask |= 1 << v
        if rr < 0:
            first = k
            break
    return _Sweep(dirac, connected, order, first, hit or first < n)


def _structured_violation(g: Graph, r: int, sweep: _Sweep) -> tuple[int, int] | None:
    """The first violating pair in the order (0, 0); (0, {v}) and
    ({v}, 0) for v = 0..n-1; then (S_k, V - S_k) and (S_k, 0) for each
    proper prefix S_k of the vertices by degree, descending, ties by
    index.  Only reached after the gates, so rn is even and
    1 <= r <= delta; the pairs skipped are those the module docstring
    proves never violate, so the first hit is that of the whole list.
    ``sweep`` is the decision's own ``_sweep``: its degree order and its
    first negative R_r are reused, so the prefix pairs past that k are
    never evaluated.
    """
    n = g.n
    candidates = [] if sweep.connected else [(0, 0)]
    for v in iter_bits(0 if sweep.dirac else g.cut_vertices()):
        candidates += [(0, 1 << v), (1 << v, 0)]
    for smask, tmask in candidates:
        q, rr = _quantities(g, r, smask, tmask)
        if q > rr:
            return smask, tmask
    order, first = sweep.order, sweep.first
    odd = _odd_components_after_prefixes(g, order) if r % 2 else None
    smask = 0
    for k, v in enumerate(order[:min(first, n - 1)], 1):
        smask |= 1 << v
        if k == first:
            return smask, ((1 << n) - 1) & ~smask
        if odd is not None and odd[k] > r * k:
            return smask, 0
    return None


# ---------------------------------------------------------------------------
# Constructive fast path: balanced orientation + b-matching (+ a matching)
# ---------------------------------------------------------------------------

def _balanced_subdigraph(
    adj: Sequence[int], out: Sequence[int], half: int, chosen: list[int], fed: list[int]
) -> list[int]:
    """The symmetric rows of a maximum selection of arcs with every in-
    and out-degree at most ``half``, from an orientation given by the
    rows ``adj`` of its graph and its out-rows ``out`` (the in-rows are
    ``adj[v] & ~out[v]``).  The selection has ``n * half`` arcs, every in-
    and out-degree equal to ``half``, whenever such a sub-digraph exists.

    A bipartite b-matching of tails to heads, each of capacity ``half``.
    It starts from a valid selection, given as the rows ``chosen`` (heads
    of the chosen arcs out of each tail) and ``fed`` (tails of the chosen
    arcs into each head), which it completes in place: the greedy arcs
    the Euler walk took (``balanced_orientation_arcs``), or none.  The
    missing units are found in Hopcroft-Karp phases (Hopcroft and Karp,
    SIAM J. Comput. 2(4), 1973).  An augmenting path alternates an
    unchosen arc out of a tail with a chosen arc back into a head, and
    ends at a head with room.

    - Each phase runs one BFS from every short tail at once, in layers:
      tails at even distances, heads at odd ones.  A layer is a bitset,
      the union of its predecessors' free or chosen rows.  The BFS stops
      at the first head layer that holds a head with room.
    - An iterative DFS then walks the layers from each short tail,
      taking paths whose arcs go one layer down, until the tail is full
      or dead.  A tail is dead once every one of its arcs has been
      tried; no path of this length runs through it any more.
    - A head can be fed by several chosen arcs.  So when a child tail
      dies, the same arc is tried again, with the head's next chosen arc
      from a live tail.  Each tail keeps a threshold on its next head,
      and each head one on its next tail, that only moves up within a
      phase: a tail's arcs are tried in ascending head order and a
      head's chosen arcs in ascending tail order.  An arc chosen in a
      phase leaves a tail one layer above its head and never feeds that
      head, so no arc passed over becomes usable again.
    - A path changes no in- or out-degree inside it, so a phase only
      fills heads of its last layer, and the paths a phase finds are
      shortest ones.  The DFS finds one whenever the BFS reached a head
      with room, so every phase adds at least one unit.

    When the BFS reaches no head with room, let X and Y be the tails and
    heads it reached from all the short tails.  Every head in Y is full
    and fed only from X, and every arc from X to a head outside Y is
    chosen.  So the cut {source} u X u Y has capacity
    half(n - |X|) + e(X, V - Y) + half|Y|, which is the load of X plus
    half(n - |X|): the size of the selection, since every tail outside X
    is full.  By max-flow/min-cut no selection is larger, whatever the
    start.  X holds a short tail, so the selection is below n half.
    """
    n = len(adj)
    outs = [c.bit_count() for c in chosen]
    load = [f.bit_count() for f in fed]
    room_h = sum(1 << v for v in range(n) if load[v] < half)
    short = [u for u in range(n) if outs[u] < half]
    while short:
        # live[i]: the live tails at distance 2i; heads[i]: the heads at distance 2i + 1
        live = [sum(1 << u for u in short)]
        heads: list[int] = []
        seen_t, seen_h = live[0], 0
        layer = short
        while layer:
            reach = 0
            for x in layer:
                reach |= out[x] & ~chosen[x]
            new = reach & ~seen_h
            seen_h |= new
            heads.append(new)
            if new & room_h:
                break
            nxt = 0
            for y in iter_bits(new):
                nxt |= fed[y]
            nxt &= ~seen_t
            seen_t |= nxt
            live.append(nxt)
            layer = list(iter_bits(nxt))
        else:
            break
        last = len(heads) - 1
        ptr = [0] * n   # per tail: the lowest head still to try
        hptr = [0] * n  # per head: the lowest feeding tail still to try
        gained = 0
        for u in short:
            while outs[u] < half and live[0] >> u & 1:
                stack = [u]
                path: list[tuple[int, int, int]] = []  # (tail, head, tail giving the head up)
                while stack:
                    i = len(stack) - 1
                    x = stack[i]
                    free = (out[x] & ~chosen[x] & heads[i]) >> ptr[x] << ptr[x]
                    w = -1
                    if i == last:
                        free &= room_h
                    while free:
                        y = (free & -free).bit_length() - 1
                        if i == last:
                            break
                        h = hptr[y]
                        feed = (fed[y] & live[i + 1]) >> h << h
                        if feed:
                            w = (feed & -feed).bit_length() - 1
                            hptr[y] = w
                            break
                        hptr[y] = n
                        free ^= 1 << y
                    if not free:  # dead: the parent tries its arc again
                        ptr[x] = n
                        live[i] ^= 1 << x
                        stack.pop()
                        if path:
                            path.pop()
                        continue
                    ptr[x] = y
                    if w >= 0:
                        path.append((x, y, w))
                        stack.append(w)
                        continue
                    chosen[x] |= 1 << y
                    fed[y] |= 1 << x
                    load[y] += 1
                    if load[y] == half:
                        room_h ^= 1 << y
                    outs[u] += 1
                    gained += 1
                    for a, b, c in path:
                        chosen[a] |= 1 << b
                        chosen[c] ^= 1 << b
                        fed[b] ^= 1 << a | 1 << c
                    break
        if not gained:
            raise InternalError("a Hopcroft-Karp phase found no augmenting path")
        short = [u for u in short if outs[u] < half]
    return [c | f for c, f in zip(chosen, fed)]


def _even_factor_via_orientation(g: Graph, r: int, selection: list[int]) -> list[int] | None:
    """Set ``selection`` to the rows of a maximum selection of arcs of
    the balanced orientation with every in- and out-degree at most r/2
    (r even); return it when it is an r-factor, None on a miss.  Sound
    but incomplete: a miss proves nothing, and its selection, left in
    ``selection``, seeds the gadget.  Not audited here; the caller
    audits the factor it builds from it."""
    half = r // 2
    out, chosen, fed = balanced_orientation_arcs(g, half)
    selection[:] = _balanced_subdigraph(g.adj, out, half, chosen, fed)
    return selection if sum(map(int.bit_count, selection)) == g.n * r else None


def _near_factor(g: Graph, r: int) -> EdgeSubgraph:
    """The fast path's subgraph for either parity: the orientation's
    maximum selection F for r - r mod 2 (none at r = 1), and for odd r a
    maximum matching of G - F.  Every degree is at most r."""
    rows = [0] * g.n
    if r > 1:
        _even_factor_via_orientation(g, r - r % 2, rows)
    if r % 2:
        mate = maximum_matching(g.n, [a & ~f for a, f in zip(g.adj, rows)])
        rows = [f | 1 << u if u >= 0 else f for f, u in zip(rows, mate)]
    return EdgeSubgraph.from_host_edges(g.n, (), rows)


def _factor_via_orientation(g: Graph, r: int, near: EdgeSubgraph | None = None) -> Factor | None:
    """The constructive fast path: the near-factor ``near`` (computed
    here when not given), audited, when every degree is r; None on a
    miss."""
    if near is None:
        near = _near_factor(g, r)
    if near.degrees().count(r) != g.n:
        return None
    factor = Factor(near, r)
    factor.validate(g)
    return factor


# ---------------------------------------------------------------------------
# Exact arbiter: stub/core expansion to perfect matching
# ---------------------------------------------------------------------------

@dataclass
class _Gadget:
    """Tutte's stub/core expansion of G for degree r: G has an r-factor
    iff the gadget has a perfect matching.

    Vertex v gets d(v) stubs, one per incident host edge, then d(v) - r
    cores, all numbered consecutively, vertex by vertex.  The two stubs
    of a host edge are adjacent, and each stub of v is adjacent to each
    core of v.  The cores of v are twins, so that complete bipartite part
    is not stored edge by edge: a core's row is v's stub range, and a
    stub's row is its edge partner (``partner``, read first as the
    matcher's head) and then v's core range.  The rows are those of the
    explicit adjacency lists, in the same order, in O(n + m) memory.
    """

    size: int
    edges: list[tuple[int, int]]       # the host edges, as g.edges()
    edge_stubs: list[tuple[int, int]]  # per host edge: its two stub ids
    stubs_of: list[range]              # per host vertex: its stub ids
    cores_of: list[range]              # per host vertex: its core ids
    partner: list[int]                 # per gadget vertex: a stub's partner, -1 at a core
    rows: list[range]                  # per gadget vertex: its shared stub or core range


def _build_gadget(g: Graph, r: int) -> _Gadget:
    stubs_of: list[range] = []
    cores_of: list[range] = []
    rows: list[range] = []
    nid = 0
    for d in g.degrees():
        stubs = range(nid, nid + d)
        cores = range(nid + d, nid + 2 * d - r)
        stubs_of.append(stubs)
        cores_of.append(cores)
        rows += [cores] * d
        rows += [stubs] * (d - r)
        nid = cores.stop
    # each vertex's stubs follow its edges in g.edges() order
    edges = g.edges()
    nxt = [stubs.start for stubs in stubs_of]
    partner = [-1] * nid
    edge_stubs = []
    for u, v in edges:
        a, b = nxt[u], nxt[v]
        nxt[u], nxt[v] = a + 1, b + 1
        partner[a], partner[b] = b, a
        edge_stubs.append((a, b))
    return _Gadget(nid, edges, edge_stubs, stubs_of, cores_of, partner, rows)


def _seed_mate(g: Graph, r: int, gadget: _Gadget, near: EdgeSubgraph | None = None) -> list[int]:
    """Gadget matching of the fast path's near-factor ``near`` (computed
    here when not given): each of its edges matches its two stubs to each
    other, each vertex's other stubs fill its d(v) - r cores, and r minus
    its near-factor degree stubs stay exposed."""
    rows = (_near_factor(g, r) if near is None else near).rows
    mate = [-1] * gadget.size
    for (u, v), (a, b) in zip(gadget.edges, gadget.edge_stubs):
        if rows[u] >> v & 1:
            mate[a] = b
            mate[b] = a
    for v in range(g.n):
        free = [s for s in gadget.stubs_of[v] if mate[s] == -1]
        for s, c in zip(free, gadget.cores_of[v]):
            mate[s] = c
            mate[c] = s
    return mate


def _factor_from_matching(g: Graph, r: int, gadget: _Gadget, mate: list[int]) -> Factor:
    edges = [e for e, (a, b) in zip(gadget.edges, gadget.edge_stubs) if mate[a] == b]
    factor = Factor(EdgeSubgraph.from_host_edges(g.n, edges), r)
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

    The rows are read as the gadget shares them: whether v's core range
    holds an outer vertex is tested once for all of v's stubs, and
    whether v's stub range does once for all of v's cores.
    """
    outer = matcher.outer_vertices()
    partner = gadget.partner
    smask = tmask = 0
    for v in range(g.n):
        stubs, cores = gadget.stubs_of[v], gadget.cores_of[v]
        outer_core = any(outer[c] for c in cores)
        if all(not outer[s] and (outer_core or outer[partner[s]]) for s in stubs):
            smask |= 1 << v
        elif not cores or (not outer_core and any(outer[s] for s in stubs)):
            tmask |= 1 << v
    return smask, tmask


def _find_certificate(
    g: Graph, r: int, gadget: _Gadget, matcher: _Matcher
) -> TutteCertificate:
    return _certificate_from_masks(g, r, *_ge_pair(g, gadget, matcher))


def _decide_by_gadget(g: Graph, r: int, near: EdgeSubgraph | None = None) -> FactorDecision:
    """The exact arbiter: a perfect matching of the gadget, or the Tutte
    pair of its Gallai-Edmonds barrier.  The search starts from the fast
    path's near-factor ``near`` (computed when not given)."""
    gadget = _build_gadget(g, r)
    matcher = _Matcher(gadget.size, gadget.rows, _seed_mate(g, r, gadget, near), gadget.partner)
    mate = matcher.solve()
    if -1 not in mate:
        return FactorDecision(True, r, factor=_factor_from_matching(g, r, gadget, mate))
    return FactorDecision(False, r, certificate=_find_certificate(g, r, gadget, matcher))


# ---------------------------------------------------------------------------
# The decision pipeline
# ---------------------------------------------------------------------------

def _check_degree(n: int, r: int) -> None:
    """Refuse a factor degree r outside 0 <= r <= n - 1 (r = 0 on the
    empty graph) with ``InputError``."""
    if not 0 <= r <= max(n - 1, 0):
        raise InputError(f"r must satisfy 0 <= r <= n-1, got r={r}, n={n}")


def _decide(g: Graph, r: int) -> FactorDecision:
    n = g.n
    _check_degree(n, r)
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
        factor = Factor(EdgeSubgraph.from_host_edges(n, (), g.adj), r)
        factor.validate(g)
        return FactorDecision(True, r, factor=factor)

    sweep = _sweep(g, r, degs)
    near = None
    if not sweep.hit:
        near = _near_factor(g, r)
        factor = _factor_via_orientation(g, r, near)
        if factor is not None:
            return FactorDecision(True, r, factor=factor)

    hit = _structured_violation(g, r, sweep)
    if hit is not None:
        return FactorDecision(False, r, certificate=_certificate_from_masks(g, r, *hit))
    return _decide_by_gadget(g, r, near)


def r_factor_exists(g: Graph, r: int) -> FactorDecision:
    """Decide whether g has a spanning r-regular subgraph.

    Positive answers carry an explicit factor; negative answers carry a
    pair (S, T) violating Q_r(S,T) <= R_r(S,T) (except for the r*n
    parity gate, which is noted instead).
    """
    return _decide(g, r)


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
        decision = _decide(g, r)
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
    ``upper`` is (delta + s)/2 + 4/(s + 4) with s = sqrt(n(2delta-n))
    rounded down to a multiple of 1e-9, a rational for display.
    """

    n: int
    delta: int
    lower: int
    upper: Fraction
    note: str = ""


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
    # s = v/S with v = isqrt(x S^2): delta/2 + v/(2S) + 4S/(v + 4S)
    S = 10 ** 9
    v = isqrt(x * S * S)
    d = v + 4 * S
    upper = Fraction((delta * S + v) * d + 8 * S * S, 2 * S * d)
    return RegEvenBounds(n, delta, max(L, 0), upper, note=note)


# ---------------------------------------------------------------------------
# Splitting an even-regular graph into 2-factors
# ---------------------------------------------------------------------------

def petersen_two_factorization(g: Graph) -> list[Factor]:
    """Split a 2k-regular graph into k edge-disjoint 2-factors.

    Each peel orients the graph's remaining edges, which form a regular
    graph of even degree, so every vertex gets equal out- and in-degree,
    and takes a perfect matching of the associated out/in bipartite
    graph (the walk's greedy arcs completed by ``_balanced_subdigraph``
    with half = 1; one exists since that graph is regular).  Its arcs
    form a 2-factor, which the peel removes from the graph's rows.
    """
    if g.n == 0:
        return []
    degs = g.degrees()
    if len(set(degs)) != 1:
        raise InputError("input graph is not regular")
    rdeg = degs[0]
    if rdeg % 2:
        raise InputError(f"input graph is {rdeg}-regular; even regularity required")
    adj = list(g.adj)
    factors = []
    for _ in range(rdeg // 2):
        out, chosen, fed = balanced_orientation_arcs(Graph.from_adj(adj), 1)
        picked = _balanced_subdigraph(adj, out, 1, chosen, fed)
        if sum(map(int.bit_count, picked)) < 2 * g.n:
            raise InternalError("bipartite peel failed to find a perfect matching")
        factor = Factor(EdgeSubgraph.from_host_edges(g.n, (), picked), 2)
        factor.validate(g)
        factors.append(factor)
        adj = [a & ~p for a, p in zip(adj, picked)]
    return factors
