"""Hamilton cycle search and exact edge-disjoint packing.

Cycles are kept in canonical form: the vertex sequence starts at 0 and
its second entry is smaller than its last, killing the rotation and
reflection symmetries.  Packings list their cycles in nondecreasing
canonical order, which together with residual-degree pruning is what
makes exhaustive packing search feasible at n = 10..12.

The exact maximum packing stops at its first packing of size
min(floor(delta/2), floor(m/n), reg_even/2): k edge-disjoint Hamilton
cycles form a spanning 2k-regular subgraph, so no packing is larger.
The search exhausts only when the maximum lies below that ceiling.

The single-cycle finder is an exact bitmask dynamic program over
(subset, endpoint) states up to n = 20.  From n = 21 to 64 a graph
that is disconnected or has a cut vertex, or has no 2-factor by
``r_factor_exists(g, 2)``, is answered exactly (a Hamilton cycle is a
connected 2-factor, and a graph with one is 2-connected); otherwise the
finder takes the first cycle of the same pruned enumeration the packing
searches use, under a budget of SEARCH_NODE_BUDGET search nodes, past
which it raises CapacityError.  The enumeration extends paths from
vertex 0 in ascending order, so its first cycle is the lexicographically
least Hamilton sequence, which is canonical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import Graph, _reach
from .errors import CapacityError, InputError, InternalError
from .factors import RegEvenBounds, r_factor_exists, reg_even_of_graph, regeven_bounds

HAMILTON_DP_MAX_N = 20
HAMILTON_MAX_N = 64
EXACT_PACKING_MAX_N = 12
SEARCH_NODE_BUDGET = 2_000_000

HamCycle = tuple[int, ...]


def canonical_cycle(seq: list[int] | tuple[int, ...]) -> HamCycle:
    """Rotate to start at 0 and orient so the second vertex is smaller
    than the last."""
    seq = list(seq)
    if len(set(seq)) != len(seq):
        raise InputError("cycle repeats a vertex")
    if 0 not in seq:
        raise InputError("spanning cycle must contain vertex 0")
    i = seq.index(0)
    seq = seq[i:] + seq[:i]
    if len(seq) >= 3 and seq[1] > seq[-1]:
        seq = [seq[0]] + seq[1:][::-1]
    return tuple(seq)


@dataclass(frozen=True)
class Packing:
    """Pairwise edge-disjoint Hamilton cycles of a host graph."""

    host: Graph
    cycles: tuple[HamCycle, ...]
    exhaustive: bool = True   # search ran to completion (no budget cut)

    @property
    def size(self) -> int:
        return len(self.cycles)


class _Budget:
    __slots__ = ("remaining", "exhausted")

    def __init__(self, nodes: int | None):
        if nodes is not None and nodes < 0:
            raise InputError(f"budget must be >= 0, got {nodes}")
        self.remaining = nodes
        self.exhausted = False

    def spend(self) -> bool:
        if self.remaining is None:
            return True
        if self.remaining <= 0:
            self.exhausted = True
            return False
        self.remaining -= 1
        return True


# ---------------------------------------------------------------------------
# Single Hamilton cycle
# ---------------------------------------------------------------------------

def _hamilton_dp(g: Graph) -> HamCycle | None:
    n = g.n
    adj = g.adj
    full = (1 << n) - 1
    dp = [0] * (1 << n)
    dp[1] = 1
    for mask in range(1, 1 << n, 2):
        ep = dp[mask]
        if not ep:
            continue
        rest = ~mask
        while ep:
            vb = ep & -ep
            ep ^= vb
            v = vb.bit_length() - 1
            ext = adj[v] & rest
            while ext:
                ub = ext & -ext
                ext ^= ub
                dp[mask | ub] |= ub
    closers = dp[full] & adj[0]
    if not closers:
        return None
    v = (closers & -closers).bit_length() - 1
    path = []
    mask = full
    while mask != 1:
        path.append(v)
        pmask = mask & ~(1 << v)
        cand = dp[pmask] & adj[v]
        if not cand:
            raise InternalError("dp reconstruction lost its path")
        v = (cand & -cand).bit_length() - 1
        mask = pmask
    path.append(0)
    path.reverse()
    return canonical_cycle(path)


def _feasible(adj: list[int] | tuple[int, ...], n: int, used: int, cur: int) -> bool:
    """Prune test for partial paths: every unvisited vertex keeps two
    usable connections and stays reachable from the path head."""
    unvisited = ~used & ((1 << n) - 1)
    if unvisited == 0:
        return True
    open_ends = (1 << cur) | 1
    m = unvisited
    while m:
        wb = m & -m
        m ^= wb
        if (adj[wb.bit_length() - 1] & (unvisited | open_ends)).bit_count() < 2:
            return False
    # the cycle can close, and every unvisited vertex is reachable from the path head
    return bool(adj[0] & unvisited) and not unvisited & ~_reach(adj, cur, unvisited)


def find_hamilton(g: Graph) -> HamCycle | None:
    """A Hamilton cycle of g in canonical form, or None if none exists.

    Above the DP cap a graph that is not 2-connected or has no 2-factor
    has no Hamilton cycle; otherwise the first cycle of the enumeration
    is returned, and a search that spends SEARCH_NODE_BUDGET nodes
    raises CapacityError.  A returned cycle has passed the packing audit.
    """
    if g.n > HAMILTON_MAX_N:
        raise CapacityError(f"Hamilton search capped at n <= {HAMILTON_MAX_N}")
    if g.n < 3:
        return None
    if g.min_degree() < 2:
        return None
    if g.n <= HAMILTON_DP_MAX_N:
        cycle = _hamilton_dp(g)
    elif g.cut_vertices() or not r_factor_exists(g, 2):
        return None
    else:
        budget = _Budget(SEARCH_NODE_BUDGET)
        cycle = next(_iter_cycles(list(g.adj), g.n, None, budget), None)
        if budget.exhausted:
            raise CapacityError(f"Hamilton search spent its budget of {SEARCH_NODE_BUDGET} "
                                "nodes without an answer")
    if cycle is not None:
        _audit_packing(g, Packing(g, (cycle,)))
    return cycle


# ---------------------------------------------------------------------------
# Canonical cycle enumeration (lexicographic, lower-bounded)
# ---------------------------------------------------------------------------

def _iter_cycles(
    adj: list[int], n: int, lower: HamCycle | None, budget: _Budget
):
    """Yield canonical Hamilton cycles of the (mutable) adjacency rows
    in lexicographic order, skipping cycles below ``lower``."""
    path = [0]

    def dfs(v: int, used: int, tight: bool):
        if not budget.spend():
            return
        if len(path) == n:
            if adj[v] & 1 and path[1] < path[-1]:
                yield tuple(path)
            return
        if not _feasible(adj, n, used, v):
            return
        floor_vertex = lower[len(path)] if tight and lower else 0
        ext = adj[v] & ~used
        while ext:
            ub = ext & -ext
            ext ^= ub
            u = ub.bit_length() - 1
            if u < floor_vertex:
                continue
            path.append(u)
            yield from dfs(u, used | ub, tight and u == floor_vertex)
            path.pop()
            if budget.exhausted:
                return

    yield from dfs(0, 1, lower is not None)


def _toggle_cycle(rows: list[int], cycle: HamCycle) -> None:
    """Remove the cycle's edges from the rows, or put them back."""
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u


def _packing_upper_bound(rows: list[int], n: int) -> int:
    degs = [r.bit_count() for r in rows]
    by_degree = min(degs, default=0) // 2
    by_edges = sum(degs) // 2 // n if n else 0
    return min(by_degree, by_edges)


def _search_packing(
    g: Graph, target: int | None, budget: _Budget, ceiling: int | None = None
) -> tuple[list[HamCycle], bool]:
    """Backtracking packing search with nondecreasing canonical order.

    target=None maximizes exactly, stopping early only at a packing of
    size ``ceiling`` (a proven upper bound on the maximum); otherwise
    stops at the first packing reaching the target.  Neither mode prunes
    a subtree holding a packing of the size it stops at, so both stop at
    the first such packing in depth-first order.  Returns (best cycles,
    achieved-target flag).
    """
    n = g.n
    rows = list(g.adj)
    cycles: list[HamCycle] = []
    best: list[HamCycle] = []
    stop = ceiling if target is None else target

    def rec(lower: HamCycle | None) -> bool:
        nonlocal best
        if len(cycles) > len(best):
            best = cycles.copy()
        if stop is not None and len(cycles) >= stop:
            return True
        cap = len(cycles) + _packing_upper_bound(rows, n)
        if target is None:
            if cap <= len(best):
                return False
        elif cap < target:
            return False
        for cycle in _iter_cycles(rows, n, lower, budget):
            _toggle_cycle(rows, cycle)
            cycles.append(cycle)
            hit = rec(cycle)
            cycles.pop()
            _toggle_cycle(rows, cycle)
            if hit:
                return True
            if budget.exhausted:
                return False
        return False

    achieved = rec(None)
    return (best, achieved)


def pack_hamilton(g: Graph, target: int, budget: int | None = 500_000) -> Packing:
    """Pack at least ``target`` edge-disjoint Hamilton cycles, or report
    the best packing found within the node budget."""
    if target < 0:
        raise InputError(f"target must be >= 0, got {target}")
    if g.n > HAMILTON_MAX_N:
        raise CapacityError(f"packing search capped at n <= {HAMILTON_MAX_N}")
    b = _Budget(budget)
    if target == 0:
        return Packing(g, (), exhaustive=True)
    best, achieved = _search_packing(g, target, b)
    packing = Packing(g, tuple(best), exhaustive=not b.exhausted)
    _audit_packing(g, packing)
    return packing


def max_packing_exact(g: Graph) -> tuple[int, Packing]:
    """The true maximum number of edge-disjoint Hamilton cycles, by
    branch-and-bound with canonical symmetry breaking.

    The search stops at its first packing of size min(floor(delta/2),
    floor(m/n), reg_even/2), which is provably maximum, and exhausts the
    search only when the maximum lies below that ceiling.
    """
    return _max_packing(g, None)


def _max_packing(g: Graph, reg_even: int | None) -> tuple[int, Packing]:
    """max_packing_exact, given reg_even(g) when the caller already has
    it (None computes it)."""
    if g.n > EXACT_PACKING_MAX_N:
        raise CapacityError(f"exact maximum packing capped at n <= {EXACT_PACKING_MAX_N}")
    if reg_even is None:
        reg_even = reg_even_of_graph(g)
    ceiling = min(_packing_upper_bound(list(g.adj), g.n), reg_even // 2)
    best, _ = _search_packing(g, None, _Budget(None), ceiling)
    packing = Packing(g, tuple(best), exhaustive=True)
    _audit_packing(g, packing, reg_even)
    return len(best), packing


def decompose_even_regular(g: Graph, budget: int | None = None) -> tuple[Packing | None, bool]:
    """Partition an even-regular graph into Hamilton cycles, if possible:
    the decomposition (None when none was found) and whether the search
    ran uncut, which makes a None definitive.

    The search is uncut by default for n <= 12; above that a budget
    (default SEARCH_NODE_BUDGET nodes) makes it best-effort.
    """
    if budget is None:
        budget = None if g.n <= EXACT_PACKING_MAX_N else SEARCH_NODE_BUDGET
    b = _Budget(budget)
    degs = g.degrees()
    if len(set(degs)) > 1:
        raise InputError("graph is not regular")
    r = degs[0] if degs else 0
    if r % 2:
        raise InputError(f"graph is {r}-regular; even degree required")
    if r == 0:
        return Packing(g, (), exhaustive=True), True
    if g.n > HAMILTON_MAX_N:
        raise CapacityError(f"decomposition search capped at n <= {HAMILTON_MAX_N}")
    best, achieved = _search_packing(g, r // 2, b)
    if not achieved:
        return None, not b.exhausted
    packing = Packing(g, tuple(best), exhaustive=not b.exhausted)
    _audit_packing(g, packing)
    covered = sum(len(c) for c in packing.cycles)
    if covered != g.m:
        raise InternalError("decomposition does not cover the edge set")
    return packing, packing.exhaustive


# ---------------------------------------------------------------------------
# Independent audit
# ---------------------------------------------------------------------------

def verify_packing_detailed(g: Graph, packing: Packing) -> tuple[bool, str | None]:
    """Re-validate a packing edge by edge against the host's rows and a
    row of the edges used so far; shares no state with the search code."""
    used = [0] * g.n
    for ci, cycle in enumerate(packing.cycles):
        if len(cycle) != g.n or len(set(cycle)) != g.n:
            return False, f"cycle {ci} does not visit every vertex exactly once"
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            e = (u, v) if u < v else (v, u)
            if not g.has_edge(u, v):
                return False, f"cycle {ci} uses non-edge {e}"
            if used[u] >> v & 1:
                return False, f"edge {e} reused by cycle {ci}"
            used[u] |= 1 << v
            used[v] |= 1 << u
    return True, None


def verify_packing(g: Graph, packing: Packing) -> bool:
    return verify_packing_detailed(g, packing)[0]


def _audit_packing(g: Graph, packing: Packing, reg_even: int | None = None) -> None:
    """Re-validate an emitted packing and check it against the degree
    bound and, when the caller knows reg_even(g), against reg_even/2:
    the cycles of a packing form a spanning 2k-regular subgraph."""
    ok, reason = verify_packing_detailed(g, packing)
    if not ok:
        raise InternalError(f"emitted packing failed its audit: {reason}")
    if g.n and len(packing.cycles) > g.min_degree() // 2:
        raise InternalError("packing exceeds the degree upper bound")
    if reg_even is not None and 2 * len(packing.cycles) > reg_even:
        raise InternalError(f"packing exceeds reg_even/2 = {reg_even // 2}")


# ---------------------------------------------------------------------------
# Conjecture experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjectureReport:
    """Per-graph comparison of the exact maximum packing against half
    the largest even-factor degree (graph-level law) and half the
    worst-case lower bound at (n, delta) (class-level law)."""

    n: int
    delta: int
    reg_even: int
    bounds: RegEvenBounds
    max_packing: int
    packing: Packing
    graph_law_ok: bool       # max_packing >= reg_even(G)/2
    class_law_ok: bool       # max_packing >= bounds.lower/2
    counterexample: str | None = field(default=None)


def conjecture_experiment(g: Graph) -> ConjectureReport:
    """Evaluate both packing laws on one graph (n <= 12, delta >= n/2).

    A violated law is reported with the full edge list; it is a finding,
    not an error.
    """
    n = g.n
    delta = g.min_degree()
    if 2 * delta < n:
        raise InputError(f"need delta >= n/2, got delta={delta}, n={n}")
    reg = reg_even_of_graph(g)
    bounds = regeven_bounds(n, delta)
    count, packing = _max_packing(g, reg)
    graph_ok = 2 * count >= reg
    class_ok = 2 * count >= bounds.lower
    counterexample = None
    if not (graph_ok and class_ok):
        from .edgelist import format_edge_list

        counterexample = format_edge_list(g)
    return ConjectureReport(
        n=n,
        delta=delta,
        reg_even=reg,
        bounds=bounds,
        max_packing=count,
        packing=packing,
        graph_law_ok=graph_ok,
        class_law_ok=class_ok,
        counterexample=counterexample,
    )
