"""Robust (nu,tau)-expansion certification for graphs and digraphs,
balanced Eulerian orientation, and randomized sparse expander-factor
extraction.

A set S in the size window tau*n <= |S| <= (1-tau)*n must satisfy
|RN_nu(S)| >= |S| + nu*n, where RN_nu(S) collects the vertices with at
least nu*n neighbours (in-neighbours, for digraphs) inside S.  Graphs
and digraphs run one path on in-neighbour rows (a graph's are its
adjacency rows).  The exact checker walks all 2^n masks in ascending
order, 2^16 at a time: each chunk fixes the high bits, so a vertex's
in-neighbour count in S is its count in the high part plus a lookup in
one int8 table over the low 16 bits, built once per call.  Thresholds
are exact integers, and every emitted witness is re-checked against the
definition as a rational.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator

from .core import DiGraph, Graph, iter_bits, mask_of, set_of
from .errors import CapacityError, InputError, InternalError
from .orientation import balanced_orientation_arcs

if TYPE_CHECKING:
    import numpy as np

EXACT_EXPANDER_MAX_N = 22
_CHUNK_BITS = 16


@dataclass(frozen=True)
class RobustParams:
    nu: Fraction
    tau: Fraction

    def __post_init__(self):
        nu, tau = Fraction(self.nu), Fraction(self.tau)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "tau", tau)
        if not 0 < nu <= tau < 1:
            raise InputError(f"need 0 < nu <= tau < 1, got nu={nu}, tau={tau}")


@dataclass(frozen=True)
class ExpanderVerdict:
    """Outcome of an expansion check.

    ``certified`` can only come from the exact checker.  A present
    ``witness`` is a refuting set re-validated against the definition.
    Monte-Carlo runs that find no witness are inconclusive: neither
    certified nor refuted.
    """

    certified: bool
    witness: frozenset[int] | None
    checked_mode: str  # "exact" | "monte_carlo"
    samples: int

    @property
    def refuted(self) -> bool:
        return self.witness is not None

    @property
    def inconclusive(self) -> bool:
        return not self.certified and self.witness is None


def _ceil_frac(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


def _floor_frac(q: Fraction) -> int:
    return q.numerator // q.denominator


def _window(n: int, tau: Fraction) -> tuple[int, int]:
    return _ceil_frac(tau * n), _floor_frac((1 - tau) * n)


def _robust_vertices(in_rows: tuple[int, ...], smask: int, thr: int) -> list[int]:
    """The vertices with at least thr in-neighbours inside smask: the
    one robust-neighbourhood count."""
    return [v for v, row in enumerate(in_rows) if (row & smask).bit_count() >= thr]


def robust_neighborhood(g: Graph, s: Iterable[int], nu: Fraction | float) -> frozenset[int]:
    """All vertices with at least nu*n neighbours inside s (s-members allowed)."""
    return frozenset(_robust_vertices(g.adj, mask_of(s, g.n), _ceil_frac(Fraction(nu) * g.n)))


def robust_out_neighborhood(
    d: DiGraph, s: Iterable[int], nu: Fraction | float
) -> frozenset[int]:
    """All vertices with at least nu*n in-neighbours inside s."""
    return frozenset(_robust_vertices(d.in_adj, mask_of(s, d.n), _ceil_frac(Fraction(nu) * d.n)))


def _assert_witness(
    in_rows: tuple[int, ...], n: int, params: RobustParams, s: frozenset[int]
) -> None:
    """Re-check a refuting set against the definition, as rationals:
    it must fail |RN_nu(S)| >= |S| + nu*n."""
    rn = _robust_vertices(in_rows, mask_of(s, n), _ceil_frac(params.nu * n))
    if Fraction(len(rn)) >= len(s) + params.nu * n:
        raise InternalError("emitted witness fails re-validation")


# ---------------------------------------------------------------------------
# Exact subset enumeration
# ---------------------------------------------------------------------------

def _bit_matrix(rows: tuple[int, ...], n: int) -> np.ndarray:
    """The 0/1 float32 matrix whose (u, v) entry is bit v of rows[u]."""
    import numpy as np

    mat = np.zeros((n, n), dtype=np.float32)
    for u, row in enumerate(rows):
        mat[u, list(iter_bits(row))] = 1.0
    return mat


def _exact_window_check(
    in_rows: tuple[int, ...], n: int, params: RobustParams
) -> ExpanderVerdict:
    """Full enumeration over in-neighbour rows (a graph's adjacency rows),
    in ascending bitmask order, 2^16 masks per chunk.  A chunk fixes the
    high bits, so v's in-neighbour count in S is its count in the fixed
    high part plus a lookup in one table over the low 16 bits."""
    if n > EXACT_EXPANDER_MAX_N:
        raise CapacityError(
            f"exact expansion check capped at n <= {EXACT_EXPANDER_MAX_N}; "
            "use the Monte-Carlo refuter for larger graphs"
        )
    kmin, kmax = _window(n, params.tau)
    need = _ceil_frac(params.nu * n)
    if kmin > kmax or kmin > n or kmax < 0:
        return ExpanderVerdict(True, None, "exact", 0)
    import numpy as np

    b = min(n, _CHUNK_BITS)
    # low_counts[v, l]: in-neighbours of v among the set bits of l, and
    # low_sizes[l]: the popcount of l, both doubled one low bit at a time
    credit = _bit_matrix(in_rows, n).T.astype(np.int8)  # credit[u, v]: u -> v
    low_counts = np.zeros((n, 1), dtype=np.int8)
    low_sizes = np.zeros(1, dtype=np.int16)
    for u in range(b):
        low_counts = np.concatenate([low_counts, low_counts + credit[u][:, None]], axis=1)
        low_sizes = np.concatenate([low_sizes, low_sizes + 1])
    robust = np.empty(1 << b, dtype=np.int16)
    examined = 0
    for high in range(1 << (n - b)):
        hmask = high << b
        hsize = high.bit_count()
        in_window = (low_sizes >= kmin - hsize) & (low_sizes <= kmax - hsize)
        if not in_window.any():
            continue
        examined += int(np.count_nonzero(in_window))
        robust.fill(0)
        always = 0  # vertices robust through their high count alone
        for v, row in enumerate(in_rows):
            # v is robust when its low count reaches need - its high count
            thr = need - (row & hmask).bit_count()
            if thr <= 0:
                always += 1
            else:
                robust += low_counts[v] >= thr
        bad = in_window & (robust < low_sizes + (hsize + need - always))
        if bad.any():
            witness = set_of(hmask | int(np.argmax(bad)))
            _assert_witness(in_rows, n, params, witness)
            return ExpanderVerdict(False, witness, "exact", examined)
    return ExpanderVerdict(True, None, "exact", examined)


def is_robust_expander_exact(g: Graph, params: RobustParams) -> ExpanderVerdict:
    """Certify or refute robust (nu,tau)-expansion by full enumeration.

    The refuting witness, when present, is the first violating subset
    in ascending bitmask order.
    """
    return _exact_window_check(g.adj, g.n, params)


def is_robust_outexpander_exact(d: DiGraph, params: RobustParams) -> ExpanderVerdict:
    """Digraph analogue with in-neighbour robust neighbourhoods."""
    return _exact_window_check(d.in_adj, d.n, params)


# ---------------------------------------------------------------------------
# Monte-Carlo refutation for larger graphs
# ---------------------------------------------------------------------------

def _structured_subsets(g: Graph, kmin: int, kmax: int) -> Iterator[frozenset[int]]:
    """Cheap witness candidates: components, neighbourhoods, BFS balls,
    degree-sorted prefixes, and their complements, coerced into the
    size window deterministically."""
    n = g.n
    everything = list(range(n))

    def coerce(vertices: list[int]) -> Iterator[frozenset[int]]:
        k = len(vertices)
        if kmin <= k <= kmax:
            yield frozenset(vertices)
        if k > kmax:
            yield frozenset(sorted(vertices)[:kmax])
        if k < kmin:
            pad = [v for v in everything if v not in set(vertices)]
            yield frozenset(list(vertices) + pad[: kmin - k])

    seen = set()
    def emit(vertices):
        for cand in coerce(vertices):
            if kmin <= len(cand) <= kmax and cand not in seen:
                seen.add(cand)
                yield cand

    comps = [list(iter_bits(c)) for c in g.components()]
    for comp_list in comps:
        yield from emit(comp_list)
        yield from emit([v for v in range(n) if v not in set(comp_list)])
    # cumulative unions of components catch many-small-component graphs
    # whose individual pieces all sit below the size window
    for ordering in (sorted(comps, key=len), sorted(comps, key=len, reverse=True)):
        acc: list[int] = []
        for comp_list in ordering:
            acc.extend(comp_list)
            if len(acc) >= kmin:
                yield from emit(list(acc))
            if len(acc) > kmax:
                break
    for v in range(n):
        nb = g.neighbors(v)
        yield from emit(nb)
        yield from emit(nb + [v])
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    for k in (kmin, (kmin + kmax) // 2, kmax):
        if 0 <= k <= n:
            yield from emit(order[:k])
            yield from emit(order[::-1][:k])
    # BFS balls around each vertex, clipped at each window size boundary
    for v in range(n):
        ball_order = []
        seen_mask = 0
        frontier = 1 << v
        while frontier:
            for u in iter_bits(frontier):
                ball_order.append(u)
            seen_mask |= frontier
            nxt = 0
            for u in iter_bits(frontier):
                nxt |= g.adj[u]
            frontier = nxt & ~seen_mask
        for k in (kmin, kmax):
            if k <= len(ball_order):
                yield from emit(ball_order[:k])


def refute_robust_expander_mc(
    g: Graph, params: RobustParams, samples: int, seed: int
) -> ExpanderVerdict:
    """Search for a refuting subset: structured candidates first, then
    seeded random subsets.  Never certifies; no witness means the run
    is inconclusive."""
    if samples < 1:
        raise InputError(f"samples must be >= 1, got {samples}")
    n = g.n
    kmin, kmax = _window(n, params.tau)
    if kmin > kmax or kmin > n or kmax < 0:
        return ExpanderVerdict(False, None, "monte_carlo", 0)
    need = _ceil_frac(params.nu * n)
    tried = 0

    def violates(cand: frozenset[int]) -> bool:
        # |RN| and |S| are integers, so |RN| < |S| + nu*n iff |RN| < |S| + need
        return len(_robust_vertices(g.adj, mask_of(cand, n), need)) < len(cand) + need

    for cand in _structured_subsets(g, kmin, kmax):
        tried += 1
        if violates(cand):
            _assert_witness(g.adj, n, params, cand)
            return ExpanderVerdict(False, cand, "monte_carlo", tried)
    rng = random.Random(seed)
    for _ in range(samples):
        k = rng.randint(kmin, min(kmax, n))
        cand = frozenset(rng.sample(range(n), k))
        tried += 1
        if violates(cand):
            _assert_witness(g.adj, n, params, cand)
            return ExpanderVerdict(False, cand, "monte_carlo", tried)
    return ExpanderVerdict(False, None, "monte_carlo", tried)


# ---------------------------------------------------------------------------
# Derived parameters and orientation
# ---------------------------------------------------------------------------

def min_degree_implies_expander_params(
    eps: Fraction | float, tau: Fraction | float
) -> RobustParams:
    """Largest nu with eps >= 2*nu/tau: any graph with min degree at
    least (1/2+eps)n is then a robust (nu,tau)-expander."""
    eps, tau = Fraction(eps), Fraction(tau)
    if not 0 < eps < Fraction(1, 2):
        raise InputError(f"need 0 < eps < 1/2, got eps={eps}")
    if not 0 < tau < 1:
        raise InputError(f"need 0 < tau < 1, got tau={tau}")
    return RobustParams(nu=eps * tau / 2, tau=tau)


def eulerian_orientation(g: Graph) -> DiGraph:
    """Orient edges with |outdeg - indeg| <= 1 everywhere and exact
    balance at even-degree vertices."""
    d = DiGraph(g.n, balanced_orientation_arcs(g))
    for v in range(g.n):
        if abs(d.out_degree(v) - d.in_degree(v)) > 1:
            raise InternalError(f"orientation unbalanced at vertex {v}")
    return d


# ---------------------------------------------------------------------------
# Sparse expander factor (randomized extract-and-verify)
# ---------------------------------------------------------------------------

def sparse_expander_factor(
    g: Graph,
    eps: Fraction | float,
    params: RobustParams,
    seed: int,
    attempts: int = 50,
    mc_samples: int = 500,
):
    """Hunt for an eps*n-factor of g that certifies (or survives
    refutation attempts) as a robust expander.

    Factors are extracted from randomly edge-sampled subgraphs so that
    repeated attempts explore different factors.  Returns the first
    certified/unrefuted (factor, verdict) pair, else the last factor
    with its failing verdict; never silently hides non-certification.
    """
    from .factors import extract_r_factor, r_factor_exists

    eps = Fraction(eps)
    r_frac = eps * g.n
    if r_frac.denominator != 1 or r_frac < 2 or r_frac % 2:
        raise InputError(f"eps*n must be an even integer >= 2, got {r_frac}")
    if attempts < 1:
        raise InputError("attempts must be >= 1")
    r = int(r_frac)
    base = extract_r_factor(g, r)  # existence gate; raises with certificate
    rng = random.Random(seed)
    delta = g.min_degree()
    last = None

    def check(factor):
        h = factor.subgraph.to_graph()
        if g.n <= EXACT_EXPANDER_MAX_N:
            return is_robust_expander_exact(h, params)
        return refute_robust_expander_mc(
            h, params, samples=mc_samples, seed=rng.getrandbits(32)
        )

    for attempt in range(attempts):
        if attempt == 0:
            factor = base
        else:
            keep = min(1.0, (r + 2 + 2 * (attempt % 4)) / max(delta, 1))
            edges = [e for e in g.edges() if rng.random() < keep]
            sub = Graph(g.n, edges)
            if sub.min_degree() < r:
                continue
            decision = r_factor_exists(sub, r)
            if not decision.exists:
                continue
            factor = decision.factor
        verdict = check(factor)
        last = (factor, verdict)
        if verdict.certified or (verdict.checked_mode == "monte_carlo" and not verdict.refuted):
            return factor, verdict
    assert last is not None
    return last
