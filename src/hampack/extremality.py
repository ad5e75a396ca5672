"""Recognition of near-extremal structure and closeness to the two
Dirac-extremal families.

A graph with minimum degree (1/2+alpha)n is eta-extremal when some
disjoint pair (A, B) satisfies

  (E1)  |A| = (1/2 - sqrt(alpha+/2) +- eta) n
  (E2)  |B| = (1/2 + sqrt(alpha+/2) +- eta) n
  (E3)  e(A,B) > (1-eta) |A||B|
  (E4)  e(B)  < (alpha+ + sqrt(alpha+/2) + eta) n |B| / 2

with alpha+ = max(alpha, 0); alpha is always derived from the actual
minimum degree as an exact rational.  All four comparisons are decided
exactly by squaring out the irrational thresholds.  E1, E2 and E4 are
one predicate each, shared by the pair check, the size windows of the
witness search and the E4 prune of its exact 3^n enumeration; every
report, given pair or found witness, is built and checked against the
coverage bound n - |A u B| <= 2 eta n in one place.  Closeness to
K_{n/2,n/2} (resp. two disjoint half cliques) asks for a half-sized A
with e(A) (resp. e(A, complement)) at most eps*n^2.  Up to n = 24 the
minimum is exact, by meet in the middle over the two halves of V, and
the lexicographically first minimiser is returned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .core import Graph, Partition, iter_bits, mask_of, set_of
from .errors import InputError, InternalError
from .exactcmp import as_fraction, cmp_sqrt
from .expanders import (
    EXACT_EXPANDER_MAX_N,
    ExpanderVerdict,
    RobustParams,
    _bit_matrix,
    is_robust_expander_exact,
    refute_robust_expander_mc,
)

if TYPE_CHECKING:
    import numpy as np

EXACT_WITNESS_MAX_N = 14
EXACT_CLOSENESS_MAX_N = 24


def _nonnegative(name: str, x: Fraction | float) -> Fraction:
    """x as a Fraction, refused with ``InputError`` when negative."""
    x = as_fraction(x)
    if x < 0:
        raise InputError(f"{name} must be nonnegative, got {x}")
    return x


def alpha_of(g: Graph) -> Fraction:
    """alpha with min-degree delta = (1/2 + alpha) n, exactly."""
    if g.n == 0:
        raise InputError("alpha undefined for the empty graph")
    return Fraction(g.min_degree(), g.n) - Fraction(1, 2)


@dataclass(frozen=True)
class ExtremalityReport:
    eta: Fraction
    alpha: Fraction
    partition: Partition | None
    e1: bool
    e2: bool
    e3: bool
    e4: bool
    mode: str  # "pair" | "exact" | "heuristic"
    quantities: dict

    @property
    def extremal(self) -> bool:
        return self.e1 and self.e2 and self.e3 and self.e4


def _pair_counts(g: Graph, amask: int, bmask: int) -> tuple[int, int, int, int]:
    size_a = amask.bit_count()
    size_b = bmask.bit_count()
    e_ab = 0
    e_b2 = 0
    for v in iter_bits(amask):
        e_ab += (g.adj[v] & bmask).bit_count()
    for v in iter_bits(bmask):
        e_b2 += (g.adj[v] & bmask).bit_count()
    return size_a, size_b, e_ab, e_b2 // 2


def _e1_holds(n: int, ap: Fraction, eta: Fraction, size_a: int) -> bool:
    sq = ap / 2 * n * n  # (sqrt(alpha+/2) * n)^2
    half = Fraction(1, 2)
    return (
        cmp_sqrt((half - eta) * n - size_a, sq) <= 0
        and cmp_sqrt((half + eta) * n - size_a, sq) >= 0
    )


def _e2_holds(n: int, ap: Fraction, eta: Fraction, size_b: int) -> bool:
    sq = ap / 2 * n * n
    half = Fraction(1, 2)
    return (
        cmp_sqrt(size_b - (half - eta) * n, sq) >= 0
        and cmp_sqrt(size_b - (half + eta) * n, sq) <= 0
    )


def _e4_holds(n: int, ap: Fraction, eta: Fraction, e_b: int, size_b: int) -> bool:
    q4 = Fraction(e_b) - (ap + eta) * n * size_b / 2
    a4 = ap / 2 * (Fraction(n) * size_b / 2) ** 2
    return cmp_sqrt(q4, a4) < 0


def _conditions(
    g: Graph, eta: Fraction, amask: int, bmask: int
) -> tuple[bool, bool, bool, bool, dict]:
    n = g.n
    ap = max(alpha_of(g), Fraction(0))
    size_a, size_b, e_ab, e_b = _pair_counts(g, amask, bmask)
    e1 = _e1_holds(n, ap, eta, size_a)
    e2 = _e2_holds(n, ap, eta, size_b)
    e3 = Fraction(e_ab) > (1 - eta) * size_a * size_b
    e4 = _e4_holds(n, ap, eta, e_b, size_b)
    quantities = {
        "size_a": size_a,
        "size_b": size_b,
        "e_ab": e_ab,
        "e_b": e_b,
        "uncovered": n - size_a - size_b,
    }
    if eta >= 1:
        quantities["degenerate_eta"] = True
    return e1, e2, e3, e4, quantities


def _report(
    g: Graph, eta: Fraction, amask: int, bmask: int, part: Partition, mode: str
) -> ExtremalityReport:
    """The report on (E1)-(E4) for one pair, with the coverage check:
    (E1) and (E2) force n - |A u B| <= 2 eta n, so a positive report
    that leaves more uncovered is a bug."""
    e1, e2, e3, e4, quantities = _conditions(g, eta, amask, bmask)
    report = ExtremalityReport(
        eta=eta,
        alpha=alpha_of(g),
        partition=part,
        e1=e1,
        e2=e2,
        e3=e3,
        e4=e4,
        mode=mode,
        quantities=quantities,
    )
    if report.extremal and Fraction(quantities["uncovered"]) > 2 * eta * g.n:
        raise InternalError("positive report violates the coverage slack bound")
    return report


def check_eta_extremal_pair(
    g: Graph, eta: Fraction | float, part: Partition
) -> ExtremalityReport:
    """Evaluate (E1)-(E4) for an explicit disjoint pair, exactly."""
    eta = _nonnegative("eta", eta)
    amask = mask_of(part.a, g.n)
    bmask = mask_of(part.b, g.n)
    if amask & bmask:
        raise InputError("A and B overlap")
    return _report(g, eta, amask, bmask, part, "pair")


# ---------------------------------------------------------------------------
# Witness search
# ---------------------------------------------------------------------------

def _size_windows(g: Graph, eta: Fraction) -> tuple[int, int, int, int]:
    """Integer ranges [lo_a, hi_a], [lo_b, hi_b] implied by E1/E2."""
    n = g.n
    ap = max(alpha_of(g), Fraction(0))
    a_ok = [k for k in range(n + 1) if _e1_holds(n, ap, eta, k)]
    b_ok = [k for k in range(n + 1) if _e2_holds(n, ap, eta, k)]
    lo_a, hi_a = (a_ok[0], a_ok[-1]) if a_ok else (1, 0)
    lo_b, hi_b = (b_ok[0], b_ok[-1]) if b_ok else (1, 0)
    return lo_a, hi_a, lo_b, hi_b


def find_eta_extremal_witness(
    g: Graph,
    eta: Fraction | float,
    seed: int = 0,
    restarts: int = 20,
) -> ExtremalityReport:
    """Search for a pair (A, B) witnessing eta-extremality.

    Exact 3^n enumeration with sound pruning for n <= 14 (a negative is
    then definitive); seeded local search above that (a negative only
    means no witness was found).
    """
    eta = _nonnegative("eta", eta)
    if restarts < 1:
        raise InputError(f"restarts must be >= 1, got {restarts}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    if g.n <= EXACT_WITNESS_MAX_N:
        hit = _exact_witness(g, eta)
        mode = "exact"
    else:
        hit = _heuristic_witness(g, eta, seed, restarts)
        mode = "heuristic"
    if hit is None:
        return ExtremalityReport(
            eta=eta,
            alpha=alpha_of(g),
            partition=None,
            e1=False,
            e2=False,
            e3=False,
            e4=False,
            mode=mode,
            quantities={},
        )
    amask, bmask = hit
    report = _report(g, eta, amask, bmask, Partition(set_of(amask), set_of(bmask)), mode)
    if not report.extremal:
        raise InternalError("witness search returned a non-witness")
    return report


def _exact_witness(g: Graph, eta: Fraction) -> tuple[int, int] | None:
    n = g.n
    lo_a, hi_a, lo_b, hi_b = _size_windows(g, eta)
    if lo_a > hi_a or lo_b > hi_b:
        return None
    ap = max(alpha_of(g), Fraction(0))
    one_minus_eta = 1 - eta

    adj = g.adj
    m_total = g.m
    found: list[tuple[int, int]] = []

    def dfs(v: int, amask: int, bmask: int, e_ab: int, e_b2: int, e_assigned: int) -> bool:
        # e_b2 = 2*e(B); e_assigned = edges with both endpoints assigned
        size_a = amask.bit_count()
        size_b = bmask.bit_count()
        rem = n - v
        if size_a > hi_a or size_b > hi_b:
            return False
        if size_a + rem < lo_a or size_b + rem < lo_b:
            return False
        # E4 prune: e(B) only grows and the E4 bound grows with |B|, so
        # E4 failing at the largest reachable |B| kills the branch (E4
        # always fails for empty B)
        if not _e4_holds(n, ap, eta, e_b2 // 2, min(hi_b, size_b + rem)):
            return False
        # E3 prune: cross edges cannot exceed current + all unassigned-incident
        cross_max = e_ab + (m_total - e_assigned)
        if Fraction(cross_max) <= one_minus_eta * size_a * size_b:
            return False
        if v == n:
            e1, e2, e3, e4, _ = _conditions(g, eta, amask, bmask)
            if e1 and e2 and e3 and e4:
                found.append((amask, bmask))
                return True
            return False
        bit = 1 << v
        row = adj[v]
        inc_assigned = (row & ((1 << v) - 1)).bit_count()
        to_a = (row & amask).bit_count()
        to_b = (row & bmask).bit_count()
        # order: A, B, unassigned
        if dfs(v + 1, amask | bit, bmask, e_ab + to_b, e_b2, e_assigned + inc_assigned):
            return True
        if dfs(v + 1, amask, bmask | bit, e_ab + to_a, e_b2 + 2 * to_b, e_assigned + inc_assigned):
            return True
        return dfs(v + 1, amask, bmask, e_ab, e_b2, e_assigned + inc_assigned)

    return found[0] if dfs(0, 0, 0, 0, 0, 0) else None


def _heuristic_witness(
    g: Graph, eta: Fraction, seed: int, restarts: int
) -> tuple[int, int] | None:
    n = g.n
    lo_a, hi_a, lo_b, hi_b = _size_windows(g, eta)
    if lo_a > hi_a or lo_b > hi_b:
        return None
    rng = random.Random(seed)
    alpha_f = float(alpha_of(g))
    ap_f = max(alpha_f, 0.0)
    sqrt_term = (ap_f / 2) ** 0.5
    eta_f = float(eta)

    def violation(amask: int, bmask: int) -> float:
        size_a, size_b, e_ab, e_b = _pair_counts(g, amask, bmask)
        pen = 0.0
        pen += max(0, lo_a - size_a) + max(0, size_a - hi_a)
        pen += max(0, lo_b - size_b) + max(0, size_b - hi_b)
        target_cross = (1 - eta_f) * size_a * size_b
        pen += max(0.0, (target_cross - e_ab + 1) / max(1, n))
        e4_bound = (ap_f + sqrt_term + eta_f) * n * size_b / 2
        pen += max(0.0, (e_b - e4_bound + 1) / max(1, n))
        return pen

    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    target_a = max(lo_a, min(hi_a, round((0.5 - sqrt_term) * n)))
    starts = [order[:target_a]]
    for _ in range(restarts - 1):
        starts.append(rng.sample(range(n), target_a))

    for start in starts:
        amask = mask_of(start, n)
        bmask = ((1 << n) - 1) & ~amask
        # trim B into its window deterministically (drop lowest-degree last)
        while bmask.bit_count() > hi_b:
            drop = min(iter_bits(bmask), key=lambda v: (g.degree(v), v))
            bmask &= ~(1 << drop)
        best = violation(amask, bmask)
        for _ in range(400):
            if best == 0.0:
                break
            improved = False
            verts = list(range(n))
            rng.shuffle(verts)
            for v in verts:
                bit = 1 << v
                in_a, in_b = bool(amask & bit), bool(bmask & bit)
                for na, nb in ((0, 0), (1, 0), (0, 1)):
                    if (na, nb) == (in_a, in_b):
                        continue
                    a2 = (amask & ~bit) | (bit if na else 0)
                    b2 = (bmask & ~bit) | (bit if nb else 0)
                    val = violation(a2, b2)
                    if val < best:
                        amask, bmask, best = a2, b2, val
                        improved = True
                        break
                if improved:
                    break
            if not improved:
                break
        if best == 0.0:
            e1, e2, e3, e4, _ = _conditions(g, eta, amask, bmask)
            if e1 and e2 and e3 and e4:
                return amask, bmask
    return None


# ---------------------------------------------------------------------------
# Closeness to the Dirac-extremal families
# ---------------------------------------------------------------------------

CLOSENESS_KINDS = ("bipartite", "two_cliques")


@dataclass(frozen=True)
class ClosenessReport:
    kind: str
    epsilon: Fraction
    a: frozenset[int]
    score: int
    close: bool
    exact: bool  # heuristic scores are only upper bounds on the minimum


def closeness(
    g: Graph,
    kind: str,
    epsilon: Fraction | float,
    seed: int = 0,
    restarts: int = 20,
) -> ClosenessReport:
    """Minimize e(A) (bipartite) or e(A, complement) (two_cliques) over
    all A with |A| = floor(n/2).  Up to n = 24 the minimum is exact and A
    is the lexicographically first minimiser, found by meet in the middle
    (``_closeness_exact``); above, a seeded swap search with restarts
    gives an upper bound."""
    if kind not in CLOSENESS_KINDS:
        raise InputError(f"kind must be one of {CLOSENESS_KINDS}, got {kind!r}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    epsilon = _nonnegative("epsilon", epsilon)
    n = g.n
    k = n // 2
    if n == 0:
        return ClosenessReport(kind, epsilon, frozenset(), 0, True, True)
    if n <= EXACT_CLOSENESS_MAX_N:
        best_mask, best_score = _closeness_exact(g, kind, k)
        exact = True
    else:
        best_mask, best_score = _closeness_heuristic(g, kind, k, seed, restarts)
        exact = False
    close = Fraction(best_score) <= epsilon * n * n
    return ClosenessReport(kind, epsilon, set_of(best_mask), best_score, close, exact)


def _half_tables(adj_mat: np.ndarray, degs: np.ndarray, lo: int, hi: int, c: float):
    """Every X within the vertices lo..hi-1, grouped by |X|: for each
    size j, (masks, bit rows, deg(X) + c e(X)) with the rows sorted
    lexicographically, which is ascending combination order."""
    import numpy as np

    h = hi - lo
    masks = np.arange(1 << h, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(h)) & 1).astype(np.float32)
    inner = adj_mat[lo:hi, lo:hi]
    # deg(X) + c e(X), with 2 e(X) = sum over X of the row counts in X
    values = bits @ degs[lo:hi] + (c / 2) * ((bits @ inner) * bits).sum(axis=1)
    # lexicographic order is descending weight sum_{v in X} 2^(h-1-v)
    order = np.argsort(-(bits @ 2.0 ** np.arange(h - 1, -1, -1)), kind="stable")
    sizes = bits.sum(axis=1)[order]
    groups = []
    for j in range(h + 1):
        idx = order[sizes == j]
        groups.append((masks[idx] << lo, bits[idx], values[idx]))
    return groups


def _closeness_exact(g: Graph, kind: str, k: int) -> tuple[int, int]:
    """The lexicographically first |A| = k set of minimum score, by meet
    in the middle: A = X u Y with X within L = {0..n//2-1} and Y within
    the rest R.  The score is a(X) + a(Y) + c e(X, Y), with a = e and
    c = 1 for bipartite (e(A)) and a = deg - 2e and c = -2 for
    two_cliques (e(A, complement) = deg(A) - 2 e(A)); for each |X| = j
    one (X @ A_LR) @ Y^T block holds every e(X, Y).  All entries are
    integers below 2^24, so float32 is exact."""
    import numpy as np

    n = g.n
    half = n // 2
    adj_mat = _bit_matrix(g.adj, n)
    if kind == "bipartite":
        degs, c = np.zeros(n, dtype=np.float32), 1.0
    else:
        degs, c = np.array(g.degrees(), dtype=np.float32), -2.0
    left = _half_tables(adj_mat, degs, 0, half, c)
    right = _half_tables(adj_mat, degs, half, n, c)
    cross = adj_mat[:half, half:]
    # complement symmetry halves the two-cliques search when n is even:
    # a minimiser's complement is one too, and the first contains vertex 0
    must = 1 if kind == "two_cliques" and n % 2 == 0 else 0
    # rows and columns run in lexicographic order and L precedes R, so
    # argmin's first hit is the block's lexicographically first minimiser
    best_mask, best_score = -1, None
    for j in range(max(must, k - (n - half)), min(half, k) + 1):
        xmasks, xbits, xvals = left[j]
        if must:
            keep = (xmasks & must) != 0
            xmasks, xbits, xvals = xmasks[keep], xbits[keep], xvals[keep]
        ymasks, ybits, yvals = right[k - j]
        block = (xbits @ cross) @ ybits.T
        block *= c
        block += xvals[:, None]
        block += yvals[None, :]
        i, col = divmod(int(np.argmin(block)), block.shape[1])
        mask, score = int(xmasks[i] | ymasks[col]), int(block[i, col])
        # of two equal-sized sets, the one holding the smallest vertex of
        # their symmetric difference is lexicographically first
        diff = mask ^ best_mask
        first = mask & diff & -diff
        if best_score is None or score < best_score or (score == best_score and first):
            best_mask, best_score = mask, score
    assert best_score is not None
    return best_mask, best_score


def _closeness_heuristic(
    g: Graph, kind: str, k: int, seed: int, restarts: int
) -> tuple[int, int]:
    """A seeded first-improvement swap search from each start: the
    degree order both ways, the largest components first, then random
    draws.  The score is c1 deg(A) + c2 e(A), with (c1, c2) = (0, 1) for
    bipartite and (1, -2) for two_cliques, as in ``_closeness_exact``.
    d_A(v) = |N(v) n A| is kept, so a swap (u out, w in) scores
    c1 (d(w) - d(u)) + c2 (d_A(w) - d_A(u) - [uw in E]) in O(1)."""
    n = g.n
    adj = g.adj
    degs = g.degrees()
    c1, c2 = (0, 1) if kind == "bipartite" else (1, -2)
    rng = random.Random(seed)
    order = sorted(range(n), key=lambda v: (-degs[v], v))
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
        inside = [(row & amask).bit_count() for row in adj]
        while True:
            ins = list(iter_bits(((1 << n) - 1) & ~amask))
            outs = list(iter_bits(amask))
            rng.shuffle(ins)
            rng.shuffle(outs)
            gain = [c1 * d + c2 * d_a for d, d_a in zip(degs, inside)]
            swap = next(((u, w) for u in outs for w in ins
                         if gain[w] - gain[u] < c2 * (adj[u] >> w & 1)), None)
            if swap is None:
                break
            u, w = swap
            amask ^= 1 << u | 1 << w
            for x in iter_bits(adj[u]):
                inside[x] -= 1
            for x in iter_bits(adj[w]):
                inside[x] += 1
        score = sum(2 * c1 * degs[v] + c2 * inside[v] for v in iter_bits(amask)) // 2
        if best_score is None or score < best_score:
            best_mask, best_score = amask, score
    assert best_score is not None
    return best_mask, best_score


# ---------------------------------------------------------------------------
# The minimum-degree trichotomy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrichotomyResult:
    label: str
    bipartite: ClosenessReport | None
    cliques: ClosenessReport | None
    expander: ExpanderVerdict | None


def trichotomy_classify(
    g: Graph,
    kappa: Fraction | float,
    nu: Fraction | float,
    tau: Fraction | float,
    epsilon: Fraction | float,
    seed: int = 0,
    mc_samples: int = 1000,
) -> TrichotomyResult:
    """Order of evaluation: close to the bipartite family, close to the
    two-clique family, robust expansion.  When none is established
    (possible at small n, or when only Monte-Carlo expansion evidence is
    available) the result is explicitly unclassified with all three
    sub-results attached.  Every parameter is checked first, whatever
    the graph."""
    kappa = _nonnegative("kappa", kappa)
    params = RobustParams(nu=nu, tau=tau)
    epsilon = _nonnegative("epsilon", epsilon)
    if Fraction(g.min_degree()) < (Fraction(1, 2) - kappa) * g.n:
        return TrichotomyResult("hypothesis_violated", None, None, None)
    bip = closeness(g, "bipartite", epsilon, seed=seed)
    if bip.close:
        return TrichotomyResult("close_bipartite", bip, None, None)
    cli = closeness(g, "two_cliques", epsilon, seed=seed)
    if cli.close:
        return TrichotomyResult("close_cliques", bip, cli, None)
    if g.n <= EXACT_EXPANDER_MAX_N:
        verdict = is_robust_expander_exact(g, params)
        if verdict.certified:
            return TrichotomyResult("robust_expander", bip, cli, verdict)
    else:
        verdict = refute_robust_expander_mc(g, params, samples=mc_samples, seed=seed)
    return TrichotomyResult("unclassified", bip, cli, verdict)
