"""Robust (nu,tau)-expansion certification, and balanced Eulerian
orientation.

A set S in the size window tau*n <= |S| <= (1-tau)*n must satisfy
|RN_nu(S)| >= |S| + nu*n, where RN_nu(S) collects the vertices with at
least nu*n neighbours inside S.  The exact checker walks all 2^n masks
in ascending order, 2^16 at a time: each chunk fixes the high bits, so
a vertex's neighbour count in S is its count in the high part plus a
lookup in one int8 table over the low 16 bits, built once per call.
Thresholds are exact integers, and every emitted witness is re-checked
against the definition as a rational.

Beyond the exact cap (n <= 22) the Monte-Carlo refuter can only
refute.  It tries structured candidates (the components and their
complements, cumulative unions of components, neighbourhoods,
degree-sorted prefixes and suffixes, BFS balls), then seeded random
subsets, as 0/1 rows: one rows @ adj product scores a block of 64, and
the first violating row is the witness.  A random subset is drawn from
n + 1 32-bit words of random.Random(seed).getrandbits, a whole block in
one call (_random_rows): the first word picks the size k in the window,
and the members are the k vertices with the smallest (word, vertex)
keys.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .core import Graph, mask_of, set_of
from .errors import CapacityError, InputError, InternalError
from .exactcmp import as_fraction
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
        nu, tau = as_fraction(self.nu), as_fraction(self.tau)
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


def _assert_witness(adj: tuple[int, ...], n: int, params: RobustParams, s: frozenset[int]) -> None:
    """Re-check a refuting set against the definition, as rationals:
    it must fail |RN_nu(S)| >= |S| + nu*n.  The one robust-neighbourhood
    count: the vertices with at least nu*n neighbours in S."""
    smask, thr = mask_of(s, n), _ceil_frac(params.nu * n)
    rn = sum((row & smask).bit_count() >= thr for row in adj)
    if Fraction(rn) >= len(s) + params.nu * n:
        raise InternalError("emitted witness fails re-validation")


# ---------------------------------------------------------------------------
# Exact subset enumeration
# ---------------------------------------------------------------------------

def _bit_matrix(rows: Sequence[int], n: int) -> np.ndarray:
    """The 0/1 float32 matrix whose (u, v) entry is bit v of rows[u],
    unpacked from the rows' little-endian bytes in one call."""
    import numpy as np

    nb = (n + 7) // 8
    raw = np.frombuffer(b"".join(r.to_bytes(nb, "little") for r in rows), dtype=np.uint8)
    bits = np.unpackbits(raw.reshape(len(rows), nb), axis=1, count=n, bitorder="little")
    return bits.astype(np.float32)


def is_robust_expander_exact(g: Graph, params: RobustParams) -> ExpanderVerdict:
    """Certify or refute robust (nu,tau)-expansion by full enumeration,
    in ascending bitmask order, 2^16 masks per chunk.  A chunk fixes the
    high bits, so v's neighbour count in S is its count in the fixed
    high part plus a lookup in one table over the low 16 bits.

    The refuting witness, when present, is the first violating subset
    in ascending bitmask order.
    """
    n, adj = g.n, g.adj
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
    # low_counts[v, l]: neighbours of v among the set bits of l, and
    # low_sizes[l]: the popcount of l, both doubled one low bit at a time
    credit = _bit_matrix(adj, n).astype(np.int8)  # symmetric: credit[u, v] = [uv in E]
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
        for v, row in enumerate(adj):
            # v is robust when its low count reaches need - its high count
            thr = need - (row & hmask).bit_count()
            if thr <= 0:
                always += 1
            else:
                robust += low_counts[v] >= thr
        bad = in_window & (robust < low_sizes + (hsize + need - always))
        if bad.any():
            witness = set_of(hmask | int(np.argmax(bad)))
            _assert_witness(adj, n, params, witness)
            return ExpanderVerdict(False, witness, "exact", examined)
    return ExpanderVerdict(True, None, "exact", examined)


# ---------------------------------------------------------------------------
# Monte-Carlo refutation for larger graphs
# ---------------------------------------------------------------------------

_BLOCK = 64  # candidate rows scored by one rows @ adj product
_GATHER_BYTES = 1 << 23  # adjacency bytes gathered by one BFS step


def _coerce(members: np.ndarray, kmin: int, kmax: int) -> np.ndarray:
    """Each 0/1 row moved into the size window: a row above kmax keeps
    its lowest kmax members, a row below kmin gains its lowest kmin - k
    non-members."""
    import numpy as np

    short = kmin - np.count_nonzero(members, axis=1)
    keep = members & (np.cumsum(members, axis=1) <= kmax)
    pad = ~members & (np.cumsum(~members, axis=1) <= short[:, None])
    return keep | pad


def _bfs_distances(member: np.ndarray) -> np.ndarray:
    """dist[v, u]: the BFS distance from v to u in the graph whose 0/1
    adjacency matrix is member, n when u is unreachable.  A group of
    roots advances one layer per step, and a step ORs together the
    packed adjacency rows of the (root, u) frontier pairs, so the search
    gathers each of the n^2 pairs at most once.  The group is as large
    as keeps one step's gathered rows within _GATHER_BYTES."""
    import numpy as np

    n = len(member)
    packed = np.packbits(member, axis=1, bitorder="little")
    reached = np.packbits(np.eye(n, dtype=bool), axis=1, bitorder="little")
    dist = np.full((n, n), n, dtype=np.int32)
    group = max(1, _GATHER_BYTES // max(1, packed.size))
    for first in range(0, n, group):
        roots = us = np.arange(first, min(n, first + group))
        dist[roots, us] = 0
        layer = 0
        while roots.size:
            layer += 1
            starts = np.flatnonzero(np.diff(roots, prepend=-1))
            owners = roots[starts]
            nxt = np.bitwise_or.reduceat(packed[us], starts, axis=0) & ~reached[owners]
            reached[owners] |= nxt
            # unpack only the nonzero bytes of the new layer
            hit, byte = np.nonzero(nxt)
            pick, bit = np.nonzero(np.unpackbits(nxt[hit, byte][:, None], axis=1, bitorder="little"))
            roots, us = owners[hit[pick]], 8 * byte[pick] + bit
            dist[roots, us] = layer
    return dist


def _structured_subsets(g: Graph, kmin: int, kmax: int, adj: np.ndarray) -> Iterator[np.ndarray]:
    """Cheap witness candidates as 0/1 rows, one section at a time:
    the components and their complements, cumulative unions of the
    components, open and closed neighbourhoods, degree-sorted prefixes
    and suffixes, then BFS balls.  Every set is coerced into the size
    window (_coerce), and a set already yielded is dropped.  A section
    is built only once the caller asks for it, so a graph refuted by an
    early candidate never pays for the BFS balls."""
    import numpy as np

    n = g.n
    seen: set[bytes] = set()

    def fresh(members: np.ndarray) -> np.ndarray:
        rows = _coerce(members, kmin, kmax)
        keys = np.packbits(rows, axis=1, bitorder="little")
        keep = []
        for i, key in enumerate(keys):
            key = key.tobytes()
            if key not in seen:
                seen.add(key)
                keep.append(i)
        return rows[keep]

    comps = g.components()
    inside = _bit_matrix(comps, n) > 0
    yield fresh(np.stack([inside, ~inside], axis=1).reshape(2 * len(comps), n))
    # cumulative unions of components catch many-small-component graphs
    # whose individual pieces all sit below the size window
    sizes = [c.bit_count() for c in comps]
    unions = []
    for reverse in (False, True):
        acc = size = 0
        for i in sorted(range(len(comps)), key=sizes.__getitem__, reverse=reverse):
            acc |= comps[i]
            size += sizes[i]
            if size >= kmin:
                unions.append(acc)
            if size > kmax:
                break
    yield fresh(_bit_matrix(unions, n) > 0)
    member = adj > 0
    yield fresh(np.stack([member, member | np.eye(n, dtype=bool)], axis=1).reshape(2 * n, n))
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(-np.count_nonzero(member, axis=1), kind="stable")] = np.arange(n)
    ks = (kmin, (kmin + kmax) // 2, kmax)
    yield fresh(np.array([part for k in ks for part in (rank < k, rank >= n - k)]))
    if n:
        # BFS balls around each vertex, clipped at kmin and at kmax: a
        # ball's order is by distance, ties by index
        dist = _bfs_distances(member)
        key = dist * n + np.arange(n, dtype=np.int32)
        ranked = np.sort(key, axis=1)
        balls = np.stack([key <= ranked[:, [k - 1]] for k in (kmin, kmax)], axis=1)
        whole = np.count_nonzero(dist < n, axis=1)
        yield fresh(balls[np.stack([whole >= kmin, whole >= kmax], axis=1)])


def _random_rows(
    getrandbits: Callable[[int], int], n: int, kmin: int, kmax: int, count: int
) -> np.ndarray:
    """count seeded random candidates as 0/1 rows, from one
    getrandbits(32 * (n + 1) * count) call read as count rows of n + 1
    little-endian 32-bit words: the same words, and the same generator
    state after, as that many getrandbits(32) calls.  In each row, word 0
    gives the size k = kmin + floor(w * width / 2^32), width = kmax -
    kmin + 1, and word v + 1 gives vertex v its key (w, v); the members
    are the k vertices with the smallest keys.  So k is uniform on the
    window (up to a bias below width / 2^32), the members are a uniform
    k-subset, and a row does not depend on how many are drawn at once."""
    import numpy as np

    words = np.frombuffer(
        getrandbits(32 * (n + 1) * count).to_bytes(4 * (n + 1) * count, "little"), dtype="<u4"
    ).reshape(count, n + 1)
    k = kmin + (words[:, 0].astype(np.int64) * (kmax - kmin + 1) >> 32)
    # column v + 1 holds v's key as one integer, w * 2^32 + v + 1, which
    # orders as (w, v); column 0 becomes a sentinel above every key, so
    # the sorted row's column k is the least key of a non-member
    keys = words.astype(np.uint64) << np.uint64(32) | np.arange(n + 1, dtype=np.uint64)
    keys[:, 0] = np.iinfo(np.uint64).max
    cut = np.sort(keys, axis=1)[np.arange(count), k]
    return keys[:, 1:] < cut[:, None]


def refute_robust_expander_mc(
    g: Graph, params: RobustParams, samples: int, seed: int
) -> ExpanderVerdict:
    """Search for a refuting subset: structured candidates first, then
    ``samples`` seeded random subsets, drawn by _random_rows from
    random.Random(seed).getrandbits.  Candidates are 0/1 rows scored _BLOCK
    at a time: rows @ adj counts every vertex's neighbours in each set,
    and the first violating row is the witness.  ``samples`` in the verdict
    counts the candidates up to and including the witness.  Never
    certifies; no witness means the run is inconclusive."""
    if samples < 1:
        raise InputError(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    n = g.n
    kmin, kmax = _window(n, params.tau)
    if kmin > kmax or kmin > n or kmax < 0:
        return ExpanderVerdict(False, None, "monte_carlo", 0)
    import numpy as np

    need = _ceil_frac(params.nu * n)
    adj = _bit_matrix(g.adj, n)

    def blocks() -> Iterator[np.ndarray]:
        for section in _structured_subsets(g, kmin, kmax, adj):
            for start in range(0, len(section), _BLOCK):
                yield section[start : start + _BLOCK]
        getrandbits = random.Random(seed).getrandbits
        for start in range(0, samples, _BLOCK):
            yield _random_rows(getrandbits, n, kmin, kmax, min(_BLOCK, samples - start))

    tried = 0
    for block in blocks():
        counts = block.astype(np.float32) @ adj
        # |RN| and |S| are integers, so |RN| < |S| + nu*n iff |RN| < |S| + need
        bad = np.count_nonzero(counts >= need, axis=1) < np.count_nonzero(block, axis=1) + need
        if bad.any():
            i = int(bad.argmax())
            witness = frozenset(np.flatnonzero(block[i]).tolist())
            _assert_witness(g.adj, n, params, witness)
            return ExpanderVerdict(False, witness, "monte_carlo", tried + i + 1)
        tried += len(block)
    return ExpanderVerdict(False, None, "monte_carlo", tried)


# ---------------------------------------------------------------------------
# Derived parameters and orientation
# ---------------------------------------------------------------------------

def min_degree_implies_expander_params(
    eps: Fraction | float, tau: Fraction | float
) -> RobustParams:
    """Largest nu with eps >= 2*nu/tau: any graph with min degree at
    least (1/2+eps)n is then a robust (nu,tau)-expander."""
    eps, tau = as_fraction(eps), as_fraction(tau)
    if not 0 < eps < Fraction(1, 2):
        raise InputError(f"need 0 < eps < 1/2, got eps={eps}")
    if not 0 < tau < 1:
        raise InputError(f"need 0 < tau < 1, got tau={tau}")
    return RobustParams(nu=eps * tau / 2, tau=tau)


def eulerian_orientation(g: Graph) -> list[int]:
    """Orient edges with |outdeg - indeg| <= 1 everywhere and exact
    balance at even-degree vertices; returns the out-neighbour rows
    (bit w of row v set when vw is oriented v -> w), audited for that
    balance.  The in-rows are ``g.adj[v] & ~out[v]``."""
    out = balanced_orientation_arcs(g, 0)[0]
    for v, (row, o) in enumerate(zip(g.adj, out)):
        if abs(2 * o.bit_count() - row.bit_count()) > 1:
            raise InternalError(f"orientation unbalanced at vertex {v}")
    return out
