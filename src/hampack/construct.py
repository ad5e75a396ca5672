"""Generators for every graph family used by the experiments.

The menagerie: the independent-class/matched-class packing bottleneck
graph, the degree-extremal two-class construction, circulants, seeded
binomial random graphs and the standard reference graphs (complete,
balanced complete bipartite, two disjoint cliques, the cycle).

Seeded generators use numpy's PCG64 stream so identical (n, p, seed)
triples reproduce bit-exactly across platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .core import Graph, Partition
from .errors import InputError, ParityError


def babai_graph(m: int) -> Graph:
    """Packing bottleneck on n = 4m+2 vertices with minimum degree 2m+1.

    Class A = {0..2m-1} is independent, class B = {2m..4m+1} carries
    exactly the perfect matching (2m, 2m+1), (2m+2, 2m+3), ...; all A-B
    edges are present.  Any Hamilton cycle must spend at least two of
    B's matching edges, which caps edge-disjoint packings at
    floor((m+1)/2).
    """
    if m < 1:
        raise InputError(f"m must be >= 1, got {m}")
    a_size = 2 * m
    b_size = 2 * m + 2
    n = a_size + b_size
    edges = []
    for u in range(a_size):
        for v in range(a_size, n):
            edges.append((u, v))
    for i in range(a_size, n, 2):
        edges.append((i, i + 1))
    return Graph(n, edges)


@dataclass(frozen=True)
class ExtremalSpec:
    """Derived parameters of the two-class extremal construction."""

    n: int
    delta: int
    Delta: int          # size of class B
    inner_degree: int   # regularity of the graph induced on B

    @property
    def a_size(self) -> int:
        return self.n - self.Delta


def extremal_spec(n: int, delta: int) -> ExtremalSpec:
    """Smallest Delta with Delta*(delta+Delta-n) even and
    Delta >= (n + sqrt(n(2*delta-n)))/2, computed in exact integer
    arithmetic on the squared form."""
    if not n / 2 < delta < n:
        raise InputError(f"need n/2 < delta < n, got n={n}, delta={delta}")
    x = n * (2 * delta - n)
    # smallest Delta with (2*Delta - n)^2 >= x and 2*Delta >= n
    root = isqrt(x)
    if root * root < x:
        root += 1  # ceil(sqrt(x))
    Delta = (n + root + 1) // 2 if (n + root) % 2 else (n + root) // 2
    while (2 * Delta - n) ** 2 < x:
        Delta += 1
    while Delta * (delta + Delta - n) % 2:
        Delta += 1
    if Delta > n:
        raise InputError(f"no valid class size for n={n}, delta={delta}")
    return ExtremalSpec(n=n, delta=delta, Delta=Delta, inner_degree=delta + Delta - n)


def circulant_regular(k: int, d: int) -> Graph:
    """d-regular circulant on Z_k: offsets ±1..±floor(d/2), plus the
    antipodal offset k/2 when d is odd (k is then forced even)."""
    if not 0 <= d < k:
        raise InputError(f"need 0 <= d < k, got k={k}, d={d}")
    if (k * d) % 2:
        raise ParityError(f"k*d must be even, got k={k}, d={d}")
    edges = set()
    for off in range(1, d // 2 + 1):
        for v in range(k):
            u = (v + off) % k
            edges.add((min(u, v), max(u, v)))
    if d % 2:
        half = k // 2
        for v in range(half):
            edges.add((v, v + half))
    return Graph(k, sorted(edges))


def extremal_graph(n: int, delta: int) -> tuple[Graph, ExtremalSpec, Partition]:
    """Two-class construction with minimum degree exactly delta.

    A = {0..n-Delta-1} is independent, B = {n-Delta..n-1} induces the
    inner_degree-regular circulant, and A-B is complete bipartite.  The
    inner regular graph is fixed to the circulant for reproducibility.
    """
    spec = extremal_spec(n, delta)
    a_size = spec.a_size
    inner = circulant_regular(spec.Delta, spec.inner_degree)
    edges = []
    for u in range(a_size):
        for v in range(a_size, n):
            edges.append((u, v))
    for u, v in inner.edges():
        edges.append((a_size + u, a_size + v))
    g = Graph(n, edges)
    part = Partition(frozenset(range(a_size)), frozenset(range(a_size, n)))
    return g, spec, part


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Binomial random graph: each pair kept independently with
    probability p, reproducibly from the seed."""
    if not 0 <= p <= 1:
        raise InputError(f"probability must be in [0,1], got {p}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    import numpy as np

    rng = np.random.default_rng(seed)
    edges = []
    if n >= 2:
        draws = rng.random(n * (n - 1) // 2)
        i = 0
        for u in range(n):
            for v in range(u + 1, n):
                if draws[i] < p:
                    edges.append((u, v))
                i += 1
    return Graph(n, edges)


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(n: int) -> Graph:
    """K_{n/2,n/2}; sides {0..n/2-1} and {n/2..n-1}."""
    if n % 2:
        raise InputError(f"n must be even for the balanced bipartite graph, got {n}")
    h = n // 2
    return Graph(n, [(u, v) for u in range(h) for v in range(h, n)])


def two_cliques(n: int) -> Graph:
    """Disjoint union of two cliques on n/2 vertices each."""
    if n % 2:
        raise InputError(f"n must be even for two equal cliques, got {n}")
    h = n // 2
    edges = [(u, v) for u in range(h) for v in range(u + 1, h)]
    edges += [(u, v) for u in range(h, n) for v in range(u + 1, n)]
    return Graph(n, edges)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError(f"cycle needs n >= 3, got {n}")
    return Graph(n, [(v, (v + 1) % n) if v + 1 < n else (0, n - 1) for v in range(n)])


REFERENCE_KINDS = ("complete", "complete_bipartite", "two_cliques", "cycle")


def reference_graph(n: int, kind: str) -> Graph:
    """One of the fixed reference targets used by the closeness checks."""
    if n < 3:
        raise InputError(f"reference graphs need n >= 3, got {n}")
    if kind == "complete":
        return complete_graph(n)
    if kind == "complete_bipartite":
        return complete_bipartite(n)
    if kind == "two_cliques":
        return two_cliques(n)
    if kind == "cycle":
        return cycle_graph(n)
    raise InputError(f"unknown reference kind {kind!r}; choose from {REFERENCE_KINDS}")
